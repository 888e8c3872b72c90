"""The collective op table: one :class:`CollectiveSpec` row per public
collective of the paper's Listing 1.

Part of the op-surface layer (``docs/INTERNALS.md`` §15), split out of
:mod:`repro.core.comm` so the declarative table — op family, the call's
``key`` (argument checks, rendezvous meta, wire size) and ``build``
(buffers, datapath mover), hierarchical capability, and the
``force_host``/``compressible``/``vector`` flags — reads as data.
Adding an op family is one ``key`` and one ``build`` plus one table row
here; the shared pre-dispatch hook chain and every dispatch/execution
feature (plan cache, fault failover, adaptive accounting) apply
automatically.

Layering: this module may import the execution layer (for the
:class:`~repro.core.rendezvous.Arrival` type the movers receive) but
never :mod:`repro.core.comm` or :mod:`repro.core.dispatch`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from repro.backends import datapath
from repro.backends.ops import OpFamily, ReduceOp
from repro.core.exceptions import ValidationError
from repro.core.rendezvous import Arrival, flat_buffer
from repro.tensor import SimTensor

@dataclass(slots=True)
class _Prepared:
    """One collective call's data plane, built on its key only where an
    arrival needs it: the buffers and mover of a real-data call, an
    alltoallv's counts, a composite's tensors.  A timing-only post
    builds none (INTERNALS §5)."""

    #: ``(meta, nbytes, timing_only)``, as the row's ``key`` returned it
    key: tuple
    inputs: list[np.ndarray]
    outputs: list[np.ndarray]
    move: Callable[[list[Arrival]], None]
    tensors: tuple = ()
    extras: Optional[dict] = None


@dataclass(frozen=True)
class CollectiveSpec:
    """Declarative description of one public collective.

    Adding an op family is one table row plus its ``key`` and ``build``
    functions, and the shared pre-dispatch hook chain applies
    automatically; no other layer changes.
    """

    name: str
    family: OpFamily
    #: ``key(comm, *args) -> (meta, nbytes, timing_only)``: every check
    #: of the public arguments, and what a plan is looked up by
    key: Callable[..., tuple]
    #: ``build(comm, key, *args) -> _Prepared``: the buffers and the
    #: datapath mover of a call ``key`` has checked
    build: Callable[..., _Prepared]
    #: hierarchically decomposable (hier:<intra>+<inter>)
    hier: bool = False
    #: lossy compression may shrink its wire (gradients tolerate loss;
    #: indices and gathered parameters do not)
    compressible: bool = False
    force_host: bool = False
    vector: bool = False

    def prepare(self, comm, *args) -> _Prepared:
        """Check a call and build its data plane."""
        return self.build(comm, self.key(comm, *args), *args)


# ---------------------------------------------------------------------------
# per-op keys (validation, meta, nbytes) and builds (buffers, mover)
# ---------------------------------------------------------------------------


def _numel(tensor: SimTensor) -> int:
    """The element count of a tensor argument, or the TypeError of one
    that is no tensor.  A key reads a virtual tensor's count inline,
    ``getattr(t, "virtual_numel", None) or _numel(t)``, so a timing-only
    post makes no call for it."""
    if not isinstance(tensor, SimTensor):
        raise TypeError(f"expected SimTensor, got {type(tensor).__name__}")
    return tensor.numel()


def _check_root(comm, root: int) -> None:
    if not 0 <= root < comm.world_size:
        raise ValidationError(f"root {root} out of range [0, {comm.world_size})")


def _virtual(*tensors: Optional[SimTensor]) -> bool:
    """Whether any tensor passed (None: not passed) is virtual."""
    return any(t is not None and t.virtual_numel is not None for t in tensors)


def _prepared(key: tuple, move, input, output, extras: Optional[dict] = None) -> _Prepared:
    """The data plane of a call with one input and one output tensor
    (None: no buffer on this rank; an in-place call passes one twice)."""
    ins = [] if input is None else [flat_buffer(input)]
    outs = ins if output is input else [] if output is None else [flat_buffer(output)]
    return _Prepared(key, ins, outs, move, (input, output), extras)


def _ins(arrivals: list[Arrival]) -> list[np.ndarray]:
    return [a.inputs[0] for a in arrivals]


def _outs(arrivals: list[Arrival]) -> list[np.ndarray]:
    return [a.outputs[0] for a in arrivals]


def _key_all_reduce(comm, tensor: SimTensor, op: ReduceOp) -> tuple:
    numel = getattr(tensor, "virtual_numel", None) or _numel(tensor)
    meta = ("allreduce", numel, tensor.dtype.name, op.code)
    return meta, numel * tensor.dtype.itemsize, tensor.virtual_numel is not None


def _build_all_reduce(comm, key: tuple, tensor: SimTensor, op: ReduceOp) -> _Prepared:
    return _prepared(key, lambda a: datapath.all_reduce(_ins(a), _outs(a), op), tensor, tensor)


def _key_reduce(comm, tensor: SimTensor, root: int, op: ReduceOp) -> tuple:
    _check_root(comm, root)
    numel = getattr(tensor, "virtual_numel", None) or _numel(tensor)
    meta = ("reduce", numel, tensor.dtype.name, op.code, root)
    return meta, numel * tensor.dtype.itemsize, tensor.virtual_numel is not None


def _build_reduce(comm, key: tuple, tensor: SimTensor, root: int, op: ReduceOp) -> _Prepared:
    return _prepared(
        key, lambda a: datapath.reduce(_ins(a), a[root].outputs[0], op),
        tensor, tensor,
    )


def _key_bcast(comm, tensor: SimTensor, root: int) -> tuple:
    _check_root(comm, root)
    numel = getattr(tensor, "virtual_numel", None) or _numel(tensor)
    meta = ("bcast", numel, tensor.dtype.name, root)
    return meta, numel * tensor.dtype.itemsize, tensor.virtual_numel is not None


def _build_bcast(comm, key: tuple, tensor: SimTensor, root: int) -> _Prepared:
    return _prepared(key, lambda a: datapath.broadcast(a[root].inputs[0], _outs(a)), tensor, tensor)


def _key_all_gather(comm, output: SimTensor, input: SimTensor) -> tuple:
    numel = getattr(input, "virtual_numel", None) or _numel(input)
    out_numel = getattr(output, "virtual_numel", None) or _numel(output)
    if out_numel != numel * comm.world_size:
        raise ValidationError(
            f"all_gather: output numel {out_numel} != {comm.world_size} * {numel}"
        )
    virtual = input.virtual_numel is not None or output.virtual_numel is not None
    return ("all_gather", numel, input.dtype.name), numel * input.dtype.itemsize, virtual


def _build_all_gather(comm, key: tuple, output: SimTensor, input: SimTensor) -> _Prepared:
    return _prepared(key, lambda a: datapath.all_gather(_ins(a), _outs(a)), input, output)


def _key_reduce_scatter(comm, output: SimTensor, input: SimTensor, op: ReduceOp) -> tuple:
    numel = getattr(input, "virtual_numel", None) or _numel(input)
    out_numel = getattr(output, "virtual_numel", None) or _numel(output)
    if numel != out_numel * comm.world_size:
        raise ValidationError(
            f"reduce_scatter: input numel {numel} != {comm.world_size} * {out_numel}"
        )
    meta = ("reduce_scatter", numel, input.dtype.name, op.code)
    virtual = input.virtual_numel is not None or output.virtual_numel is not None
    return meta, numel * input.dtype.itemsize, virtual


def _build_reduce_scatter(comm, key: tuple, output, input, op: ReduceOp) -> _Prepared:
    return _prepared(key, lambda a: datapath.reduce_scatter(_ins(a), _outs(a), op), input, output)


def _key_all_to_all_single(comm, output: SimTensor, input: SimTensor) -> tuple:
    numel = getattr(input, "virtual_numel", None) or _numel(input)
    out_numel = getattr(output, "virtual_numel", None) or _numel(output)
    if numel != out_numel:
        raise ValidationError("all_to_all_single: input/output numel differ")
    if numel % comm.world_size != 0:
        raise ValidationError(
            f"all_to_all_single: numel {numel} not divisible by "
            f"world size {comm.world_size}"
        )
    meta = ("all_to_all_single", numel, input.dtype.name)
    virtual = input.virtual_numel is not None or output.virtual_numel is not None
    return meta, numel * input.dtype.itemsize, virtual


def _build_all_to_all_single(comm, key: tuple, output, input) -> _Prepared:
    return _prepared(key, lambda a: datapath.all_to_all_single(_ins(a), _outs(a)), input, output)


def _key_all_to_all(comm, output: Sequence[SimTensor], input: Sequence[SimTensor]) -> tuple:
    if len(input) != comm.world_size or len(output) != comm.world_size:
        raise ValidationError(
            f"all_to_all: need {comm.world_size} tensors per list, got "
            f"{len(input)}/{len(output)}"
        )
    tensors = (*input, *output)
    for t in tensors:
        _numel(t)  # each one a tensor
    return ("all_to_all", comm.world_size), sum(t.nbytes() for t in input), _virtual(*tensors)


def _build_all_to_all(comm, key: tuple, output, input) -> _Prepared:
    def move(arrivals: list[Arrival]) -> None:
        p = len(arrivals)
        for i in range(p):
            for j in range(p):
                src = arrivals[i].inputs[j]
                dst = arrivals[j].outputs[i]
                if src.size != dst.size:
                    raise ValidationError(
                        f"all_to_all: rank {i}->rank {j} size mismatch "
                        f"({src.size} vs {dst.size})"
                    )
        staged = [[np.array(b, copy=True) for b in a.inputs] for a in arrivals]
        for i in range(p):
            for j in range(p):
                arrivals[j].outputs[i][:] = staged[i][j]

    ins, outs = [flat_buffer(t) for t in input], [flat_buffer(t) for t in output]
    return _Prepared(key, ins, outs, move, (*input, *output))


def _key_gather(comm, input: SimTensor, output: Optional[SimTensor], root: int) -> tuple:
    _check_root(comm, root)
    numel = _numel(input)
    if comm.rank == root:
        if output is None:
            raise ValidationError("gather: root must pass an output tensor")
        if _numel(output) != numel * comm.world_size:
            raise ValidationError("gather: root output numel mismatch")
    meta = ("gather", numel, input.dtype.name, root)
    return meta, numel * input.dtype.itemsize, _virtual(input, output)


def _build_gather(comm, key: tuple, input, output, root: int) -> _Prepared:
    return _prepared(
        key, lambda a: datapath.gather(_ins(a), a[root].outputs[0]),
        input, output if comm.rank == root else None,
    )


def _key_scatter(comm, output: SimTensor, input: Optional[SimTensor], root: int) -> tuple:
    _check_root(comm, root)
    numel = _numel(output)
    if comm.rank == root:
        if input is None:
            raise ValidationError("scatter: root must pass an input tensor")
        if _numel(input) != numel * comm.world_size:
            raise ValidationError("scatter: root input numel mismatch")
    meta = ("scatter", numel, output.dtype.name, root)
    return meta, numel * output.dtype.itemsize, _virtual(input, output)


def _build_scatter(comm, key: tuple, output, input, root: int) -> _Prepared:
    return _prepared(
        key, lambda a: datapath.scatter(a[root].inputs[0], _outs(a)),
        input if comm.rank == root else None, output,
    )


def _key_gatherv(comm, input, output, rcounts, displs, root: int) -> tuple:
    _check_root(comm, root)
    bound = output.numel() if comm.rank == root and output is not None else None
    rcounts, displs = comm._check_v_args(rcounts, displs, bound, "root output")
    if _numel(input) < rcounts[comm.rank]:
        raise ValidationError(f"gatherv: rank {comm.rank} input smaller than rcount")
    if comm.rank == root and output is None:
        raise ValidationError("gatherv: root must pass an output tensor")
    meta = ("gatherv", tuple(rcounts), tuple(displs), input.dtype.name, root)
    return meta, max(rcounts) * input.element_size(), _virtual(input, output)


def _build_gatherv(comm, key: tuple, input, output, rcounts, displs, root: int) -> _Prepared:
    _, rcounts, displs, _, _ = key[0]  # as the key checked them
    return _prepared(
        key, lambda a: datapath.gather_v(_ins(a), a[root].outputs[0], rcounts, displs),
        input, output if comm.rank == root else None,
    )


def _key_scatterv(comm, output, input, scounts, displs, root: int) -> tuple:
    _check_root(comm, root)
    bound = input.numel() if comm.rank == root and input is not None else None
    scounts, displs = comm._check_v_args(scounts, displs, bound, "root input")
    if _numel(output) < scounts[comm.rank]:
        raise ValidationError(f"scatterv: rank {comm.rank} output smaller than scount")
    if comm.rank == root and input is None:
        raise ValidationError("scatterv: root must pass an input tensor")
    meta = ("scatterv", tuple(scounts), tuple(displs), output.dtype.name, root)
    return meta, max(scounts) * output.element_size(), _virtual(input, output)


def _build_scatterv(comm, key: tuple, output, input, scounts, displs, root: int) -> _Prepared:
    _, scounts, displs, _, _ = key[0]  # as the key checked them
    return _prepared(
        key, lambda a: datapath.scatter_v(a[root].inputs[0], _outs(a), scounts, displs),
        input if comm.rank == root else None, output,
    )


def _key_all_gatherv(comm, output, input, rcounts, displs) -> tuple:
    rcounts, displs = comm._check_v_args(rcounts, displs, output.numel(), "output")
    _numel(input)  # a tensor
    meta = ("all_gatherv", tuple(rcounts), tuple(displs), input.dtype.name)
    return meta, max(rcounts) * input.element_size(), _virtual(input, output)


def _build_all_gatherv(comm, key: tuple, output, input, rcounts, displs) -> _Prepared:
    _, rcounts, displs, _ = key[0]  # as the key checked them
    return _prepared(
        key, lambda a: datapath.all_gather_v(_ins(a), _outs(a), rcounts, displs),
        input, output,
    )


def _key_all_to_allv(comm, output, input, scounts, sdispls, rcounts, rdispls) -> tuple:
    scounts = comm._check_v_args(scounts, sdispls, input.numel(), "input")[0]
    comm._check_v_args(rcounts, rdispls, output.numel(), "output")
    meta = ("all_to_allv", comm.world_size, input.dtype.name)
    return meta, sum(scounts) * input.element_size(), _virtual(input, output)


def _build_all_to_allv(comm, key: tuple, output, input, scounts, sdispls, rcounts, rdispls):
    # timing-only too: the resolver reads every rank's send counts
    scounts, sdispls = comm._check_v_args(scounts, sdispls)
    rcounts, rdispls = comm._check_v_args(rcounts, rdispls)
    extras = {
        "scounts": scounts, "sdispls": sdispls, "rcounts": rcounts, "rdispls": rdispls,
        "_elem_size": input.element_size(),
    }

    def move(arrivals: list[Arrival]) -> None:
        rows = ("scounts", "sdispls", "rcounts", "rdispls")
        rows = [[a.extras[row] for a in arrivals] for row in rows]
        datapath.all_to_all_v(_ins(arrivals), _outs(arrivals), *rows)

    return _prepared(key, move, input, output, extras)


def _key_barrier(comm) -> tuple:
    return ("barrier",), 0, False


def _build_barrier(comm, key: tuple) -> _Prepared:
    return _Prepared(key, [], [], lambda arrivals: None)


# ---------------------------------------------------------------------------
# the op table (one row per public collective)
# ---------------------------------------------------------------------------

_ALL_REDUCE = CollectiveSpec(
    "all_reduce", OpFamily.ALLREDUCE, _key_all_reduce, _build_all_reduce,
    hier=True, compressible=True,
)
_REDUCE = CollectiveSpec("reduce", OpFamily.REDUCE, _key_reduce, _build_reduce)
_BCAST = CollectiveSpec("bcast", OpFamily.BROADCAST, _key_bcast, _build_bcast, hier=True)
_ALL_GATHER = CollectiveSpec(
    "all_gather", OpFamily.ALLGATHER, _key_all_gather, _build_all_gather, hier=True
)
_REDUCE_SCATTER = CollectiveSpec(
    "reduce_scatter", OpFamily.REDUCE_SCATTER, _key_reduce_scatter, _build_reduce_scatter,
    compressible=True,
)
_ALL_TO_ALL_SINGLE = CollectiveSpec(
    "all_to_all_single", OpFamily.ALLTOALL, _key_all_to_all_single,
    _build_all_to_all_single, hier=True,
)
_ALL_TO_ALL = CollectiveSpec("all_to_all", OpFamily.ALLTOALL, _key_all_to_all, _build_all_to_all)
_GATHER = CollectiveSpec("gather", OpFamily.GATHER, _key_gather, _build_gather)
_SCATTER = CollectiveSpec("scatter", OpFamily.SCATTER, _key_scatter, _build_scatter)
_GATHERV = CollectiveSpec(
    "gatherv", OpFamily.GATHER, _key_gatherv, _build_gatherv, vector=True
)
_SCATTERV = CollectiveSpec(
    "scatterv", OpFamily.SCATTER, _key_scatterv, _build_scatterv, vector=True
)
_ALL_GATHERV = CollectiveSpec(
    "all_gatherv", OpFamily.ALLGATHER, _key_all_gatherv, _build_all_gatherv, vector=True
)
_ALL_TO_ALLV = CollectiveSpec(
    "all_to_allv", OpFamily.ALLTOALL, _key_all_to_allv, _build_all_to_allv, vector=True
)
_BARRIER = CollectiveSpec(
    "barrier", OpFamily.BARRIER, _key_barrier, _build_barrier, force_host=True
)

#: the rows a composite's phases post, by family, each with the builder
#: of its arguments from ``(out, src, root, op)`` (hier:* phase lists)
PHASE_OPS = {
    OpFamily.ALLREDUCE: (_ALL_REDUCE, lambda out, src, root, op: (out, op)),
    OpFamily.REDUCE: (_REDUCE, lambda out, src, root, op: (out, root, op)),
    OpFamily.BROADCAST: (_BCAST, lambda out, src, root, op: (out, root)),
    OpFamily.REDUCE_SCATTER: (_REDUCE_SCATTER, lambda out, src, root, op: (out, src, op)),
    OpFamily.ALLGATHER: (_ALL_GATHER, lambda out, src, root, op: (out, src)),
    OpFamily.ALLTOALL: (_ALL_TO_ALL_SINGLE, lambda out, src, root, op: (out, src)),
}
