"""The collective op table: one :class:`CollectiveSpec` row per public
collective of the paper's Listing 1.

Part of the op-surface layer (``docs/INTERNALS.md`` §15), split out of
:mod:`repro.core.comm` so the declarative table — op family, argument
validation/meta builder (``prepare``), datapath mover, hierarchical
capability, and the ``force_host``/``compressible``/``vector`` flags —
reads as data.  Adding an op family is one ``prepare`` builder plus one
table row here; the shared pre-dispatch hook chain and every dispatch/
execution feature (plan cache, fault failover, adaptive accounting)
apply automatically.

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
    """One validated collective call, ready for the dispatch layer:
    everything a :class:`CollectiveSpec`'s ``prepare`` derives from the
    public arguments."""

    nbytes: int
    inputs: list[np.ndarray]
    outputs: list[np.ndarray]
    move: Callable[[list[Arrival]], None]
    meta: tuple
    tensors: tuple = ()
    extras: Optional[dict] = None
    #: a virtual tensor is involved: time the call, move no data
    timing_only: bool = False


@dataclass(frozen=True)
class CollectiveSpec:
    """Declarative description of one public collective.

    Adding an op family is one table row plus a ``prepare`` builder —
    validation, meta layout, and the datapath mover in one place — and
    the shared pre-dispatch hook chain applies automatically; no other
    layer changes.
    """

    name: str
    family: OpFamily
    #: ``prepare(comm, *args) -> _Prepared``: validate the public
    #: arguments and build buffers, rendezvous meta, and the mover
    prepare: Callable[..., _Prepared]
    #: hierarchically decomposable (hier:<intra>+<inter>)
    hier: bool = False
    #: lossy compression may shrink its wire (gradients tolerate loss;
    #: indices and gathered parameters do not)
    compressible: bool = False
    force_host: bool = False
    vector: bool = False


# ---------------------------------------------------------------------------
# per-op prepare builders (validation + meta + datapath mover)
# ---------------------------------------------------------------------------


def _check_root(comm, root: int) -> None:
    if not 0 <= root < comm.world_size:
        raise ValidationError(f"root {root} out of range [0, {comm.world_size})")


def _virtual(*tensors: Optional[SimTensor]) -> bool:
    """Whether any tensor passed (None: not passed) is virtual."""
    return any(t is not None and t.virtual_numel is not None for t in tensors)


def _prep_all_reduce(comm, tensor: SimTensor, op: ReduceOp) -> _Prepared:
    buf, numel = flat_buffer(tensor)

    def move(arrivals: list[Arrival]) -> None:
        datapath.all_reduce([a.inputs[0] for a in arrivals], [a.outputs[0] for a in arrivals], op)

    return _Prepared(
        numel * tensor.dtype.itemsize, [buf], [buf], move,
        ("allreduce", numel, tensor.dtype.name, op.code), (tensor,),
        timing_only=tensor.virtual_numel is not None,
    )


def _prep_reduce(comm, tensor: SimTensor, root: int, op: ReduceOp) -> _Prepared:
    _check_root(comm, root)
    buf, numel = flat_buffer(tensor)

    def move(arrivals: list[Arrival]) -> None:
        datapath.reduce([a.inputs[0] for a in arrivals], arrivals[root].outputs[0], op)

    return _Prepared(
        numel * tensor.dtype.itemsize, [buf], [buf], move,
        ("reduce", numel, tensor.dtype.name, op.code, root), (tensor,),
        timing_only=tensor.virtual_numel is not None,
    )


def _prep_bcast(comm, tensor: SimTensor, root: int) -> _Prepared:
    _check_root(comm, root)
    buf, numel = flat_buffer(tensor)

    def move(arrivals: list[Arrival]) -> None:
        datapath.broadcast(arrivals[root].inputs[0], [a.outputs[0] for a in arrivals])

    return _Prepared(
        numel * tensor.dtype.itemsize, [buf], [buf], move,
        ("bcast", numel, tensor.dtype.name, root), (tensor,),
        timing_only=tensor.virtual_numel is not None,
    )


def _prep_all_gather(comm, output: SimTensor, input: SimTensor) -> _Prepared:
    (in_buf, numel), (out_buf, out_numel) = flat_buffer(input), flat_buffer(output)
    if out_numel != numel * comm.world_size:
        raise ValidationError(
            f"all_gather: output numel {out_numel} != {comm.world_size} * {numel}"
        )

    def move(arrivals: list[Arrival]) -> None:
        datapath.all_gather([a.inputs[0] for a in arrivals], [a.outputs[0] for a in arrivals])

    return _Prepared(
        numel * input.dtype.itemsize, [in_buf], [out_buf], move,
        ("all_gather", numel, input.dtype.name), (input, output),
        timing_only=input.virtual_numel is not None or output.virtual_numel is not None,
    )


def _prep_reduce_scatter(
    comm, output: SimTensor, input: SimTensor, op: ReduceOp
) -> _Prepared:
    (in_buf, numel), (out_buf, out_numel) = flat_buffer(input), flat_buffer(output)
    if numel != out_numel * comm.world_size:
        raise ValidationError(
            f"reduce_scatter: input numel {numel} != {comm.world_size} * {out_numel}"
        )

    def move(arrivals: list[Arrival]) -> None:
        datapath.reduce_scatter(
            [a.inputs[0] for a in arrivals], [a.outputs[0] for a in arrivals], op
        )

    return _Prepared(
        numel * input.dtype.itemsize, [in_buf], [out_buf], move,
        ("reduce_scatter", numel, input.dtype.name, op.code), (input, output),
        timing_only=input.virtual_numel is not None or output.virtual_numel is not None,
    )


def _prep_all_to_all_single(comm, output: SimTensor, input: SimTensor) -> _Prepared:
    (in_buf, numel), (out_buf, out_numel) = flat_buffer(input), flat_buffer(output)
    if numel != out_numel:
        raise ValidationError("all_to_all_single: input/output numel differ")
    if numel % comm.world_size != 0:
        raise ValidationError(
            f"all_to_all_single: numel {numel} not divisible by "
            f"world size {comm.world_size}"
        )

    def move(arrivals: list[Arrival]) -> None:
        datapath.all_to_all_single(
            [a.inputs[0] for a in arrivals], [a.outputs[0] for a in arrivals]
        )

    return _Prepared(
        numel * input.dtype.itemsize, [in_buf], [out_buf], move,
        ("all_to_all_single", numel, input.dtype.name), (input, output),
        timing_only=input.virtual_numel is not None or output.virtual_numel is not None,
    )


def _prep_all_to_all(
    comm, output: Sequence[SimTensor], input: Sequence[SimTensor]
) -> _Prepared:
    if len(input) != comm.world_size or len(output) != comm.world_size:
        raise ValidationError(
            f"all_to_all: need {comm.world_size} tensors per list, got "
            f"{len(input)}/{len(output)}"
        )
    in_bufs = [flat_buffer(t)[0] for t in input]
    out_bufs = [flat_buffer(t)[0] for t in output]
    nbytes = sum(t.nbytes() for t in input)
    tensors = (*input, *output)

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

    return _Prepared(
        nbytes, in_bufs, out_bufs, move,
        meta=("all_to_all", comm.world_size),
        tensors=tensors,
        timing_only=_virtual(*tensors),
    )


def _prep_gather(
    comm, input: SimTensor, output: Optional[SimTensor], root: int
) -> _Prepared:
    _check_root(comm, root)
    in_buf, numel = flat_buffer(input)
    out_bufs = []
    if comm.rank == root:
        if output is None:
            raise ValidationError("gather: root must pass an output tensor")
        out_buf, out_numel = flat_buffer(output)
        if out_numel != numel * comm.world_size:
            raise ValidationError("gather: root output numel mismatch")
        out_bufs = [out_buf]

    def move(arrivals: list[Arrival]) -> None:
        datapath.gather([a.inputs[0] for a in arrivals], arrivals[root].outputs[0])

    return _Prepared(
        numel * input.dtype.itemsize, [in_buf], out_bufs, move,
        ("gather", numel, input.dtype.name, root), (input, output),
        timing_only=_virtual(input, output),
    )


def _prep_scatter(
    comm, output: SimTensor, input: Optional[SimTensor], root: int
) -> _Prepared:
    _check_root(comm, root)
    out_buf, numel = flat_buffer(output)
    in_bufs = []
    if comm.rank == root:
        if input is None:
            raise ValidationError("scatter: root must pass an input tensor")
        in_buf, in_numel = flat_buffer(input)
        if in_numel != numel * comm.world_size:
            raise ValidationError("scatter: root input numel mismatch")
        in_bufs = [in_buf]

    def move(arrivals: list[Arrival]) -> None:
        datapath.scatter(arrivals[root].inputs[0], [a.outputs[0] for a in arrivals])

    return _Prepared(
        numel * output.dtype.itemsize, in_bufs, [out_buf], move,
        ("scatter", numel, output.dtype.name, root), (input, output),
        timing_only=_virtual(input, output),
    )


def _prep_gatherv(
    comm,
    input: SimTensor,
    output: Optional[SimTensor],
    rcounts: Optional[Sequence[int]],
    displs: Optional[Sequence[int]],
    root: int,
) -> _Prepared:
    _check_root(comm, root)
    bound = output.numel() if comm.rank == root and output is not None else None
    rcounts, displs = comm._check_v_args(rcounts, displs, bound, "root output")
    in_buf, numel = flat_buffer(input)
    if numel < rcounts[comm.rank]:
        raise ValidationError(
            f"gatherv: rank {comm.rank} input smaller than rcount"
        )
    out_bufs = []
    if comm.rank == root:
        if output is None:
            raise ValidationError("gatherv: root must pass an output tensor")
        out_bufs = [flat_buffer(output)[0]]

    def move(arrivals: list[Arrival]) -> None:
        datapath.gather_v(
            [a.inputs[0] for a in arrivals], arrivals[root].outputs[0], rcounts, displs
        )

    return _Prepared(
        max(rcounts) * input.element_size(), [in_buf], out_bufs, move,
        meta=("gatherv", tuple(rcounts), tuple(displs), input.dtype.name, root),
        tensors=(input, output),
        timing_only=_virtual(input, output),
    )


def _prep_scatterv(
    comm,
    output: SimTensor,
    input: Optional[SimTensor],
    scounts: Optional[Sequence[int]],
    displs: Optional[Sequence[int]],
    root: int,
) -> _Prepared:
    _check_root(comm, root)
    bound = input.numel() if comm.rank == root and input is not None else None
    scounts, displs = comm._check_v_args(scounts, displs, bound, "root input")
    out_buf, numel = flat_buffer(output)
    if numel < scounts[comm.rank]:
        raise ValidationError(
            f"scatterv: rank {comm.rank} output smaller than scount"
        )
    in_bufs = []
    if comm.rank == root:
        if input is None:
            raise ValidationError("scatterv: root must pass an input tensor")
        in_bufs = [flat_buffer(input)[0]]

    def move(arrivals: list[Arrival]) -> None:
        datapath.scatter_v(
            arrivals[root].inputs[0], [a.outputs[0] for a in arrivals], scounts, displs
        )

    return _Prepared(
        max(scounts) * output.element_size(), in_bufs, [out_buf], move,
        meta=("scatterv", tuple(scounts), tuple(displs), output.dtype.name, root),
        tensors=(input, output),
        timing_only=_virtual(input, output),
    )


def _prep_all_gatherv(
    comm,
    output: SimTensor,
    input: SimTensor,
    rcounts: Optional[Sequence[int]],
    displs: Optional[Sequence[int]],
) -> _Prepared:
    rcounts, displs = comm._check_v_args(rcounts, displs, output.numel(), "output")
    in_buf, out_buf = flat_buffer(input)[0], flat_buffer(output)[0]

    def move(arrivals: list[Arrival]) -> None:
        datapath.all_gather_v(
            [a.inputs[0] for a in arrivals],
            [a.outputs[0] for a in arrivals],
            rcounts,
            displs,
        )

    return _Prepared(
        max(rcounts) * input.element_size(), [in_buf], [out_buf], move,
        meta=("all_gatherv", tuple(rcounts), tuple(displs), input.dtype.name),
        tensors=(input, output),
        timing_only=_virtual(input, output),
    )


def _prep_all_to_allv(
    comm,
    output: SimTensor,
    input: SimTensor,
    scounts: Optional[Sequence[int]],
    sdispls: Optional[Sequence[int]],
    rcounts: Optional[Sequence[int]],
    rdispls: Optional[Sequence[int]],
) -> _Prepared:
    scounts, sdispls = comm._check_v_args(scounts, sdispls, input.numel(), "input")
    rcounts, rdispls = comm._check_v_args(rcounts, rdispls, output.numel(), "output")
    in_buf, out_buf = flat_buffer(input)[0], flat_buffer(output)[0]

    def move(arrivals: list[Arrival]) -> None:
        datapath.all_to_all_v(
            [a.inputs[0] for a in arrivals],
            [a.outputs[0] for a in arrivals],
            [a.extras["scounts"] for a in arrivals],
            [a.extras["sdispls"] for a in arrivals],
            [a.extras["rcounts"] for a in arrivals],
            [a.extras["rdispls"] for a in arrivals],
        )

    return _Prepared(
        sum(scounts) * input.element_size(), [in_buf], [out_buf], move,
        meta=("all_to_allv", comm.world_size, input.dtype.name),
        tensors=(input, output),
        timing_only=_virtual(input, output),
        extras={
            "scounts": list(scounts),
            "sdispls": list(sdispls),
            "rcounts": list(rcounts),
            "rdispls": list(rdispls),
            "_elem_size": input.element_size(),
        },
    )


def _prep_barrier(comm) -> _Prepared:
    def move(arrivals: list[Arrival]) -> None:
        pass

    return _Prepared(0, [], [], move, meta=("barrier",))


# ---------------------------------------------------------------------------
# the op table (one row per public collective)
# ---------------------------------------------------------------------------

_ALL_REDUCE = CollectiveSpec(
    "all_reduce", OpFamily.ALLREDUCE, _prep_all_reduce, hier=True, compressible=True
)
_REDUCE = CollectiveSpec("reduce", OpFamily.REDUCE, _prep_reduce)
_BCAST = CollectiveSpec("bcast", OpFamily.BROADCAST, _prep_bcast, hier=True)
_ALL_GATHER = CollectiveSpec("all_gather", OpFamily.ALLGATHER, _prep_all_gather, hier=True)
_REDUCE_SCATTER = CollectiveSpec(
    "reduce_scatter", OpFamily.REDUCE_SCATTER, _prep_reduce_scatter, compressible=True
)
_ALL_TO_ALL_SINGLE = CollectiveSpec(
    "all_to_all_single", OpFamily.ALLTOALL, _prep_all_to_all_single, hier=True
)
_ALL_TO_ALL = CollectiveSpec("all_to_all", OpFamily.ALLTOALL, _prep_all_to_all)
_GATHER = CollectiveSpec("gather", OpFamily.GATHER, _prep_gather)
_SCATTER = CollectiveSpec("scatter", OpFamily.SCATTER, _prep_scatter)
_GATHERV = CollectiveSpec("gatherv", OpFamily.GATHER, _prep_gatherv, vector=True)
_SCATTERV = CollectiveSpec("scatterv", OpFamily.SCATTER, _prep_scatterv, vector=True)
_ALL_GATHERV = CollectiveSpec(
    "all_gatherv", OpFamily.ALLGATHER, _prep_all_gatherv, vector=True
)
_ALL_TO_ALLV = CollectiveSpec(
    "all_to_allv", OpFamily.ALLTOALL, _prep_all_to_allv, vector=True
)
_BARRIER = CollectiveSpec("barrier", OpFamily.BARRIER, _prep_barrier, force_host=True)

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
