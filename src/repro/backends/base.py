"""Backend base class and registry ("Backend as a Class", Table I).

A Backend models one communication library for one communicator size;
it holds no per-rank state, so a job shares one instance per (library,
size, system) across its ranks (:func:`cost_backend`).  It owns
the library's *semantics* (stream-aware vs host-synchronized, CUDA-aware
or host-staged, which operations are native) and its *performance
character* (algorithm selection + calibrated cost multipliers).  The
MCR-DL core treats backends uniformly through this interface, which is
what makes new libraries pluggable (paper §V-B).
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional, Type

from repro.backends.calibration import (
    BackendTuning,
    NONBLOCKING_OVERHEAD_US,
    VECTOR_VARIANT_OVERHEAD_US,
)
from repro.backends.cost import CostParams, evaluate
from repro.backends.ops import OpFamily
from repro.cluster.topology import CommPath, SystemSpec


# -- cost memoization ------------------------------------------------------
#
# Cost models are deterministic functions of pure values: the backend
# class (tuning tables and algorithm selection are class attributes),
# the system spec (treated as immutable once built), and the call
# arguments.  Backends of the same class share one memo table per
# system, so every rank — and every communicator/tuner re-instantiating
# backends — hits the same cache.  A system spec mutated after use must
# be followed by :func:`clear_cost_caches`.

_COST_CACHE_LIMIT = 1 << 17


@lru_cache(maxsize=256)
def _cost_cache_for(cls: type, system: "SystemSpec") -> dict:
    """The shared memo table for one (backend class, system) pair."""
    return {}


def clear_cost_caches() -> None:
    """Drop every memoized cost (after mutating a SystemSpec or a
    backend's calibration in place), and with it every cost-query
    backend: a cached instance stays bound to the memo table it was
    built with, so it would keep serving the pre-clear costs."""
    _cost_cache_for.cache_clear()
    cost_backend.cache_clear()


@lru_cache(maxsize=512)
def cost_backend(name: str, p: int, system: "SystemSpec") -> "Backend":
    """The one backend per (name, communicator size, system).

    Sweeps price thousands of cells; building a backend per cell would
    dominate them.  Nothing mutates a backend, so one shared rank-0
    instance serves every client that prices by name and every rank's
    communicator.
    """
    return create_backend(name, 0, p, system)


#: the prefix of a hierarchical composite's name (``hier:<intra>+<inter>``)
HIER_PREFIX = "hier:"


def is_hier_name(name: str) -> bool:
    """Whether ``name`` spells a hierarchical dispatch target."""
    return isinstance(name, str) and name[: len(HIER_PREFIX)].lower() == HIER_PREFIX


def price_us(
    system: "SystemSpec",
    backend: "Backend | str",
    family: OpFamily,
    nbytes: int,
    p: int,
    path: Optional[CommPath] = None,
    config=None,
    *,
    vector: bool = False,
    nonblocking: bool = False,
    overheads: bool = True,
) -> float:
    """The analytic price of one collective: the one place it is composed.

    ``collective_cost_us x (1 + dispatch_fraction)``, then, with
    ``overheads``, ``+ dispatch_overhead_us`` and ``+ call_overhead_us``
    in that order.  ``config=None`` prices the bare library, as the OMB
    reference does: no runtime layer, so no dispatch fraction and no
    dispatch overhead.  ``backend`` is a live instance (the runtime and
    the retuner price with their own) or a name, served by
    :func:`cost_backend`; a ``hier:*`` name prices the composite's
    phase schedule instead (+inf where it cannot run).  ``path``
    defaults to the dense ``system.comm_path(p)``.
    """
    if isinstance(backend, str):
        if is_hier_name(backend):
            from repro.backends.hierarchical import hier_collective_cost_us, parse_hier

            return hier_collective_cost_us(
                system, parse_hier(backend), family, nbytes, p, config
            )
        backend = cost_backend(backend, p, system)
    if path is None:
        path = system.comm_path(p)
    cost = backend.collective_cost_us(
        family, nbytes, p, path, vector=vector, nonblocking=nonblocking
    )
    if config is not None:
        cost *= 1.0 + config.dispatch_fraction
    if overheads:
        if config is not None:
            cost += config.dispatch_overhead_us
        cost += backend.call_overhead_us()
    return cost


@dataclass(frozen=True)
class BackendProperties:
    """Static capabilities of a communication library (Table I columns)."""

    name: str
    display_name: str
    #: ops enqueue on CUDA streams; host never blocks for completion
    stream_aware: bool
    #: accepts device buffers directly (no host staging)
    cuda_aware: bool
    #: library-native vectored collectives (gatherv/scatterv/alltoallv)
    native_vector_collectives: bool
    #: library-native non-blocking operations for all collectives
    native_nonblocking: bool
    #: library-native gather/scatter (NCCL lacks them; MCR-DL emulates)
    native_gather_scatter: bool
    #: runtime convention family for ABI-compatibility checks (§V-D):
    #: backends sharing an ABI family can be mixed freely; at most one
    #: non-stream-aware family is recommended for overlap (footnote 4)
    abi: str
    mpi_compliant: bool


class Backend(abc.ABC):
    """One communication library, shared by every rank of a job.

    Subclasses define class-level ``properties`` and ``tuning`` and
    implement :meth:`algorithm_for`.  Cost evaluation, staging cost, and
    capability queries are shared.
    """

    properties: BackendProperties
    tuning: BackendTuning

    def __init__(self, rank: int, world_size: int, system: SystemSpec):
        self.rank = rank
        self.world_size = world_size
        self.system = system
        #: shared per-(class, system) cost memo table (see module header)
        self._cost_cache = _cost_cache_for(type(self), system)
        #: canonical name, bound per instance (attribute reads sit on the
        #: per-op hot path; a property lookup there is measurable)
        self.name = self.properties.name

    # -- capability queries ----------------------------------------------

    def supports(self, family: OpFamily, vector: bool = False) -> bool:
        """Whether the *library itself* supports the operation natively.

        MCR-DL still exposes unsupported ops by emulating them over the
        backend's point-to-point layer — the emulation penalty is baked
        into the tuning multipliers.
        """
        if vector and not self.properties.native_vector_collectives:
            return False
        if family in (OpFamily.GATHER, OpFamily.SCATTER):
            return self.properties.native_gather_scatter
        return True

    # -- performance model --------------------------------------------------

    @abc.abstractmethod
    def algorithm_for(self, family: OpFamily, nbytes: int, p: int) -> str:
        """Name of the collective algorithm this library runs for the
        given op family / message size / communicator size."""

    def tuning_key(self, family: OpFamily, nbytes: int, p: int) -> str:
        """Calibration-table key for this operation; backends override it
        when a special-cased path (e.g. a two-rank direct-copy allreduce)
        has a different performance character than the generic family."""
        return str(family)

    def collective_cost_us(
        self,
        family: OpFamily,
        nbytes: int,
        p: int,
        comm_path: CommPath,
        vector: bool = False,
        nonblocking: bool = False,
    ) -> float:
        """Simulated duration of one collective on this backend.

        ``nbytes`` follows the per-op size conventions documented in
        :mod:`repro.backends.cost`.
        """
        if p < 1:
            raise ValueError(f"invalid communicator size {p}")
        cache = self._cost_cache
        key = (family, nbytes, p, comm_path, vector, nonblocking)
        cost = cache.get(key)
        if cost is not None:
            return cost
        cost = self._collective_cost_uncached(
            family, nbytes, p, comm_path, vector, nonblocking
        )
        if len(cache) >= _COST_CACHE_LIMIT:  # pragma: no cover - safety valve
            cache.clear()
        cache[key] = cost
        return cost

    def _collective_cost_uncached(
        self,
        family: OpFamily,
        nbytes: int,
        p: int,
        comm_path: CommPath,
        vector: bool,
        nonblocking: bool,
    ) -> float:
        op = self.tuning.op(self.tuning_key(family, nbytes, p))
        extra = 0.0
        if vector:
            extra += VECTOR_VARIANT_OVERHEAD_US
            if not self.properties.native_vector_collectives:
                # emulated vectored collective: per-rank p2p setup
                extra += 0.5 * p
        if nonblocking:
            extra += NONBLOCKING_OVERHEAD_US
        if family is OpFamily.BARRIER:
            params = CostParams(
                alpha_us=comm_path.alpha_us * op.latency_x,
                beta_us_per_byte=0.0,
                p=p,
                n=0,
            )
            return evaluate("dissemination_barrier", params) + extra
        algorithm = self.algorithm_for(family, nbytes, p)
        params = CostParams(
            alpha_us=comm_path.alpha_us * op.latency_x,
            beta_us_per_byte=comm_path.beta_us_per_byte * op.bandwidth_x,
            p=p,
            n=nbytes,
        )
        return evaluate(algorithm, params) + extra + self.staging_cost_us(nbytes)

    def p2p_cost_us(self, nbytes: int, same_node: bool) -> float:
        """Simulated duration of one point-to-point message."""
        cache = self._cost_cache
        key = ("p2p", nbytes, same_node)
        cost = cache.get(key)
        if cost is not None:
            return cost
        op = self.tuning.op("p2p")
        link = self.system.node.intra_link if same_node else self.system.inter_link
        params = CostParams(
            alpha_us=link.latency_us * op.latency_x,
            beta_us_per_byte=link.beta_us_per_byte * op.bandwidth_x,
            p=2,
            n=nbytes,
        )
        cost = evaluate("p2p_send", params) + self.staging_cost_us(nbytes)
        if len(cache) >= _COST_CACHE_LIMIT:  # pragma: no cover - safety valve
            cache.clear()
        cache[key] = cost
        return cost

    def staging_cost_us(self, nbytes: int) -> float:
        """Host staging penalty for non-CUDA-aware libraries (one copy
        down, one copy up)."""
        if self.properties.cuda_aware:
            return 0.0
        return 2.0 * self.system.host_staging_us(nbytes)

    def call_overhead_us(self) -> float:
        """Fixed host-side cost of posting one operation."""
        return self.tuning.call_overhead_us

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(rank={self.rank}/{self.world_size})"


# -- registry -------------------------------------------------------------

_REGISTRY: dict[str, Type[Backend]] = {}
_ALIASES: dict[str, str] = {}


def register_backend(
    cls: Type[Backend], aliases: tuple[str, ...] = ()
) -> Type[Backend]:
    """Register a Backend subclass under its canonical name and aliases.

    Extending MCR-DL with a new library (paper C6) is: subclass
    :class:`Backend`, define properties/tuning/algorithms, register.
    """
    name = cls.properties.name
    if name in _REGISTRY and _REGISTRY[name] is not cls:
        raise ValueError(f"backend name {name!r} already registered")
    _REGISTRY[name] = cls
    for alias in aliases:
        _ALIASES[alias] = name
    return cls


def canonical_name(name: str) -> str:
    name = name.lower()
    return _ALIASES.get(name, name)


def available_backends() -> list[str]:
    """Canonical names of all registered backends."""
    return sorted(_REGISTRY)


def create_backend(
    name: str, rank: int, world_size: int, system: SystemSpec
) -> Backend:
    """Instantiate a registered backend for one rank."""
    canon = canonical_name(name)
    try:
        cls = _REGISTRY[canon]
    except KeyError:
        raise ValueError(
            f"unknown backend {name!r}; available: {available_backends()}"
        ) from None
    return cls(rank, world_size, system)


def backend_class(name: str) -> Type[Backend]:
    canon = canonical_name(name)
    try:
        return _REGISTRY[canon]
    except KeyError:
        raise ValueError(
            f"unknown backend {name!r}; available: {available_backends()}"
        ) from None
