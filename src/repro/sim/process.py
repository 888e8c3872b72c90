"""Per-rank execution context.

A :class:`RankContext` is what the user's SPMD function receives — the
analogue of "this process" in an MPI program.  It exposes the rank's GPU
(streams/events), host-time primitives, deterministic per-rank RNG,
tensor factories on the rank's device, and a shared-state dictionary the
communication layer uses for rendezvous.
"""

from __future__ import annotations

from functools import cached_property
from typing import Any, Optional, Sequence

import numpy as np

from repro.sim.engine import Engine, Flag
from repro.sim.streams import GPU, CudaEvent, Stream
from repro.tensor import SimTensor, DType, float32
from repro.tensor.tensor import Device, from_numpy, virtual


class RankContext:
    """The view of the simulation from one rank."""

    def __init__(
        self,
        engine: Engine,
        rank: int,
        world_size: int,
        gpu: GPU,
        system: Any,
        shared: dict,
        seed: int = 0,
        compute_scale: float = 1.0,
    ):
        self.engine = engine
        self.rank = rank
        self.world_size = world_size
        self.gpu = gpu
        self.system = system
        #: shared mutable state visible to every rank (rendezvous tables,
        #: p2p match queues). Safe because only one rank runs at a time.
        self.shared = shared
        self._seed = seed
        self.device = Device("cuda", rank)
        if compute_scale <= 0:
            raise ValueError(f"compute_scale must be positive, got {compute_scale}")
        #: straggler modeling: every launched kernel's duration is
        #: multiplied by this factor (>1 = a slow GPU / noisy neighbour)
        self.compute_scale = compute_scale

    @cached_property
    def rng(self) -> np.random.Generator:
        """This rank's deterministic generator, seeded ``(seed, rank)``.

        Built on first use: constructing one costs a sixth of a rank's
        start-up and timing-only programs (the tuner's cells, every
        benchmark workload) never draw from it.
        """
        return np.random.default_rng((self._seed, self.rank))

    # -- time ----------------------------------------------------------

    @property
    def now(self) -> float:
        """This rank's virtual clock in microseconds (see
        :attr:`repro.sim.engine.Engine.now`)."""
        return self.engine.now

    def sleep(self, duration_us: float, reason: str = "host") -> None:
        """Occupy the host thread for ``duration_us`` virtual microseconds."""
        self.engine.sleep(duration_us, reason)

    def wait_flag(self, flag: Flag, reason: Optional[str] = None) -> None:
        self.engine.wait_flag(flag, reason)

    def new_flag(self, label: str = "flag") -> Flag:
        return self.engine.new_flag(label)

    # -- GPU / streams ---------------------------------------------------

    def stream(self, name: str) -> Stream:
        return self.gpu.stream(name)

    @property
    def default_stream(self) -> Stream:
        return self.gpu.default_stream

    def launch(
        self,
        duration_us: float,
        stream: Optional[Stream] = None,
        label: str = "kernel",
        category: str = "compute",
        deps: Sequence = (),
    ):
        """Launch an async kernel; charges the host launch overhead.

        Returns the kernel's graph node (a :class:`repro.sim.graph.GpuOp`).
        The host does *not* block for the kernel itself.
        """
        stream = stream or self.gpu.default_stream
        # the launch overhead is lookahead (INTERNALS §1): host work no
        # other rank can observe, so the clock advances without a yield
        engine = self.engine
        engine.advance(engine.now + self.gpu.kernel_launch_overhead_us)
        return stream.enqueue(
            duration_us * self.compute_scale, deps=deps, label=label, category=category
        )

    def record_event(self, stream: Optional[Stream] = None, label: str = "event") -> CudaEvent:
        stream = stream or self.gpu.default_stream
        return stream.record_event(label)

    def event_synchronize(self, event: CudaEvent) -> None:
        """cudaEventSynchronize: host blocks until the event completes."""
        node = event._node
        if node is not None:
            self.engine.wait_flag(
                node.completion_flag(self.engine), reason=f"eventSync({event.label})"
            )
        else:
            self.engine.wait_until(
                event.completion_time(), reason=f"eventSync({event.label})"
            )

    def stream_synchronize(self, stream: Optional[Stream] = None) -> None:
        (stream or self.gpu.default_stream).synchronize()

    def device_synchronize(self) -> None:
        self.gpu.synchronize()

    # -- tensor factories (on this rank's device) -------------------------

    def zeros(self, shape: int | Sequence[int], dtype: DType = float32) -> SimTensor:
        return from_numpy(np.zeros(shape, dtype=dtype.numpy), self.device)

    def ones(self, shape: int | Sequence[int], dtype: DType = float32) -> SimTensor:
        return from_numpy(np.ones(shape, dtype=dtype.numpy), self.device)

    def full(self, shape: int | Sequence[int], value: float, dtype: DType = float32) -> SimTensor:
        return from_numpy(np.full(shape, value, dtype=dtype.numpy), self.device)

    def arange(self, n: int, dtype: DType = float32) -> SimTensor:
        return from_numpy(np.arange(n, dtype=dtype.numpy), self.device)

    def rand(self, shape: int | Sequence[int], dtype: DType = float32) -> SimTensor:
        return from_numpy(self.rng.random(shape).astype(dtype.numpy), self.device)

    def tensor(self, data, dtype: DType = float32) -> SimTensor:
        return from_numpy(np.asarray(data, dtype=dtype.numpy), self.device)

    def virtual_tensor(self, numel: int, dtype: DType = float32) -> SimTensor:
        """A timing-only tensor (declared size, no real storage) for
        workload modeling; see :class:`repro.tensor.SimTensor`."""
        return virtual(numel, dtype, self.device)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"RankContext(rank={self.rank}/{self.world_size}, t={self.now:.1f}us)"
