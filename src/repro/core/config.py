"""MCR-DL runtime configuration."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

#: messages at or above this size are pinned to stream 0, bytes
LARGE_MESSAGE_THRESHOLD = 64 * 1024
#: point-to-point eager protocol threshold, bytes: a blocking send at or
#: below this completes locally (buffered) without waiting for the
#: matching receive, as in real MPI
EAGER_THRESHOLD = 64 * 1024
#: per-backend library initialization cost, µs (paper §V-D notes the
#: multi-library init overhead amortizes within <10 training steps)
BACKEND_INIT_US = 25.0
#: base backoff between retry attempts, µs (doubles per attempt)
RETRY_BACKOFF_US = 50.0


@dataclass
class CompressionConfig:
    """Lossy communication compression (paper §V-E, zfp-style).

    ``rate_bits`` is the fixed number of bits per element after
    compression (a fixed-rate codec like zfp's fixed-rate mode); 8 means
    4x compression for float32 payloads.
    """

    enabled: bool = False
    rate_bits: int = 8


@dataclass
class AdaptiveConfig:
    """Online adaptive dispatch (feedback-driven retuning + probation).

    Off by default: the static offline table of §V-F stays authoritative
    and healthy-path timings are byte-identical to a build without this
    subsystem.  When enabled, each top-level communicator grows an
    :class:`repro.core.adaptive.AdaptiveRetuner` that watches completed
    collective timings, re-tunes ``"auto"`` table cells whose observed
    latency drifts from expectation, and periodically re-probes
    quarantined backends (see docs/INTERNALS.md §14).
    """

    enabled: bool = False
    #: drift trigger: re-tune when observed EMA exceeds ``drift_ratio``
    #: times the expected cost (or an alternate's fresh EMA beats the
    #: serving choice by the same ratio)
    drift_ratio: float = 1.5
    #: samples a cell must accumulate before drift can trigger
    min_samples: int = 6
    #: consecutive ops each exploration candidate serves during a sweep
    explore_ops: int = 3
    #: steady-state exploration: probability (per ``"auto"`` post, decided
    #: by a deterministic per-op hash so every rank draws identically) of
    #: serving that one op on a hash-picked alternate backend to keep its
    #: EMA fresh; 0 disables
    epsilon: float = 0.0
    #: posted collectives between probation probes of a quarantined
    #: backend; 0 disables probation (quarantine stays a one-way door)
    probation_interval: int = 25

    def validate(self) -> None:
        # negated comparisons, so NaN fails each check
        if not self.drift_ratio > 1.0:
            raise ValueError("adaptive.drift_ratio must be > 1")
        if not self.min_samples >= 1:
            raise ValueError("adaptive.min_samples must be >= 1")
        if not self.explore_ops >= 1:
            raise ValueError("adaptive.explore_ops must be >= 1")
        if not 0.0 <= self.epsilon < 1.0:
            raise ValueError("adaptive.epsilon must be in [0, 1)")
        if not self.probation_interval >= 0:
            raise ValueError("adaptive.probation_interval must be >= 0")


@dataclass
class MCRConfig:
    """Configuration of one MCR-DL communicator.

    The defaults model the paper's implementation: a C++ backbone under a
    thin Python layer (low fixed dispatch cost, tiny proportional cost)
    and fine-grained CUDA-event synchronization with a pool of
    communication streams per backend (§V-C).
    """

    #: fixed host-side cost of one MCR-DL API call, µs (C++ backbone,
    #: thin Python layer — paper C3)
    dispatch_overhead_us: float = 1.2
    #: proportional overhead on top of the raw backend time (argument
    #: checking / tensor introspection in the thin layer)
    dispatch_fraction: float = 0.01

    #: communication streams per stream-aware backend.  Multiple streams
    #: enable concurrent small-message operations; large messages are
    #: bandwidth-bound and always use stream 0 (§V-C).
    streams_per_backend: int = 4

    #: "mpi-managed": let the MPI library handle streams — the host
    #: synchronizes the default stream before posting, preserving any
    #: multi-stream logic inside MPI (§V-D option 1).
    #: "mcr-managed": intercept and manage streams inside MCR-DL — full
    #: overlap across backends, invalid for MPI builds with internal
    #: multi-stream logic (§V-D option 2).
    mpi_stream_mode: str = "mcr-managed"
    #: set when the MPI build is known to use internal multi-stream
    #: logic; combined with "mcr-managed" this raises ConfigurationError
    mpi_internal_multistream: bool = False

    #: "fine-grained": MCR-DL's CUDA-event scheme (Fig. 4b).
    #: "naive": every op posts to the default stream and host-blocks
    #: (Fig. 4a) — kept for the serialization/deadlock comparisons.
    synchronization: str = "fine-grained"

    #: record every communication op (drives Figures 1 and 12)
    enable_logging: bool = False

    #: compile-once dispatch plans (§V-E persistent-op amortization):
    #: steady-state collectives reuse a cached plan instead of
    #: re-deriving tuning choice, labels, codec arithmetic, and stream
    #: placement per call.  Simulated timings are identical either way
    #: (enforced by the dispatch_cache perfregress scenario); off is for
    #: differential testing, not a supported production mode.
    plan_cache: bool = True

    compression: CompressionConfig = field(default_factory=CompressionConfig)

    #: online adaptive dispatch (feedback-driven retuning + backend
    #: probation); off by default — see :class:`AdaptiveConfig`
    adaptive: AdaptiveConfig = field(default_factory=AdaptiveConfig)

    #: per-operation deadline, µs: a host-blocking wait (sync op, handle
    #: wait/synchronize) that exceeds it raises CommTimeoutError with
    #: per-rank rendezvous diagnostics instead of hanging; None disables
    op_deadline_us: Optional[float] = None
    #: dispatch attempts after the first for a transiently failing
    #: backend before the op fails over to a survivor
    comm_max_retries: int = 3

    #: stage every tensor through host memory around each operation —
    #: the pre-CUDA-aware mpi4py pattern of the paper's Listing 2
    #: (cupy -> numpy -> MPI -> numpy -> cupy); used by the mpi4py
    #: baseline framework, not by MCR-DL itself
    force_host_staging: bool = False

    def validate(self) -> None:
        if self.mpi_stream_mode not in ("mpi-managed", "mcr-managed"):
            raise ValueError(f"bad mpi_stream_mode {self.mpi_stream_mode!r}")
        if self.synchronization not in ("fine-grained", "naive"):
            raise ValueError(f"bad synchronization {self.synchronization!r}")
        # negated comparisons, so NaN fails each check
        if not self.streams_per_backend >= 1:
            raise ValueError("streams_per_backend must be >= 1")
        if not self.dispatch_overhead_us >= 0:
            raise ValueError("dispatch_overhead_us must be >= 0")
        if not 0 <= self.dispatch_fraction < 1:
            raise ValueError("dispatch_fraction must be in [0, 1)")
        if self.op_deadline_us is not None and not self.op_deadline_us > 0:
            raise ValueError("op_deadline_us must be positive (or None)")
        if not self.comm_max_retries >= 0:
            raise ValueError("comm_max_retries must be >= 0")
        self.adaptive.validate()
