"""DeepSpeed-style engine facade over MCR-DL.

The paper's runtime was adopted as DeepSpeed's communication module;
this facade shows what that integration surface looks like: a single
JSON-style config dict selects backends (including ``"auto"`` +
tuning table), gradient bucketing, tensor fusion, and compression, and
the returned engine drives any workload model through the standard
train-step protocol.

Example::

    engine = DeepSpeedLikeEngine(ctx, {
        "communication": {"backends": ["nccl", "mvapich2-gdr"],
                          "allreduce_backend": "nccl",
                          "alltoall_backend": "mvapich2-gdr"},
        "fusion": {"enabled": True, "max_buffer_mb": 4},
        "compression": {"enabled": False},
    })
    for _ in range(steps):
        engine.train_step(model)
    stats = engine.finalize()
"""

from __future__ import annotations

from typing import Any, Optional

from repro.core.config import CompressionConfig, MCRConfig
from repro.core.exceptions import ConfigurationError
from repro.core.tuning import TuningTable
from repro.ext.fusion import FusionConfig
from repro.models.plan import BackendPlan, CommDriver, PROFILES
from repro.sim.process import RankContext

DEFAULT_CONFIG: dict = {
    "communication": {
        "backends": ["nccl", "mvapich2-gdr"],
        "allreduce_backend": "nccl",
        "alltoall_backend": "mvapich2-gdr",
    },
    "fusion": {"enabled": True, "max_buffer_mb": 4, "max_wait_us": 50.0},
    "compression": {"enabled": False, "rate_bits": 8},
    "logging": {"enabled": True},
}


def _merge(base: dict, override: dict) -> dict:
    out = dict(base)
    for key, value in override.items():
        if isinstance(value, dict) and isinstance(out.get(key), dict):
            out[key] = _merge(out[key], value)
        else:
            out[key] = value
    return out


class DeepSpeedLikeEngine:
    """Config-driven training engine wired to MCR-DL."""

    def __init__(
        self,
        ctx: RankContext,
        config: Optional[dict] = None,
        tuning_table: Optional[TuningTable] = None,
    ):
        self.ctx = ctx
        self.config = _merge(DEFAULT_CONFIG, config or {})
        comm_cfg = self.config["communication"]
        backends = comm_cfg.get("backends") or []
        if not backends:
            raise ConfigurationError("communication.backends must be non-empty")
        for key in ("allreduce_backend", "alltoall_backend"):
            chosen = comm_cfg.get(key)
            if chosen and chosen != "auto" and chosen not in backends:
                raise ConfigurationError(
                    f"{key}={chosen!r} is not in communication.backends {backends}"
                )
        if comm_cfg.get("allreduce_backend") == "auto" and tuning_table is None:
            raise ConfigurationError('"auto" backends require a tuning_table')

        if tuning_table is not None:
            plan = BackendPlan.tuned(tuning_table, label="deepspeed-auto")
        else:
            plan = BackendPlan(
                label="deepspeed",
                default=comm_cfg.get("allreduce_backend", backends[0]),
                per_op={
                    "allreduce": comm_cfg.get("allreduce_backend", backends[0]),
                    "alltoall": comm_cfg.get("alltoall_backend", backends[0]),
                },
            )

        fusion_cfg = self.config["fusion"]
        fusion = None
        if fusion_cfg.get("enabled"):
            fusion = FusionConfig(
                max_buffer_bytes=int(fusion_cfg.get("max_buffer_mb", 4) * 1024 * 1024),
                max_wait_us=float(fusion_cfg.get("max_wait_us", 50.0)),
            )

        self.driver = CommDriver(
            ctx,
            plan,
            profile=PROFILES["mcr-dl"],
            fusion=fusion,
            enable_logging=bool(self.config["logging"].get("enabled", True)),
        )
        comp_cfg = self.config["compression"]
        if comp_cfg.get("enabled"):
            # the driver built the communicator already: install the codec
            # through the call that also recompiles its dispatch plans
            self.driver.comm.set_compression(
                CompressionConfig(enabled=True, rate_bits=int(comp_cfg.get("rate_bits", 8)))
            )
        self.steps_completed = 0

    # -- training protocol --------------------------------------------------

    def train_step(self, model: Any) -> None:
        """Run one step of any workload model (DS-MoE, DLRM, ...)."""
        model.run_step(self.ctx, self.driver)
        self.driver.step_sync()
        self.steps_completed += 1

    def barrier(self) -> None:
        self.driver.barrier()

    def finalize(self) -> dict:
        """Shut down and return per-op communication totals (µs)."""
        logger = self.driver.comm.logger
        stats = {
            "steps": self.steps_completed,
            "comm_by_family_us": (
                logger.total_time_by_family() if logger is not None else {}
            ),
            "comm_by_backend_us": (
                logger.total_time_by_backend() if logger is not None else {}
            ),
        }
        self.driver.finalize()
        return stats
