"""DeepSpeed-MoE training-step model (paper §III-D, §VI-4, Figure 8).

The paper trains a 4B-parameter ``350M+PR-MoE-32/64`` model: a 350M
dense GPT base (24 layers, hidden 1024) where half the layers carry a
Pyramid-Residual MoE FFN (32 experts in the shallow half, 64 in the
deep half).  Communication per step:

* **Alltoall** twice per MoE layer per direction (token dispatch to the
  owning expert and result combine), with volume ``tokens x hidden`` —
  the cost that grows with device count and dominates at scale;
* **Allreduce** of the dense (non-expert) gradients across the data
  parallel group, bucketed DDP-style and overlapped with backward
  (expert gradients stay inside expert-parallel groups and need no
  global allreduce);
* a small gating softmax before each dispatch.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.models.common import (
    chunk_bytes,
    gemm_us,
    skewed_counts,
    transformer_layer_forward_flops,
    transformer_layer_params,
    validate_positive,
)
from repro.models.plan import CommDriver
from repro.sim.process import RankContext


@dataclass(frozen=True)
class MoEConfig:
    """350M+PR-MoE-32/64 defaults from the paper."""

    hidden: int = 1024
    layers: int = 24
    seq_len: int = 2048
    micro_batch: int = 6
    #: every ``moe_every``-th layer is an MoE layer (PR-MoE: half)
    moe_every: int = 2
    #: bytes per element (fp16 activations/gradients)
    dtype_bytes: int = 2
    #: DDP gradient bucket size
    grad_bucket_bytes: int = 25 * 1024 * 1024
    #: token duplication from top-2 gating / capacity slack: multiplies
    #: the Alltoall payload (DeepSpeed-MoE defaults route each token to
    #: its top expert plus the shared residual path with capacity slack)
    capacity_factor: float = 1.2
    #: gating imbalance in [0, 1]; > 0 switches dispatch to all_to_allv
    gating_skew: float = 0.0

    def __post_init__(self) -> None:
        validate_positive(
            hidden=self.hidden,
            layers=self.layers,
            seq_len=self.seq_len,
            micro_batch=self.micro_batch,
            moe_every=self.moe_every,
        )

    @property
    def tokens_per_rank(self) -> int:
        return self.micro_batch * self.seq_len

    @property
    def moe_layers(self) -> int:
        return self.layers // self.moe_every

    def dense_param_bytes(self) -> int:
        """Gradient bytes that cross the data-parallel allreduce."""
        return transformer_layer_params(self.hidden) * self.layers * self.dtype_bytes

    def alltoall_bytes(self) -> int:
        """Per-rank Alltoall payload for one dispatch/combine."""
        return int(
            self.tokens_per_rank * self.hidden * self.dtype_bytes * self.capacity_factor
        )


class DSMoEModel:
    """One training step of DeepSpeed-MoE under a CommDriver."""

    name = "ds-moe"

    def __init__(self, config: MoEConfig = MoEConfig()):
        self.config = config

    def samples_per_step(self, world_size: int) -> float:
        """Global sequences per step (throughput numerator)."""
        return self.config.micro_batch * world_size

    # -- per-piece compute costs ---------------------------------------------

    def _layer_forward_us(self, ctx: RankContext) -> float:
        gpu = ctx.system.node.gpu
        flops = transformer_layer_forward_flops(self.config.hidden, self.config.tokens_per_rank)
        return gemm_us(gpu, flops)

    def _gate_us(self, ctx: RankContext) -> float:
        # softmax gate over experts: tiny GEMM + top-1 select
        gpu = ctx.system.node.gpu
        flops = 2.0 * self.config.tokens_per_rank * self.config.hidden * 64
        return gemm_us(gpu, flops)

    # -- the step ---------------------------------------------------------------

    def run_step(self, ctx: RankContext, driver: CommDriver) -> None:
        cfg = self.config
        layer_fwd = self._layer_forward_us(ctx)
        gate = self._gate_us(ctx)
        a2a_elems = max(ctx.world_size, cfg.alltoall_bytes() // 4)
        a2a_elems -= a2a_elems % ctx.world_size
        a2a_in = ctx.virtual_tensor(a2a_elems)
        a2a_out = ctx.virtual_tensor(a2a_elems)

        def moe_alltoall(tag: str) -> None:
            if cfg.gating_skew > 0 and a2a_in.numel() >= ctx.world_size:
                counts = skewed_counts(
                    a2a_in.numel(), ctx.world_size, cfg.gating_skew,
                    seed_row=[(ctx.rank * 31 + i * 17) % 97 / 97.0 for i in range(ctx.world_size)],
                )
                # imbalanced token routing needs the vectored form (§V-A)
                h = driver.all_to_allv(
                    a2a_out, a2a_in,
                    scounts=counts, sdispls=None, rcounts=counts, rdispls=None,
                    async_op=True,
                )
            else:
                h = driver.all_to_all_single(a2a_out, a2a_in, async_op=True)
            h.wait()

        # ---- forward -----------------------------------------------------
        for layer in range(cfg.layers):
            is_moe = (layer % cfg.moe_every) == cfg.moe_every - 1
            if is_moe:
                # attention half of the layer
                ctx.launch(layer_fwd / 3.0, label=f"fwd:attn:{layer}")
                ctx.launch(gate, label=f"fwd:gate:{layer}")
                moe_alltoall(f"dispatch:{layer}")
                # expert FFN (top-1: same active FLOPs as the dense FFN)
                ctx.launch(2.0 * layer_fwd / 3.0, label=f"fwd:expert:{layer}")
                moe_alltoall(f"combine:{layer}")
            else:
                ctx.launch(layer_fwd, label=f"fwd:dense:{layer}")

        # ---- backward (2x forward compute), gradient buckets overlap -----
        buckets = chunk_bytes(cfg.dense_param_bytes(), cfg.grad_bucket_bytes)
        grad_handles = []
        bucket_idx = 0
        layers_per_bucket = max(1, cfg.layers // max(len(buckets), 1))
        for layer in reversed(range(cfg.layers)):
            is_moe = (layer % cfg.moe_every) == cfg.moe_every - 1
            if is_moe:
                moe_alltoall(f"bwd-combine:{layer}")
                ctx.launch(4.0 * layer_fwd / 3.0, label=f"bwd:expert:{layer}")
                moe_alltoall(f"bwd-dispatch:{layer}")
                ctx.launch(2.0 * layer_fwd / 3.0, label=f"bwd:attn:{layer}")
            else:
                ctx.launch(2.0 * layer_fwd, label=f"bwd:dense:{layer}")
            # a bucket of dense gradients becomes ready every few layers
            if bucket_idx < len(buckets) and (cfg.layers - layer) % layers_per_bucket == 0:
                grad = ctx.virtual_tensor(max(1, buckets[bucket_idx] // 4))
                grad_handles.append(driver.grad_all_reduce(grad))
                bucket_idx += 1
        while bucket_idx < len(buckets):
            grad = ctx.virtual_tensor(max(1, buckets[bucket_idx] // 4))
            grad_handles.append(driver.grad_all_reduce(grad))
            bucket_idx += 1
        for h in grad_handles:
            h.wait()

        # ---- optimizer (memory-bound over local params) -------------------
        gpu = ctx.system.node.gpu
        local_param_bytes = cfg.dense_param_bytes()  # Adam touches p, m, v
        ctx.launch(
            3.0 * local_param_bytes / (gpu.memory_bw_gbps * 1e3),
            label="optimizer",
        )
