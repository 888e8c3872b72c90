"""MCR-DL extensibility layer (paper §V-E, contribution C6).

Because every communication operation funnels through MCR-DL, cross-
cutting optimizations plug in once and apply to all operations and all
backends:

* :mod:`~repro.ext.logging_ext` — communication logging (generates the
  breakdowns of Figures 1 and 12);
* :mod:`~repro.ext.compression` — lossy fixed-rate compression (zfp-
  style) of eligible payloads;
* :mod:`~repro.ext.fusion` — tensor fusion with max-buffer ``B`` and
  max-wait ``T``, including the cross-backend timeout-flush overlap
  optimization.
"""

from repro.ext.logging_ext import CommLogger
from repro.ext.compression import FixedRateCodec
from repro.ext.fusion import TensorFusion, FusionConfig
from repro.ext.persistent import PersistentCollective
from repro.ext.ddp import DistributedDataParallel

__all__ = [
    "CommLogger",
    "FixedRateCodec",
    "TensorFusion",
    "FusionConfig",
    "PersistentCollective",
    "DistributedDataParallel",
]
