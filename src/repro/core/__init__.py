"""MCR-DL core: the paper's primary contribution.

* :mod:`repro.core.api` — the module-level API of Listing 1 (import it
  as ``mcr_dl``);
* :class:`repro.core.comm.MCRCommunicator` — the per-rank object API,
  the one spelling of Listing 1 (over :mod:`repro.core.dispatch` and
  :mod:`repro.core.rendezvous`; extensions hold the narrower
  :class:`repro.core.protocols.CommCore`);
* :class:`repro.core.config.MCRConfig` — runtime configuration
  (synchronization scheme, stream pools, MPI stream modes, compression);
* :class:`repro.core.tuning.TuningTable` /
  :class:`repro.core.tuner.Tuner` — the tuning suite behind the
  ``"auto"`` backend (§V-F);
* :class:`repro.core.handles.WorkHandle` — non-blocking op handles with
  the paper's fine-grained synchronization semantics (§V-C).
"""

from repro.backends.ops import OpFamily, ReduceOp
from repro.core.adaptive import AdaptiveRetuner
from repro.core.comm import MCRCommunicator
from repro.core.config import AdaptiveConfig, CompressionConfig, MCRConfig
from repro.core.exceptions import (
    BackendError,
    CommTimeoutError,
    ConfigurationError,
    MCRError,
    TuningError,
    ValidationError,
)
from repro.core.handles import CompletedHandle, WorkHandle
from repro.core.protocols import CommCore
from repro.core.tuner import Tuner, TuningReport, DEFAULT_MESSAGE_SIZES, DEFAULT_OPS
from repro.core.tuning import TuningTable, message_bucket

__all__ = [
    "OpFamily",
    "ReduceOp",
    "MCRCommunicator",
    "CommCore",
    "MCRConfig",
    "CompressionConfig",
    "AdaptiveConfig",
    "AdaptiveRetuner",
    "MCRError",
    "BackendError",
    "CommTimeoutError",
    "ConfigurationError",
    "TuningError",
    "ValidationError",
    "WorkHandle",
    "CompletedHandle",
    "Tuner",
    "TuningReport",
    "TuningTable",
    "message_bucket",
    "DEFAULT_MESSAGE_SIZES",
    "DEFAULT_OPS",
]
