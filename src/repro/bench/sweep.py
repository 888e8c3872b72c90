"""Parallel, incremental sweep execution engine.

Both expensive offline surfaces of this reproduction — the tuning suite
(paper §V-F, C5) and the Fig. 2/7 micro-benchmark sweeps — have the same
shape: a grid of
independent cells, each a pure function of picklable coordinates, whose
results must be merged back *in the exact serial order* so tables,
reports, and baselines stay byte-identical no matter how the work was
scheduled.  This module factors that shape out once:

* :func:`run_sweep` executes a list of work units either serially
  (``jobs=1``, the default — determinism tests and perfgate baselines
  never see a pool) or fanned out over a ``multiprocessing`` **spawn**
  pool.  Results are merged by unit index, so the output list is
  identical to the serial one regardless of completion order or which
  worker ran which cell.
* :class:`SweepCache` is a content-addressed on-disk cache: one JSON
  file per cell, named by the SHA-256 of the cell's full key.  A key
  hashes *everything the measurement depends on* — the system spec, the
  backend's calibration constants, the measured-path ``MCRConfig``
  fields, the mode/iterations/warmup, the cell coordinates, and a
  schema version — so editing a calibration constant invalidates
  exactly the cells it affects and nothing else.
* Cache hit/miss counts are reported through the obs
  :class:`~repro.obs.metrics.MetricsRegistry` as ``kind="tuning"``
  events (``family="sweep_cache"``).

Workers and contexts must be **top-level picklables**: the spawn pool
re-imports modules in each child, ships the context once per worker via
the pool initializer, and ships each unit with its serial index.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import multiprocessing
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Optional, Sequence

from repro.obs.metrics import ObsEvent

#: bump when the engine or any measured-path semantics change in a way
#: that silently alters cached values (part of every cache key)
SWEEP_SCHEMA_VERSION = 1

#: sentinel distinguishing "cache miss" from a legitimately-None result
_MISS = object()


# ----------------------------------------------------------------------
# stable hashing / fingerprints
# ----------------------------------------------------------------------


def _canonical(obj: Any) -> Any:
    """Reduce an object to a JSON-stable structure for hashing."""
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {
            f.name: _canonical(getattr(obj, f.name))
            for f in dataclasses.fields(obj)
        }
    if isinstance(obj, dict):
        return {str(k): _canonical(v) for k, v in sorted(obj.items(), key=lambda kv: str(kv[0]))}
    if isinstance(obj, (list, tuple)):
        return [_canonical(v) for v in obj]
    if isinstance(obj, (str, int, float, bool)) or obj is None:
        return obj
    return repr(obj)


def stable_hash(obj: Any) -> str:
    """SHA-256 of the canonical JSON encoding of ``obj``."""
    payload = json.dumps(_canonical(obj), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def system_fingerprint(system) -> dict:
    """Everything a :class:`~repro.cluster.topology.SystemSpec` feeds
    into a cost model or a simulated run."""
    fabric = system.fabric
    return {
        "name": system.name,
        "node": _canonical(system.node),
        "inter_link": _canonical(system.inter_link),
        "max_nodes": system.max_nodes,
        "fabric_contention": system.fabric_contention,
        "cross_path_interference": system.cross_path_interference,
        "fabric": _canonical(vars(fabric)) if fabric is not None else None,
    }


def calibration_fingerprint(backend_name: str) -> dict:
    """One backend's calibration constants and cost-relevant properties.

    Editing any of these (a multiplier, the call overhead, a capability
    flag that changes staging or emulation) must invalidate exactly the
    cached cells measured on that backend.
    """
    from repro.backends import calibration
    from repro.backends.base import backend_class, is_hier_name

    if is_hier_name(backend_name):
        # composite target: its cost is a pure function of the two
        # constituents' calibrations, so fingerprint those
        from repro.backends.hierarchical import parse_hier

        spec = parse_hier(backend_name)
        return {
            "composite": "hier",
            "intra": calibration_fingerprint(spec.intra),
            "inter": calibration_fingerprint(spec.inter),
        }
    cls = backend_class(backend_name)
    return {
        "class": cls.__name__,
        "tuning": _canonical(cls.tuning),
        "properties": _canonical(cls.properties),
        # shared constants every backend's cost goes through
        "reduce_gamma": calibration.REDUCE_GAMMA_US_PER_BYTE,
        "vector_overhead_us": calibration.VECTOR_VARIANT_OVERHEAD_US,
        "nonblocking_overhead_us": calibration.NONBLOCKING_OVERHEAD_US,
    }


def config_fingerprint(config) -> dict:
    """The :class:`~repro.core.config.MCRConfig` fields on the measured
    path.  ``enable_logging`` is excluded — observers record, they never
    change a timing — everything else can move a measurement."""
    fields = _canonical(config)
    fields.pop("enable_logging", None)
    return fields


def cell_keys(kind: str, system, cells: Sequence[dict], **context) -> list[str]:
    """One content hash per sweep cell, for :class:`SweepCache`.

    The measurement context — schema version, ``kind`` (``"tuning"``,
    ``"microbench"``), the system fingerprint, the caller's ``context``
    fields and the calibration of the cell's ``backend`` — is hashed
    once per backend; each key then hashes that digest with the cell's
    own coordinates.
    """
    base = {
        "schema": SWEEP_SCHEMA_VERSION,
        "kind": kind,
        "system": system_fingerprint(system),
        **context,
    }
    backend_ctx: dict[str, str] = {}
    keys = []
    for cell in cells:
        name = cell["backend"]
        digest = backend_ctx.get(name)
        if digest is None:
            digest = backend_ctx[name] = stable_hash(
                {**base, "calibration": calibration_fingerprint(name)}
            )
        keys.append(stable_hash({"ctx": digest, **cell}))
    return keys


# ----------------------------------------------------------------------
# on-disk cache
# ----------------------------------------------------------------------


class SweepCache:
    """Content-addressed on-disk cache of sweep-cell results.

    One JSON file per cell under ``root``, named ``<sha256>.json`` and
    holding ``{"schema", "cell", "value"}``.  The human-readable
    ``cell`` payload is stored purely for inspection/debugging; the hash
    in the filename is the authoritative key.  Values must be
    JSON-serializable; floats round-trip exactly (``repr`` encoding), so
    a warm-cache sweep reproduces cold results byte-identically.
    """

    def __init__(self, root: "str | Path"):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)

    def _path(self, key_hash: str) -> Path:
        return self.root / f"{key_hash}.json"

    def get(self, key_hash: str) -> Any:
        """The cached value, or the module-level ``_MISS`` sentinel."""
        try:
            payload = json.loads(self._path(key_hash).read_text())
        except (FileNotFoundError, json.JSONDecodeError):
            return _MISS
        # a file of another schema or shape is a miss, never an error
        if (
            not isinstance(payload, dict)
            or payload.get("schema") != SWEEP_SCHEMA_VERSION
            or "value" not in payload
        ):
            return _MISS
        return payload["value"]

    def put(self, key_hash: str, cell: Any, value: Any) -> None:
        """Store atomically (write-then-rename) so concurrent sweeps
        sharing a cache directory never read a torn file."""
        path = self._path(key_hash)
        tmp = path.with_suffix(f".tmp.{os.getpid()}")
        tmp.write_text(
            json.dumps(
                {
                    "schema": SWEEP_SCHEMA_VERSION,
                    "cell": _canonical(cell),
                    "value": value,
                },
                sort_keys=True,
            )
        )
        os.replace(tmp, path)

    def __len__(self) -> int:
        return sum(1 for _ in self.root.glob("*.json"))


# ----------------------------------------------------------------------
# execution
# ----------------------------------------------------------------------


@dataclass
class SweepStats:
    """What one :func:`run_sweep` call did."""

    units: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    computed: int = 0
    jobs: int = 1


@dataclass
class SweepOutcome:
    """Results (in serial unit order) plus execution statistics."""

    results: list
    stats: SweepStats


# per-worker state installed by the pool initializer (spawn children
# re-import this module, so the dict starts empty in every worker)
_WORKER_STATE: dict[str, Any] = {}


def _pool_init(worker: Callable, context: Any) -> None:
    _WORKER_STATE["worker"] = worker
    _WORKER_STATE["context"] = context


def _pool_call(indexed_unit: tuple[int, Any]) -> tuple[int, Any]:
    index, unit = indexed_unit
    return index, _WORKER_STATE["worker"](_WORKER_STATE["context"], unit)


def _observe_cache_counts(metrics, hits: int, misses: int) -> None:
    """Report cache effectiveness as ``kind="tuning"`` obs events."""
    if metrics is None:
        return
    for detail, count in (("hit", hits), ("miss", misses)):
        metrics.observe(
            ObsEvent(
                kind="tuning",
                rank=-1,
                stream="",
                backend="",
                family="sweep_cache",
                nbytes=count,
                step=-1,
                start=0.0,
                end=0.0,
                detail=detail,
            )
        )


def run_sweep(
    worker: Callable[[Any, Any], Any],
    units: Sequence[Any],
    *,
    context: Any = None,
    jobs: int = 1,
    cache: Optional[SweepCache] = None,
    keys: Optional[Sequence[str]] = None,
    metrics=None,
) -> SweepOutcome:
    """Execute ``worker(context, unit)`` for every unit, in order.

    ``jobs=1`` (the default) runs serially in-process — no pool, no
    subprocesses, bit-for-bit the historical code path.  ``jobs > 1``
    fans the unserved units out over a spawn pool; the merge is by unit
    index, so the returned ``results`` list is identical to the serial
    one regardless of scheduling.

    With ``cache`` (and matching per-unit ``keys`` hashes), cached cells
    are served without recomputation and each fresh result is written
    back as soon as it is produced (a sweep that raises part-way resumes
    from the cells it finished).
    Hit/miss counts are reported to ``metrics`` (a
    :class:`~repro.obs.metrics.MetricsRegistry`) when provided.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    if cache is not None:
        if keys is None or len(keys) != len(units):
            raise ValueError("cache requires one key hash per unit")
    units = list(units)
    stats = SweepStats(units=len(units), jobs=jobs)
    results: list[Any] = [None] * len(units)
    pending: list[int] = []
    if cache is not None:
        for i in range(len(units)):
            value = cache.get(keys[i])
            if value is _MISS:
                pending.append(i)
            else:
                results[i] = value
                stats.cache_hits += 1
        stats.cache_misses = len(pending)
    else:
        pending = list(range(len(units)))

    stats.computed = len(pending)

    def record(index: int, value: Any) -> None:
        # written back as each cell finishes, so a raising or interrupted
        # sweep keeps every cell it already paid for
        results[index] = value
        if cache is not None:
            cache.put(keys[index], units[index], value)

    if pending:
        workers = min(jobs, len(pending))
        if multiprocessing.current_process().daemon:
            # pool workers are daemonic and may not spawn children; a
            # nested sweep (e.g. a scenario fan-out running a parallel
            # tuning sweep) degrades to serial instead of crashing
            workers = 1
        if workers <= 1:
            for i in pending:
                record(i, worker(context, units[i]))
        else:
            ctx = multiprocessing.get_context("spawn")
            chunksize = max(1, len(pending) // (workers * 4))
            with ctx.Pool(
                processes=workers,
                initializer=_pool_init,
                initargs=(worker, context),
            ) as pool:
                indexed = [(i, units[i]) for i in pending]
                for index, value in pool.imap_unordered(
                    _pool_call, indexed, chunksize
                ):
                    record(index, value)

    _observe_cache_counts(metrics, stats.cache_hits, stats.cache_misses)
    return SweepOutcome(results=results, stats=stats)
