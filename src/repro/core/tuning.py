"""Static tuning tables (paper §V-F, Table II).

A tuning table maps ``(operation, world size, message size)`` to the
best-performing backend.  Entries are first keyed by world size, then by
message size (the paper's indexing order); lookups snap the message size
to its power-of-two bucket and the world size to the nearest benchmarked
scale, so a table trained over {8, 16, 32, 64} still serves a 48-GPU
run.  Total entries = Num_Collectives x Num_Scales x Num_Message_Sizes.

Tables are per-system artifacts (the paper: "tuning tables are not
transferable across HPC systems") — :meth:`TuningTable.save` records the
system name and :meth:`TuningTable.load` can enforce it.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

from repro.core.exceptions import TuningError


def message_bucket(nbytes: int) -> int:
    """Snap a byte count to its power-of-two bucket (>= 1).

    Deterministic round-half-up in log space: a value at or above the
    geometric midpoint of ``[2**k, 2**(k+1)]`` snaps to ``2**(k+1)``.
    Implemented in exact integer arithmetic — ``round(math.log2(n))``
    was subject to banker's rounding of float midpoints, which snapped
    adjacent midpoint sizes into non-adjacent buckets (log2 exactly 46.5
    rounds down, 47.5 rounds up), and to float error for byte counts
    near 2**53.  ``n`` is at/above the midpoint iff ``n*n >= 2**(2k+1)``.
    """
    if nbytes <= 1:
        return 1
    k = nbytes.bit_length() - 1  # 2**k <= nbytes < 2**(k+1)
    if nbytes * nbytes >= 1 << (2 * k + 1):
        k += 1
    return 1 << k


@dataclass
class TuningTable:
    """In-memory tuning table: {op: {world_size: {msg_bucket: backend}}}."""

    system: str = "unknown"
    entries: dict[str, dict[int, dict[int, str]]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        # lookup() runs once per "auto"-dispatched operation; the sorting
        # and log-space nearest-neighbour search are memoized per snapped
        # (op, world size, bucket) and invalidated whenever entries change
        self._lookup_cache: dict[tuple[str, int, int], Optional[str]] = {}
        #: bumped on every in-place edit (``add``/``merge``): "auto"
        #: dispatch plans pin the generation they consulted, so edits
        #: recompile them without a reinstall (each such plan hit reads it)
        self.generation = 0

    # -- construction ----------------------------------------------------

    def add(self, op: str, world_size: int, msg_bytes: int, backend: str) -> None:
        """Serve ``backend`` in ``msg_bytes``'s cell, checked as :meth:`merge` checks."""
        if msg_bytes < 0:
            raise TuningError(f"bad message size {msg_bytes}")
        bucket = message_bucket(msg_bytes)
        _check_entries({op: {world_size: {bucket: backend}}}, "added entry")
        self.entries.setdefault(op, {}).setdefault(world_size, {})[bucket] = backend
        self._lookup_cache.clear()
        self.generation += 1

    def merge(self, other: "TuningTable") -> None:
        """Overlay ``other``'s entries onto this table.

        Merged keys get the same validation as :meth:`add` (and the whole
        merge is rejected before any entry lands, so a bad ``other`` never
        leaves this table half-updated).  The lookup memo and
        ``generation`` only move when an entry actually changed — a no-op
        merge must not recompile every cached "auto" dispatch plan.
        """
        _check_entries(other.entries, "merged table")
        changed = False
        for op, scales in other.entries.items():
            for ws, buckets in scales.items():
                for bucket, backend in buckets.items():
                    row = self.entries.setdefault(op, {}).setdefault(ws, {})
                    if row.get(bucket) != backend:
                        row[bucket] = backend
                        changed = True
        if changed:
            self._lookup_cache.clear()
            self.generation += 1

    def clone(self) -> "TuningTable":
        """Deep copy of the entries under a fresh generation counter.

        Online adaptive dispatch (:mod:`repro.core.adaptive`) never edits
        an installed table: each book edit builds the group's next table
        version from one clone, shared by every rank that reaches it.
        """
        return TuningTable(
            system=self.system,
            entries={
                op: {ws: dict(buckets) for ws, buckets in scales.items()}
                for op, scales in self.entries.items()
            },
        )

    # -- lookup ------------------------------------------------------------

    def lookup(self, op: str, world_size: int, msg_bytes: int) -> Optional[str]:
        """Best backend for the op, or None if the op was never tuned."""
        key = (op, world_size, message_bucket(msg_bytes))
        cache = self._lookup_cache
        try:
            return cache[key]
        except KeyError:
            pass
        choice = self._lookup_uncached(*key)
        cache[key] = choice
        return choice

    def _lookup_uncached(self, op: str, world_size: int, bucket: int) -> Optional[str]:
        scales = self.entries.get(op)
        if not scales:
            return None
        ws = self._nearest(sorted(scales), world_size)
        buckets = scales[ws]
        return buckets[self._nearest(sorted(buckets), bucket)]

    @staticmethod
    def _nearest(candidates: list[int], value: int) -> int:
        """Nearest candidate in log-space (scale and message size both
        behave multiplicatively).

        Tie-breaking is part of the contract: when ``value`` sits at the
        exact geometric midpoint of two tuned neighbours (equal log2
        distance), the **smaller** candidate wins — ``candidates`` is
        sorted ascending and ``min`` keeps the first of equal keys.
        Online retuning (:mod:`repro.core.adaptive`) relies on this being
        deterministic so every rank resolves the same entry.
        """
        return min(candidates, key=lambda c: abs(math.log2(c) - math.log2(max(value, 1))))

    def num_entries(self) -> int:
        return sum(
            len(buckets) for scales in self.entries.values() for buckets in scales.values()
        )

    def ops(self) -> list[str]:
        return sorted(self.entries)

    def rows(self, op: str, world_size: int) -> list[tuple[int, str]]:
        """(message size, backend) rows for one op/scale — Table II format."""
        scales = self.entries.get(op, {})
        if world_size not in scales:
            raise TuningError(
                f"no tuning rows for {op} at world size {world_size}; "
                f"have {sorted(scales)}"
            )
        return sorted(scales[world_size].items())

    # -- persistence ----------------------------------------------------------

    def save(self, path: "str | Path") -> None:
        payload = {
            "system": self.system,
            "entries": {
                op: {str(ws): {str(b): name for b, name in buckets.items()}
                     for ws, buckets in scales.items()}
                for op, scales in self.entries.items()
            },
        }
        Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True))

    @classmethod
    def load(cls, path: "str | Path", expect_system: Optional[str] = None) -> "TuningTable":
        try:
            payload = json.loads(Path(path).read_text())
        except json.JSONDecodeError as exc:
            raise TuningError(f"{path} is not JSON: {exc}") from None
        if not isinstance(payload, dict):
            raise TuningError(f"{path} does not hold a JSON object")
        if expect_system is not None and payload.get("system") != expect_system:
            raise TuningError(
                f"tuning table was generated on {payload.get('system')!r}, "
                f"not {expect_system!r} — tables are not transferable across "
                "systems (paper §V-F)"
            )
        table = cls(system=payload.get("system", "unknown"))
        # a file comes from outside the program: a wrong shape (a level
        # that is not an object, a key that is not an integer) is a bad
        # table, and so is whatever merge rejects
        try:
            for op, scales in payload.get("entries", {}).items():
                for ws, buckets in scales.items():
                    row = table.entries.setdefault(op, {}).setdefault(int(ws), {})
                    for bucket, backend in buckets.items():
                        row[int(bucket)] = backend
        except (AttributeError, ValueError) as exc:
            raise TuningError(f"malformed tuning table {path}: {exc}") from None
        _check_entries(table.entries, str(path))
        return table


def _check_entries(entries: dict, source: str) -> None:
    """Reject a world size below 1, a bucket that is not a power of two
    or a backend name that is not a string."""
    for op, scales in entries.items():
        for ws, buckets in scales.items():
            if ws < 1:
                raise TuningError(f"bad world size {ws} in {source} ({op})")
            for bucket, backend in buckets.items():
                if bucket < 1 or bucket != message_bucket(bucket):
                    raise TuningError(
                        f"bad message bucket {bucket} in {source} "
                        f"({op}, world size {ws}); buckets are powers of two"
                    )
                if not isinstance(backend, str):
                    raise TuningError(
                        f"bad backend {backend!r} in {source} "
                        f"({op}, world size {ws}, bucket {bucket})"
                    )
