"""The benchmark's tracer wraps named entry points of the program.

``perfbench/tracer.py`` replaces each layer's entry points by name,
``vars(owner)[name]``, so renaming or deleting one (``CommLogger.defer``
say) makes every traced benchmark pass raise ``KeyError``.  The tracer
is loaded here read-only, and each of its pairs must resolve on the
class or module that defines it.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _entry_points() -> dict:
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer._entry_points()


def test_every_traced_entry_point_resolves_by_name():
    points = _entry_points()
    missing = [
        f"{layer}: {getattr(owner, '__name__', owner)}.{name}"
        for layer, pairs in points.items()
        for owner, name in pairs
        if name not in vars(owner)
    ]
    assert missing == []
    assert "ext.logging_ext" in points and "models" in points

