#!/usr/bin/env python
"""Tier-1 must be host-independent: nothing under ``tests/``, and neither
half of the fingerprint gate tier-1 runs (:data:`LEDGER_FILES`), may read
the wall clock or the CPU count (ROADMAP item 1(c)).

A test that reaches ``time.perf_counter`` / ``time.time`` /
``time.monotonic`` (or their ``_ns`` forms), ``os.cpu_count``,
``multiprocessing.cpu_count`` or ``sched_getaffinity`` passes on one
host and fails on the next.  Wall-clock claims go through ``perfbench/``
(same-host A/B); tests assert deterministic proxies — simulated time,
event counts, object counts, ``tracemalloc`` ratios.

The check is an AST walk, so it sees the name however it is reached:
``time.perf_counter()``, ``import time as t; t.perf_counter``,
``from time import perf_counter``, ``os.sched_getaffinity(0)``.

A use that feeds no assertion (say, a progress message) can be allowed
by ``"<file relative to the tests root>::<enclosing function>"`` (for a
ledger file, its bare name) in :data:`ALLOWED`, with the reason as the
value.  An entry that no longer
matches anything is itself a violation, so the list cannot rot.

Usage::

    python scripts/check_tests_hostfree.py [--tests tests]

Exit status 0 = clean, 1 = violations (one per line on stderr).  The
checker is importable (``check(tests_root, allowed, also) -> list[str]``) so
``tests/test_hostfree_lint.py`` can point it at an injected violation.
"""

from __future__ import annotations

import argparse
import ast
import sys
from pathlib import Path

#: module -> attributes that read the host's clock or CPU count
BANNED: dict[str, frozenset] = {
    "time": frozenset(
        {"perf_counter", "perf_counter_ns", "time", "time_ns", "monotonic", "monotonic_ns"}
    ),
    "os": frozenset({"cpu_count", "sched_getaffinity"}),
    "multiprocessing": frozenset({"cpu_count"}),
}

#: ``file::function`` -> why this use cannot make a test host-dependent
ALLOWED: dict[str, str] = {}

REPO = Path(__file__).resolve().parent.parent

#: the fingerprint ledger's two halves: what they record is only
#: deterministic while neither reads a clock
LEDGER_FILES = (
    REPO / "src" / "repro" / "bench" / "perfregress.py",
    REPO / "scripts" / "perfgate.py",
)


class _Scan(ast.NodeVisitor):
    """Collect ``(function, lineno, dotted name)`` for every banned reach."""

    def __init__(self, tree: ast.AST) -> None:
        self.hits: list[tuple[str, int, str]] = []
        #: local name -> banned module, from every import in the file
        self._aliases = {
            alias.asname or alias.name: alias.name
            for node in ast.walk(tree)
            if isinstance(node, ast.Import)
            for alias in node.names
            if alias.name in BANNED
        }
        self._scope: list[str] = []
        self.visit(tree)

    def _hit(self, lineno: int, name: str) -> None:
        self.hits.append((".".join(self._scope) or "<module>", lineno, name))

    def _visit_scoped(self, node) -> None:
        self._scope.append(node.name)
        self.generic_visit(node)
        self._scope.pop()

    visit_FunctionDef = _visit_scoped
    visit_AsyncFunctionDef = _visit_scoped
    visit_ClassDef = _visit_scoped

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        for alias in node.names:
            if alias.name in BANNED.get(node.module or "", ()):
                self._hit(node.lineno, f"{node.module}.{alias.name}")

    def visit_Attribute(self, node: ast.Attribute) -> None:
        value = node.value
        if isinstance(value, ast.Name):
            module = self._aliases.get(value.id)
            if module is not None and node.attr in BANNED[module]:
                self._hit(node.lineno, f"{module}.{node.attr}")
        self.generic_visit(node)


def check(
    tests_root: Path,
    allowed: "dict[str, str] | None" = None,
    also: "tuple[Path, ...]" = (),
) -> list[str]:
    """Violations under ``tests_root`` and in the ``also`` files (empty
    list = clean)."""
    allowed = ALLOWED if allowed is None else allowed
    tests_root = Path(tests_root)
    violations: list[str] = []
    used: set[str] = set()
    files = [
        (py.relative_to(tests_root).as_posix(), py)
        for py in sorted(tests_root.rglob("*.py"))
    ]
    for rel, py in files + [(py.name, py) for py in also]:
        scan = _Scan(ast.parse(py.read_text(), filename=str(py)))
        for function, lineno, name in scan.hits:
            key = f"{rel}::{function}"
            if key in allowed:
                used.add(key)
                continue
            violations.append(
                f"{rel}:{lineno}: {function} reaches {name} — tier-1 must not "
                "depend on the host's clock or CPU count"
            )
    for key in sorted(set(allowed) - used):
        violations.append(f"stale allow-list entry {key!r}: nothing there to allow")
    return violations


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--tests", type=Path, default=REPO / "tests")
    args = parser.parse_args(argv)
    violations = check(args.tests, also=LEDGER_FILES)
    for line in violations:
        print(line, file=sys.stderr)
    if violations:
        return 1
    ledger = ", ".join(py.name for py in LEDGER_FILES)
    print(f"check_tests_hostfree: {args.tests}, {ledger} clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
