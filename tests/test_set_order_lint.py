"""Nothing under ``src/`` lets a set's iteration order reach a result
(ROADMAP item 1(b)).

Two halves, like ``tests/test_hostfree_lint.py``: the real ``src/`` tree
is clean, and ``scripts/check_set_order.py`` pointed at an injected
violation actually fails, so a green CI step means something.
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
SCRIPT = REPO / "scripts" / "check_set_order.py"

sys.path.insert(0, str(REPO / "scripts"))
from check_set_order import ALLOWED, check  # noqa: E402


class TestRealTree:
    def test_clean(self):
        assert check(REPO / "src") == []

    def test_every_allowed_use_has_a_reason(self):
        assert all(reason.strip() for reason in ALLOWED.values())

    def test_cli_exit_status(self):
        proc = subprocess.run(
            [sys.executable, str(SCRIPT)], capture_output=True, text=True
        )
        assert proc.returncode == 0, proc.stderr
        assert "clean" in proc.stdout

    def test_ci_runs_the_lint(self):
        ci = (REPO / ".github" / "workflows" / "ci.yml").read_text()
        assert "scripts/check_set_order.py" in ci


_VIOLATIONS = {
    "for-display": "def f(a, b):\n    for x in {a, b}:\n        print(x)\n",
    "for-call": "def f(xs):\n    return [x for x in set(xs)]\n",
    "setcomp": "def f(xs):\n    for x in {x.name for x in xs}:\n        print(x)\n",
    "frozenset-list": "def f(xs):\n    return list(frozenset(xs))\n",
    "algebra-tuple": "def f(a, b):\n    return tuple(set(a) | set(b))\n",
    "assigned-name": "def f(xs):\n    seen = set(xs)\n    return ', '.join(seen)\n",
    "annotated-name": "def f(seen: set[str]):\n    return [*seen]\n",
    "annotated-local": "def f(xs):\n    seen: 'set[str]' = xs\n    return list(enumerate(seen))\n",
    "walrus": "def f(xs):\n    if (s := set(xs)):\n        return dict.fromkeys(s)\n",
    # the three findings this lint was written against
    "attribute": (
        "class C:\n    def __init__(self):\n        self._quarantined: set = set()\n"
        "\n    def spawn(self, sub):\n        for name in self._quarantined:\n"
        "            sub.quarantine(name)\n"
    ),
    "dict-from-set": (
        "def f(cells):\n    return {name: 1 for name in {b for b, _ in cells}}\n"
    ),
    "splat-into-list": (
        "def f(entries):\n    tuned = {b for b in entries}\n    return [*tuned]\n"
    ),
}


class TestInjectedViolations:
    @pytest.mark.parametrize("kind", sorted(_VIOLATIONS))
    def test_injected_violation_fails(self, tmp_path, kind):
        (tmp_path / "mod.py").write_text(_VIOLATIONS[kind])
        violations = check(tmp_path, allowed={})
        assert len(violations) == 1, violations
        assert violations[0].startswith("mod.py:")

    def test_attribute_declared_in_another_module(self, tmp_path):
        """``_quarantined: set`` declared on a protocol class in one
        file makes ``comm._quarantined`` a set in every other."""
        (tmp_path / "protocols.py").write_text(
            "class Core:\n    _quarantined: set\n"
        )
        (tmp_path / "dispatch.py").write_text(
            "def survivors(comm):\n    return [n for n in comm._quarantined]\n"
        )
        violations = check(tmp_path, allowed={})
        assert len(violations) == 1 and "dispatch.py:2: survivors" in violations[0]

    def test_order_free_uses_pass(self, tmp_path):
        (tmp_path / "mod.py").write_text(
            "def f(xs, n):\n"
            "    s = {x for x in xs}\n"
            "    ok = sorted(s), len(s), n in s, min(s), max(s), any(s), all(s)\n"
            "    ok += (sorted(x for x in s if x), {x * 2 for x in s}, {*s, *s})\n"
            "    ok += (s | {n}, frozenset(s), max(len(x) for x in s))\n"
            "    for x in sorted(s):\n"
            "        print(x)\n"
            "    return ok\n"
            "\n"
            "def g(xs):\n"
            "    s = list(xs)  # another function's `s` is not a set\n"
            "    return [x for x in s]\n"
        )
        assert check(tmp_path, allowed={}) == []

    def test_allow_list_is_per_function_and_cannot_rot(self, tmp_path):
        (tmp_path / "mod.py").write_text(
            "def noted(s: set):\n    for x in s:\n        x.close()\n"
            "\ndef ordered(s: set):\n    return list(s)\n"
        )
        allowed = {"mod.py::noted": "closes each; order reaches no result"}
        violations = check(tmp_path, allowed=allowed)
        assert len(violations) == 1 and "ordered" in violations[0]
        stale = dict(allowed, **{"gone.py::old": "was order-free"})
        assert any("stale allow-list entry" in v for v in check(tmp_path, allowed=stale))

    def test_cli_fails_on_dirty_tree(self, tmp_path):
        (tmp_path / "mod.py").write_text(_VIOLATIONS["for-display"])
        proc = subprocess.run(
            [sys.executable, str(SCRIPT), "--src", str(tmp_path)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 1
        assert "mod.py:2" in proc.stderr
