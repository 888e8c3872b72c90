"""Nothing under ``src/`` lets a set's iteration order reach a result
(docs/INTERNALS.md §10).

Two halves, like ``tests/test_hostfree_lint.py``: the real ``src/`` tree
is clean, and the ``set-order`` rule of ``scripts/lint.py`` pointed at an
injected violation actually fails.
"""

from __future__ import annotations

import pytest

from .lint_harness import ALLOWED, check, real_tree, run_cli, write_tree


class TestRealTree:
    def test_clean(self):
        assert real_tree("set-order") == []

    def test_every_allowed_use_has_a_reason(self):
        assert all(reason.strip() for reason in ALLOWED["set-order"].values())


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
    # ties broken in iteration order: under PYTHONHASHSEED 0/1/2/3,
    # sorted({'ab', 'cd', 'ef', 'gh', 'ij'}, key=len)[0] is ef/ij/ef/ab
    "pop": "def f(xs):\n    sizes = {len(x) for x in xs}\n    return sizes.pop()\n",
    "sorted-key": "def f(xs):\n    return sorted(set(xs), key=len)[0]\n",
    "min-key": "def f(names: set):\n    return min(names, key=len)\n",
    "max-key-generator": "def f(xs):\n    return max((x for x in set(xs)), key=len)\n",
}


def _tree(tmp_path, **modules: str):
    return write_tree(tmp_path, {f"src/repro/{name}.py": source for name, source in modules.items()})


class TestInjectedViolations:
    @pytest.mark.parametrize("kind", sorted(_VIOLATIONS))
    def test_injected_violation_fails(self, tmp_path, kind):
        violations = check(_tree(tmp_path, mod=_VIOLATIONS[kind]), allowed={})
        assert len(violations) == 1, violations
        assert violations[0].startswith("set-order: src/repro/mod.py:")

    def test_attribute_declared_in_another_module(self, tmp_path):
        """``_quarantined: set`` declared on a protocol class in one
        file makes ``comm._quarantined`` a set in every other."""
        root = _tree(
            tmp_path,
            protocols="class Core:\n    _quarantined: set\n",
            dispatch="def survivors(comm):\n    return [n for n in comm._quarantined]\n",
        )
        violations = check(root, allowed={})
        assert len(violations) == 1 and "dispatch.py:2: survivors" in violations[0]

    def test_order_free_uses_pass(self, tmp_path):
        root = _tree(tmp_path, mod=(
            "def f(xs, n):\n"
            "    s = {x for x in xs}\n"
            "    ok = sorted(s), len(s), n in s, min(s), max(s), any(s), all(s)\n"
            "    ok += (sorted(x for x in s if x), {x * 2 for x in s}, {*s, *s})\n"
            "    ok += (s | {n}, frozenset(s), max(len(x) for x in s))\n"
            "    ok += (sorted(list(xs), key=len), s.discard(n), [n].pop())\n"
            "    for x in sorted(s):\n"
            "        print(x)\n"
            "    return ok\n"
            "\n"
            "def g(xs):\n"
            "    s = list(xs)  # another function's `s` is not a set\n"
            "    return [x for x in s], s.pop()\n"
        ))
        assert check(root, allowed={}) == []

    def test_allow_list_is_per_function_and_cannot_rot(self, tmp_path):
        root = _tree(tmp_path, mod=(
            "def noted(s: set):\n    for x in s:\n        x.close()\n"
            "\ndef ordered(s: set):\n    return list(s)\n"
        ))
        allowed = {"set-order": {"src/repro/mod.py::noted": "closes each; order reaches no result"}}
        violations = check(root, allowed=allowed)
        assert len(violations) == 1 and "ordered" in violations[0]
        allowed["set-order"]["src/repro/gone.py::old"] = "was order-free"
        assert any("stale allow-list entry" in v for v in check(root, allowed=allowed))

    def test_cli_fails_on_dirty_tree(self, tmp_path):
        proc = run_cli(_tree(tmp_path, mod=_VIOLATIONS["for-display"]))
        assert proc.returncode == 1
        assert "mod.py:2" in proc.stderr
