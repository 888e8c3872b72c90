"""Nothing outside the comm core reaches a private communicator member
that the ``CommCore`` protocol does not declare, and the protocol
declares no private hook that nothing outside the core reaches
(docs/INTERNALS.md §15).

Two halves, like ``tests/test_set_order_lint.py``: the real ``src/``
tree is clean with an empty allow-list, and the ``hooks`` rule of
``scripts/lint.py`` pointed at an injected violation actually fails.
"""

from __future__ import annotations

import pytest

from .lint_harness import ALLOWED, check, copy_tree, real_tree, run_cli, write_tree


class TestRealTree:
    def test_clean(self):
        assert real_tree("hooks") == []

    def test_allow_list_stays_empty(self):
        assert ALLOWED["hooks"] == {}


#: a communicator with two private members, one of them declared and
#: used by an extension
_CORE = {
    "src/repro/core/comm.py": (
        "class MCRCommunicator:\n"
        "    def __init__(self):\n        self._codec = None\n        self._shared = {}\n"
        "\n    def _post(self):\n        return self._codec\n"
    ),
    "src/repro/core/protocols.py": "class CommCore:\n    _shared: dict\n",
    "src/repro/ext/user.py": "def g(comm):\n    return comm._shared\n",
}

_VIOLATIONS = {
    "read": "def f(comm):\n    return comm._codec\n",
    "write": "def f(comm, codec):\n    comm._codec = codec\n",
    "method": "def f(comm):\n    comm._post()\n",
    "nested-receiver": (
        "class Engine:\n    def f(self):\n        return self.driver.comm._codec\n"
    ),
}


def _tree(tmp_path, source: str):
    return write_tree(tmp_path, {**_CORE, "src/repro/ext/mod.py": source})


class TestInjectedViolations:
    @pytest.mark.parametrize("kind", sorted(_VIOLATIONS))
    def test_injected_violation_fails(self, tmp_path, kind):
        violations = check(_tree(tmp_path, _VIOLATIONS[kind]), allowed={})
        assert len(violations) == 1, violations
        assert violations[0].startswith("hooks: src/repro/ext/mod.py:")

    def test_declared_self_and_foreign_uses_pass(self, tmp_path):
        root = _tree(tmp_path, (
            "class Ext:\n"
            "    def __init__(self, comm):\n        self._codec = comm._shared\n"
            "\n    def f(self, other):\n        return self._codec, other._private\n"
        ))
        assert check(root, allowed={}) == []

    def test_the_core_modules_are_exempt(self, tmp_path):
        root = write_tree(tmp_path, {
            **_CORE, "src/repro/core/health.py": "def f(comm):\n    return comm._codec\n",
        })
        assert check(root, allowed={}) == []

    def test_dropping_a_declaration_flags_its_users(self, tmp_path):
        root = copy_tree(tmp_path)
        protocols = root / "src" / "repro" / "core" / "protocols.py"
        protocols.write_text(protocols.read_text().replace("    _group: Any\n", ""))
        violations = check(root, allowed={})
        assert violations and all("_group" in v for v in violations), violations
        assert any("ext/fusion.py" in v for v in violations)

    def test_stale_declaration_fails(self, tmp_path):
        root = copy_tree(tmp_path)
        protocols = root / "src" / "repro" / "core" / "protocols.py"
        protocols.write_text(protocols.read_text() + "    _foo: Any\n")
        violations = check(root, allowed={})
        assert len(violations) == 1, violations
        assert violations[0].startswith("hooks: src/repro/core/protocols.py:")
        assert "CommCore: declares the extension hook _foo" in violations[0]

    def test_a_hook_used_only_inside_the_core_is_stale(self, tmp_path):
        root = write_tree(tmp_path, {
            **_CORE, "src/repro/ext/user.py": "",
            "src/repro/core/health.py": "def f(comm):\n    return comm._shared\n",
        })
        violations = check(root, allowed={})
        assert len(violations) == 1 and "hook _shared" in violations[0], violations

    def test_cli_fails_on_dirty_tree(self, tmp_path):
        proc = run_cli(_tree(tmp_path, _VIOLATIONS["read"]))
        assert proc.returncode == 1
        assert "_codec" in proc.stderr
