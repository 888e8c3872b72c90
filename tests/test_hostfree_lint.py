"""Tier-1 stays host-independent (docs/INTERNALS.md §7, "The fingerprint ledger").

Two halves, like ``tests/test_layering.py``: the real ``tests/`` tree
and the fingerprint ledger's two files reach no wall clock and no CPU
count, and the ``hostfree`` rule of ``scripts/lint.py`` pointed at an
injected violation actually fails.
"""

from __future__ import annotations

import pytest

from .lint_harness import ALLOWED, check, real_tree, run_cli, write_tree


class TestRealTree:
    def test_clean(self):
        assert real_tree("hostfree") == []

    def test_every_allowed_use_has_a_reason(self):
        assert all(reason.strip() for reason in ALLOWED["hostfree"].values())


_VIOLATIONS = {
    "attribute": "import time\n\ndef test_x():\n    assert time.perf_counter() > 0\n",
    "alias": "import time as t\n\ndef test_x():\n    t0 = t.monotonic()\n",
    "late-import": "def test_x():\n    import time\n    return time.time()\n",
    "from-import": "def test_x():\n    from time import perf_counter_ns\n",
    "cpu-count": "import os\n\ndef test_x():\n    assert os.cpu_count() >= 2\n",
    "mp-cpu-count": "import multiprocessing\n\nclass TestY:\n"
                    "    def test_x(self):\n        multiprocessing.cpu_count()\n",
    "affinity": "import os\n\ndef test_x():\n    len(os.sched_getaffinity(0))\n",
}


class TestInjectedViolations:
    @pytest.mark.parametrize("kind", sorted(_VIOLATIONS))
    def test_injected_violation_fails(self, tmp_path, kind):
        root = write_tree(tmp_path, {"tests/test_injected.py": _VIOLATIONS[kind]})
        violations = check(root, allowed={})
        assert len(violations) == 1, violations
        assert "tests/test_injected.py" in violations[0] and "test_x" in violations[0]

    def test_injected_violation_in_a_ledger_file_fails(self, tmp_path):
        root = write_tree(tmp_path, {
            "src/repro/bench/perfregress.py":
                "import time\n\ndef scenario():\n    return {'wall_s': time.perf_counter()}\n",
        })
        violations = check(root, allowed={})
        assert len(violations) == 1, violations
        assert "perfregress.py" in violations[0] and "scenario" in violations[0]

    def test_harmless_uses_pass(self, tmp_path):
        root = write_tree(tmp_path, {
            "tests/test_fine.py": "import os, time\n\ndef test_x(monotonic=1):\n"
                                  "    time.sleep(0)\n    os.getpid()\n    cpu_count = 2\n",
        })
        assert check(root, allowed={}) == []

    def test_allow_list_is_per_function_and_cannot_rot(self, tmp_path):
        root = write_tree(tmp_path, {
            "tests/test_injected.py": "import time\n\ndef test_noted():\n    print(time.time())\n"
                                      "\ndef test_asserting():\n    assert time.time() > 0\n",
        })
        allowed = {"hostfree": {"tests/test_injected.py::test_noted": "prints a progress note only"}}
        violations = check(root, allowed=allowed)
        assert len(violations) == 1 and "test_asserting" in violations[0]
        allowed["hostfree"]["tests/test_gone.py::test_old"] = "was a progress note"
        assert any("stale allow-list entry" in v for v in check(root, allowed=allowed))

    def test_cli_fails_on_dirty_tree(self, tmp_path):
        root = write_tree(tmp_path, {"tests/test_injected.py": _VIOLATIONS["attribute"]})
        proc = run_cli(root)
        assert proc.returncode == 1
        assert "time.perf_counter" in proc.stderr
