"""Tier-1 stays host-independent (ROADMAP item 1(c)).

Two halves, like ``tests/test_layering.py``: the real ``tests/`` tree
and the fingerprint ledger's two files reach no wall clock and no CPU
count, and the lint itself works —
``scripts/check_tests_hostfree.py`` pointed at an injected violation
actually fails, so a green CI step means something.
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
SCRIPT = REPO / "scripts" / "check_tests_hostfree.py"

sys.path.insert(0, str(REPO / "scripts"))
from check_tests_hostfree import ALLOWED, LEDGER_FILES, check  # noqa: E402


class TestRealTree:
    def test_clean(self):
        assert check(REPO / "tests", also=LEDGER_FILES) == []

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
        assert "scripts/check_tests_hostfree.py" in ci


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
        (tmp_path / "test_injected.py").write_text(_VIOLATIONS[kind])
        violations = check(tmp_path, allowed={})
        assert len(violations) == 1, violations
        assert "test_injected.py" in violations[0] and "test_x" in violations[0]

    def test_injected_violation_in_a_ledger_file_fails(self, tmp_path):
        ledger = tmp_path / "perfregress.py"
        ledger.write_text(
            "import time\n\ndef scenario():\n    return {'wall_s': time.perf_counter()}\n"
        )
        (tmp_path / "tests").mkdir()
        violations = check(tmp_path / "tests", allowed={}, also=(ledger,))
        assert len(violations) == 1, violations
        assert "perfregress.py" in violations[0] and "scenario" in violations[0]

    def test_harmless_uses_pass(self, tmp_path):
        (tmp_path / "test_fine.py").write_text(
            "import os, time\n\ndef test_x(monotonic=1):\n"
            "    time.sleep(0)\n    os.getpid()\n    cpu_count = 2\n"
        )
        assert check(tmp_path, allowed={}) == []

    def test_allow_list_is_per_function_and_cannot_rot(self, tmp_path):
        (tmp_path / "test_injected.py").write_text(
            "import time\n\ndef test_noted():\n    print(time.time())\n"
            "\ndef test_asserting():\n    assert time.time() > 0\n"
        )
        allowed = {"test_injected.py::test_noted": "prints a progress note only"}
        violations = check(tmp_path, allowed=allowed)
        assert len(violations) == 1 and "test_asserting" in violations[0]
        stale = dict(allowed, **{"test_gone.py::test_old": "was a progress note"})
        assert any("stale allow-list entry" in v for v in check(tmp_path, allowed=stale))

    def test_cli_fails_on_dirty_tree(self, tmp_path):
        (tmp_path / "test_injected.py").write_text(_VIOLATIONS["attribute"])
        proc = subprocess.run(
            [sys.executable, str(SCRIPT), "--tests", str(tmp_path)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 1
        assert "time.perf_counter" in proc.stderr
