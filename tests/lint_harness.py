"""One injected-violation harness for ``scripts/lint.py``.

``tests/test_layering.py``, ``test_set_order_lint.py``,
``test_hostfree_lint.py`` and ``test_hooks_lint.py`` each build a root
with this module, inject a violation of their rule, and assert the
lint's verdict, so a green CI lint step means something.
"""

from __future__ import annotations

import functools
import shutil
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SCRIPT = REPO / "scripts" / "lint.py"

sys.path.insert(0, str(REPO / "scripts"))
from lint import ALLOWED, check  # noqa: E402,F401


def copy_tree(tmp_path: Path) -> Path:
    """A root holding a copy of the real ``src/`` tree."""
    shutil.copytree(REPO / "src", tmp_path / "src", ignore=shutil.ignore_patterns("__pycache__"))
    return tmp_path


def write_tree(tmp_path: Path, files: dict[str, str]) -> Path:
    """A root holding only ``files`` (root-relative path -> source) and
    an empty ``src/repro`` package, so the CLI accepts it as a root."""
    for path, source in {"src/repro/__init__.py": "", **files}.items():
        (tmp_path / path).parent.mkdir(parents=True, exist_ok=True)
        (tmp_path / path).write_text(source)
    return tmp_path


def run_cli(root: "Path | None" = None) -> subprocess.CompletedProcess:
    argv = [sys.executable, str(SCRIPT)] + (["--root", str(root)] if root else [])
    return subprocess.run(argv, capture_output=True, text=True)


def real_tree(rule: str) -> list[str]:
    """The real checkout's violations of ``rule`` (the lint runs once per test process)."""
    return [v for v in _real_violations() if v.startswith(f"{rule}: ")]


@functools.lru_cache(maxsize=None)
def _real_violations() -> tuple[str, ...]:
    return tuple(check(REPO))
