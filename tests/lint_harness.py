"""One injected-violation harness for ``scripts/lint.py``.

``tests/test_layering.py``, ``test_set_order_lint.py``,
``test_hostfree_lint.py`` and ``test_hooks_lint.py`` each build a root
with this module, inject a violation of their rule, and assert the
lint's verdict, so a green CI lint step means something.

:func:`method_calls` serves the one-place checks of ``test_price.py``
and ``test_tuning.py``: it finds every call of one method name in the
source tree.
"""

from __future__ import annotations

import ast
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


class _Calls(ast.NodeVisitor):
    """Every ``<expr>.<attr>(...)`` call with the name of the function
    that encloses it."""

    def __init__(self, attr: str) -> None:
        self.attr = attr
        self.scope: list[str] = []
        self.hits: list[tuple[str, int]] = []

    def _scoped(self, node) -> None:
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    visit_FunctionDef = visit_AsyncFunctionDef = visit_ClassDef = _scoped

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if isinstance(func, ast.Attribute) and func.attr == self.attr:
            self.hits.append((self.scope[-1] if self.scope else "<module>", node.lineno))
        self.generic_visit(node)


def method_calls(attr: str) -> list[tuple[str, str, int]]:
    """``(file, enclosing function, line)`` of every ``.<attr>(`` call
    under ``src/repro``."""
    found = []
    for path in sorted((REPO / "src" / "repro").rglob("*.py")):
        rel = path.relative_to(REPO).as_posix()
        calls = _Calls(attr)
        calls.visit(ast.parse(path.read_text(), filename=rel))
        found += [(rel, function, line) for function, line in calls.hits]
    return found
