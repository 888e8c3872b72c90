#!/usr/bin/env python
"""Nothing under ``src/`` may let a set's iteration order leak into what
it computes (ROADMAP item 1(b)).

A set of strings iterates in string-hash order, which changes with
``PYTHONHASHSEED``; a loop over one that logs, dispatches or builds a
list makes simulated results a hash-seed draw.  This lint fails on
**iterating** a set-valued expression — a ``for`` loop, a list, dict or
generator comprehension, ``list()``, ``tuple()``, ``enumerate()``,
``zip()``, ``iter()``, ``str.join``, ``list.extend``, ``dict.fromkeys`` —
or **splatting** one (``*s``).  An expression is set-valued when it is:

* a set display (``{a, b}``) or a set comprehension;
* a ``set(...)`` / ``frozenset(...)`` call, set algebra (``|``, ``&``,
  ``-``, ``^``) with a set-valued operand, or a ``union`` /
  ``intersection`` / ``difference`` / ``symmetric_difference`` / ``copy``
  of one;
* a name assigned or annotated as a set in the function (or module) that
  binds it;
* an attribute assigned or annotated as a set anywhere under ``src/``
  (``self._quarantined: set = set()``, or a class-level ``_quarantined:
  set`` declaration).

Order-free uses pass: ``sorted``, ``len``, ``min`` / ``max``, ``any`` /
``all``, ``in``, set algebra, a set comprehension, and a comprehension
handed straight to one of those calls (``sorted(n for n in s if ...)``).

A use whose order cannot reach a result can be allowed by
``"<file relative to src>::<enclosing function>"`` in :data:`ALLOWED`,
with the reason as the value; an entry that no longer matches anything
is itself a violation, so the list cannot rot.

Usage::

    python scripts/check_set_order.py [--src src]

Exit status 0 = clean, 1 = violations (one per line on stderr).  The
checker is importable (``check(src_root, allowed) -> list[str]``) so
``tests/test_set_order_lint.py`` can point it at an injected violation.
"""

from __future__ import annotations

import argparse
import ast
import sys
from pathlib import Path

#: ``file::function`` -> why this iteration's order cannot reach a result
ALLOWED: dict[str, str] = {}

REPO = Path(__file__).resolve().parent.parent

SET_TYPES = frozenset({"set", "frozenset", "Set", "FrozenSet", "AbstractSet", "MutableSet"})
SET_METHODS = frozenset({"union", "intersection", "difference", "symmetric_difference", "copy"})
SET_OPS = (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)
#: builtins whose result depends on the order their argument iterates in
ORDERED_CALLS = frozenset({"list", "tuple", "enumerate", "zip", "iter"})
ORDERED_METHODS = frozenset({"join", "extend", "fromkeys"})
#: builtins whose result does not
ORDER_FREE_CALLS = frozenset({"sorted", "len", "min", "max", "any", "all", "set", "frozenset"})
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)


def _is_set_annotation(node: "ast.expr | None") -> bool:
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        try:
            node = ast.parse(node.value, mode="eval").body
        except SyntaxError:
            return False
    if isinstance(node, ast.Subscript):
        if isinstance(node.value, ast.Name) and node.value.id == "Optional":
            return _is_set_annotation(node.slice)
        node = node.value
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.BitOr):  # ``set | None``
        return _is_set_annotation(node.left) or _is_set_annotation(node.right)
    if isinstance(node, ast.Name):
        return node.id in SET_TYPES
    return isinstance(node, ast.Attribute) and node.attr in SET_TYPES


class _Scopes:
    """Which names and attributes hold sets.

    ``attrs`` is global across the tree: attributes are reached from
    other modules (``comm._quarantined`` in ``core/dispatch.py``).
    Names are looked up through a stack of per-scope binding tables,
    innermost first; a name bound to a set anywhere in its scope counts
    as a set throughout it.
    """

    def __init__(self, attrs: "set[str]") -> None:
        self.attrs = attrs
        self.stack: list[dict[str, bool]] = []

    def lookup(self, name: str) -> bool:
        for bindings in reversed(self.stack):
            if name in bindings:
                return bindings[name]
        return False

    def is_set(self, node: ast.expr) -> bool:
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        if isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Name):
                return func.id in ("set", "frozenset")
            return (
                isinstance(func, ast.Attribute)
                and func.attr in SET_METHODS
                and self.is_set(func.value)
            )
        if isinstance(node, ast.BinOp) and isinstance(node.op, SET_OPS):
            return self.is_set(node.left) or self.is_set(node.right)
        if isinstance(node, ast.Name):
            return self.lookup(node.id)
        if isinstance(node, ast.Attribute):
            return node.attr in self.attrs
        return False

    def bindings(self, scope: ast.AST) -> dict[str, bool]:
        """``name -> holds a set`` for every name ``scope`` binds, in
        source order so ``b = a`` sees ``a``'s binding."""
        table: dict[str, bool] = {}
        self.stack.append(table)

        def bind(target: ast.expr, is_set: bool) -> None:
            if isinstance(target, ast.Name):
                table[target.id] = table.get(target.id, False) or is_set
            elif isinstance(target, (ast.Tuple, ast.List)):
                for elt in target.elts:
                    bind(elt, False)
            elif isinstance(target, ast.Starred):
                bind(target.value, False)

        if isinstance(scope, FUNCTIONS):
            args = scope.args
            for arg in args.posonlyargs + args.args + args.kwonlyargs:
                table[arg.arg] = _is_set_annotation(arg.annotation)
            for arg in (args.vararg, args.kwarg):
                if arg is not None:
                    table[arg.arg] = False
        for node in sorted(_own_nodes(scope), key=_position):
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    bind(target, self.is_set(node.value))
            elif isinstance(node, ast.AnnAssign):
                bind(
                    node.target,
                    _is_set_annotation(node.annotation)
                    or (node.value is not None and self.is_set(node.value)),
                )
            elif isinstance(node, ast.NamedExpr):
                bind(node.target, self.is_set(node.value))
            elif isinstance(node, (ast.For, ast.AsyncFor)):
                bind(node.target, False)
            elif isinstance(node, ast.withitem) and node.optional_vars is not None:
                bind(node.optional_vars, False)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                table[node.name] = False
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    table[(alias.asname or alias.name).split(".")[0]] = False
            elif isinstance(node, ast.ExceptHandler) and node.name:
                table[node.name] = False
        self.stack.pop()
        return table


def _position(node: ast.AST) -> tuple[int, int]:
    return getattr(node, "lineno", 0), getattr(node, "col_offset", 0)


def _own_nodes(scope: ast.AST):
    """Every node of ``scope``'s body, not descending into nested
    functions, classes or comprehensions (their names are their own)."""
    todo = list(
        scope.body if isinstance(scope.body, list) else [scope.body]
    )
    while todo:
        node = todo.pop()
        yield node
        if not isinstance(
            node,
            FUNCTIONS + (ast.ClassDef, ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp),
        ):
            todo.extend(ast.iter_child_nodes(node))


def _set_attributes(tree: ast.AST) -> set[str]:
    """Attributes assigned or annotated as a set anywhere in ``tree``,
    plus names declared as sets at class level (instance attributes of
    dataclasses and protocols)."""
    scopes = _Scopes(set())
    found: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign):
            if scopes.is_set(node.value):
                found.update(t.attr for t in node.targets if isinstance(t, ast.Attribute))
        elif isinstance(node, ast.AnnAssign) and (
            _is_set_annotation(node.annotation)
            or (node.value is not None and scopes.is_set(node.value))
        ):
            if isinstance(node.target, ast.Attribute):
                found.add(node.target.attr)
        elif isinstance(node, ast.ClassDef):
            found.update(
                stmt.target.id
                for stmt in node.body
                if isinstance(stmt, ast.AnnAssign)
                and isinstance(stmt.target, ast.Name)
                and _is_set_annotation(stmt.annotation)
            )
    return found


class _Scan(ast.NodeVisitor):
    """Collect ``(function, lineno, what)`` for every order-dependent use
    of a set-valued expression."""

    def __init__(self, tree: ast.Module, attrs: "set[str]") -> None:
        self.hits: list[tuple[str, int, str]] = []
        self._sets = _Scopes(attrs)
        self._names: list[str] = []
        #: comprehensions whose result is consumed order-free
        self._exempt: set[int] = set()
        self._sets.stack.append(self._sets.bindings(tree))
        self.visit(tree)

    def _hit(self, node: ast.AST, what: str) -> None:
        self.hits.append((".".join(self._names) or "<module>", node.lineno, what))

    def _visit_function(self, node) -> None:
        self._names.append(getattr(node, "name", "<lambda>"))
        self._sets.stack.append(self._sets.bindings(node))
        self.generic_visit(node)
        self._sets.stack.pop()
        self._names.pop()

    visit_FunctionDef = _visit_function
    visit_AsyncFunctionDef = _visit_function
    visit_Lambda = _visit_function

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        self._names.append(node.name)
        self.generic_visit(node)
        self._names.pop()

    def visit_For(self, node) -> None:
        if self._sets.is_set(node.iter):
            self._hit(node, "a for loop iterates a set")
        self.generic_visit(node)

    visit_AsyncFor = visit_For

    def _visit_comprehension(self, node) -> None:
        if id(node) not in self._exempt:
            for gen in node.generators:
                if self._sets.is_set(gen.iter):
                    kind = type(node).__name__
                    self._hit(node, f"a {kind} iterates a set")
        self.generic_visit(node)

    visit_ListComp = _visit_comprehension
    visit_DictComp = _visit_comprehension
    visit_GeneratorExp = _visit_comprehension

    def visit_Set(self, node: ast.Set) -> None:
        # ``{*a, *b}`` is a set again: splatting into it is order-free
        for elt in node.elts:
            self.visit(elt.value if isinstance(elt, ast.Starred) else elt)

    def visit_Starred(self, node: ast.Starred) -> None:
        if self._sets.is_set(node.value):
            self._hit(node, "*-splats a set")
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        name = func.id if isinstance(func, ast.Name) else None
        method = func.attr if isinstance(func, ast.Attribute) else None
        if name in ORDER_FREE_CALLS:
            self._exempt.update(id(arg) for arg in node.args)
        elif name in ORDERED_CALLS or method in ORDERED_METHODS:
            if any(self._sets.is_set(arg) for arg in node.args):
                self._hit(node, f"{name or '.' + method}() iterates a set")
        self.generic_visit(node)


def check(src_root: Path, allowed: "dict[str, str] | None" = None) -> list[str]:
    """Violations under ``src_root`` (empty list = clean)."""
    allowed = ALLOWED if allowed is None else allowed
    src_root = Path(src_root)
    trees = {
        py.relative_to(src_root).as_posix(): ast.parse(py.read_text(), filename=str(py))
        for py in sorted(src_root.rglob("*.py"))
    }
    attrs: set[str] = set()
    for tree in trees.values():
        attrs |= _set_attributes(tree)
    violations: list[str] = []
    used: set[str] = set()
    for rel, tree in trees.items():
        for function, lineno, what in _Scan(tree, attrs).hits:
            key = f"{rel}::{function}"
            if key in allowed:
                used.add(key)
                continue
            violations.append(
                f"{rel}:{lineno}: {function}: {what} — its order is the hash "
                "seed's; use sorted() or an ordered container"
            )
    for key in sorted(set(allowed) - used):
        violations.append(f"stale allow-list entry {key!r}: nothing there to allow")
    return violations


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", type=Path, default=REPO / "src")
    args = parser.parse_args(argv)
    violations = check(args.src)
    for line in violations:
        print(line, file=sys.stderr)
    if violations:
        return 1
    print(f"check_set_order: {args.src} clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
