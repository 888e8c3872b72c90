#!/usr/bin/env python
"""Static lints CI runs next to the tests: one tree walk, four rules.

Every file is parsed once; each rule is a small AST visitor over the
files it covers (docs/INTERNALS.md §7, §10, §15 give the why):

* ``imports`` (``src/repro``) — no runtime import cycle; the comm
  core's layers import only downward (:data:`LAYERS`); ``ext/`` and
  ``frameworks/`` hold a ``CommCore`` and never import
  ``repro.core.comm`` or name ``MCRCommunicator``; nothing outside
  ``repro/core`` defers an import of ``repro.core.comm``.
* ``set-order`` (``src/``) — no set's iteration order, which is the hash
  seed's for strings, reaches a result: no iterating or splatting a set,
  no ``s.pop()``, no ``sorted``/``min``/``max`` of one with ``key=``.
* ``hostfree`` (``tests/`` and :data:`LEDGER_FILES`) — no wall clock and
  no CPU count, however the name is reached.
* ``hooks`` (``src/repro`` outside :data:`COMM_FILES`) — no
  ``<receiver>._name`` on anything but ``self`` when ``_name`` is a
  private communicator member the ``CommCore`` protocol does not
  declare, and no underscored ``CommCore`` hook that nothing there
  reaches that way.

A flagged use that cannot reach a result is allowed by
``ALLOWED[rule]["<path from the root>::<enclosing function>"] = reason``;
an entry that matches nothing is itself a violation, so the list cannot
rot.

Usage::

    python scripts/lint.py [--root REPO]

Exit status 0 = clean, 1 = violations (one per line on stderr), 2 = no
``src/repro`` under the root.  ``check(root, allowed) -> list[str]`` is
importable so the tests can point it at a root with an injected
violation.
"""

from __future__ import annotations

import argparse
import ast
import sys
from pathlib import Path
from typing import Callable, Iterable

REPO = Path(__file__).resolve().parent.parent

#: rule -> ``file::function`` -> why the flagged use cannot reach a result
ALLOWED: dict[str, dict[str, str]] = {"imports": {}, "set-order": {}, "hostfree": {}, "hooks": {}}

#: the fingerprint ledger's two halves: what they record is only
#: deterministic while neither reads a clock
LEDGER_FILES = ("src/repro/bench/perfregress.py", "scripts/perfgate.py")

#: (lineno, enclosing function, message) from one file's visitor
Hit = tuple[int, str, str]


class _Scoped(ast.NodeVisitor):
    """Base visitor: the dotted name of the enclosing def/class for hits,
    and how many functions deep the walk is."""

    def __init__(self) -> None:
        self.hits: list[Hit] = []
        self.names: list[str] = []
        self.depth = 0

    def hit(self, node: ast.AST, message: str) -> None:
        self.hits.append((node.lineno, ".".join(self.names) or "<module>", message))

    def visit_body(self, node: ast.AST) -> None:
        self.generic_visit(node)

    def _visit_function(self, node) -> None:
        self.names.append(getattr(node, "name", "<lambda>"))
        self.depth += 1
        self.visit_body(node)
        self.depth -= 1
        self.names.pop()

    visit_FunctionDef = visit_AsyncFunctionDef = visit_Lambda = _visit_function

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        self.names.append(node.name)
        self.generic_visit(node)
        self.names.pop()


# ----------------------------------------------------------------------
# imports: layering of the comm core (INTERNALS §15)
# ----------------------------------------------------------------------

CONCRETE_MODULE = "repro.core.comm"
CONCRETE_NAME = "MCRCommunicator"

#: the comm core's layers, top first: a module may import only the layers
#: below its own, in any scope
LAYERS = (
    ("repro.core.comm",),
    ("repro.core.dispatch", "repro.core.op_table"),
    ("repro.core.health",),
    ("repro.core.rendezvous",),
    ("repro.core.protocols",),
)
LAYER_FORBIDDEN = {
    module: tuple(other for upper in LAYERS[: i + 1] for other in upper if other != module)
    for i, layer in enumerate(LAYERS)
    for module in layer
}

#: package prefixes that must hold a CommCore, never the concrete class
PROTOCOL_ONLY_PREFIXES = ("repro.ext.", "repro.frameworks.")


def _module_of(path: str) -> tuple[str, bool]:
    """``src/repro/a/b.py`` -> ``("repro.a.b", False)``; a package's
    ``__init__.py`` -> ``("repro.a", True)``."""
    parts = path[len("src/"):-len(".py")].split("/")
    if parts[-1] == "__init__":
        return ".".join(parts[:-1]), True
    return ".".join(parts), False


class _Imports(_Scoped):
    """One module's import edges ``(target, lineno, function, kind)``:
    ``kind`` is empty for a module-level import (it runs at import time
    and makes the dependency graph), else ``"function-local"`` or
    ``"TYPE_CHECKING"``.  Also every line that names the concrete
    communicator class."""

    def __init__(self, module: str, is_package: bool, known: set[str], tree: ast.Module) -> None:
        super().__init__()
        self.module, self.is_package, self.known = module, is_package, known
        self.edges: list[tuple[str, int, str, str]] = []
        self.concrete: list[int] = []
        self._guard = 0
        self.visit(tree)

    def visit_If(self, node: ast.If) -> None:
        test = node.test
        if getattr(test, "id", getattr(test, "attr", None)) != "TYPE_CHECKING":
            self.generic_visit(node)
            return
        self._guard += 1
        for child in node.body:
            self.visit(child)
        self._guard -= 1
        for child in node.orelse:
            self.visit(child)

    def visit_Name(self, node: ast.Name) -> None:
        if node.id == CONCRETE_NAME:
            self.concrete.append(node.lineno)

    def _record(self, target: str, lineno: int) -> None:
        kind = "TYPE_CHECKING" if self._guard else "function-local" if self.depth else ""
        self.edges.append((target, lineno, ".".join(self.names) or "<module>", kind))

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            self._record(alias.name, node.lineno)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        base = node.module or ""
        if node.level:
            # one dot is the containing package: the module itself when
            # this file is a package's __init__, its parent otherwise
            parts = self.module.split(".")
            keep = len(parts) - node.level + self.is_package
            base = ".".join(parts[:keep] + ([base] if base else []))
        for alias in node.names:
            if alias.name == CONCRETE_NAME:
                self.concrete.append(node.lineno)
            # "from repro.a import b" imports module repro.a.b when b is
            # itself a module, else the attribute b of module repro.a
            candidate = f"{base}.{alias.name}" if base else alias.name
            self._record(candidate if candidate in self.known else base, node.lineno)


def _find_cycles(graph: dict[str, set[str]]) -> list[list[str]]:
    """Every set of modules that reach each other through runtime
    imports (a self-import included), sorted."""
    reach: dict[str, set[str]] = {}
    for start in graph:
        seen: set[str] = set()
        todo = list(graph[start])
        while todo:
            node = todo.pop()
            if node not in seen:
                seen.add(node)
                todo.extend(graph[node])
        reach[start] = seen
    cycles = []
    for module in sorted(graph):
        cycle = sorted(other for other in reach[module] if module in reach[other])
        if cycle and cycle[0] == module:
            cycles.append(cycle)
    return cycles


def imports_rule(trees: dict[str, ast.Module]) -> Iterable[tuple[str, Hit]]:
    modules = {_module_of(path): path for path in trees}
    known = {module for module, _ in modules}
    scans = {
        module: _Imports(module, is_package, known, trees[path])
        for (module, is_package), path in modules.items()
    }
    paths = {module: path for (module, _), path in modules.items()}
    graph = {
        module: {target for target, _, _, kind in scan.edges if not kind and target in scans}
        for module, scan in scans.items()
    }
    for cycle in _find_cycles(graph):
        edges = scans[cycle[0]].edges
        lineno = min(line for target, line, _, kind in edges if not kind and target in cycle)
        yield paths[cycle[0]], (lineno, "<module>", "import cycle: " + " <-> ".join(cycle))

    for module, scan in sorted(scans.items()):
        forbidden = LAYER_FORBIDDEN.get(module, ())
        protocol_only = module.startswith(PROTOCOL_ONLY_PREFIXES)
        outside_core = not module.startswith("repro.core")
        for target, lineno, function, kind in scan.edges:
            how = f"has a {kind} import of" if kind else "imports"
            # a deferred edge upward, or to the concrete class from outside
            # the core, is the cycle-papering idiom this rule keeps out
            if target in forbidden:
                yield paths[module], (lineno, function, f"layer violation: {module} {how} {target}")
            elif target == CONCRETE_MODULE and (protocol_only or (kind and outside_core)):
                yield paths[module], (lineno, function, f"{module} {how} {CONCRETE_MODULE} — "
                                      "hold a repro.core.protocols.CommCore instead")
        if protocol_only:
            for lineno in scan.concrete:
                yield paths[module], (lineno, "<module>", f"{module} references {CONCRETE_NAME} — "
                                      "extensions program to the CommCore protocol")


# ----------------------------------------------------------------------
# set-order: no hash-seed-ordered set use under src/ (INTERNALS §10)
# ----------------------------------------------------------------------
#
# An expression is set-valued when it is a set display or comprehension,
# a set()/frozenset() call, set algebra or a SET_METHODS call on one, a
# name its scope binds or annotates as a set, or an attribute assigned or
# annotated as a set anywhere under src/.

SET_TYPES = frozenset({"set", "frozenset", "Set", "FrozenSet", "AbstractSet", "MutableSet"})
SET_METHODS = frozenset({"union", "intersection", "difference", "symmetric_difference", "copy"})
SET_OPS = (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)
#: builtins whose result depends on the order their argument iterates in
ORDERED_CALLS = frozenset({"list", "tuple", "enumerate", "zip", "iter"})
ORDERED_METHODS = frozenset({"join", "extend", "fromkeys"})
#: builtins whose result does not (``sorted``/``min``/``max`` only
#: without ``key=``: a key can tie, and ties keep iteration order)
ORDER_FREE_CALLS = frozenset({"sorted", "len", "min", "max", "any", "all", "set", "frozenset"})
KEYED_CALLS = frozenset({"sorted", "min", "max"})
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
    other modules (``health.quarantined`` in ``core/dispatch.py``).
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
    todo = list(scope.body if isinstance(scope.body, list) else [scope.body])
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


class _SetOrder(_Scoped):
    """Every order-dependent use of a set-valued expression."""

    def __init__(self, tree: ast.Module, attrs: "set[str]") -> None:
        super().__init__()
        self._sets = _Scopes(attrs)
        #: comprehensions whose result is consumed order-free
        self._exempt: set[int] = set()
        self._sets.stack.append(self._sets.bindings(tree))
        self.visit(tree)

    def hit(self, node: ast.AST, what: str) -> None:
        super().hit(node, f"{what} — its order is the hash seed's; "
                    "use sorted() or an ordered container")

    def visit_body(self, node) -> None:
        self._sets.stack.append(self._sets.bindings(node))
        self.generic_visit(node)
        self._sets.stack.pop()

    def visit_For(self, node) -> None:
        if self._sets.is_set(node.iter):
            self.hit(node, "a for loop iterates a set")
        self.generic_visit(node)

    visit_AsyncFor = visit_For

    def _visit_comprehension(self, node) -> None:
        if id(node) not in self._exempt:
            for gen in node.generators:
                if self._sets.is_set(gen.iter):
                    self.hit(node, f"a {type(node).__name__} iterates a set")
        self.generic_visit(node)

    visit_ListComp = visit_DictComp = visit_GeneratorExp = _visit_comprehension

    def visit_Set(self, node: ast.Set) -> None:
        # ``{*a, *b}`` is a set again: splatting into it is order-free
        for elt in node.elts:
            self.visit(elt.value if isinstance(elt, ast.Starred) else elt)

    def visit_Starred(self, node: ast.Starred) -> None:
        if self._sets.is_set(node.value):
            self.hit(node, "*-splats a set")
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        name = func.id if isinstance(func, ast.Name) else None
        method = func.attr if isinstance(func, ast.Attribute) else None
        keyed = name in KEYED_CALLS and any(kw.arg == "key" for kw in node.keywords)
        if keyed:
            if any(self._sets.is_set(arg) for arg in node.args):
                self.hit(node, f"{name}(key=...) breaks ties in a set's iteration order")
        elif name in ORDER_FREE_CALLS:
            self._exempt.update(id(arg) for arg in node.args)
        elif name in ORDERED_CALLS or method in ORDERED_METHODS:
            if any(self._sets.is_set(arg) for arg in node.args):
                self.hit(node, f"{name or '.' + method}() iterates a set")
        elif method == "pop" and not node.args and self._sets.is_set(func.value):
            self.hit(node, ".pop() takes a set's first element in iteration order")
        self.generic_visit(node)


def set_order_rule(trees: dict[str, ast.Module]) -> Iterable[tuple[str, Hit]]:
    attrs: set[str] = set()
    for tree in trees.values():
        attrs |= _set_attributes(tree)
    for path, tree in trees.items():
        for hit in _SetOrder(tree, attrs).hits:
            yield path, hit


# ----------------------------------------------------------------------
# hostfree: tier-1 reads no wall clock and no CPU count (INTERNALS §7)
# ----------------------------------------------------------------------

#: module -> attributes that read the host's clock or CPU count
BANNED: dict[str, frozenset] = {
    "time": frozenset(
        {"perf_counter", "perf_counter_ns", "time", "time_ns", "monotonic", "monotonic_ns"}
    ),
    "os": frozenset({"cpu_count", "sched_getaffinity"}),
    "multiprocessing": frozenset({"cpu_count"}),
}


class _HostFree(_Scoped):
    """Every reach of a banned clock or CPU-count name."""

    def __init__(self, tree: ast.AST) -> None:
        super().__init__()
        #: local name -> banned module, from every import in the file
        self._aliases = {
            alias.asname or alias.name: alias.name
            for node in ast.walk(tree)
            if isinstance(node, ast.Import)
            for alias in node.names
            if alias.name in BANNED
        }
        self.visit(tree)

    def hit(self, node: ast.AST, name: str) -> None:
        super().hit(node, f"reaches {name} — tier-1 must not depend on "
                    "the host's clock or CPU count")

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        for alias in node.names:
            if alias.name in BANNED.get(node.module or "", ()):
                self.hit(node, f"{node.module}.{alias.name}")

    def visit_Attribute(self, node: ast.Attribute) -> None:
        value = node.value
        if isinstance(value, ast.Name):
            module = self._aliases.get(value.id)
            if module is not None and node.attr in BANNED[module]:
                self.hit(node, f"{module}.{node.attr}")
        self.generic_visit(node)


def hostfree_rule(trees: dict[str, ast.Module]) -> Iterable[tuple[str, Hit]]:
    for path, tree in trees.items():
        for hit in _HostFree(tree).hits:
            yield path, hit


# ----------------------------------------------------------------------
# hooks: no undeclared reach into the communicator (INTERNALS §15)
# ----------------------------------------------------------------------

#: the modules that build the communicator object: its private members
#: are theirs, and theirs alone, to touch
COMM_FILES = tuple(
    f"src/repro/core/{name}.py" for name in ("comm", "dispatch", "rendezvous", "op_table", "health")
)
COMM_CLASSES = ("MCRCommunicator", "DispatchLayer", "ExecutionLayer")
PROTOCOL = ("src/repro/core/protocols.py", "CommCore")


def _comm_members(tree: ast.Module) -> set[str]:
    """Underscored methods of the communicator's classes and the
    underscored attributes they assign on ``self``."""
    names: set[str] = set()
    for cls in ast.walk(tree):
        if not (isinstance(cls, ast.ClassDef) and cls.name in COMM_CLASSES):
            continue
        for node in ast.walk(cls):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                names.add(node.name)
            elif (
                isinstance(node, ast.Attribute)
                and isinstance(node.ctx, ast.Store)
                and getattr(node.value, "id", None) == "self"
            ):
                names.add(node.attr)
    return {name for name in names if name.startswith("_") and not name.startswith("__")}


def _declared(tree: ast.Module) -> dict[str, int]:
    """Every member the ``CommCore`` protocol class declares, with the
    line that declares it."""
    return {
        getattr(stmt, "name", None) or stmt.target.id: stmt.lineno
        for cls in tree.body
        if isinstance(cls, ast.ClassDef) and cls.name == PROTOCOL[1]
        for stmt in cls.body
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.AnnAssign))
    }


class _Hooks(_Scoped):
    """Every ``<receiver>._name`` with a receiver other than ``self`` and
    a ``_name`` from ``undeclared``; ``used`` collects every underscored
    name reached that way."""

    def __init__(self, tree: ast.Module, undeclared: "set[str]", used: "set[str]") -> None:
        super().__init__()
        self.undeclared, self.used = undeclared, used
        self.visit(tree)

    def visit_Attribute(self, node: ast.Attribute) -> None:
        if node.attr.startswith("_") and getattr(node.value, "id", None) != "self":
            if node.attr in self.undeclared:
                self.hit(node, f"reaches the communicator's {node.attr}, which CommCore does not "
                         "declare — use the public surface or declare an extension hook")
            self.used.add(node.attr)
        self.generic_visit(node)


def hooks_rule(trees: dict[str, ast.Module]) -> Iterable[tuple[str, Hit]]:
    members: set[str] = set()
    for path in COMM_FILES:
        if path in trees:
            members |= _comm_members(trees[path])
    protocol = trees.get(PROTOCOL[0])
    declared = _declared(protocol) if protocol is not None else {}
    undeclared = members - declared.keys()
    used: set[str] = set()
    for path, tree in trees.items():
        if path not in COMM_FILES:
            for hit in _Hooks(tree, undeclared, used).hits:
                yield path, hit
    # a hook nothing outside the core reaches is surface to trim
    for name, lineno in declared.items():
        if name.startswith("_") and not name.startswith("__") and name not in used:
            yield PROTOCOL[0], (lineno, PROTOCOL[1], f"declares the extension hook {name}, which "
                                "nothing outside the comm core uses — drop the stale declaration")


# ----------------------------------------------------------------------
# one walk, every rule
# ----------------------------------------------------------------------

#: rule -> (which root-relative paths it covers, the rule)
RULES: dict[str, tuple[Callable[[str], bool], Callable]] = {
    "imports": (lambda path: path.startswith("src/repro/"), imports_rule),
    "set-order": (lambda path: path.startswith("src/"), set_order_rule),
    "hostfree": (lambda path: path.startswith("tests/") or path in LEDGER_FILES, hostfree_rule),
    "hooks": (lambda path: path.startswith("src/repro/"), hooks_rule),
}


def _parse(root: Path) -> dict[str, ast.Module]:
    """Every file some rule covers, parsed once, by root-relative path."""
    files = sorted(root.glob("src/**/*.py")) + sorted(root.glob("tests/**/*.py"))
    files += [root / path for path in LEDGER_FILES if (root / path).is_file()]
    return {
        path.relative_to(root).as_posix(): ast.parse(path.read_text(), filename=str(path))
        for path in dict.fromkeys(files)
    }


def check(root: "Path | str", allowed: "dict[str, dict[str, str]] | None" = None) -> list[str]:
    """Violations under ``root``, one string each (empty list = clean)."""
    allowed = ALLOWED if allowed is None else allowed
    trees = _parse(Path(root))
    violations: list[str] = []
    used: set[tuple[str, str]] = set()
    for rule, (covers, run) in RULES.items():
        hits = run({path: tree for path, tree in trees.items() if covers(path)})
        for path, (lineno, function, message) in hits:
            key = f"{path}::{function}"
            if key in allowed.get(rule, {}):
                used.add((rule, key))
            else:
                violations.append(f"{rule}: {path}:{lineno}: {function}: {message}")
    for rule, entries in allowed.items():
        for key in sorted(entries):
            if (rule, key) not in used:
                violations.append(f"{rule}: stale allow-list entry {key!r}: nothing there to allow")
    return violations


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", type=Path, default=REPO, help="repository root (default: this checkout)")
    root = parser.parse_args(argv).root
    if not (root / "src" / "repro").is_dir():
        print(f"lint: no src/repro package under {root}", file=sys.stderr)
        return 2
    violations = check(root)
    for line in violations:
        print(line, file=sys.stderr)
    if violations:
        print(f"lint: {len(violations)} violation(s)", file=sys.stderr)
        return 1
    print(f"lint: {root} clean ({', '.join(RULES)})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
