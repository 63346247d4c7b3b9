"""Package symbol table for the cross-module flow analysis.

:mod:`repro.check.flow` needs to answer questions no single-file lint
can: *which string does this name resolve to two imports away*, *which
functions does this dispatch arm reach*, *does that function mutate the
engine*.  This module builds the shared substrate:

* :class:`SymbolTable` — every module under a root, parsed once, with
  its module-level assignments, import links, functions, and classes
  indexed by name (:class:`ModuleInfo` / :class:`ClassInfo`);
* :meth:`SymbolTable.const_eval` — a small constant evaluator that
  folds literals, follows ``Name`` references through module-level
  assignments *and* ``from X import Y`` links across modules, and
  understands the tuple/set/frozenset composition the registries use
  (so ``WORKER_KINDS + PARENT_KINDS`` or ``frozenset({OP_BUILD, …})``
  resolve to concrete values);
* :class:`MutationIndex` — a deliberately *bounded* reachability
  analysis deciding whether a statement region mutates shard state:
  seed-named calls (``apply_update*``/``insert*``/``delete*``/``add*``/
  ``prune*``/…), stores into the dispatch registry, recursion through
  module-local helpers, and exactly one hop into engine-class methods
  (where a ``self.<attr>`` store or a seed-named call counts).  The
  bound is what keeps the verdict trustworthy: unbounded call-graph
  closure would mark every read-only arm mutating through shared
  utility code.

Everything here is pure AST work — nothing under analysis is imported
or executed, so the table is safe to build over broken fixture trees.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Optional, Sequence, Set, Tuple

__all__ = [
    "UNRESOLVED",
    "ModuleInfo",
    "ClassInfo",
    "SymbolTable",
    "MutationIndex",
    "MUTATION_SEEDS",
    "terminal_call_name",
]

#: Sentinel for "this expression is not statically resolvable".
UNRESOLVED = object()

#: Name prefixes treated as state-mutating calls by the mutation index.
MUTATION_SEEDS = (
    "apply_update",
    "insert",
    "delete",
    "add",
    "prune",
    "remove",
    "evict",
    "admit",
    "bulk_",
)


@dataclass
class ClassInfo:
    """One class definition: its node and methods by name."""

    name: str
    node: ast.ClassDef
    methods: Dict[str, ast.FunctionDef] = field(default_factory=dict)


@dataclass
class ModuleInfo:
    """One parsed module and its name-resolution indexes."""

    name: str
    path: Path
    tree: ast.Module
    is_package: bool
    #: local name -> (source module dotted name, original name) from
    #: ``from X import Y [as Z]`` (relative imports pre-resolved).
    imports: Dict[str, Tuple[str, str]] = field(default_factory=dict)
    #: module-level single-target assignments, by target name.
    assigns: Dict[str, ast.expr] = field(default_factory=dict)
    functions: Dict[str, ast.FunctionDef] = field(default_factory=dict)
    classes: Dict[str, ClassInfo] = field(default_factory=dict)

    @property
    def package(self) -> str:
        """The package this module's relative imports resolve against."""
        if self.is_package:
            return self.name
        return self.name.rpartition(".")[0]

    def where(self, node: ast.AST) -> str:
        return f"{self.path}:{getattr(node, 'lineno', 0)}"


def terminal_call_name(node: ast.Call) -> Optional[str]:
    """The identifier a call ultimately invokes (``a.b.c()`` -> ``c``)."""
    func = node.func
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def _resolve_relative(package: str, level: int, module: Optional[str]) -> str:
    """Absolute dotted name of a ``from``-import target."""
    if level == 0:
        return module or ""
    parts = package.split(".") if package else []
    if level - 1:
        parts = parts[: -(level - 1)] if level - 1 <= len(parts) else []
    base = ".".join(parts)
    if module:
        return f"{base}.{module}" if base else module
    return base


class SymbolTable:
    """Every module under one root, indexed for cross-module lookups."""

    def __init__(self) -> None:
        self.modules: Dict[str, ModuleInfo] = {}

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def build(cls, root: Path) -> "SymbolTable":
        """Parse every ``.py`` file under ``root`` into one table.

        Module names are dotted paths relative to ``root`` (so under a
        ``src/`` root the package prefix — ``repro.…`` — is included).
        Unparseable files are skipped; the flow checks treat missing
        modules as "nothing to verify" rather than crashing.
        """
        table = cls()
        root = Path(root)
        for path in sorted(root.rglob("*.py")):
            if "__pycache__" in path.parts:
                continue
            rel = path.relative_to(root)
            parts = list(rel.parts)
            is_package = parts[-1] == "__init__.py"
            if is_package:
                parts = parts[:-1]
            else:
                parts[-1] = parts[-1][: -len(".py")]
            if not parts:
                continue
            name = ".".join(parts)
            try:
                tree = ast.parse(path.read_text())
            except SyntaxError:
                continue
            table.modules[name] = table._index(name, path, tree, is_package)
        return table

    def _index(
        self, name: str, path: Path, tree: ast.Module, is_package: bool
    ) -> ModuleInfo:
        mod = ModuleInfo(name=name, path=path, tree=tree, is_package=is_package)
        for node in tree.body:
            if isinstance(node, ast.ImportFrom):
                base = _resolve_relative(mod.package, node.level, node.module)
                for alias in node.names:
                    if alias.name == "*":
                        continue
                    mod.imports[alias.asname or alias.name] = (base, alias.name)
            elif isinstance(node, ast.Assign) and len(node.targets) == 1:
                target = node.targets[0]
                if isinstance(target, ast.Name):
                    mod.assigns[target.id] = node.value
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                if isinstance(node.target, ast.Name):
                    mod.assigns[node.target.id] = node.value
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                mod.functions[node.name] = node
            elif isinstance(node, ast.ClassDef):
                info = ClassInfo(name=node.name, node=node)
                for child in node.body:
                    if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        info.methods[child.name] = child
                mod.classes[node.name] = info
        return mod

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def find(self, suffix: str) -> Optional[ModuleInfo]:
        """The module whose dotted name is, or ends with, ``suffix``."""
        if suffix in self.modules:
            return self.modules[suffix]
        tail = "." + suffix
        matches = [m for name, m in self.modules.items() if name.endswith(tail)]
        return matches[0] if len(matches) == 1 else None

    def find_class(self, class_name: str) -> Optional[ClassInfo]:
        """The unique class of that name anywhere in the table."""
        matches = [
            mod.classes[class_name]
            for mod in self.modules.values()
            if class_name in mod.classes
        ]
        return matches[0] if len(matches) == 1 else None

    def import_graph(self) -> Dict[str, Set[str]]:
        """module name -> set of table-internal modules it imports from."""
        graph: Dict[str, Set[str]] = {}
        for name, mod in self.modules.items():
            deps = {src for src, _orig in mod.imports.values()}
            graph[name] = {d for d in deps if self.find(d) is not None and d}
        return graph

    # ------------------------------------------------------------------
    # Constant evaluation
    # ------------------------------------------------------------------
    def resolve_name(
        self, mod: ModuleInfo, name: str, _seen: Optional[Set[Tuple[str, str]]] = None
    ) -> Any:
        """Fold a module-level name to its constant value, following
        assignments in this module and ``from``-import links."""
        seen = _seen if _seen is not None else set()
        key = (mod.name, name)
        if key in seen:
            return UNRESOLVED
        seen.add(key)
        if name in mod.assigns:
            return self.const_eval(mod, mod.assigns[name], _seen=seen)
        if name in mod.imports:
            src_name, orig = mod.imports[name]
            src = self.find(src_name) if src_name else None
            if src is not None:
                return self.resolve_name(src, orig, _seen=seen)
        return UNRESOLVED

    def const_eval(
        self,
        mod: ModuleInfo,
        node: ast.expr,
        _seen: Optional[Set[Tuple[str, str]]] = None,
    ) -> Any:
        """Evaluate an expression to a constant, or :data:`UNRESOLVED`."""
        if isinstance(node, ast.Constant):
            return node.value
        if isinstance(node, ast.Name):
            return self.resolve_name(mod, node.id, _seen=_seen)
        if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
            items = [self.const_eval(mod, e, _seen=_seen) for e in node.elts]
            if any(item is UNRESOLVED for item in items):
                return UNRESOLVED
            return frozenset(items) if isinstance(node, ast.Set) else tuple(items)
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
            operand = self.const_eval(mod, node.operand, _seen=_seen)
            if isinstance(operand, (int, float)):
                return -operand
            return UNRESOLVED
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add):
            left = self.const_eval(mod, node.left, _seen=_seen)
            right = self.const_eval(mod, node.right, _seen=_seen)
            if left is UNRESOLVED or right is UNRESOLVED:
                return UNRESOLVED
            try:
                return left + right
            except TypeError:
                return UNRESOLVED
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in ("frozenset", "set", "tuple", "list")
            and not node.keywords
            and len(node.args) <= 1
        ):
            if not node.args:
                return frozenset() if node.func.id in ("frozenset", "set") else ()
            inner = self.const_eval(mod, node.args[0], _seen=_seen)
            if inner is UNRESOLVED:
                return UNRESOLVED
            try:
                items = tuple(inner)
            except TypeError:
                return UNRESOLVED
            return (
                frozenset(items)
                if node.func.id in ("frozenset", "set")
                else tuple(items)
            )
        return UNRESOLVED


class MutationIndex:
    """Bounded "does this code mutate shard state" reachability.

    Scope, by construction (see the module docstring for why bounded):

    1. a call whose terminal name starts with a mutation seed;
    2. a store into a subscript of the dispatch registry parameter
       (``engines[sid] = …``);
    3. recursion through functions defined in the *same module* as the
       dispatcher (``restore_engine``, ``_prune``, …);
    4. one hop into a method of the engine class (resolved from the
       registry parameter's ``Dict[int, <EngineClass>]`` annotation),
       where a ``self.<attr>`` store or a seed-named call is evidence.
    """

    def __init__(
        self,
        module: ModuleInfo,
        engine_methods: Optional[Dict[str, ast.FunctionDef]] = None,
        seeds: Sequence[str] = MUTATION_SEEDS,
    ):
        self.module = module
        self.engine_methods = engine_methods or {}
        self.seeds = tuple(seeds)
        self._method_verdicts: Dict[str, bool] = {}

    def seeded(self, name: Optional[str]) -> bool:
        return name is not None and any(
            name.startswith(seed) for seed in self.seeds
        )

    def method_mutates(self, name: str) -> bool:
        """Direct evidence only: a ``self.<attr>`` store or seeded call."""
        if name in self._method_verdicts:
            return self._method_verdicts[name]
        method = self.engine_methods.get(name)
        verdict = False
        if method is not None:
            for node in ast.walk(method):
                if isinstance(node, (ast.Assign, ast.AugAssign)):
                    targets = (
                        node.targets
                        if isinstance(node, ast.Assign)
                        else [node.target]
                    )
                    if any(
                        isinstance(t, ast.Attribute)
                        and isinstance(t.value, ast.Name)
                        and t.value.id == "self"
                        for t in targets
                    ):
                        verdict = True
                        break
                if isinstance(node, ast.Call) and self.seeded(
                    terminal_call_name(node)
                ):
                    verdict = True
                    break
        self._method_verdicts[name] = verdict
        return verdict

    def stmts_mutate(
        self,
        stmts: Sequence[ast.stmt],
        registry_name: Optional[str] = None,
        _seen: Optional[Set[str]] = None,
    ) -> bool:
        """Whether a statement region mutates state, within the bound."""
        seen = _seen if _seen is not None else set()
        for stmt in stmts:
            for node in ast.walk(stmt):
                if isinstance(node, (ast.Assign, ast.AugAssign)):
                    targets = (
                        node.targets
                        if isinstance(node, ast.Assign)
                        else [node.target]
                    )
                    if registry_name is not None and any(
                        isinstance(t, ast.Subscript)
                        and isinstance(t.value, ast.Name)
                        and t.value.id == registry_name
                        for t in targets
                    ):
                        return True
                if not isinstance(node, ast.Call):
                    continue
                name = terminal_call_name(node)
                if self.seeded(name):
                    return True
                if (
                    isinstance(node.func, ast.Name)
                    and node.func.id in self.module.functions
                    and node.func.id not in seen
                ):
                    seen.add(node.func.id)
                    if self.stmts_mutate(
                        self.module.functions[node.func.id].body,
                        registry_name=None,
                        _seen=seen,
                    ):
                        return True
                elif (
                    isinstance(node.func, ast.Attribute)
                    and isinstance(node.func.value, ast.Name)
                    and node.func.attr in self.engine_methods
                ):
                    if self.method_mutates(node.func.attr):
                        return True
        return False
