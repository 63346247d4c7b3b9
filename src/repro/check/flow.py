"""Cross-module flow lint (``RC1xx`` protocol, ``RC2xx`` kernels/registry).

Where :mod:`repro.check.lint` checks one file at a time, this pass
builds a package-wide :class:`~repro.check.symbols.SymbolTable` and
verifies the *cross-file contracts* the reproduction's aggressive
refactors lean on.  Everything is extracted from the real source via
AST — there are no duplicated op lists or code tables to drift.

Protocol completeness (``RC101``–``RC107``)
    The declared command vocabulary (:mod:`repro.par.protocol`), the
    worker dispatch (``execute``), the emission
    sites in the sharded engine and supervisor, the op-log
    ``mutating`` flags, the checkpoint blob's produced/consumed keys,
    and the fault-spec grammar must all agree.

Kernel-pair tolerance parity (``RC202``)
    The scalar pair-test path and the NumPy kernels must source their
    tolerances from ``geometry/constants.py`` (generalizing ``RC006``
    over both tiers).  ``RC201``/``RC203`` are retired.

Registry consistency (``RC211``–``RC213``)
    Every ``SC``/``RC`` code is unique and never recycled from
    :data:`~repro.check.errors.RETIRED_CODES`; every code raised in
    source is registered and documented in DESIGN.md; every registered
    code is referenced by at least one detection test.

Code table
----------

========  ============================================================
``RC101``  protocol/emitted op without a dispatch arm
``RC102``  dispatch arm for an op missing from the protocol registry
``RC103``  dispatch arm mutates state but its op is not ``mutating``
``RC104``  checkpoint produced/consumed key mismatch
``RC105``  fault spec names an unknown fault kind or command op
``RC106``  bare op-name string literal outside ``par/protocol.py``
``RC107``  worker dispatch present without a protocol module
``RC202``  tolerance constant not sourced from ``geometry.constants``
``RC211``  duplicate or retired-and-reused error code
``RC212``  code raised in source but unregistered / undocumented
``RC213``  registered code never referenced by a detection test
========  ============================================================

Run as ``python -m repro.check flow src/``; DESIGN.md and ``tests/``
are located next to the analyzed root when present (the registry
checks that need them are skipped when they are absent, so the pass
also works on fixture trees).
"""

from __future__ import annotations

import ast
import re
from collections import Counter
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from .errors import Finding
from .symbols import (
    UNRESOLVED,
    ModuleInfo,
    MutationIndex,
    SymbolTable,
    terminal_call_name,
)

__all__ = ["check_flow", "flow_paths"]

_CODE_RE = re.compile(r"^(SC|RC)\d{3}$")
_FAULT_ENTRY_RE = re.compile(
    r"^[a-z_]+(:[a-z_]+=[^,;=]+(,[a-z_]+=[^,;=]+)*)?$"
)


# ----------------------------------------------------------------------
# Shared extraction helpers
# ----------------------------------------------------------------------
def _command_specs(
    table: SymbolTable, proto: ModuleInfo
) -> Optional[Dict[str, Dict[str, object]]]:
    """Per-op facts from the ``COMMANDS`` dict literal in protocol.py."""
    node = proto.assigns.get("COMMANDS")
    if not isinstance(node, ast.Dict):
        return None
    specs: Dict[str, Dict[str, object]] = {}
    for key, value in zip(node.keys, node.values):
        if key is None:
            continue
        op = table.const_eval(proto, key)
        if not isinstance(op, str):
            continue
        entry: Dict[str, object] = {
            "mutating": None,
            "n_args": None,
            "line": getattr(value, "lineno", 0),
        }
        if isinstance(value, ast.Call):
            for kw in value.keywords:
                if kw.arg in ("mutating", "n_args"):
                    val = table.const_eval(proto, kw.value)
                    if val is not UNRESOLVED:
                        entry[kw.arg] = val
        specs[op] = entry
    return specs


def _dispatch_arms(
    table: SymbolTable, mod: ModuleInfo, func: ast.FunctionDef
) -> Optional[Tuple[str, Dict[str, ast.If]]]:
    """``(op_variable, {op: If-node})`` of a string-dispatch function.

    The dispatch variable is the name most often compared ``==`` a
    resolvable string constant; each such comparison contributes one
    arm whose body is the If branch.
    """
    counts: Counter = Counter()
    comparisons: List[Tuple[ast.If, ast.Name, ast.expr]] = []
    for node in ast.walk(func):
        if not isinstance(node, ast.If):
            continue
        test = node.test
        if (
            isinstance(test, ast.Compare)
            and len(test.ops) == 1
            and isinstance(test.ops[0], ast.Eq)
        ):
            sides = (test.left, test.comparators[0])
            for name_side, const_side in (sides, sides[::-1]):
                if isinstance(name_side, ast.Name) and isinstance(
                    table.const_eval(mod, const_side), str
                ):
                    counts[name_side.id] += 1
                    comparisons.append((node, name_side, const_side))
                    break
    if not counts:
        return None
    opvar = counts.most_common(1)[0][0]
    arms: Dict[str, ast.If] = {}
    for if_node, name_side, const_side in comparisons:
        if name_side.id != opvar:
            continue
        op = table.const_eval(mod, const_side)
        if isinstance(op, str) and op not in arms:
            arms[op] = if_node
    return opvar, arms


def _dispatch_engine_name(func: ast.FunctionDef) -> Optional[str]:
    """Class named by the registry param's ``Dict[int, <Class>]``."""
    if not func.args.args:
        return None
    annotation = func.args.args[0].annotation
    if annotation is None:
        return None
    skip = {"Dict", "dict", "List", "Optional", "Tuple", "Sequence", "Any"}
    candidates = [
        n.id
        for n in ast.walk(annotation)
        if isinstance(n, ast.Name) and n.id not in skip and n.id[:1].isupper()
    ]
    return candidates[-1] if candidates else None


def _docstring_ids(tree: ast.Module) -> Set[int]:
    """``id()`` of every docstring Constant node in the module."""
    out: Set[int] = set()
    for node in ast.walk(tree):
        if isinstance(
            node, (ast.Module, ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
        ):
            body = node.body
            if (
                body
                and isinstance(body[0], ast.Expr)
                and isinstance(body[0].value, ast.Constant)
                and isinstance(body[0].value.value, str)
            ):
                out.add(id(body[0].value))
    return out


# ----------------------------------------------------------------------
# Protocol completeness (RC101-RC107)
# ----------------------------------------------------------------------
def _emitted_ops(
    table: SymbolTable, mod: ModuleInfo
) -> Dict[str, ast.AST]:
    """Command ops this module emits: first elements of tuple
    literals plus first arguments of ``_fan_all``/``_run_everywhere``.

    The tuple-literal op slot must be a *name* resolving to a string:
    commands are always spelled with protocol constants, so a bare
    string there is RC106's finding, and plain data tuples that happen
    to start with a string literal are not misread as commands.
    """
    out: Dict[str, ast.AST] = {}
    for node in ast.walk(mod.tree):
        if isinstance(node, ast.Tuple) and node.elts:
            if not isinstance(node.elts[0], (ast.Name, ast.Attribute)):
                continue
            val = table.const_eval(mod, node.elts[0])
            if isinstance(val, str):
                out.setdefault(val, node)
        elif isinstance(node, ast.Call):
            name = terminal_call_name(node)
            if name in ("_fan_all", "_run_everywhere") and node.args:
                val = table.const_eval(mod, node.args[0])
                if isinstance(val, str):
                    out.setdefault(val, node)
    return out


def _produced_dict_keys(
    table: SymbolTable, mod: ModuleInfo, func: ast.FunctionDef
) -> Set[str]:
    keys: Set[str] = set()
    for node in ast.walk(func):
        if isinstance(node, ast.Return) and isinstance(node.value, ast.Dict):
            for key in node.value.keys:
                if key is None:
                    continue
                val = table.const_eval(mod, key)
                if isinstance(val, str):
                    keys.add(val)
    return keys


def _consumed_dict_keys(
    mod: ModuleInfo, roots: Iterable[ast.FunctionDef]
) -> Set[str]:
    """String keys read (``blob["k"]`` / ``blob.get("k")``) by the
    given functions and the module-local helpers they call."""
    keys: Set[str] = set()
    seen: Set[str] = set()
    stack = list(roots)
    while stack:
        func = stack.pop()
        if func.name in seen:
            continue
        seen.add(func.name)
        for node in ast.walk(func):
            if (
                isinstance(node, ast.Subscript)
                and isinstance(node.slice, ast.Constant)
                and isinstance(node.slice.value, str)
            ):
                keys.add(node.slice.value)
            elif isinstance(node, ast.Call):
                if (
                    isinstance(node.func, ast.Attribute)
                    and node.func.attr == "get"
                    and node.args
                    and isinstance(node.args[0], ast.Constant)
                    and isinstance(node.args[0].value, str)
                ):
                    keys.add(node.args[0].value)
                if (
                    isinstance(node.func, ast.Name)
                    and node.func.id in mod.functions
                ):
                    stack.append(mod.functions[node.func.id])
    return keys


def _fault_spec_errors(
    text: str, kinds: Set[str], ops: Set[str]
) -> List[str]:
    """Problems in one fault-spec string; ``[]`` when clean, and also
    ``[]`` when the string does not look like a fault spec at all."""
    entries = [e.strip() for e in text.split(";") if e.strip()]
    if not entries or not all(_FAULT_ENTRY_RE.match(e) for e in entries):
        return []
    if not any(":" in e and e.partition(":")[0] in kinds for e in entries):
        return []
    problems: List[str] = []
    for entry in entries:
        kind, _, rest = entry.partition(":")
        if kind not in kinds:
            problems.append(f"unknown fault kind {kind!r}")
            continue
        if not rest:
            continue
        for pair in rest.split(","):
            key, _, value = pair.partition("=")
            if key.strip() == "op" and value.strip() not in ops:
                problems.append(f"unknown command op {value.strip()!r}")
    return problems


def _check_protocol(
    table: SymbolTable, tests_root: Optional[Path]
) -> List[Finding]:
    findings: List[Finding] = []
    proto = table.find("par.protocol")
    wrk = table.find("par.worker")
    if wrk is None:
        return findings
    execute = wrk.functions.get("execute")
    if proto is None:
        if execute is not None:
            findings.append(Finding(
                "RC107",
                "worker command dispatch exists but there is no "
                "par/protocol.py declaring the command vocabulary",
                wrk.where(execute),
            ))
        return findings
    specs = _command_specs(table, proto)
    if specs is None or execute is None:
        return findings

    extracted = _dispatch_arms(table, wrk, execute)
    arms: Dict[str, ast.If] = {}
    registry_param = (
        execute.args.args[0].arg if execute.args.args else None
    )
    if extracted is not None:
        _opvar, arms = extracted

    # RC101/RC102: registry <-> dispatch arms, both directions.
    for op, spec in specs.items():
        if op not in arms:
            findings.append(Finding(
                "RC101",
                f"protocol op {op!r} has no dispatch arm in "
                f"{wrk.name}.execute()",
                f"{proto.path}:{spec['line']}",
            ))
    for op, if_node in arms.items():
        if op not in specs:
            findings.append(Finding(
                "RC102",
                f"dispatch arm for {op!r} but the op is not declared "
                f"in the protocol COMMANDS registry",
                wrk.where(if_node),
            ))

    # RC103: inferred-mutating arms must be flagged mutating.
    engine_methods: Dict[str, ast.FunctionDef] = {}
    class_name = _dispatch_engine_name(execute)
    if class_name is not None:
        info = table.find_class(class_name)
        if info is not None:
            engine_methods = info.methods
    index = MutationIndex(wrk, engine_methods)
    for op, if_node in arms.items():
        spec = specs.get(op)
        if spec is None or spec["mutating"] is not False:
            continue
        if index.stmts_mutate(if_node.body, registry_name=registry_param):
            findings.append(Finding(
                "RC103",
                f"dispatch arm for {op!r} reaches a state-mutating "
                f"call but the op is not flagged mutating (it would "
                f"be skipped by checkpoint/replay recovery)",
                wrk.where(if_node),
            ))

    # RC101 (emission direction): every op the engine/supervisor emits
    # must have a dispatch arm somewhere.
    for mod_suffix in ("par.sharded", "par.supervisor"):
        mod = table.find(mod_suffix)
        if mod is None:
            continue
        for op, node in _emitted_ops(table, mod).items():
            if op in arms:
                continue
            findings.append(Finding(
                "RC101",
                f"{mod.name} emits op {op!r} which has no dispatch arm",
                mod.where(node),
            ))

    # RC104: checkpoint blob keys, both directions.
    producer = wrk.functions.get("make_checkpoint")
    consumers = [
        f
        for f in (
            wrk.functions.get("restore_engine"),
            wrk.functions.get("checkpoint_spec"),
        )
        if f is not None
    ]
    if producer is not None and consumers:
        produced = _produced_dict_keys(table, wrk, producer)
        consumed = _consumed_dict_keys(wrk, consumers)
        if produced:
            for key in sorted(consumed - produced):
                findings.append(Finding(
                    "RC104",
                    f"checkpoint consumers read key {key!r} which "
                    f"make_checkpoint() never produces",
                    wrk.where(consumers[0]),
                ))
            for key in sorted(produced - consumed):
                findings.append(Finding(
                    "RC104",
                    f"make_checkpoint() produces key {key!r} which no "
                    f"consumer ever reads",
                    wrk.where(producer),
                ))

    # RC105: fault specs (in any analyzed module and in tests/) may
    # only name declared kinds and ops.
    faults_mod = table.find("faults")
    kinds_val = UNRESOLVED
    if faults_mod is not None:
        worker_kinds = table.resolve_name(faults_mod, "WORKER_KINDS")
        parent_kinds = table.resolve_name(faults_mod, "PARENT_KINDS")
        if isinstance(worker_kinds, tuple) and isinstance(parent_kinds, tuple):
            kinds_val = set(worker_kinds) | set(parent_kinds)
    reply_op = table.resolve_name(proto, "REPLY_DROP_OP")
    known_ops = set(specs) | (
        {reply_op} if isinstance(reply_op, str) else set()
    )
    if kinds_val is not UNRESOLVED:
        sources: List[Tuple[str, ast.Module]] = [
            (str(mod.path), mod.tree) for mod in table.modules.values()
        ]
        if tests_root is not None:
            for path in sorted(tests_root.rglob("*.py")):
                if "__pycache__" in path.parts:
                    continue
                try:
                    sources.append((str(path), ast.parse(path.read_text())))
                except SyntaxError:
                    continue
        for display, tree in sources:
            for node in ast.walk(tree):
                if not (
                    isinstance(node, ast.Constant)
                    and isinstance(node.value, str)
                ):
                    continue
                for problem in _fault_spec_errors(
                    node.value, kinds_val, known_ops
                ):
                    findings.append(Finding(
                        "RC105",
                        f"fault spec {node.value!r}: {problem}",
                        f"{display}:{node.lineno}",
                    ))

    # RC106: the protocol consumers may not spell op names as bare
    # string literals (dict keys and docstrings are data, not commands).
    vocab = set(specs)
    for mod_suffix in ("par.worker", "par.supervisor", "par.sharded"):
        mod = table.find(mod_suffix)
        if mod is None:
            continue
        skip: Set[int] = _docstring_ids(mod.tree)
        for node in ast.walk(mod.tree):
            if isinstance(node, ast.Dict):
                skip.update(id(k) for k in node.keys if k is not None)
        for node in ast.walk(mod.tree):
            if (
                isinstance(node, ast.Constant)
                and isinstance(node.value, str)
                and node.value in vocab
                and id(node) not in skip
            ):
                findings.append(Finding(
                    "RC106",
                    f"bare op-name literal {node.value!r}; use the "
                    f"constant from par/protocol.py",
                    f"{mod.path}:{node.lineno}",
                ))
    return findings


# ----------------------------------------------------------------------
# Kernel-pair tolerance parity (RC202)
# ----------------------------------------------------------------------
def _check_kernels(table: SymbolTable) -> List[Finding]:
    findings: List[Finding] = []
    constants = table.find("geometry.constants")
    kernels = table.find("geometry.kernels")
    scalar = table.find("geometry.intersection")
    pair = [m for m in (scalar, kernels) if m is not None]

    # RC202: both tiers import the shared constants and re-inline none
    # of their values.
    if constants is not None and pair:
        values = set()
        for name, expr in constants.assigns.items():
            if name.startswith("_"):
                continue
            val = table.const_eval(constants, expr)
            if isinstance(val, float) and abs(val) not in (0.0, 1.0):
                values.add(val)
        for mod in pair:
            imports_constants = any(
                table.find(src) is constants
                for src, _orig in mod.imports.values()
            )
            if not imports_constants:
                findings.append(Finding(
                    "RC202",
                    f"{mod.name} must import its tolerances from "
                    f"{constants.name} (kernel-pair drift guard)",
                    f"{mod.path}:1",
                ))
            for node in ast.walk(mod.tree):
                if (
                    isinstance(node, ast.Constant)
                    and isinstance(node.value, float)
                    and node.value in values
                ):
                    findings.append(Finding(
                        "RC202",
                        f"inline tolerance literal {node.value!r} "
                        f"duplicates a {constants.name} constant",
                        f"{mod.path}:{node.lineno}",
                    ))
    return findings


# ----------------------------------------------------------------------
# Registry consistency (RC211-RC213)
# ----------------------------------------------------------------------
def _check_registry(
    table: SymbolTable,
    docs_path: Optional[Path],
    tests_root: Optional[Path],
) -> List[Finding]:
    findings: List[Finding] = []
    errors_mod = table.find("check.errors")
    if errors_mod is None:
        return findings
    registries: Dict[str, Tuple[str, ...]] = {}
    for reg in ("SANITIZER_CODES", "LINT_CODES", "FLOW_CODES", "RETIRED_CODES"):
        val = table.resolve_name(errors_mod, reg)
        registries[reg] = val if isinstance(val, tuple) else ()
    where_reg = f"{errors_mod.path}:1"

    # RC211: uniqueness across live registries, no retired reuse.
    owner: Dict[str, str] = {}
    for reg in ("SANITIZER_CODES", "LINT_CODES", "FLOW_CODES"):
        for code in registries[reg]:
            if code in owner:
                findings.append(Finding(
                    "RC211",
                    f"code {code} registered twice "
                    f"({owner[code]} and {reg})",
                    where_reg,
                ))
            else:
                owner[code] = reg
    for code in registries["RETIRED_CODES"]:
        if code in owner:
            findings.append(Finding(
                "RC211",
                f"retired code {code} re-used in {owner[code]}",
                where_reg,
            ))

    # RC212: raised-in-source codes must be registered…
    raised: Dict[str, str] = {}
    for mod in table.modules.values():
        for node in ast.walk(mod.tree):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "Finding"
                and node.args
                and isinstance(node.args[0], ast.Constant)
                and isinstance(node.args[0].value, str)
                and _CODE_RE.match(node.args[0].value)
            ):
                raised.setdefault(node.args[0].value, mod.where(node))
    for code in sorted(raised):
        if code not in owner:
            findings.append(Finding(
                "RC212",
                f"code {code} is raised in source but not registered "
                f"in check/errors.py",
                raised[code],
            ))

    # …and every registered code must be documented and test-covered.
    if docs_path is not None:
        docs_text = docs_path.read_text()
        for code in sorted(owner):
            if code not in docs_text:
                findings.append(Finding(
                    "RC212",
                    f"registered code {code} is missing from the "
                    f"{docs_path.name} invariant tables",
                    str(docs_path),
                ))
    if tests_root is not None:
        tests_text = "\n".join(
            path.read_text()
            for path in sorted(tests_root.rglob("*.py"))
            if "__pycache__" not in path.parts
        )
        for code in sorted(owner):
            if code not in tests_text:
                findings.append(Finding(
                    "RC213",
                    f"registered code {code} is never referenced by any "
                    f"detection test under {tests_root.name}/",
                    where_reg,
                ))
    return findings


# ----------------------------------------------------------------------
# Entry points
# ----------------------------------------------------------------------
def check_flow(
    root: Path,
    docs_path: Optional[Path] = None,
    tests_root: Optional[Path] = None,
) -> List[Finding]:
    """Run every cross-module flow check over one source root.

    ``docs_path``/``tests_root`` default to ``DESIGN.md`` and
    ``tests/`` next to the root's parent when they exist; checks that
    need an absent input are skipped, so fixture trees analyze cleanly.
    """
    root = Path(root)
    if docs_path is None:
        candidate = root.resolve().parent / "DESIGN.md"
        docs_path = candidate if candidate.is_file() else None
    if tests_root is None:
        candidate = root.resolve().parent / "tests"
        tests_root = candidate if candidate.is_dir() else None
    table = SymbolTable.build(root)
    findings = (
        _check_protocol(table, tests_root)
        + _check_kernels(table)
        + _check_registry(table, docs_path, tests_root)
    )
    findings.sort(
        key=lambda f: (
            f.location.rsplit(":", 1)[0],
            int(f.location.rsplit(":", 1)[-1] or 0)
            if f.location.rsplit(":", 1)[-1].isdigit()
            else 0,
            f.code,
        )
    )
    return findings


def flow_paths(paths: Iterable[Path]) -> List[Finding]:
    """Run :func:`check_flow` over one or more source roots."""
    findings: List[Finding] = []
    for raw in paths:
        findings.extend(check_flow(Path(raw)))
    return findings
