"""``python -m repro.check`` — lint and sanitize from the command line.

Subcommands
-----------

``lint PATH...``
    Run the RC000–RC006 domain lint over files or directory trees.
    Prints one line per finding; exits 1 when anything is found.
``flow PATH...``
    Run the cross-module flow analysis (RC1xx/RC2xx) over package
    source roots: shard-protocol completeness, kernel-triple parity,
    and error-code registry consistency.  Exits 1 on any finding.
``sanitize PATH...``
    Audit a ``.json`` sharded-engine snapshot written from
    :meth:`repro.par.ShardedJoinEngine.export_state` with the
    SC401–SC403 shard invariants.  Prints SC-code findings; exits 1
    when any invariant is violated.

Examples::

    python -m repro.check lint src/
    python -m repro.check flow src/ --format json
    python -m repro.check sanitize /tmp/sharded_state.json
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import List, Optional, Sequence

from .errors import Finding
from .flow import flow_paths
from .lint import lint_paths
from .sanitize import check_sharded_state

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    """The ``repro.check`` argument parser (exposed for tests/docs)."""
    parser = argparse.ArgumentParser(
        prog="repro.check",
        description="Invariant sanitizer and domain lint for the "
        "TC-join reproduction",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_lint = sub.add_parser("lint", help="static domain lint (RC000-RC006)")
    p_lint.add_argument("paths", nargs="+", metavar="PATH",
                        help="files or directories to lint")
    p_lint.add_argument("--format", choices=("text", "json"), default="text",
                        help="output format (default: text)")

    p_flow = sub.add_parser("flow",
                            help="cross-module flow analysis (RC1xx/RC2xx): "
                                 "shard protocol, kernel triple, code registry")
    p_flow.add_argument("paths", nargs="+", metavar="PATH",
                        help="package source roots (e.g. src/)")
    p_flow.add_argument("--format", choices=("text", "json"), default="text",
                        help="output format (default: text)")

    p_san = sub.add_parser("sanitize",
                           help="audit a sharded state snapshot (SC codes)")
    p_san.add_argument("paths", nargs="+", metavar="PATH",
                       help="sharded export_state() .json snapshot")
    return parser


def _audit(path: str) -> List[Finding]:
    with open(path, "r", encoding="utf-8") as fh:
        state = json.load(fh)
    return check_sharded_state(state, label=Path(path).name)


def _report(findings: Sequence[Finding], out, what: str,
            fmt: str = "text") -> int:
    if fmt == "json":
        out.write(json.dumps({
            "check": what,
            "count": len(findings),
            "findings": [
                {"code": f.code, "message": f.message, "location": f.location}
                for f in findings
            ],
        }, indent=2) + "\n")
        return 1 if findings else 0
    for finding in findings:
        out.write(f"{finding}\n")
    if findings:
        out.write(f"{len(findings)} {what} finding(s)\n")
        return 1
    out.write(f"clean: no {what} findings\n")
    return 0


def main(argv: Optional[Sequence[str]] = None, out=None) -> int:
    """CLI entry point; returns a process exit code."""
    if out is None:
        out = sys.stdout
    args = build_parser().parse_args(argv)
    if args.command == "lint":
        return _report(lint_paths(Path(p) for p in args.paths), out, "lint",
                       args.format)
    if args.command == "flow":
        return _report(flow_paths(Path(p) for p in args.paths), out, "flow",
                       args.format)
    findings: List[Finding] = []
    for path in args.paths:
        findings.extend(_audit(path))
    return _report(findings, out, "sanitizer")
