"""``python -m repro.check`` — audit exported state from the command line.

Subcommands
-----------

``sanitize PATH...``
    Audit a ``.json`` sharded-engine snapshot written from
    :meth:`repro.par.ShardedJoinEngine.export_state` with the
    SC401–SC403 shard invariants.  Prints SC-code findings; exits 1
    when any invariant is violated.

Example::

    python -m repro.check sanitize /tmp/sharded_state.json
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import List, Optional, Sequence

from .errors import Finding
from .sanitize import check_sharded_state

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    """The ``repro.check`` argument parser (exposed for tests/docs)."""
    parser = argparse.ArgumentParser(
        prog="repro.check",
        description="Invariant sanitizer for the TC-join reproduction",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    p_san = sub.add_parser("sanitize",
                           help="audit a sharded state snapshot (SC codes)")
    p_san.add_argument("paths", nargs="+", metavar="PATH",
                       help="sharded export_state() .json snapshot")
    return parser


def _audit(path: str) -> List[Finding]:
    with open(path, "r", encoding="utf-8") as fh:
        state = json.load(fh)
    return check_sharded_state(state, label=Path(path).name)


def main(argv: Optional[Sequence[str]] = None, out=None) -> int:
    """CLI entry point; returns a process exit code."""
    if out is None:
        out = sys.stdout
    args = build_parser().parse_args(argv)
    findings: List[Finding] = []
    for path in args.paths:
        findings.extend(_audit(path))
    for finding in findings:
        out.write(f"{finding}\n")
    if findings:
        out.write(f"{len(findings)} sanitizer finding(s)\n")
        return 1
    out.write("clean: no sanitizer findings\n")
    return 0
