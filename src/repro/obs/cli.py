"""``python -m repro.obs`` — render recorded observability runs.

Subcommand
----------

``report PATH...``
    Load one or more recording JSON files (directories are expanded to
    their ``*.json`` members) and print, per recording, its phase,
    component and per-tick timeline breakdowns.

Examples::

    python -m repro.obs report benchmarks/out/obs/
    python -m repro.obs report run.json --sections phases,timeline
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

from .report import SECTIONS, iter_recordings, render_report

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    """The ``repro.obs`` argument parser (exposed for tests/docs)."""
    parser = argparse.ArgumentParser(
        prog="repro.obs",
        description="Render phase-attributed cost recordings as "
        "paper-style tables",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_report = sub.add_parser("report", help="print tables from recordings")
    p_report.add_argument("paths", nargs="+", metavar="PATH",
                          help="recording JSON files or directories of them")
    p_report.add_argument(
        "--sections", default=",".join(SECTIONS), metavar="LIST",
        help="comma-separated subset of: " + ", ".join(SECTIONS),
    )
    return parser


def main(argv: Optional[Sequence[str]] = None, out=None) -> int:
    """CLI entry point; returns a process exit code."""
    if out is None:
        out = sys.stdout
    args = build_parser().parse_args(argv)
    sections = tuple(s.strip() for s in args.sections.split(",") if s.strip())
    unknown = [s for s in sections if s not in SECTIONS]
    if unknown:
        out.write(f"unknown section(s): {', '.join(unknown)}\n")
        return 2
    recordings = iter_recordings(args.paths)
    if not recordings:
        out.write("no recordings found\n")
        return 1
    render_report(recordings, lambda line: out.write(line + "\n"), sections)
    return 0
