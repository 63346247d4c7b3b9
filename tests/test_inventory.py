"""The module inventories in DESIGN.md and PAPER.md match the tree.

DESIGN §5.10 lists every module under ``src/repro`` with its line
count and what reads it; DESIGN §2 and PAPER.md name the module behind
each system.  These tests check a row per module, a module per row, the
line count each row states (``wc -l``) and a file per named path — not
the readers the rows state.
"""

import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "repro"


def inventory_table() -> list:
    """``(module, lines)`` of every DESIGN §5.10 table row, in order."""
    design = (ROOT / "DESIGN.md").read_text(encoding="utf-8")
    start = design.index("\n## 5.10 What reads each module\n")
    body = design[start:design.index("\n## ", start + 1)]
    rows = re.findall(r"^\| `([^`]+)` \| (\d+) \|", body, flags=re.MULTILINE)
    return [(module, int(lines)) for module, lines in rows]


def inventory_rows() -> list:
    """Module column of every DESIGN §5.10 table row, in order."""
    return [module for module, _lines in inventory_table()]


def test_every_module_has_exactly_one_row():
    rows = inventory_rows()
    modules = sorted(p.relative_to(SRC).as_posix() for p in SRC.rglob("*.py"))
    missing = [m for m in modules if m not in rows]
    repeated = sorted({r for r in rows if rows.count(r) > 1})
    assert not missing, f"modules without a DESIGN §5.10 row: {missing}"
    assert not repeated, f"modules with more than one row: {repeated}"


def test_every_row_names_an_existing_module():
    gone = [r for r in inventory_rows() if not (SRC / r).is_file()]
    assert not gone, f"DESIGN §5.10 rows for missing modules: {gone}"


def line_count(module: str) -> int:
    """What ``wc -l`` prints for a module: its newline characters."""
    return (SRC / module).read_bytes().count(b"\n")


def test_every_row_states_the_line_count():
    drifted = [
        f"{module}: {lines} stated, {line_count(module)} in the file"
        for module, lines in inventory_table()
        if (SRC / module).is_file() and line_count(module) != lines
    ]
    assert not drifted, f"DESIGN §5.10 line counts that drifted: {drifted}"


@pytest.mark.parametrize("doc", ["DESIGN.md", "PAPER.md"])
def test_named_paths_exist(doc):
    text = (ROOT / doc).read_text(encoding="utf-8")
    paths = set(re.findall(r"`(repro/[^`\s]*)`", text))
    assert paths, f"{doc} names no repro/ path"
    gone = sorted(p for p in paths if not (ROOT / "src" / p).exists())
    assert not gone, f"{doc} names paths that do not exist: {gone}"
