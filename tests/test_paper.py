"""The paper's Figs. 7, 8 and 13, pinned: recompute their ``small`` cells
with the writer's own table (``benchmarks/paper.py``) and compare every
count exactly with ``BENCH_paper.json``, then evaluate the figures'
claims on the counts.

Fig. 13's ETP cell at n=1000 takes about 17 s alone; it stays with the
rest of the table in the writer's default mode, and its recorded counts
stand in for it here.
"""

import importlib.util
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("paper", ROOT / "benchmarks" / "paper.py")
paper = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(paper)

PINNED = [
    cell for cell in paper.cells("small")
    if cell.figure in ("fig07", "fig08")
    or (cell.figure == "fig13" and (cell.x < 1000 or cell.series == paper.MTB))
]
RECORDED = paper.recorded(paper.load(), "small")


@pytest.mark.parametrize("cell", PINNED, ids=lambda c: f"{c.figure}-{c.series}-{c.x}")
def test_cell_counts_match_the_record(cell):
    counts = cell.run()  # measured once per session, kept by the writer
    assert {k: counts[k] for k in paper.COUNTS} == {
        k: RECORDED[cell.key][k] for k in paper.COUNTS
    }


@pytest.mark.parametrize("figure", ["fig07", "fig08", "fig13"])
def test_figure_claims(figure):
    counts = {**RECORDED, **{c.key: c.run() for c in PINNED if c.figure == figure}}
    report = paper.check_claims(counts, [figure])
    assert report
    assert [verdict for _claim, ok, verdict in report if not ok] == []


def test_every_cell_recorded_once():
    keys = [c.key for c in paper.cells("small")]
    rows = paper.load()["profiles"]["small"]["cells"]
    assert len(keys) == len(set(keys)) == len(rows) == len(RECORDED)
    assert set(keys) == set(RECORDED)


def test_experiments_tables_render_the_record():
    text = (ROOT / "EXPERIMENTS.md").read_text()
    assert paper.table_drift(text, RECORDED) == []
