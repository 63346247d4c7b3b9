"""``python -m repro.obs report``: tables from recorded engine runs.

Builds a miniature Figure-7-style experiment (TC-constrained vs.
unconstrained initial join at two sizes), records each cell's initial
join with a recorder attached after construction, and checks the
rendered totals carry exactly the tracker's I/O and pair-test numbers
for the join — the report is derived from recordings, not from separate
bookkeeping.
"""

from __future__ import annotations

import io
import json

import pytest

from repro.core import ContinuousJoinEngine, JoinConfig
from repro.obs import ObsRecorder, load_recording, phase_rows, timeline_rows
from repro.obs.cli import main
from repro.workloads import make_workload


def record_initial_join(tmp_path, algorithm, series, n, seed=17):
    scenario = make_workload(n, seed=seed)
    engine = ContinuousJoinEngine(
        scenario.set_a, scenario.set_b, algorithm=algorithm,
        config=JoinConfig(buffer_pages=8),
    )
    recorder = ObsRecorder(meta={"figure": "Fig 7 (mini)", "series": series, "x": n})
    recorder.attach(engine.tracker)
    cost = engine.run_initial_join()
    path = recorder.export_json(tmp_path / f"{series}_{n}.json")
    return path, engine, cost


@pytest.fixture(scope="module")
def recordings(tmp_path_factory):
    tmp_path = tmp_path_factory.mktemp("obs_fig7")
    cells = {}
    for series, algorithm in (("TC", "tc"), ("non-TC", "naive")):
        for n in (30, 60):
            cells[(series, n)] = record_initial_join(tmp_path, algorithm, series, n)
    return tmp_path, cells


def test_report_reproduces_tracker_columns(recordings):
    tmp_path, cells = recordings
    out = io.StringIO()
    assert main(["report", str(tmp_path), "--sections", "phases"], out=out) == 0
    text = out.getvalue()
    assert "Fig 7 (mini)" in text
    for (series, n), (path, _engine, cost) in cells.items():
        block = text.split(f"=== {path} ===", 1)[1]
        totals = next(line for line in block.splitlines() if line.startswith("totals:"))
        fields = dict(item.split("=") for item in totals.split()[1:])
        assert fields["io"] == str(cost.page_reads + cost.page_writes)
        assert fields["pair_tests"] == str(cost.pair_tests)


def test_phase_rows_split_build_from_initial_join(recordings):
    """The build runs before a recorder can be attached: its cost is the
    engine's ``build_cost``, and the recording holds the initial join."""
    _tmp_path, cells = recordings
    path, engine, _cost = cells[("TC", 60)]
    data = load_recording(path)
    rows = {row["phase"]: row for row in phase_rows(data)}
    assert set(rows) == {"engine.initial_join"}
    total = engine.tracker.pair_tests
    assert (engine.build_cost.pair_tests
            + rows["engine.initial_join"]["pair_tests"]) == total
    assert rows["engine.initial_join"]["pair_tests"] > 0


def test_timeline_requires_tick_tags(recordings):
    _tmp_path, cells = recordings
    path, _engine, _cost = cells[("TC", 30)]
    # No ticks were run: the recording has no t-tagged phases.
    assert timeline_rows(load_recording(path)) == []


def test_report_renders_per_tick_timeline(tmp_path):
    scenario = make_workload(30, seed=23)
    engine = ContinuousJoinEngine(
        scenario.set_a, scenario.set_b, algorithm="mtb", config=JoinConfig(),
    )
    recorder = ObsRecorder()
    recorder.attach(engine.tracker)
    engine.run_initial_join()
    for step in (1.0, 2.0):
        engine.tick(step)
        engine.apply_update(next(iter(engine.objects_a.values())))
    path = recorder.export_json(tmp_path / "run.json")
    rows = timeline_rows(load_recording(path))
    assert [row["t"] for row in rows] == [1.0, 2.0]
    assert all(row["updates"] == 1 for row in rows)
    out = io.StringIO()
    assert main(["report", str(path), "--sections", "timeline"], out=out) == 0
    assert "timeline" in out.getvalue()


def test_cli_error_paths(tmp_path):
    out = io.StringIO()
    assert main(["report", str(tmp_path)], out=out) == 1
    assert "no recordings" in out.getvalue()

    bogus = tmp_path / "bogus.json"
    bogus.write_text(json.dumps({"format": "something-else"}))
    with pytest.raises(ValueError):
        main(["report", str(bogus)], out=io.StringIO())

    out = io.StringIO()
    assert main(
        ["report", str(bogus), "--sections", "nonsense"], out=out
    ) == 2
    assert "unknown section" in out.getvalue()
