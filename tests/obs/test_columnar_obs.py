"""Observability contract of the columnar engine.

Satellite of the columnar tick loop: with recording *off* the vectorized
loop must stay span-free (the ``_span`` guard returns the singleton
``NULL_SPAN`` — no tag dicts, no span allocation), with recording *on*
the root rollup must equal the tracker counters bit-exactly and the
per-phase timeline must exist.  Counter attribution is whole-batch: one
``pair_tests`` increment per sweep, not one per candidate pair.
"""

from __future__ import annotations

import pytest

from repro.core import ColumnarJoinEngine, JoinConfig
from repro.metrics import COUNTER_KEYS
from repro.obs import NULL_SPAN
from repro.workloads import VectorUpdateStream, make_workload_arrays

T_M = 10.0


def arrays(seed=17):
    return make_workload_arrays(
        64, "uniform", max_speed=3.0, object_size_pct=1.5, t_m=T_M, seed=seed
    )


def build(obs: bool):
    arr = arrays()
    engine = ColumnarJoinEngine(
        arr.columns_a(),
        arr.columns_b(),
        algorithm="mtb",
        config=JoinConfig(t_m=T_M, obs=obs),
    )
    return engine, arr


def drive(engine, arr, ticks=8, seed=3):
    engine.run_initial_join()
    stream = VectorUpdateStream(arr, seed=seed)
    for step in range(1, ticks + 1):
        t = float(step)
        engine.tick(t)
        upd_a, upd_b = stream.updates_at(t)
        engine.apply_update_columns(upd_a, upd_b)
        engine.result_at(t)


def counter_dict(tracker):
    return {key: getattr(tracker, key) for key in COUNTER_KEYS}


def obs_counters(recorder):
    totals = recorder.root_totals()
    return {key: int(totals.get(key, 0)) for key in COUNTER_KEYS}


def test_obs_off_tick_loop_is_span_free():
    """Regression guard: obs-off phases must not allocate spans at all."""
    engine, _ = build(obs=False)
    assert engine.obs is None
    assert engine._span("engine.update_batch", t=0.0, n=0) is NULL_SPAN
    assert engine._span("engine.initial_join") is NULL_SPAN
    # And the guard is the NULL_SPAN singleton, not a fresh no-op object:
    assert engine._span("a") is engine._span("b")


def test_rollup_matches_tracker_bit_exactly():
    engine, arr = build(obs=True)
    drive(engine, arr)
    assert obs_counters(engine.obs) == counter_dict(engine.tracker)
    assert engine.tracker.pair_tests > 0  # not vacuous


def test_phase_timeline_present():
    engine, arr = build(obs=True)
    drive(engine, arr, ticks=4)
    names = {span.name for span in engine.obs.root.walk()}
    assert {"engine.initial_join", "engine.update_batch"} <= names
    batches = engine.obs.find("engine.update_batch")
    assert [span.tags["t"] for span in batches] == [1.0, 2.0, 3.0, 4.0]
    # Whole-batch op counts ride on the span tags.
    assert all(span.tags["n"] >= 0 for span in batches)


def test_recording_does_not_change_results_or_counters():
    plain, arr_p = build(obs=False)
    recorded, arr_r = build(obs=True)
    drive(plain, arr_p)
    drive(recorded, arr_r)
    assert plain.result_at(8.0) == recorded.result_at(8.0)
    assert counter_dict(plain.tracker) == counter_dict(recorded.tracker)
    assert sorted(plain.store._pairs) == sorted(recorded.store._pairs)


def test_export_requires_obs(tmp_path):
    engine, _ = build(obs=False)
    with pytest.raises(RuntimeError, match="obs"):
        engine.export_obs(tmp_path / "unused.json")


def test_export_writes_json(tmp_path):
    engine, arr = build(obs=True)
    drive(engine, arr, ticks=2)
    path = tmp_path / "columnar.json"
    engine.export_obs(path)
    assert path.exists() and path.stat().st_size > 0


def test_filter_selectivity_rides_the_phase_spans(monkeypatch):
    """pairs added <= ``exact_tests`` <= ``pair_tests`` on every phase span.

    ``pair_tests`` keeps its meaning (what the scalar sweep tests); the
    orthogonal-bound filter's survivors are filed as ``exact_tests`` on
    the phase span that ran the sweep.
    """
    from repro.core import columnar

    engine, arr = build(obs=True)
    sweep = columnar.batch_sweep_join

    def counting_sweep(*args, **kwargs):
        rows = sweep(*args, **kwargs)
        engine.obs.count("pairs_out", len(rows[0]))  # files on the open span
        return rows

    monkeypatch.setattr(columnar, "batch_sweep_join", counting_sweep)
    drive(engine, arr)
    phases = engine.obs.find("engine.initial_join") + engine.obs.find(
        "engine.update_batch"
    )
    assert len(phases) == 9
    for span in phases:
        counts = span.counts
        assert (
            counts.get("pairs_out", 0)
            <= counts.get("exact_tests", 0)
            <= counts.get("pair_tests", 0)
        )
    totals = engine.obs.root_totals()
    assert totals["exact_tests"] == sum(s.counts.get("exact_tests", 0) for s in phases)
    # At n=64 the filter must actually prune, not merely not grow.
    assert 0 < totals["pairs_out"] <= totals["exact_tests"] < totals["pair_tests"]
