"""Observability contract of the columnar engine.

With no recorder attached the vectorized loop stays span-free
(:func:`~repro.obs.tracker_span` returns the singleton ``NULL_SPAN`` — no
tag dicts, no span allocation); with one attached the per-phase
timeline exists.  Counter attribution is whole-batch: one
``pair_tests`` increment per sweep, not one per candidate pair.  The
rollup contract is ``test_attribution``'s.
"""

from __future__ import annotations

from repro.core import ColumnarJoinEngine, JoinConfig
from repro.metrics import COUNTER_KEYS
from repro.obs import NULL_SPAN, ObsRecorder, tracker_span
from repro.workloads import VectorUpdateStream, make_workload_arrays

T_M = 10.0


def arrays(seed=17):
    return make_workload_arrays(
        64, "uniform", max_speed=3.0, object_size_pct=1.5, t_m=T_M, seed=seed
    )


def build():
    arr = arrays()
    engine = ColumnarJoinEngine(
        arr.columns_a(),
        arr.columns_b(),
        algorithm="mtb",
        config=JoinConfig(t_m=T_M),
    )
    return engine, arr


def build_recorded():
    engine, arr = build()
    recorder = ObsRecorder()
    recorder.attach(engine.tracker)
    return engine, arr, recorder


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


def test_obs_off_tick_loop_is_span_free():
    """Regression guard: with nothing attached, phases allocate no spans."""
    engine, arr = build()
    tracker = engine.tracker
    assert tracker.obs is None
    assert tracker_span(tracker, "engine.update_batch", t=0.0, n=0) is NULL_SPAN
    assert tracker_span(tracker, "engine.initial_join") is NULL_SPAN
    # And the guard is the NULL_SPAN singleton, not a fresh no-op object:
    assert tracker_span(tracker, "a") is tracker_span(tracker, "b")
    drive(engine, arr, ticks=2)
    assert tracker.obs is None


def test_phase_timeline_present():
    engine, arr, recorder = build_recorded()
    drive(engine, arr, ticks=4)
    names = {span.name for span in recorder.root.walk()}
    assert {"engine.initial_join", "engine.update_batch"} <= names
    batches = recorder.find("engine.update_batch")
    assert [span.tags["t"] for span in batches] == [1.0, 2.0, 3.0, 4.0]
    # Whole-batch op counts ride on the span tags.
    assert all(span.tags["n"] >= 0 for span in batches)


def test_recording_does_not_change_results_or_counters():
    plain, arr_p = build()
    recorded, arr_r, _recorder = build_recorded()
    drive(plain, arr_p)
    drive(recorded, arr_r)
    assert plain.result_at(8.0) == recorded.result_at(8.0)
    assert counter_dict(plain.tracker) == counter_dict(recorded.tracker)
    assert sorted(plain.store._pairs) == sorted(recorded.store._pairs)


def test_export_writes_json(tmp_path):
    engine, arr, recorder = build_recorded()
    drive(engine, arr, ticks=2)
    path = tmp_path / "columnar.json"
    recorder.export_json(path)
    assert path.exists() and path.stat().st_size > 0


def test_filter_selectivity_rides_the_phase_spans(monkeypatch):
    """pairs added <= ``exact_tests`` <= ``pair_tests`` on every phase span.

    ``pair_tests`` keeps its meaning (what the scalar sweep tests); the
    orthogonal-bound filter's survivors are filed as ``exact_tests`` on
    the phase span that ran the sweep.
    """
    from repro.core import columnar

    engine, arr, recorder = build_recorded()
    sweep = columnar.batch_sweep_join

    def counting_sweep(*args, **kwargs):
        rows = sweep(*args, **kwargs)
        recorder.count("pairs_out", len(rows[0]))  # files on the open span
        return rows

    monkeypatch.setattr(columnar, "batch_sweep_join", counting_sweep)
    drive(engine, arr)
    phases = recorder.find("engine.initial_join") + recorder.find("engine.update_batch")
    assert len(phases) == 9
    for span in phases:
        counts = span.counts
        assert (
            counts.get("pairs_out", 0)
            <= counts.get("exact_tests", 0)
            <= counts.get("pair_tests", 0)
        )
    totals = recorder.root_totals()
    assert totals["exact_tests"] == sum(s.counts.get("exact_tests", 0) for s in phases)
    # At n=64 the filter must actually prune, not merely not grow.
    assert 0 < totals["pairs_out"] <= totals["exact_tests"] < totals["pair_tests"]
