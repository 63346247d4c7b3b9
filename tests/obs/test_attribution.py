"""The attribution contract: span rollups are bit-exact vs. the tracker.

A recording is an :class:`~repro.obs.ObsRecorder` attached to an
engine's ``tracker``; it records from the attach on.  Every engine that
opens phase spans (the tree engine under all four algorithms, the
columnar engine under TC and MTB, the self-join) is driven through its
initial join, ticks and updates with a recorder attached after
construction, and the root rollup must equal the tracker's counter
deltas since the attach — the recorder changes *where* increments are
filed, never how many there are.  Also pins that recording does not
change join results.
"""

from __future__ import annotations

from collections import Counter

import pytest

from repro.core import (
    ColumnarJoinEngine,
    ContinuousJoinEngine,
    ContinuousSelfJoinEngine,
    JoinConfig,
)
from repro.metrics import COUNTER_KEYS
from repro.obs import NULL_SPAN, ObsRecorder, tracker_span
from repro.workloads import UpdateStream, make_workload

ALGORITHMS = ("naive", "etp", "tc", "mtb")
TICKS = 8


def drive(engine, scenario, ticks=TICKS, seed=3):
    """Initial join then a few timestamps of updates against the engine.

    Returns the ``apply_update`` calls made per tick.
    """
    engine.run_initial_join()
    calls = Counter()
    for t, batch in UpdateStream(scenario, seed=seed).by_timestamp(1.0, float(ticks)):
        engine.tick(t)
        for obj in batch:
            engine.apply_update(obj)
            calls[t] += 1
        engine.result_at(t)
    return calls


def drive_columnar(engine, scenario, ticks=TICKS, seed=3):
    """Initial join then one ``apply_update_columns`` per tick."""
    engine.run_initial_join()
    stream = UpdateStream(scenario, seed=seed)
    calls = Counter()
    for step in range(1, ticks + 1):
        t = float(step)
        engine.tick(t)
        engine.apply_update_columns(*stream.updates_at(t))
        calls[t] += 1
        engine.result_at(t)
    return calls


def drive_selfjoin(engine, scenario, ticks=TICKS, seed=2):
    """The stream schedules both scenario sets; the self-join engine
    only manages set A, so B-updates are drawn but not applied."""
    engine.run_initial_join()
    calls = Counter()
    for t, batch in UpdateStream(scenario, seed=seed).by_timestamp(1.0, float(ticks)):
        engine.tick(t)
        for obj in batch:
            if obj.oid in engine.objects:
                engine.apply_update(obj)
                calls[t] += 1
    return calls


def tree_case(algorithm):
    def run():
        scenario = make_workload(60, seed=11)
        engine = ContinuousJoinEngine(
            scenario.set_a, scenario.set_b, algorithm=algorithm,
            config=JoinConfig(buffer_pages=8),
        )
        return engine, lambda: drive(engine, scenario), "engine.update"
    return run


def columnar_case(algorithm):
    def run():
        scenario = make_workload(
            64, "uniform", max_speed=3.0, object_size_pct=1.5, t_m=10.0, seed=17
        )
        engine = ColumnarJoinEngine(
            scenario.columns_a(), scenario.columns_b(), algorithm=algorithm,
            config=JoinConfig(t_m=10.0),
        )
        return engine, lambda: drive_columnar(engine, scenario), "engine.update_batch"
    return run


def selfjoin_case():
    scenario = make_workload(50, seed=5)
    engine = ContinuousSelfJoinEngine(scenario.set_a, config=JoinConfig(buffer_pages=8))
    return engine, lambda: drive_selfjoin(engine, scenario), "engine.update"


ENGINES = {
    **{algorithm: tree_case(algorithm) for algorithm in ALGORITHMS},
    "columnar-tc": columnar_case("tc"),
    "columnar-mtb": columnar_case("mtb"),
    "selfjoin": selfjoin_case,
}


def counter_dict(tracker):
    return {key: getattr(tracker, key) for key in COUNTER_KEYS}


def obs_counters(recorder):
    totals = recorder.root_totals()
    return {key: int(totals.get(key, 0)) for key in COUNTER_KEYS}


@pytest.mark.parametrize("name", list(ENGINES))
def test_rollup_matches_tracker_bit_exactly(name):
    engine, run, update_phase = ENGINES[name]()
    before = counter_dict(engine.tracker)
    recorder = ObsRecorder()
    recorder.attach(engine.tracker)
    calls = run()
    after = counter_dict(engine.tracker)
    assert obs_counters(recorder) == {key: after[key] - before[key] for key in COUNTER_KEYS}
    # Real work happened (the equality is not vacuous).
    assert after["pair_tests"] > before["pair_tests"]
    # One update span per tick that saw updates, counting every call.
    spans = recorder.find(update_phase)
    assert len({span.tags["t"] for span in spans}) == len(spans)
    assert {span.tags["t"]: span.calls for span in spans} == {
        t: n for t, n in calls.items() if n
    }
    assert sum(calls.values()) > 0


def test_phases_and_hot_spans_are_present():
    scenario = make_workload(40, seed=9)
    engine = ContinuousJoinEngine(
        scenario.set_a, scenario.set_b, algorithm="mtb", config=JoinConfig(),
    )
    recorder = ObsRecorder()
    recorder.attach(engine.tracker)
    drive(engine, scenario, ticks=4)
    names = {span.name for span in recorder.root.walk()}
    assert {"engine.initial_join", "engine.tick", "engine.update"} <= names
    # The build ran before anything could be attached: it is on
    # ``build_cost``, not in the recording.
    assert "engine.build" not in names
    assert "join.mtb" in names and "join.mtb.object" in names
    assert "tpr.insert" in names and "tpr.search" in names
    # One tick span per timestamp forms the timeline.
    ticks = recorder.find("engine.tick")
    assert [span.tags["t"] for span in ticks] == [1.0, 2.0, 3.0, 4.0]


def test_buffer_traffic_attributed_under_pressure():
    scenario = make_workload(80, seed=13)
    engine = ContinuousJoinEngine(
        scenario.set_a, scenario.set_b, algorithm="tc",
        config=JoinConfig(buffer_pages=4),
    )
    buffer, tracker = engine.storage.buffer, engine.tracker
    hits, misses, reads = buffer.hits, buffer.misses, tracker.page_reads
    recorder = ObsRecorder()
    recorder.attach(tracker)
    drive(engine, scenario, ticks=4)
    totals = recorder.root_totals()
    assert totals["buffer_misses"] == buffer.misses - misses
    assert totals["buffer_hits"] == buffer.hits - hits
    assert totals.get("buffer_evictions", 0) > 0
    # Misses are what the tracker bills as physical reads.
    assert totals["buffer_misses"] == tracker.page_reads - reads


def test_recording_does_not_change_results():
    scenario = make_workload(60, seed=21)
    plain = ContinuousJoinEngine(
        scenario.set_a, scenario.set_b, algorithm="mtb", config=JoinConfig()
    )
    recorded = ContinuousJoinEngine(
        scenario.set_a, scenario.set_b, algorithm="mtb", config=JoinConfig()
    )
    ObsRecorder().attach(recorded.tracker)
    drive(plain, scenario)
    drive(recorded, scenario)
    assert plain.result_at(8.0) == recorded.result_at(8.0)
    assert counter_dict(plain.tracker) == counter_dict(recorded.tracker)


def test_obs_disabled_by_default():
    """An engine owns no recorder: nothing records until one is attached."""
    scenario = make_workload(20, seed=1)
    engine = ContinuousJoinEngine(scenario.set_a, scenario.set_b)
    assert engine.tracker.obs is None
    assert not hasattr(engine, "obs")
    assert tracker_span(engine.tracker, "engine.tick", t=0.0) is NULL_SPAN
