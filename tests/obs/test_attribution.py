"""The attribution contract: span rollups are bit-exact vs. the tracker.

Runs real engines (all four algorithms) through build, initial join,
ticks, updates and expiry with recording enabled and asserts that the
root rollup of every recording equals the global ``CostTracker``
counters — the recorder changes *where* increments are filed, never how
many there are.  Also pins the enablement surface (``JoinConfig.obs``,
``REPRO_OBS``) and that recording does not change join results.
"""

from __future__ import annotations

import pytest

from repro.core import ContinuousJoinEngine, ContinuousSelfJoinEngine, JoinConfig
from repro.metrics import COUNTER_KEYS
from repro.workloads import UpdateStream, make_workload

ALGORITHMS = ("naive", "etp", "tc", "mtb")


def drive(engine, scenario, ticks=8, seed=3):
    """Initial join then a few timestamps of updates against the engine."""
    engine.run_initial_join()
    stream = UpdateStream(scenario, seed=seed)
    current = dict(engine.objects_a)
    current.update(engine.objects_b)
    for step in range(1, ticks + 1):
        t = float(step)
        engine.tick(t)
        for obj in stream.updates_for(t, current):
            current[obj.oid] = obj
            engine.apply_update(obj)
        engine.result_at(t)


def counter_dict(tracker):
    return {key: getattr(tracker, key) for key in COUNTER_KEYS}


def obs_counters(recorder):
    totals = recorder.root_totals()
    return {key: int(totals.get(key, 0)) for key in COUNTER_KEYS}


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_rollup_matches_tracker_bit_exactly(algorithm):
    scenario = make_workload(60, seed=11)
    engine = ContinuousJoinEngine(
        scenario.set_a, scenario.set_b, algorithm=algorithm,
        config=JoinConfig(obs=True, buffer_pages=8),
    )
    drive(engine, scenario)
    assert obs_counters(engine.obs) == counter_dict(engine.tracker)
    # Real work happened (the equality is not vacuous).
    assert engine.tracker.pair_tests > 0
    assert engine.tracker.node_visits > 0


def test_rollup_matches_for_selfjoin_engine():
    scenario = make_workload(50, seed=5)
    engine = ContinuousSelfJoinEngine(
        scenario.set_a, config=JoinConfig(obs=True, buffer_pages=8)
    )
    engine.run_initial_join()
    stream = UpdateStream(scenario, seed=2)
    # The stream schedules both scenario sets; the self-join engine only
    # manages set A, so B-updates are extrapolated but not applied.
    current = {obj.oid: obj for obj in scenario.set_b}
    current.update(engine.objects)
    for step in range(1, 6):
        engine.tick(float(step))
        for obj in stream.updates_for(float(step), current):
            if obj.oid in engine.objects:
                current[obj.oid] = obj
                engine.apply_update(obj)
    assert obs_counters(engine.obs) == counter_dict(engine.tracker)
    assert engine.tracker.pair_tests > 0


def test_phases_and_hot_spans_are_present():
    scenario = make_workload(40, seed=9)
    engine = ContinuousJoinEngine(
        scenario.set_a, scenario.set_b, algorithm="mtb",
        config=JoinConfig(obs=True),
    )
    drive(engine, scenario, ticks=4)
    names = {span.name for span in engine.obs.root.walk()}
    assert {"engine.build", "engine.initial_join", "engine.tick",
            "engine.update"} <= names
    assert "join.mtb" in names and "join.mtb.object" in names
    assert "tpr.insert" in names and "tpr.search" in names
    # One distinct tick span per timestamp forms the timeline.
    ticks = engine.obs.find("engine.tick")
    assert [span.tags["t"] for span in ticks] == [1.0, 2.0, 3.0, 4.0]


def test_buffer_traffic_attributed_under_pressure():
    scenario = make_workload(80, seed=13)
    engine = ContinuousJoinEngine(
        scenario.set_a, scenario.set_b, algorithm="tc",
        config=JoinConfig(obs=True, buffer_pages=4),
    )
    drive(engine, scenario, ticks=4)
    totals = engine.obs.root_totals()
    assert totals["buffer_misses"] == engine.storage.buffer.misses
    assert totals["buffer_hits"] == engine.storage.buffer.hits
    assert totals.get("buffer_evictions", 0) > 0
    # Misses are what the tracker bills as physical reads.
    assert totals["buffer_misses"] == engine.tracker.page_reads


def test_recording_does_not_change_results():
    scenario = make_workload(60, seed=21)
    plain = ContinuousJoinEngine(
        scenario.set_a, scenario.set_b, algorithm="mtb", config=JoinConfig()
    )
    recorded = ContinuousJoinEngine(
        scenario.set_a, scenario.set_b, algorithm="mtb",
        config=JoinConfig(obs=True),
    )
    drive(plain, scenario)
    drive(recorded, scenario)
    assert plain.result_at(8.0) == recorded.result_at(8.0)
    assert counter_dict(plain.tracker) == counter_dict(recorded.tracker)


def test_obs_disabled_by_default(monkeypatch):
    monkeypatch.delenv("REPRO_OBS", raising=False)
    scenario = make_workload(20, seed=1)
    engine = ContinuousJoinEngine(scenario.set_a, scenario.set_b)
    assert engine.obs is None
    assert engine.tracker.obs is None
    with pytest.raises(RuntimeError):
        engine.export_obs("unused.json")


def test_env_var_forces_recording_on(monkeypatch):
    monkeypatch.setenv("REPRO_OBS", "1")
    assert JoinConfig().obs is True
    monkeypatch.setenv("REPRO_OBS", "0")
    assert JoinConfig().obs is False
    monkeypatch.delenv("REPRO_OBS")
    assert JoinConfig().obs is False
