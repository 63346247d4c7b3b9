"""Continuous window queries vs a per-timestamp oracle."""

import pytest

from repro.core import JoinConfig
from repro.geometry import Box, KineticBox
from repro.queries import ContinuousWindowEngine
from repro.workloads import UpdateStream, uniform_workload


def oracle(windows, objects, t):
    pairs = set()
    for qid, window in windows.items():
        wbox = window.at(t)
        for oid, obj in objects.items():
            if wbox.intersects(obj.mbr_at(t)):
                pairs.add((qid, oid))
    return pairs


def build(n=100, t_m=12.0, seed=3, n_windows=3):
    scenario = uniform_workload(n, seed=seed, max_speed=3.0, object_size_pct=1.0, t_m=t_m)
    windows = {
        9_000_000 + i: KineticBox.rigid(
            Box(150 * i, 150 * i + 250, 100, 450),
            (-1) ** i * 0.8, 0.4, 0.0,
        )
        for i in range(n_windows)
    }
    engine = ContinuousWindowEngine(scenario.set_a, windows, JoinConfig(t_m=t_m))
    engine.evaluate_initial()
    return scenario, windows, engine


class TestContinuousWindow:
    def test_initial_answer(self):
        _scenario, windows, engine = build()
        objects = dict(engine.objects)
        assert engine.result_at(0.0) == oracle(windows, objects, 0.0)

    def test_continuous_correctness_under_updates(self):
        scenario, windows, engine = build()
        for t, batch in UpdateStream(scenario, seed=10).by_timestamp(1.0, 34.0):
            engine.tick(t)
            for obj in batch:
                if obj.oid in engine.objects:
                    engine.apply_update(obj)
            assert engine.result_at() == oracle(windows, engine.objects, t), t

    def test_result_for_single_window(self):
        _scenario, windows, engine = build()
        qid = next(iter(windows))
        expected = {b for (a, b) in engine.result_at(0.0) if a == qid}
        assert engine.result_for(qid, 0.0) == expected

    def test_add_and_remove_window(self):
        _scenario, windows, engine = build()
        new_qid = 9_999_999
        new_window = KineticBox.rigid(Box(0, 1000, 0, 1000), 0, 0, 0.0)
        engine.add_window(new_qid, new_window)
        # The whole-space window sees every object.
        assert engine.result_for(new_qid, 0.0) == set(engine.objects)
        engine.remove_window(new_qid)
        assert engine.result_for(new_qid, 0.0) == set()

    def test_id_collisions_rejected(self):
        scenario, windows, engine = build()
        with pytest.raises(ValueError):
            engine.add_window(next(iter(windows)), KineticBox.rigid(Box(0, 1, 0, 1), 0, 0, 0))
        some_oid = next(iter(engine.objects))
        with pytest.raises(ValueError):
            ContinuousWindowEngine(
                scenario.set_a,
                {some_oid: KineticBox.rigid(Box(0, 1, 0, 1), 0, 0, 0)},
            )

    def test_unknown_update_rejected(self):
        scenario, _windows, engine = build()
        foreign = scenario.set_b[0]
        with pytest.raises(KeyError):
            engine.apply_update(foreign)

    def test_clock_monotone(self):
        _scenario, _windows, engine = build()
        engine.tick(5.0)
        with pytest.raises(ValueError):
            engine.tick(4.0)

    def test_unconstrained_variant_identical_answers(self):
        """time_constrained=False changes cost, never answers (§V)."""
        scenario = uniform_workload(
            80, seed=5, max_speed=3.0, object_size_pct=1.0, t_m=12.0
        )
        windows = {
            9_000_000: KineticBox.rigid(Box(100, 400, 100, 400), 0.5, -0.5, 0.0)
        }
        tc = ContinuousWindowEngine(
            scenario.set_a, windows, JoinConfig(t_m=12.0), time_constrained=True
        )
        naive = ContinuousWindowEngine(
            scenario.set_a, windows, JoinConfig(t_m=12.0), time_constrained=False
        )
        tc.evaluate_initial()
        naive.evaluate_initial()
        for t, batch in UpdateStream(scenario, seed=7).by_timestamp(1.0, 24.0):
            for eng in (tc, naive):
                eng.tick(t)
                for obj in batch:
                    if obj.oid in eng.objects:
                        eng.apply_update(obj)
            assert tc.result_at() == naive.result_at(), t


class TestOneShotPaths:
    """One-shot evaluation paths: pinned before the continuous-query
    work builds on them (future snapshots, the untimed §V baseline,
    pre-evaluation registration, and clock/identity guards)."""

    def test_future_snapshot_without_ticking(self):
        """``result_at(t)`` answers any t inside the TC horizon from the
        initial evaluation alone — no tick, no updates."""
        _scenario, windows, engine = build(t_m=12.0)
        objects = dict(engine.objects)
        for t in (0.5, 3.0, 5.5):
            assert engine.result_at(t) == oracle(windows, objects, t), t

    def test_untimed_baseline_matches_tc_inside_the_horizon(self):
        scenario = uniform_workload(
            80, seed=9, max_speed=3.0, object_size_pct=1.0, t_m=6.0
        )
        windows = {
            9_000_001: KineticBox.rigid(Box(200, 600, 200, 600), 0.5, -0.5, 0.0)
        }
        tc = ContinuousWindowEngine(
            scenario.set_a, windows, JoinConfig(t_m=6.0), time_constrained=True
        )
        naive = ContinuousWindowEngine(
            scenario.set_a, windows, JoinConfig(t_m=6.0), time_constrained=False
        )
        tc.evaluate_initial()
        naive.evaluate_initial()
        for t in (0.0, 2.0, 5.9):
            assert tc.result_at(t) == naive.result_at(t), t

    def test_untimed_baseline_answers_beyond_the_horizon(self):
        """The naive path stores ``[t, ∞)`` intervals, so (unlike TC)
        its one-shot answer stays exact past ``t_m`` with no updates."""
        scenario = uniform_workload(
            60, seed=11, max_speed=2.0, object_size_pct=1.0, t_m=4.0
        )
        windows = {
            9_000_002: KineticBox.rigid(Box(100, 700, 100, 700), 0.0, 0.0, 0.0)
        }
        naive = ContinuousWindowEngine(
            scenario.set_a, windows, JoinConfig(t_m=4.0), time_constrained=False
        )
        naive.evaluate_initial()
        far = 9.0  # > t_m
        assert naive.result_at(far) == oracle(windows, naive.objects, far)

    def test_window_added_before_evaluation_is_included(self):
        _scenario, windows, engine = build()
        fresh = ContinuousWindowEngine(
            list(engine.objects.values()), windows, JoinConfig(t_m=12.0)
        )
        qid = 9_100_000
        fresh.add_window(qid, KineticBox.rigid(Box(0, 1000, 0, 1000), 0, 0, 0.0))
        fresh.evaluate_initial()
        assert fresh.result_for(qid, 0.0) == set(fresh.objects)

    def test_clock_and_identity_guards(self):
        _scenario, _windows, engine = build()
        engine.tick(2.0)
        with pytest.raises(ValueError, match="backwards"):
            engine.tick(1.0)
        stray = next(iter(engine.objects.values()))
        engine.objects.pop(stray.oid)
        with pytest.raises(KeyError):
            engine.apply_update(stray)
