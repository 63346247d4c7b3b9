"""Engine edge cases: regressions, buffer pressure, long runs, GC."""

import pytest

from repro.core import ContinuousJoinEngine, JoinConfig, SimulationDriver
from repro.geometry import Box
from repro.join import brute_force_pairs_at
from repro.objects import MovingObject
from repro.workloads import UpdateStream, uniform_workload


class TestETPSeparationRegression:
    """Regression: a pair separating exactly at a TP refresh time must
    leave the ETP answer (closed-interval boundary bug).

    Object ``a`` sweeps over static ``b``: intersection during [3, 5].
    The event chain refreshes at t=3 (pair enters) and t=5 (pair
    leaves); at any t > 5 the pair must be gone even though the t=5
    refresh still 'sees' the touching pair.
    """

    def test_pair_leaves_after_separation(self):
        a = MovingObject(1, Box(0, 1, 0, 1), 1.0, 0.0, 0.0)
        b = MovingObject(100, Box(4, 5, 0, 1), 0.0, 0.0, 0.0)
        engine = ContinuousJoinEngine.create(
            [a], [b], algorithm="etp", config=JoinConfig(t_m=100.0)
        )
        engine.run_initial_join()
        assert engine.result_at(0.0) == set()
        engine.tick(4.0)
        assert engine.result_at(4.0) == {(1, 100)}
        engine.tick(6.0)
        assert engine.result_at(6.0) == set()

    def test_exact_event_timestamps(self):
        a = MovingObject(1, Box(0, 1, 0, 1), 1.0, 0.0, 0.0)
        b = MovingObject(100, Box(4, 5, 0, 1), 0.0, 0.0, 0.0)
        engine = ContinuousJoinEngine.create(
            [a], [b], algorithm="etp", config=JoinConfig(t_m=100.0)
        )
        engine.run_initial_join()
        # Contact starts exactly at t=3 (closed: included).
        engine.tick(3.0)
        assert engine.result_at(3.0) == {(1, 100)}
        # Separation at t=5: the TP convention is "valid immediately
        # after", so the pair is already gone at the event instant.
        engine.tick(5.0)
        assert engine.result_at(5.0) == set()


class TestBufferPressure:
    @pytest.mark.parametrize("algorithm", ["tc", "mtb"])
    def test_tiny_buffer_preserves_answers(self, algorithm):
        """A 3-page buffer forces constant eviction; write-back and
        re-reads must never corrupt the maintained answer."""
        scenario = uniform_workload(
            100, seed=8, max_speed=3.0, object_size_pct=1.0, t_m=10.0
        )
        engine = ContinuousJoinEngine.create(
            scenario.set_a, scenario.set_b, algorithm=algorithm,
            config=JoinConfig(t_m=10.0, buffer_pages=3),
        )
        engine.run_initial_join()
        driver = SimulationDriver(engine, UpdateStream(scenario, seed=4))
        for _ in range(15):
            driver.step()
            want = brute_force_pairs_at(
                engine.objects_a.values(), engine.objects_b.values(), engine.now
            )
            assert engine.result_at(engine.now) == want
        # Pressure must actually have produced disk traffic.
        assert engine.tracker.page_reads > 100


class TestLongRun:
    def test_multiple_tm_cycles_stay_bounded(self):
        """Run several full T_M cycles: the answer must stay exact, and
        invalidation alone must keep the store bounded (every object
        reports within T_M, so no stored row outlives its pair's next
        report)."""
        scenario = uniform_workload(
            80, seed=15, max_speed=3.0, object_size_pct=1.5, t_m=8.0
        )
        engine = ContinuousJoinEngine.create(
            scenario.set_a, scenario.set_b, algorithm="mtb",
            config=JoinConfig(t_m=8.0),
        )
        engine.run_initial_join()
        driver = SimulationDriver(engine, UpdateStream(scenario, seed=16))
        for _ in range(40):  # five T_M cycles
            driver.step()
            want = brute_force_pairs_at(
                engine.objects_a.values(), engine.objects_b.values(), engine.now
            )
            assert engine.result_at(engine.now) == want
            # A row is computed at a report and dropped by the next report
            # of either object, which comes within T_M of the first.
            starts = [lo for rows in engine.store.interval_rows().values() for lo, _hi in rows]
            assert min(starts) >= engine.now - 8.0

class TestDeepTrees:
    def test_small_capacity_deep_tree_join(self):
        """node_capacity=5 forces height ≥ 4 at n=400: the recursive
        join and IC tightening must stay exact through many levels."""
        scenario = uniform_workload(
            400, seed=23, max_speed=2.0, object_size_pct=1.0, t_m=10.0
        )
        engine = ContinuousJoinEngine.create(
            scenario.set_a, scenario.set_b, algorithm="mtb",
            config=JoinConfig(t_m=10.0, node_capacity=5),
        )
        engine.run_initial_join()
        want = brute_force_pairs_at(scenario.set_a, scenario.set_b, 0.0)
        assert engine.result_at(0.0) == want

    def test_alternate_bucket_granularity(self):
        for m in (1, 4):
            scenario = uniform_workload(
                80, seed=m, max_speed=3.0, object_size_pct=1.0, t_m=8.0
            )
            engine = ContinuousJoinEngine.create(
                scenario.set_a, scenario.set_b, algorithm="mtb",
                config=JoinConfig(t_m=8.0, buckets_per_tm=m),
            )
            engine.run_initial_join()
            driver = SimulationDriver(engine, UpdateStream(scenario, seed=2))
            for _ in range(12):
                driver.step()
                want = brute_force_pairs_at(
                    engine.objects_a.values(), engine.objects_b.values(),
                    engine.now,
                )
                assert engine.result_at(engine.now) == want, m
