"""Tests for the simulation driver and metrics plumbing."""

import pytest

from repro.core import ContinuousJoinEngine, JoinConfig, SimulationDriver
from repro.metrics import CostSnapshot, CostTracker
from repro.workloads import UpdateStream, uniform_workload


def make_driver(algorithm="mtb", n=80, t_m=10.0, seed=1):
    scenario = uniform_workload(n, seed=seed, t_m=t_m, object_size_pct=1.0)
    engine = ContinuousJoinEngine.create(
        scenario.set_a, scenario.set_b, algorithm=algorithm,
        config=JoinConfig(t_m=t_m),
    )
    engine.run_initial_join()
    return engine, SimulationDriver(engine, UpdateStream(scenario, seed=seed + 9))


class TestDriver:
    def test_step_advances_clock_and_records(self):
        engine, driver = make_driver()
        stats = driver.step()
        assert stats.timestamp == 1.0
        assert engine.now == 1.0
        assert len(driver.history) == 1

    def test_run_returns_stats_per_step(self):
        _engine, driver = make_driver()
        stats = driver.run(12)
        assert len(stats) == 12
        assert [s.timestamp for s in stats] == [float(t) for t in range(1, 13)]

    def test_every_object_updates_within_tm(self):
        engine, driver = make_driver(t_m=10.0)
        driver.run(25)
        # After T_M steps, no stored reference time is older than T_M.
        for obj in list(engine.objects_a.values()) + list(engine.objects_b.values()):
            assert engine.now - obj.t_ref <= 10.0

    def test_on_step_callback(self):
        _engine, driver = make_driver()
        seen = []
        driver.run(5, on_step=lambda s: seen.append(s.timestamp))
        assert seen == [1.0, 2.0, 3.0, 4.0, 5.0]

    def test_amortized_cost(self):
        _engine, driver = make_driver()
        driver.run(15)
        amortized = driver.amortized_cost()
        assert driver.total_updates() > 0
        assert amortized.pair_tests >= 0
        assert amortized.cpu_seconds >= 0

    @pytest.mark.parametrize("algorithm", ["tc", "mtb"])
    def test_driver_charges_per_update_costs(self, algorithm):
        """The driver's recorded costs are the paper's per-update costs:
        exactly what an explicit ``tick`` + ``apply_update`` loop charges
        a twin engine, counter for counter."""
        engine, driver = make_driver(algorithm, n=150)
        twin, twin_driver = make_driver(algorithm, n=150)
        stream = twin_driver.stream  # same scenario, same seed
        for stats in driver.run(6):
            before = twin.tracker.snapshot()
            twin.tick(stats.timestamp)
            current = {**twin.objects_a, **twin.objects_b}
            for obj in stream.updates_for(stats.timestamp, current):
                twin.apply_update(obj)
            want = twin.tracker.snapshot() - before
            for counter in ("page_reads", "page_writes", "pair_tests", "node_visits"):
                assert getattr(stats.cost, counter) == getattr(want, counter), (
                    counter, stats.timestamp,
                )
        assert driver.total_updates() > 0


class TestMetrics:
    def test_snapshot_diff_and_scale(self):
        tracker = CostTracker()
        tracker.count_read(10)
        tracker.count_write(4)
        tracker.count_pair_tests(100)
        before = tracker.snapshot()
        tracker.count_read(5)
        tracker.count_pair_tests(50)
        delta = tracker.snapshot() - before
        assert delta.page_reads == 5
        assert delta.pair_tests == 50
        assert delta.io_total == 5
        scaled = delta.scaled(5)
        assert scaled.page_reads == 1
        assert scaled.pair_tests == 10

    def test_scale_invalid(self):
        snap = CostSnapshot(1, 1, 1, 1, 1.0)
        with pytest.raises(ValueError):
            snap.scaled(0)

    def test_timed_accumulates(self):
        tracker = CostTracker()
        with tracker.timed():
            sum(range(1000))
        assert tracker.cpu_seconds > 0

    def test_reset(self):
        tracker = CostTracker()
        tracker.count_node_visit(3)
        tracker.reset()
        assert tracker.snapshot().node_visits == 0
