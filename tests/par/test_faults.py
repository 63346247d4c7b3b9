"""Chaos matrix: injected worker faults never change the join answer.

Each scenario runs the serial engine and a fault-armed sharded engine
off one update feed and requires the per-tick answers and the merged
result store to stay bit-identical to the unfaulted serial run — the
supervisor must make crashes, hangs, and dropped replies invisible.
A watchdog alarm backs the suite: a hang is a failure, not a stall.
"""

from __future__ import annotations

import multiprocessing
import pickle
import signal

import pytest

from repro.core import ContinuousJoinEngine, JoinConfig
from repro.faults import (
    Fault,
    FaultInjected,
    FaultPlan,
    Unpicklable,
)
from repro.par import ShardCommandError, ShardedJoinEngine
from repro.workloads import UpdateStream, make_workload

from ..check.sanitize import raise_on_findings, sanitize_sharded_engine

T_M = 8.0
STEPS = 4


@pytest.fixture(autouse=True)
def watchdog():
    signal.alarm(180)
    yield
    signal.alarm(0)


def snapshot(store):
    return sorted(
        (key, tuple((iv.start, iv.end) for iv in intervals))
        for key, intervals in store._pairs.items()
    )


def drive_chaos(faults, shards=4, workers=2, seed=19, **config_kwargs):
    """Serial vs fault-armed sharded run; returns the supervisor stats."""
    scenario = make_workload(
        40, "uniform", max_speed=3.0, object_size_pct=0.8, t_m=T_M, seed=seed
    )
    serial = ContinuousJoinEngine(
        scenario.set_a, scenario.set_b, "mtb",
        JoinConfig(t_m=T_M, node_capacity=8),
    )
    serial.run_initial_join()
    config_kwargs.setdefault("shard_timeout", 10.0)
    config_kwargs.setdefault("shard_heartbeat", 0.01)
    config = JoinConfig(
        t_m=T_M, node_capacity=8, faults=faults, **config_kwargs
    )
    sharded = ShardedJoinEngine(
        scenario.set_a, scenario.set_b, "mtb", config,
        shards=shards, workers=workers,
    )
    sharded.run_initial_join()
    assert snapshot(serial._strategy.store) == snapshot(sharded.merged_store())
    stream = UpdateStream(scenario, seed=seed + 1)
    for t, batch in stream.by_timestamp(t_start=1.0, t_end=float(STEPS)):
        serial.tick(t)
        for obj in batch:
            serial.apply_update(obj)
        assert sharded.step(t, batch) == serial.result_at(t), (faults, t)
        assert snapshot(serial._strategy.store) == snapshot(
            sharded.merged_store()
        ), (faults, t)
    raise_on_findings(sanitize_sharded_engine(sharded))
    stats = sharded.fault_stats()
    sharded.close()
    return stats


class TestChaosMatrix:
    @pytest.mark.parametrize("shards", [2, 4])
    @pytest.mark.parametrize("op", ["initial_join", "tick", "ops"])
    def test_kill_recovers_bit_exact(self, op, shards):
        stats = drive_chaos(f"kill:op={op}", shards=shards)
        assert stats.worker_deaths >= 1
        assert stats.recoveries >= 1
        assert stats.respawns >= 1
        assert stats.degraded_slots == 0

    def test_kill_mid_run_after_checkpoints(self):
        """The crash lands after checkpoints exist, so recovery replays
        from a restore base rather than the original build."""
        stats = drive_chaos(
            "kill:op=tick,nth=3", checkpoint_interval=2
        )
        assert stats.worker_deaths >= 1
        assert stats.checkpoints >= 1

    def test_double_kill_single_slot(self):
        stats = drive_chaos(
            "kill:op=tick,nth=1;kill:op=ops,nth=2", shards=2
        )
        assert stats.worker_deaths >= 2
        assert stats.recoveries >= 2

    def test_hang_times_out_and_recovers(self):
        stats = drive_chaos("hang:op=tick", shard_timeout=1.0)
        assert stats.timeouts >= 1
        assert stats.recoveries >= 1

    def test_delay_within_timeout_needs_no_recovery(self):
        stats = drive_chaos("delay:op=tick,seconds=0.2", shard_timeout=10.0)
        assert stats.timeouts == 0
        assert stats.recoveries == 0
        assert stats.worker_deaths == 0

    def test_dropped_reply_recovers(self):
        stats = drive_chaos("drop", shard_timeout=1.0)
        assert stats.dropped_replies >= 1
        assert stats.recoveries >= 1

    def test_exhausted_retries_degrade_but_stay_exact(self):
        stats = drive_chaos("kill:op=tick", max_retries=0)
        assert stats.degraded_slots >= 1

    def test_injected_error_surfaces_without_recovery(self):
        """`error` is deterministic: it surfaces to the caller instead
        of triggering respawn, and the engines stay usable after."""
        scenario = make_workload(
            30, "uniform", max_speed=3.0, object_size_pct=0.8, t_m=T_M, seed=5
        )
        config = JoinConfig(
            t_m=T_M, node_capacity=8, faults="error:op=store_dump",
            shard_heartbeat=0.01,
        )
        sharded = ShardedJoinEngine(
            scenario.set_a, scenario.set_b, "mtb", config,
            shards=2, workers=2,
        )
        sharded.run_initial_join()
        with pytest.raises(ShardCommandError, match="FaultInjected"):
            sharded.merged_store()
        stats = sharded.fault_stats()
        assert stats.recoveries == 0
        # One-shot fault spent: the same query now succeeds.
        serial = ContinuousJoinEngine(
            scenario.set_a, scenario.set_b, "mtb",
            JoinConfig(t_m=T_M, node_capacity=8),
        )
        serial.run_initial_join()
        assert snapshot(sharded.merged_store()) == snapshot(
            serial._strategy.store
        )
        sharded.close()

    def test_unpicklable_result_surfaces_cleanly(self):
        scenario = make_workload(
            30, "uniform", max_speed=3.0, object_size_pct=0.8, t_m=T_M, seed=5
        )
        config = JoinConfig(
            t_m=T_M, node_capacity=8, faults="badresult:op=store_dump",
            shard_heartbeat=0.01,
        )
        sharded = ShardedJoinEngine(
            scenario.set_a, scenario.set_b, "mtb", config,
            shards=2, workers=2,
        )
        sharded.run_initial_join()
        with pytest.raises(ShardCommandError, match="unpicklable"):
            sharded.merged_store()
        sharded.merged_store()  # framing survived; pipe still usable
        sharded.close()

    def test_failed_build_stops_its_workers(self):
        """A build fan-out that fails leaves no worker process behind."""
        scenario = make_workload(
            30, "uniform", max_speed=3.0, object_size_pct=0.8, t_m=T_M, seed=5
        )
        config = JoinConfig(
            t_m=T_M, faults="error:op=build", shard_timeout=10.0, shard_heartbeat=0.01,
        )
        before = set(multiprocessing.active_children())
        with pytest.raises(ShardCommandError):
            ShardedJoinEngine(scenario.set_a, scenario.set_b, "tc", config, shards=2, workers=2)
        assert set(multiprocessing.active_children()) == before


class TestFaultPlan:
    def test_parse_spec(self):
        plan = FaultPlan.parse("kill:op=tick,nth=2;drop:shard=1")
        assert [f.kind for f in plan.faults] == ["kill", "drop"]
        assert plan.faults[0].op == "tick"
        assert plan.faults[0].nth == 2
        assert plan.faults[1].shard == 1
        assert bool(plan)

    def test_empty_specs_are_no_ops(self):
        assert not FaultPlan.parse(None)
        assert not FaultPlan.parse("")
        assert not FaultPlan.parse(" ; ")

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="kind"):
            FaultPlan.parse("explode")

    def test_unknown_field_rejected(self):
        with pytest.raises(ValueError, match="field"):
            FaultPlan.parse("kill:bogus=1")

    def test_nth_must_be_positive(self):
        with pytest.raises(ValueError):
            Fault("kill", nth=0)

    def test_matching_is_one_shot(self):
        fault = Fault("kill", op="tick", nth=2)
        assert not fault.matches("tick", 0)
        assert not fault.matches("ops", 0)  # non-matching op doesn't count
        assert fault.matches("tick", 1)
        assert fault.fired
        assert not fault.matches("tick", 2)  # never fires twice

    def test_shard_filter(self):
        fault = Fault("kill", op="tick", shard=3)
        assert not fault.matches("tick", 1)
        assert fault.matches("tick", 3)

    def test_from_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "delay:seconds=0.5")
        plan = FaultPlan.from_env()
        assert plan.faults[0].kind == "delay"
        assert plan.faults[0].stall == 0.5
        monkeypatch.delenv("REPRO_FAULTS")
        assert not FaultPlan.from_env()

    def test_stall_defaults(self):
        assert Fault("hang").stall == 3600.0
        assert Fault("delay").stall == pytest.approx(0.05)
        assert Fault("delay", seconds=1.5).stall == 1.5

    def test_before_command_raises_injected_error(self):
        plan = FaultPlan.parse("error:op=pairs_at")
        plan.before_command(("tick", 0, 1.0))  # non-matching: silent
        with pytest.raises(FaultInjected):
            plan.before_command(("pairs_at", 0, 1.0))

    def test_poison_results_replaces_matching_result(self):
        plan = FaultPlan.parse("badresult:op=store_dump")
        cmds = [("tick", 0, 1.0), ("store_dump", 0)]
        results = [None, [("rows",)]]
        plan.poison_results(cmds, results)
        assert results[0] is None
        assert isinstance(results[1], Unpicklable)

    def test_should_drop_counts_per_slot(self):
        plan = FaultPlan.parse("drop:shard=1,nth=2")
        assert not plan.should_drop(0)  # slot filter
        assert not plan.should_drop(1)  # first match, nth=2
        assert plan.should_drop(1)
        assert not plan.should_drop(1)  # one-shot

    def test_unpicklable_defeats_pickle(self):
        with pytest.raises(TypeError):
            pickle.dumps(Unpicklable())

