"""ShardSupervisor unit behaviour: timeouts, death detection, recovery
bookkeeping, checkpoint/restore, and zombie-free shutdown.

Every test arms a watchdog alarm: the whole point of supervision is
that no failure mode may hang the parent, so a test that blocks is a
test that fails.
"""

from __future__ import annotations

import signal

import numpy as np
import pytest

from repro.core import JoinConfig
from repro.core.columns import UpdateColumns
from repro.par import (
    ShardCommandError,
    ShardSupervisor,
    ShardTimeoutError,
    ShardWorkerDied,
)
from repro.par import worker
from repro.workloads import make_workload

from ..check.sanitize import check_supervisor_state

T_M = 8.0
#: An ``OP_OPS`` payload that changes nothing (still op-logged).
NO_OPS = (UpdateColumns.empty(), UpdateColumns.empty())


@pytest.fixture(autouse=True)
def watchdog():
    signal.alarm(120)
    yield
    signal.alarm(0)


def shard_spec(seed=11, n=24):
    # Dense enough that the shard's store is non-empty: the dump
    # comparisons below must not be comparing nothing with nothing.
    scenario = make_workload(
        n, "uniform", max_speed=3.0, object_size_pct=3.0, t_m=T_M, seed=seed
    )
    config = JoinConfig(t_m=T_M, node_capacity=8)
    return worker.build_spec(
        scenario.set_a, scenario.set_b, "mtb", config, 0.0
    )


def same_planes(got, want):
    """Store dumps are ``(a, b, lo, hi)`` planes: compare bit for bit."""
    return len(got) == len(want) == 4 and all(
        np.array_equal(g, w) for g, w in zip(got, want)
    )


def make_supervisor(**kwargs):
    kwargs.setdefault("timeout", 15.0)
    kwargs.setdefault("heartbeat", 0.01)
    return ShardSupervisor(1, [0], **kwargs)


class TestLiveness:
    def test_hung_worker_times_out(self):
        """A recv with no reply raises ShardTimeoutError — never hangs."""
        sup = make_supervisor(timeout=0.3, fault_spec="hang:op=objects")
        slot = sup._slots[0]
        assert sup._post(slot, [("objects", 0)])
        with pytest.raises(ShardTimeoutError):
            sup._await_reply(slot)
        assert sup.stats.timeouts == 1
        slot.kill()  # don't wait politely for a worker asleep for an hour
        sup.close()

    def test_dead_worker_detected(self):
        sup = make_supervisor(fault_spec="kill:op=objects")
        slot = sup._slots[0]
        assert sup._post(slot, [("objects", 0)])
        with pytest.raises(ShardWorkerDied):
            sup._await_reply(slot)
        assert sup.stats.worker_deaths == 1
        sup.close()

    def test_command_error_does_not_kill_the_worker(self):
        """Deterministic command failures surface as ShardCommandError
        and leave the worker (and its engines) fully usable."""
        sup = make_supervisor()
        with pytest.raises(ShardCommandError):
            sup.run({0: [("objects", 0)]})  # no engine built yet: KeyError
        result = sup.run({0: [("build", 0, shard_spec()), ("initial_join", 0)]})
        assert len(result[0]) == 2
        dump = sup.run({0: [("store_dump", 0)]})[0][0]
        assert same_planes(dump, dump) and len(dump[0]) > 0
        sup.close()

    def test_unpicklable_result_keeps_framing(self):
        """A poisoned result degrades to a structured error, after which
        the same pipe still answers correctly."""
        sup = make_supervisor(fault_spec="badresult:op=objects")
        sup.run({0: [("build", 0, shard_spec())]})
        with pytest.raises(ShardCommandError, match="unpicklable"):
            sup.run({0: [("objects", 0)]})
        oids_a, oids_b = sup.run({0: [("objects", 0)]})[0][0]
        assert oids_a and oids_b
        sup.close()


class TestRecovery:
    def test_crash_recovery_is_state_identical(self):
        sup = make_supervisor(checkpoint_interval=2)
        sup.run({0: [("build", 0, shard_spec()), ("initial_join", 0)]})
        for step in range(1, 5):
            sup.run({0: [("tick", 0, float(step)), ("ops", 0, NO_OPS)]})
        before = sup.run({0: [("store_dump", 0)]})[0][0]
        # Simulate a hard crash between batches.
        sup._slots[0].proc.terminate()
        after = sup.run({0: [("store_dump", 0)]})[0][0]
        assert same_planes(after, before)
        assert sup.stats.worker_deaths >= 1
        assert sup.stats.respawns >= 1
        assert sup.stats.replayed_commands > 0
        assert sup.stats.recovery_seconds > 0
        sup.close()

    def test_oplog_stays_bounded_by_checkpoints(self):
        sup = make_supervisor(checkpoint_interval=2)
        sup.run({0: [("build", 0, shard_spec()), ("initial_join", 0)]})
        for step in range(1, 7):
            sup.run({0: [("tick", 0, float(step)), ("ops", 0, NO_OPS)]})
            state = sup.export_state(now=float(step))
            assert check_supervisor_state(state) == []
            for entry in state["shards"]:
                assert entry["oplog_len"] <= sup.checkpoint_interval
        assert sup.stats.checkpoints >= 1
        assert sup.export_state(now=6.0)["shards"][0]["epoch"] >= 1
        sup.close()

    def test_exhausted_retries_degrade_in_process(self):
        sup = make_supervisor(max_retries=0, checkpoint_interval=2)
        sup.run({0: [("build", 0, shard_spec()), ("initial_join", 0)]})
        before = sup.run({0: [("store_dump", 0)]})[0][0]
        sup._slots[0].proc.terminate()
        after = sup.run({0: [("store_dump", 0)]})[0][0]
        assert same_planes(after, before)
        assert sup.stats.degraded_slots == 1
        assert sup._slots[0].degraded
        state = sup.export_state(now=0.0)
        assert check_supervisor_state(state) == []
        assert state["shards"][0]["degraded"]
        # Degraded shards keep working entirely in-process.
        sup.run({0: [("tick", 0, 1.0), ("ops", 0, NO_OPS)]})
        sup.close()


class TestCheckpointBlob:
    def build_registry(self):
        registry = {}
        worker.execute(
            registry, [("build", 0, shard_spec()), ("initial_join", 0)]
        )
        return registry

    def test_restore_is_store_identical(self):
        registry = self.build_registry()
        engine = registry[0]
        engine.tick(1.0)
        blob = worker.execute(registry, [("checkpoint", 0)])[0]
        restored = worker.restore_engine(blob)
        assert restored.store.interval_rows() == engine.store.interval_rows()
        assert restored.update_count == engine.update_count
        assert restored.now == engine.now
        assert sorted(restored.objects_a) == sorted(engine.objects_a)

    def test_restored_engine_evolves_like_the_original(self):
        registry = self.build_registry()
        engine = registry[0]
        blob = worker.make_checkpoint(engine)
        twin = {0: worker.restore_engine(blob)}
        for step in (1.0, 2.0):
            for reg in (registry, twin):
                worker.execute(reg, [("tick", 0, step)])
            assert same_planes(
                worker.execute(twin, [("store_dump", 0)])[0],
                worker.execute(registry, [("store_dump", 0)])[0],
            )

    def test_checkpoint_spec_extracts_build_recipe(self):
        registry = self.build_registry()
        blob = worker.make_checkpoint(registry[0])
        spec = worker.checkpoint_spec(blob)
        assert spec[2] == "mtb"
        assert spec[4] == registry[0].now

    def test_unknown_format_rejected(self):
        bad = {"format": "repro.par.ckpt/999", "spec": None,
               "rows": [], "update_count": 0}
        with pytest.raises(ValueError, match="format"):
            worker.restore_engine(bad)
        with pytest.raises(ValueError, match="format"):
            worker.checkpoint_spec(bad)

    def test_legacy_tuple_blob_rejected(self):
        legacy = ("repro.par.ckpt/1", None, [], 0)
        with pytest.raises(ValueError, match="format"):
            worker.restore_engine(legacy)

    def test_blob_keys_match_declared_format(self):
        blob = worker.make_checkpoint(self.build_registry()[0])
        assert blob["format"] == worker.CHECKPOINT_FORMAT
        assert set(blob) == {"format", "spec", "store", "update_count"}


class TestShutdown:
    def test_close_reaps_every_worker(self):
        sup = ShardSupervisor(2, [0, 1], heartbeat=0.01)
        procs = [slot.proc for slot in sup._slots]
        assert all(p.is_alive() for p in procs)
        sup.close()
        assert all(not p.is_alive() for p in procs)
        # exitcode is only set once the child has been reaped (no zombie).
        assert all(p.exitcode is not None for p in procs)
        assert all(slot.proc is None for slot in sup._slots)
        assert all(slot.conn is None for slot in sup._slots)

    def test_close_after_crash_is_clean(self):
        sup = make_supervisor()
        sup._slots[0].proc.terminate()
        sup._slots[0].proc.join(timeout=5.0)
        sup.close()
        assert sup._slots[0].proc is None


class TestStats:
    def test_validation_rejects_bad_knobs(self):
        with pytest.raises(ValueError):
            ShardSupervisor(1, [0], timeout=-1.0)
        with pytest.raises(ValueError):
            ShardSupervisor(1, [0], heartbeat=0.0)
        with pytest.raises(ValueError):
            ShardSupervisor(1, [0], checkpoint_interval=0)
        with pytest.raises(ValueError):
            ShardSupervisor(1, [0], max_retries=-1)
