"""ShardedJoinEngine: bit-exactness, ghost membership and shard costs.

The sharded engine must be an *implementation detail*: for every shard
count and worker count its merged result store is bit-identical to the
unsharded serial engine's, including while objects drift across stripe
boundaries and get admitted to / evicted from shards mid-run.
"""

from __future__ import annotations

import json
import multiprocessing
import pickle

import numpy as np
import pytest

from repro.core import ContinuousJoinEngine, JoinConfig
from repro.core.columns import UpdateColumns, columns_from_objects
from repro.geometry import Box
from repro.objects import MovingObject
from repro.par import SHARDABLE_ALGORITHMS, ShardedJoinEngine, worker
from repro.workloads import (
    UpdateStream,
    VectorUpdateStream,
    make_workload,
    make_workload_arrays,
)

from ..check.errors import InvariantViolation
from ..check.sanitize import check_sharded_state, raise_on_findings, sanitize_sharded_engine
from ..conftest import HOSTILE_COLUMN_EDITS, assert_sanitized

T_M = 8.0
STEPS = 5


def snapshot(store):
    """Exact (unrounded) store contents, order-normalized."""
    return sorted(
        (key, tuple((iv.start, iv.end) for iv in intervals))
        for key, intervals in store._pairs.items()
    )


def scenario_for(seed: int, n: int = 40, object_size_pct: float = 0.8):
    return make_workload(
        n, "uniform", max_speed=3.0, object_size_pct=object_size_pct,
        t_m=T_M, seed=seed,
    )


def drive_both(algorithm, shards, workers, seed=19, sanitize=False):
    """Run serial and sharded engines tick-by-tick off one update feed.

    Returns per-tick (answer, merged snapshot) agreement evidence plus
    the count of membership changes seen, so callers can assert the run
    actually exercised cross-boundary movement.
    """
    scenario = scenario_for(seed)
    config = JoinConfig(t_m=T_M, node_capacity=8)
    serial = ContinuousJoinEngine(
        scenario.set_a, scenario.set_b, algorithm, config
    )
    serial.run_initial_join()
    sharded = ShardedJoinEngine(
        scenario.set_a, scenario.set_b, algorithm, config,
        shards=shards, workers=workers,
    )
    sharded.run_initial_join()
    assert snapshot(serial._strategy.store) == snapshot(sharded.merged_store())

    membership_changes = 0
    pair_ticks = 0
    stream = UpdateStream(scenario, seed=seed + 1)
    for t, batch in stream.by_timestamp(t_start=1.0, t_end=float(STEPS)):
        serial.tick(t)
        sharded.tick(t)
        before = {obj.oid: sharded.members_of(obj.oid) for obj in batch}
        for obj in batch:
            serial.apply_update(obj)
        sharded.apply_updates(batch)
        membership_changes += sum(
            1 for obj in batch if sharded.members_of(obj.oid) != before[obj.oid]
        )
        want = serial.result_at(t)
        assert sharded.result_at(t) == want, (algorithm, shards, workers, t)
        assert snapshot(serial._strategy.store) == snapshot(
            sharded.merged_store()
        ), (algorithm, shards, workers, t)
        if sanitize:
            assert_sanitized(serial, sharded)
        pair_ticks += bool(want)
    assert pair_ticks > 0, "vacuous run: the answer was always empty"
    sharded.close()
    return membership_changes


class TestBitExactness:
    @pytest.mark.parametrize("algorithm", SHARDABLE_ALGORITHMS)
    @pytest.mark.parametrize("shards", [1, 2, 4])
    def test_matches_serial_engine(self, algorithm, shards):
        drive_both(algorithm, shards, workers=0)

    @pytest.mark.parametrize("algorithm", SHARDABLE_ALGORITHMS)
    def test_boundary_crossers_keep_exactness(self, algorithm):
        """The run must include genuine shard-membership changes."""
        changes = drive_both(algorithm, shards=4, workers=0, seed=37)
        assert changes > 0, "no object ever crossed a stripe boundary"

    def test_sanitized_run_stays_clean(self):
        drive_both("mtb", shards=3, workers=0, sanitize=True)

    def test_pool_backend_matches_serial_backend(self):
        drive_both("mtb", shards=4, workers=2)

    @pytest.mark.parametrize("workers", [0, 2])
    def test_fused_step_equals_tick_apply_result(self, workers):
        """step(t, batch) == tick(t); apply_updates(batch); result_at(t)."""
        scenario = scenario_for(19)
        config = JoinConfig(t_m=T_M, node_capacity=8)
        split = ShardedJoinEngine(
            scenario.set_a, scenario.set_b, "mtb", config,
            shards=4, workers=workers,
        )
        split.run_initial_join()
        fused = ShardedJoinEngine(
            scenario.set_a, scenario.set_b, "mtb", config,
            shards=4, workers=workers,
        )
        fused.run_initial_join()
        stream = UpdateStream(scenario, seed=20)
        pair_ticks = 0
        for t, batch in stream.by_timestamp(t_start=1.0, t_end=float(STEPS)):
            split.tick(t)
            split.apply_updates(batch)
            want = split.result_at(t)
            assert fused.step(t, batch) == want, (workers, t)
            assert snapshot(fused.merged_store()) == snapshot(
                split.merged_store()
            ), (workers, t)
            pair_ticks += bool(want)
        assert pair_ticks > 0, "vacuous run: the answer was always empty"
        split.close()
        fused.close()

    def test_step_rejects_time_going_backwards(self):
        scenario = scenario_for(19, n=8)
        config = JoinConfig(t_m=T_M, node_capacity=8)
        with ShardedJoinEngine(
            scenario.set_a, scenario.set_b, "mtb", config, shards=2
        ) as engine:
            engine.run_initial_join()
            engine.step(2.0, [])
            with pytest.raises(ValueError):
                engine.step(1.0, [])


class TestConstruction:
    def test_unshardable_algorithms_rejected(self):
        scenario = scenario_for(3, n=6)
        for algorithm in ("naive", "etp"):
            with pytest.raises(ValueError):
                ShardedJoinEngine(scenario.set_a, scenario.set_b, algorithm)

    def test_shared_oids_rejected(self):
        objs = [MovingObject(1, Box(0, 1, 0, 1), 0.0, 0.0, 0.0)]
        with pytest.raises(ValueError):
            ShardedJoinEngine(objs, list(objs), "tc")

    @pytest.mark.parametrize("workers", [0, 2])
    def test_delta_streams_refused(self, workers):
        """The sharded engine keeps no delta stream: ``deltas=True`` is
        refused before any worker process starts."""
        scenario = scenario_for(5, n=6)
        before = set(multiprocessing.active_children())
        with pytest.raises(ValueError, match="no delta stream"):
            ShardedJoinEngine(
                scenario.set_a, scenario.set_b, "tc",
                JoinConfig(t_m=T_M, deltas=True), shards=2, workers=workers,
            )
        assert set(multiprocessing.active_children()) == before

    def test_unknown_update_rejected(self):
        scenario = scenario_for(4, n=6)
        engine = ShardedJoinEngine(scenario.set_a, scenario.set_b, "tc")
        engine.run_initial_join()
        with pytest.raises(KeyError):
            engine.apply_update(MovingObject(9999, Box(0, 1, 0, 1), 0, 0, 0.0))


class TestRejectedBatch:
    """A batch the engine refuses must leave parent and shards exactly
    as they were — no half-applied registry, membership or op log."""

    @staticmethod
    def state(engine):
        return (
            engine.columns_a.columns(),
            engine.columns_b.columns(),
            [engine.members_of(oid) for oid in sorted(engine.objects_a)],
            [engine.members_of(oid) for oid in sorted(engine.objects_b)],
            engine.update_count,
            engine.merged_store().interval_rows(),
            None if engine.supervisor is None else {
                sid: len(log) for sid, log in engine.supervisor._oplog.items()
            },
        )

    @staticmethod
    def assert_unchanged(before, after):
        for got, want in zip(after[:2], before[:2]):
            for plane in ("oid", "mlo", "mhi", "vlo", "vhi", "tref"):
                assert np.array_equal(getattr(got, plane), getattr(want, plane))
        assert after[2:] == before[2:]

    @pytest.mark.parametrize("workers", [0, 2])
    def test_rejections_change_nothing(self, workers):
        scenario = scenario_for(19, object_size_pct=3.0)
        config = JoinConfig(
            t_m=T_M, shard_timeout=10.0, shard_heartbeat=0.01,
            checkpoint_interval=100,
        )
        with ShardedJoinEngine(
            scenario.set_a, scenario.set_b, "mtb", config,
            shards=2, workers=workers,
        ) as engine:
            engine.run_initial_join()
            engine.tick(1.0)
            # `known` jumps across the space, so applying it would
            # change its registry row, its halo and several shards.
            known = scenario.set_a[0].updated(
                1.0, Box(900.0, 905.0, 900.0, 905.0), vx=1.0, vy=-1.0
            )
            other = scenario.set_a[1].updated(1.0, vx=0.5, vy=0.5)
            stale = scenario.set_a[2].updated(0.5)
            unknown = MovingObject(9999, Box(0, 1, 0, 1), 0.0, 0.0, 1.0)
            before = self.state(engine)
            assert before[5], "vacuous: the merged store is empty"
            for batch, error in (
                ([known, unknown], KeyError),   # unknown id after a valid row
                ([known, other, known], ValueError),  # duplicate id
                ([known, stale], ValueError),   # t_ref != now
            ):
                with pytest.raises(error):
                    engine.apply_updates(batch)
                self.assert_unchanged(before, self.state(engine))
                with pytest.raises(error):
                    engine.step(2.0, batch)
                assert engine.now == 1.0
                self.assert_unchanged(before, self.state(engine))
            # Hostile values: refused whole by the same pre-write gate.
            for case, corrupt in sorted(HOSTILE_COLUMN_EDITS.items()):
                bad = columns_from_objects([known, other])
                corrupt(bad, 1)
                with pytest.raises(ValueError):
                    engine.apply_update_columns(bad, UpdateColumns.empty())
                self.assert_unchanged(before, self.state(engine))
            with pytest.raises(ValueError):
                engine.step(2.0, [known, other.updated(1.0, vx=float("inf"))])
            assert engine.now == 1.0
            self.assert_unchanged(before, self.state(engine))
            # The engine still works, and the accepted batch does land.
            engine.apply_updates([known, other])
            assert engine.update_count == before[4] + 2
            raise_on_findings(sanitize_sharded_engine(engine))


    @pytest.mark.parametrize("hostile", [
        MovingObject(7001, Box(float("nan"), 1.0, 0.0, 1.0), 0.0, 0.0, 0.0),
        MovingObject(7001, Box(0.0, 1.0, 0.0, 1.0), 0.0, float("-inf"), 0.0),
        MovingObject(7001, Box(0.0, 1.0, 0.0, 1.0), 0.0, 0.0, float("nan")),
    ], ids=["nan-position", "inf-velocity", "nan-tref"])
    def test_constructor_rejects_hostile_dataset(self, hostile):
        scenario = scenario_for(19)
        with pytest.raises(ValueError):
            ShardedJoinEngine(
                scenario.set_a, scenario.set_b + [hostile], "mtb",
                JoinConfig(t_m=T_M), shards=2, workers=0,
            )


class TestNoObjectsOnTheTickPath:
    """The sharded tick path is arrays end to end: no ``MovingObject``
    is constructed routing, shipping, checkpointing or merging."""

    @pytest.fixture()
    def constructions(self, monkeypatch):
        calls = []
        original = MovingObject.__init__

        def counting(self, *args, **kwargs):
            calls.append(1)
            original(self, *args, **kwargs)

        monkeypatch.setattr(MovingObject, "__init__", counting)
        return calls

    def test_zero_constructions(self, constructions):
        arr = make_workload_arrays(
            60, "uniform", max_speed=3.0, object_size_pct=3.0, t_m=T_M, seed=13
        )
        scenario = arr.to_scenario()
        engine = ShardedJoinEngine(
            scenario.set_a, scenario.set_b, "mtb",
            JoinConfig(t_m=T_M), shards=2, workers=0,
        )
        engine.run_initial_join()
        stream = VectorUpdateStream(arr, seed=21)
        del constructions[:]  # building the scenario made objects; ticks must not
        for step in (1.0, 2.0, 3.0):
            upd_a, upd_b = stream.updates_at(step)
            engine.tick(step)
            engine.apply_update_columns(upd_a, upd_b)
            assert engine.result_at(step)
        assert constructions == []
        for shard in engine._backend.engines.values():
            blob = pickle.loads(pickle.dumps(worker.make_checkpoint(shard)))
            restored = worker.restore_engine(blob)
            assert restored.store.interval_rows() == shard.store.interval_rows()
        assert constructions == []
        assert len(engine.merged_store()) > 0
        assert constructions == []
        engine.close()


class TestShardCosts:
    def test_shard_costs_add_up_to_build_and_initial_join(self):
        scenario = scenario_for(7)
        engine = ShardedJoinEngine(scenario.set_a, scenario.set_b, "mtb",
                                   JoinConfig(t_m=T_M), shards=3)
        initial = engine.run_initial_join()
        per_shard = engine.shard_costs()
        assert sorted(per_shard) == [0, 1, 2]
        total = sum(cost.pair_tests for cost in per_shard.values())
        assert total == engine.build_cost.pair_tests + initial.pair_tests > 0


class TestExportAndSanitizer:
    @pytest.fixture()
    def colocated(self):
        """Two static, overlapping objects resident on *both* shards."""
        a = [MovingObject(1, Box(9.0, 11.5, 0.0, 2.0), 0.0, 0.0, 0.0)]
        b = [MovingObject(100, Box(9.5, 11.2, 1.0, 3.0), 0.0, 0.0, 0.0)]
        engine = ShardedJoinEngine(a, b, "tc", JoinConfig(t_m=2.0),
                                   shards=2, axis=0)
        engine.run_initial_join()
        return engine

    def test_export_state_survives_json(self, colocated):
        state = json.loads(json.dumps(colocated.export_state()))
        assert state["format"] == "repro.par/1"
        assert check_sharded_state(state) == []

    def test_pair_is_stored_on_both_shards(self, colocated):
        dumps = colocated.store_dumps()
        holders = [sid for sid, rows in dumps.items() if rows]
        assert holders == [0, 1]
        assert dumps[0] == dumps[1]

    def test_sc401_on_broken_cuts(self, colocated):
        state = colocated.export_state()
        state["cuts"] = [5.0, 5.0]
        codes = {f.code for f in check_sharded_state(state)}
        assert "SC401" in codes

    def test_sc401_on_missing_shard(self, colocated):
        state = colocated.export_state()
        state["shards"] = state["shards"][:1]
        codes = {f.code for f in check_sharded_state(state)}
        assert codes == {"SC401"}

    def test_sc402_on_wrong_membership(self, colocated):
        state = colocated.export_state()
        state["objects"][0]["members"] = [0]
        codes = {f.code for f in check_sharded_state(state)}
        assert "SC402" in codes

    def test_sc402_on_missing_resident(self, colocated):
        state = colocated.export_state()
        state["shards"][1]["objects_a"] = []
        codes = {f.code for f in check_sharded_state(state)}
        assert "SC402" in codes

    def test_sc403_on_diverged_copy(self, colocated):
        state = colocated.export_state()
        state["shards"][1]["store"][0][1][0][1] += 0.25
        codes = {f.code for f in check_sharded_state(state)}
        assert codes == {"SC403"}

    def test_validate_raises_on_live_corruption(self, colocated):
        _cols, _first, last = colocated._sides["a"]
        last[0] = 0  # object 1's halo now claims to stop at stripe 0
        with pytest.raises(InvariantViolation):
            raise_on_findings(sanitize_sharded_engine(colocated))
