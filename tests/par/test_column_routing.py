"""Column routing in the sharded engine: vectorized, bit-identical.

``spans_to_shards`` must mirror the scalar ``shards_for_span`` decision
for decision, ``apply_updates(objects)`` is a packing shim over
``apply_update_columns`` and must land parent and shards in the exact
same end state — same registries, same members, same per-shard stores,
same interval endpoints — and what crosses the shard boundary is column
slices, never objects.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import JoinConfig
from repro.core.columns import UpdateColumns
from repro.geometry import INF
from repro.par import ShardedJoinEngine, StripePartition
from repro.workloads import VectorUpdateStream, make_workload_arrays

from ..conftest import assert_sanitized

T_M = 10.0
N = 80


def arrays(seed=13):
    return make_workload_arrays(
        N, "uniform", max_speed=3.0, object_size_pct=1.5, t_m=T_M, seed=seed
    )


class TestSpansToShards:
    def test_matches_scalar_rule_exhaustively(self):
        part = StripePartition((10.0, 20.0, 35.0))
        rng = np.random.default_rng(0)
        lo = rng.uniform(-5.0, 45.0, 500)
        hi = lo + rng.uniform(0.0, 15.0, 500)
        first, last = part.spans_to_shards(lo, hi)
        for k in range(500):
            want = part.shards_for_span(float(lo[k]), float(hi[k]))
            assert tuple(range(first[k], last[k] + 1)) == want

    def test_boundary_spans_belong_to_both_stripes(self):
        part = StripePartition((10.0,))
        first, last = part.spans_to_shards(
            np.asarray([10.0, 9.0, 10.0]), np.asarray([10.0, 10.0, 11.0])
        )
        # A span touching the cut intersects both neighbors, like the
        # scalar rule's closed-stripe convention.
        assert first.tolist() == [0, 0, 0]
        assert last.tolist() == [1, 1, 1]

    def test_infinite_spans_cover_everything(self):
        part = StripePartition((10.0, 20.0))
        first, last = part.spans_to_shards(
            np.asarray([-INF]), np.asarray([INF])
        )
        assert (first[0], last[0]) == (0, part.n_shards - 1)

    def test_empty_span_rejected(self):
        part = StripePartition((10.0,))
        with pytest.raises(ValueError, match="empty span"):
            part.spans_to_shards(np.asarray([5.0]), np.asarray([4.0]))

    def test_no_cuts_single_shard(self):
        part = StripePartition(())
        first, last = part.spans_to_shards(
            np.asarray([0.0, 99.0]), np.asarray([1.0, 100.0])
        )
        assert first.tolist() == [0, 0]
        assert last.tolist() == [0, 0]


@pytest.mark.parametrize("algorithm", ["tc", "mtb"])
def test_column_path_matches_object_path_per_shard(algorithm):
    """Drive twin sharded engines, one per update path; compare shards."""
    arr = arrays()
    scenario = arr.to_scenario()
    config = JoinConfig(t_m=T_M)

    def build():
        engine = ShardedJoinEngine(
            scenario.set_a,
            scenario.set_b,
            algorithm=algorithm,
            config=config,
            shards=4,
        )
        engine.run_initial_join()
        return engine

    col_engine, obj_engine = build(), build()
    stream = VectorUpdateStream(arr, seed=21)
    for step in range(1, 11):
        t = float(step)
        col_engine.tick(t)
        obj_engine.tick(t)
        upd_a, upd_b = stream.updates_at(t)
        col_engine.apply_update_columns(upd_a, upd_b)
        obj_engine.apply_updates(upd_a.objects() + upd_b.objects())
        assert col_engine.result_at(t) == obj_engine.result_at(t)
    col_dumps = col_engine.store_dumps()
    obj_dumps = obj_engine.store_dumps()
    assert sorted(col_dumps) == sorted(obj_dumps)
    for sid in col_dumps:
        assert sorted(col_dumps[sid]) == sorted(obj_dumps[sid]), f"shard {sid}"
    assert col_engine.update_count == obj_engine.update_count > 0
    for side in ("columns_a", "columns_b"):
        got, want = getattr(obj_engine, side), getattr(col_engine, side)
        assert got.oids.tolist() == want.oids.tolist()
        for oid in want.oids.tolist():
            assert got.get(oid) == want.get(oid)
            assert obj_engine.members_of(oid) == col_engine.members_of(oid)
    col_engine.close()
    obj_engine.close()


def test_ops_payload_is_column_slices(monkeypatch):
    """Every ``OP_OPS`` command carries the argument tuple of the shard
    engine's ``apply_update_columns``: four ``UpdateColumns`` slices and
    an int64 eviction array that partition the batch by halo change."""
    arr = arrays()
    scenario = arr.to_scenario()
    engine = ShardedJoinEngine(
        scenario.set_a, scenario.set_b, algorithm="tc",
        config=JoinConfig(t_m=T_M), shards=4,
    )
    engine.run_initial_join()
    sent = []
    run = engine._backend.run

    def spy(cmds_by_shard):
        sent.extend(cmd for cmds in cmds_by_shard.values() for cmd in cmds)
        return run(cmds_by_shard)

    monkeypatch.setattr(engine._backend, "run", spy)
    stream = VectorUpdateStream(arr, seed=21)
    kinds = [0, 0, 0]  # rows shipped as update / admission / eviction
    for step in range(1, 11):
        t = float(step)
        engine.tick(t)
        upd_a, upd_b = stream.updates_at(t)
        before = {
            oid: engine.members_of(oid)
            for oid in upd_a.oid.tolist() + upd_b.oid.tolist()
        }
        del sent[:]
        engine.apply_update_columns(upd_a, upd_b)
        ops = [cmd for cmd in sent if cmd[0] == "ops"]
        assert ops and all(len(cmd) == 3 for cmd in ops)
        for _op, sid, payload in ops:
            keep_a, keep_b, admit_a, admit_b, evict = payload
            for cols in (keep_a, keep_b, admit_a, admit_b):
                assert isinstance(cols, UpdateColumns)
            assert evict.dtype == np.int64
            for oid in keep_a.oid.tolist() + keep_b.oid.tolist():
                assert sid in before[oid] and sid in engine.members_of(oid)
            for oid in admit_a.oid.tolist() + admit_b.oid.tolist():
                assert sid not in before[oid] and sid in engine.members_of(oid)
            for oid in evict.tolist():
                assert sid in before[oid] and sid not in engine.members_of(oid)
            kinds[0] += len(keep_a) + len(keep_b)
            kinds[1] += len(admit_a) + len(admit_b)
            kinds[2] += len(evict)
        shipped = sum(
            len(p[0]) + len(p[1]) + len(p[2]) + len(p[3]) for _o, _s, p in ops
        )
        assert shipped == sum(len(engine.members_of(oid)) for oid in before)
    assert all(kinds), f"update/admit/evict not all exercised: {kinds}"
    engine.close()


def test_column_path_unknown_oid_rejected():
    arr = arrays()
    scenario = arr.to_scenario()
    engine = ShardedJoinEngine(
        scenario.set_a, scenario.set_b, algorithm="mtb",
        config=JoinConfig(t_m=T_M), shards=2,
    )
    engine.run_initial_join()
    engine.tick(1.0)
    stream = VectorUpdateStream(arr, seed=21)
    upd_a, upd_b = stream.updates_at(1.0)
    upd_a.oid[0] = 424242
    with pytest.raises(KeyError, match="424242"):
        engine.apply_update_columns(upd_a, upd_b)
    engine.close()


def test_column_path_with_sanitizer():
    """The per-shard validators accept column-routed state every tick."""
    arr = arrays(seed=29)
    scenario = arr.to_scenario()
    engine = ShardedJoinEngine(
        scenario.set_a, scenario.set_b, algorithm="mtb",
        config=JoinConfig(t_m=T_M), shards=3,
    )
    engine.run_initial_join()
    stream = VectorUpdateStream(arr, seed=5)
    for step in range(1, 7):
        t = float(step)
        engine.tick(t)
        upd_a, upd_b = stream.updates_at(t)
        engine.apply_update_columns(upd_a, upd_b)
        assert_sanitized(engine)
    assert len(engine.merged_store()) > 0
    engine.close()
