"""The sanitizer: each corruption is caught with the right SC code,
and ``sanitize_engine`` finds nothing on clean engines of every kind."""

from __future__ import annotations

import pytest

from repro.core import (
    ColumnarJoinEngine,
    ContinuousJoinEngine,
    ContinuousSelfJoinEngine,
    JoinConfig,
)
from repro.core.result import ColumnResultStore
from repro.geometry import Box, KineticBox, TimeInterval
from repro.index import MTBTree, TPRStarTree, TreeStorage
from repro.join import JoinTriple
from repro.par import ShardedJoinEngine

from ..conftest import random_objects
from ..reference_store import record_row
from .errors import InvariantViolation
from .sanitize import (
    check_column_result_store,
    check_column_store,
    check_delta_ledger,
    check_mtb_forest,
    check_supervisor_state,
    check_tpr_tree,
    raise_on_findings,
    sanitize_engine,
)


def codes(findings) -> set:
    return {f.code for f in findings}


def build_tree(n: int = 40, t0: float = 0.0) -> TPRStarTree:
    tree = TPRStarTree(storage=TreeStorage(), node_capacity=8, horizon=10.0)
    for obj in random_objects(7, n, t_ref=t0, space=200.0):
        tree.insert(obj, t0)
    return tree


def far_box(t_ref: float) -> KineticBox:
    return KineticBox.rigid(Box(1e6, 1e6 + 1, 1e6, 1e6 + 1), 0.0, 0.0, t_ref)


# ----------------------------------------------------------------------
# TPR-tree corruption
# ----------------------------------------------------------------------
class TestTPRTree:
    def test_clean_tree_has_no_findings(self):
        tree = build_tree()
        assert check_tpr_tree(tree, 0.0) == []

    def test_corrupted_root_level_is_sc101(self):
        tree = build_tree()
        root = tree.root_node()
        root.level += 1
        tree.storage.write_node(root)
        assert "SC101" in codes(check_tpr_tree(tree, 0.0))

    def test_underfull_node_is_sc102(self):
        tree = build_tree()
        root = tree.root_node()
        assert not root.is_leaf, "need a non-root level to underfill"
        child = tree.read_node(root.entries[0].ref)
        child.entries = child.entries[:1]
        tree.storage.write_node(child)
        assert "SC102" in codes(check_tpr_tree(tree, 0.0))

    def test_shrunk_parent_bound_is_sc103(self):
        tree = build_tree()
        root = tree.root_node()
        assert not root.is_leaf, "need an internal level to corrupt"
        root.entries[0].kbox = far_box(0.0)
        tree.storage.write_node(root)
        assert "SC103" in codes(check_tpr_tree(tree, 0.0))

    def test_mutated_leaf_entry_is_sc104(self):
        tree = build_tree()
        leaf = tree.read_node(tree.root_node().entries[0].ref)
        assert leaf.is_leaf
        leaf.entries[0].kbox = far_box(0.0)
        tree.storage.write_node(leaf)
        assert "SC104" in codes(check_tpr_tree(tree, 0.0))

    def test_dropped_object_row_is_sc104(self):
        tree = build_tree()
        oid = next(iter(tree.objects))
        tree.objects.pop(oid)
        assert "SC104" in codes(check_tpr_tree(tree, 0.0))


# ----------------------------------------------------------------------
# MTB forest corruption
# ----------------------------------------------------------------------
def build_forest(t_now: float = 1.0) -> MTBTree:
    forest = MTBTree(t_m=10.0, buckets_per_tm=2, node_capacity=8)
    for obj in random_objects(11, 30, t_ref=1.0, space=200.0):
        forest.insert(obj, t_now)
    return forest


class TestMTBForest:
    def test_clean_forest_has_no_findings(self):
        assert check_mtb_forest(build_forest(), 1.0) == []

    def test_misfiled_object_is_sc201(self):
        forest = build_forest()
        # An object last updated at t=7 (bucket 1) filed under bucket 0.
        (stray,) = random_objects(13, 1, id_offset=900, t_ref=7.0, space=200.0)
        forest._tree_for(forest.bucket_key(1.0)).insert(stray, 7.0)
        forest.objects.put(stray, forest.bucket_key(1.0))
        assert "SC201" in codes(check_mtb_forest(forest, 8.0))

    def test_wrong_table_tag_is_sc202(self):
        forest = build_forest()
        oid = next(iter(forest.objects))
        obj = forest.objects.get(oid)
        forest.objects.put(obj, forest.bucket_key(obj.t_ref) + 5)
        assert "SC202" in codes(check_mtb_forest(forest, 1.0))

    def test_future_update_is_sc203(self):
        forest = build_forest()
        assert "SC203" in codes(check_mtb_forest(forest, 0.5))


# ----------------------------------------------------------------------
# Result store fed one triple at a time (the tree engines' traffic)
# ----------------------------------------------------------------------
def store_with(intervals) -> ColumnResultStore:
    store = ColumnResultStore()
    for interval in intervals:
        store.add(JoinTriple(1, 2, interval))
    return store


class TestResultStore:
    def test_clean_store_has_no_findings(self):
        store = store_with([TimeInterval(5.0, 6.0), TimeInterval(0.0, 2.0)])
        assert check_column_result_store(store) == []

    def test_tc_bound_violation_is_sc303(self):
        store = store_with([TimeInterval(0.0, 100.0)])
        findings = check_column_result_store(
            store, t_m=10.0, anchors={1: 0.0, 2: 0.0}, floor=0.0
        )
        assert "SC303" in codes(findings)

    def test_within_tc_bound_is_clean(self):
        store = store_with([TimeInterval(0.0, 9.5)])
        findings = check_column_result_store(
            store, t_m=10.0, anchors={1: 0.0, 2: 0.0}, floor=0.0
        )
        assert findings == []


# ----------------------------------------------------------------------
# sanitize_engine: every engine kind, clean and with one corruption
# ----------------------------------------------------------------------
def two_set_engine(engine_cls, *args, config=None, **kwargs):
    """An engine over two small random sets, initial join done."""
    engine = engine_cls(
        random_objects(3, 30, space=200.0),
        random_objects(4, 30, id_offset=100, space=200.0),
        *args,
        config=config or JoinConfig(t_m=20.0, node_capacity=8),
        **kwargs,
    )
    engine.run_initial_join()
    return engine


class TestSanitizeEngine:
    """``sanitize_engine`` is the only way the oracle runs on an engine:
    no engine calls it by itself, and it returns (never raises) the
    findings for the tree, columnar, self-join and sharded engines."""

    @pytest.mark.parametrize("algorithm", ["naive", "etp", "tc", "mtb"])
    def test_tree_engine_stays_clean(self, algorithm):
        engine = two_set_engine(ContinuousJoinEngine, algorithm)
        assert sanitize_engine(engine) == []
        for step in range(1, 6):
            t = float(step)
            engine.tick(t)
            for oid in (step, 100 + step):
                engine.apply_update(
                    (engine.objects_a.get(oid) or engine.objects_b[oid]).updated(t)
                )
            assert sanitize_engine(engine) == [], t

    def test_corrupted_tree_is_sc104_and_nothing_raises(self):
        engine = two_set_engine(ContinuousJoinEngine, "tc")
        tree = engine._strategy.tree_a
        leaf = tree.read_node(tree.root_node().entries[0].ref)
        leaf.entries[0].kbox = far_box(0.0)
        tree.storage.write_node(leaf)
        engine.tick(1.0)  # no engine runs the sanitizer by itself
        assert "SC104" in codes(sanitize_engine(engine))

    def test_ledger_behind_the_store_is_sc701(self):
        engine = two_set_engine(
            ContinuousJoinEngine, "mtb", config=JoinConfig(t_m=10.0, deltas=True)
        )
        assert sanitize_engine(engine) == []
        engine._strategy.store.attach_ledger(None)
        engine._strategy.store.clear()
        assert "SC701" in codes(sanitize_engine(engine))

    def test_columnar_stale_run_boundaries_are_sc802(self):
        engine = two_set_engine(ColumnarJoinEngine, "tc", config=JoinConfig(t_m=10.0))
        assert sanitize_engine(engine) == []
        engine.store.flush()
        engine.store._run_starts = engine.store._run_starts[:-1]
        assert "SC802" in codes(sanitize_engine(engine))

    def test_selfjoin_wrong_bucket_tag_is_sc202(self):
        engine = ContinuousSelfJoinEngine(
            random_objects(5, 40, space=200.0),
            JoinConfig(t_m=20.0, node_capacity=8),
        )
        engine.run_initial_join()
        for step in range(1, 6):
            t = float(step)
            engine.tick(t)
            engine.apply_update(engine.objects[step].updated(t))
            assert sanitize_engine(engine) == [], t
        forest = engine.forest
        obj = forest.objects.get(1)
        forest.objects.put(obj, forest.bucket_key(obj.t_ref) + 5)
        assert "SC202" in codes(sanitize_engine(engine))

    def test_sharded_misplaced_ghost_is_sc402(self):
        with two_set_engine(ShardedJoinEngine, "tc", shards=2, axis=0) as engine:
            assert sanitize_engine(engine) == []
            _cols, first, last = engine._sides["a"]
            first[0] = last[0] = (last[0] + 1) % engine.n_shards
            assert "SC402" in codes(sanitize_engine(engine))
            with pytest.raises(InvariantViolation):
                raise_on_findings(sanitize_engine(engine))

    def test_unknown_engine_kind_is_refused(self):
        with pytest.raises(TypeError, match="no sanitizer"):
            sanitize_engine(object())


def supervisor_state(shard=None, slot=None, **top):
    """A clean supervisor export, with targeted overrides per test."""
    shard_entry = {
        "shard": 0,
        "slot": 0,
        "degraded": False,
        "epoch": 1,
        "oplog_len": 2,
        "oplog_ops": ["tick", "ops"],
        "checkpoint": {"kind": "restore", "epoch": 1, "now": 3.0},
    }
    if shard:
        shard_entry.update(shard)
    slot_entry = {"slot": 0, "alive": True, "degraded": False}
    if slot:
        slot_entry.update(slot)
    state = {
        "format": "repro.par.supervisor/1",
        "now": 5.0,
        "checkpoint_interval": 4,
        "slots": [slot_entry],
        "shards": [shard_entry],
    }
    state.update(top)
    return state


class TestSupervisorState:
    """SC501–SC503: supervision invariants over exported state."""

    def test_clean_state_has_no_findings(self):
        assert check_supervisor_state(supervisor_state()) == []

    def test_unknown_format_flagged(self):
        found = check_supervisor_state(supervisor_state(format="bogus/9"))
        assert codes(found) == {"SC501"}

    def test_sc501_overlong_oplog(self):
        found = check_supervisor_state(
            supervisor_state(shard={"oplog_len": 9})
        )
        assert "SC501" in codes(found)

    def test_sc501_non_mutating_command_logged(self):
        found = check_supervisor_state(
            supervisor_state(shard={"oplog_ops": ["tick", "pairs_at"]})
        )
        assert "SC501" in codes(found)

    def test_sc502_epoch_disagreement(self):
        found = check_supervisor_state(
            supervisor_state(
                shard={"checkpoint": {"kind": "restore", "epoch": 0, "now": 3.0}}
            )
        )
        assert codes(found) == {"SC502"}

    def test_sc502_checkpoint_ahead_of_clock(self):
        found = check_supervisor_state(
            supervisor_state(
                shard={"checkpoint": {"kind": "restore", "epoch": 1, "now": 9.0}}
            )
        )
        assert codes(found) == {"SC502"}

    def test_sc502_log_without_replay_base(self):
        found = check_supervisor_state(
            supervisor_state(shard={"checkpoint": None})
        )
        assert codes(found) == {"SC502"}

    def test_sc503_unknown_slot(self):
        found = check_supervisor_state(supervisor_state(shard={"slot": 7}))
        assert codes(found) == {"SC503"}

    def test_sc503_dead_slot(self):
        found = check_supervisor_state(
            supervisor_state(slot={"alive": False})
        )
        assert codes(found) == {"SC503"}

    def test_degraded_shard_needs_no_live_slot(self):
        found = check_supervisor_state(
            supervisor_state(
                shard={"degraded": True}, slot={"alive": False, "degraded": True}
            )
        )
        assert found == []


# ----------------------------------------------------------------------
# Column-store corruption (SC601-SC603)
# ----------------------------------------------------------------------
class TestColumnStore:
    def build_store(self, n: int = 16):
        from repro.core import ColumnStore

        return ColumnStore.from_objects(
            random_objects(13, n, t_ref=0.0, space=200.0)
        )

    def check(self, store, t_now: float = 0.0):
        return check_column_store(store, t_now)

    def test_clean_store_has_no_findings(self):
        assert self.check(self.build_store()) == []

    def test_clean_store_with_its_index_built_has_no_findings(self):
        store = self.build_store()
        assert int(store.oid[3]) in store  # builds the lazy index
        assert store._id_order is not None
        assert self.check(store) == []

    def test_dropped_row_map_entry_is_sc601(self):
        store = self.build_store()
        store.find(store.oids)
        store._id_order = store._id_order[1:]
        store._id_sorted = store._id_sorted[1:]
        assert "SC601" in codes(self.check(store))

    def test_swapped_row_map_entries_are_sc601(self):
        store = self.build_store()
        store.find(store.oids)
        order = store._id_order.copy()
        order[[0, 1]] = order[[1, 0]]
        store._id_order = order
        assert "SC601" in codes(self.check(store))

    def test_index_sorted_by_something_else_is_sc601(self):
        store = self.build_store()
        store.find(store.oids)
        store._id_order = store._id_order[::-1].copy()
        store._id_sorted = store._id_sorted[::-1].copy()
        assert "SC601" in codes(self.check(store))

    def test_id_stored_twice_is_sc601(self):
        store = self.build_store()
        store.oid[1] = store.oid[0]
        assert "SC601" in codes(self.check(store))

    def test_magnitude_bound_below_the_columns_is_sc602(self):
        for corrupt in (
            lambda s: s.mhi.__setitem__((0, 2), 5_000.0),
            lambda s: s.vlo.__setitem__((1, 2), -50.0),
            lambda s: s.tref.__setitem__(2, -9.0),
        ):
            store = self.build_store()
            corrupt(store)
            # Keep the shift planes honest: only the bound is stale.
            store.slo[:, 2] = store.mlo[:, 2] - store.vlo[:, 2] * store.tref[2]
            store.shi[:, 2] = store.mhi[:, 2] - store.vhi[:, 2] * store.tref[2]
            assert codes(self.check(store)) == {"SC602"}

    def test_drifted_shifted_bound_is_sc602(self):
        store = self.build_store()
        store.slo[0, 0] += 1e-3
        assert "SC602" in codes(self.check(store))

    def test_future_reference_time_is_sc603(self):
        store = self.build_store()
        store.tref[0] = 5.0
        store.slo[:, 0] = store.mlo[:, 0] - store.vlo[:, 0] * 5.0
        store.shi[:, 0] = store.mhi[:, 0] - store.vhi[:, 0] * 5.0
        found = self.check(store, t_now=1.0)
        assert "SC603" in codes(found)

    def test_non_finite_column_is_sc603(self):
        import numpy as np

        store = self.build_store()
        store.vlo[0, 0] = np.nan
        assert "SC603" in codes(self.check(store, t_now=0.0))


# ----------------------------------------------------------------------
# Delta ledger reconciliation (SC701-SC703)
# ----------------------------------------------------------------------
class TestDeltaLedger:
    """``check_delta_ledger`` reconciles a ledger against its
    live store: fold lands on the store (SC701), ticks strictly
    increase (SC702), and the stream is well-formed (SC703)."""

    def build(self):
        from repro.deltas import DeltaLedger

        store = ColumnResultStore()
        ledger = DeltaLedger(0.0)
        store.attach_ledger(ledger)
        store.add(JoinTriple(1, 2, TimeInterval(0.0, 3.0)))
        store.add(JoinTriple(3, 4, TimeInterval(1.0, 9.0)))
        ledger.advance(1.0)
        store.remove_object(1)
        return store, ledger

    def check(self, store, ledger):
        return check_delta_ledger(store, ledger)

    def test_clean_ledger_has_no_findings(self):
        store, ledger = self.build()
        assert self.check(store, ledger) == []

    def test_unreported_mutation_is_sc701(self):
        store, ledger = self.build()
        store.attach_ledger(None)  # mutate behind the ledger's back
        store.remove_object(3)
        assert codes(self.check(store, ledger)) == {"SC701"}

    def test_drifted_interval_is_sc701(self):
        store, ledger = self.build()
        store.flush()
        store._hi[0] = 9.5  # the (3, 4) row, behind the ledger's back
        found = self.check(store, ledger)
        assert codes(found) == {"SC701"}
        assert "drifted" in found[0].message

    def test_backdated_tick_is_sc702(self):
        store, ledger = self.build()
        ledger._ticks.append(0.5)  # corrupt: records landed out of order
        assert codes(self.check(store, ledger)) == {"SC702"}

    def test_duplicated_emission_is_sc703(self):
        store, ledger = self.build()
        ledger.advance(2.0)
        record_row(ledger, 1, 3, 4, 1.0, 9.0)  # row is already present
        assert codes(self.check(store, ledger)) == {"SC703"}

    def test_lost_emission_is_sc703(self):
        store, ledger = self.build()
        ledger.advance(2.0)
        record_row(ledger, -1, 9, 9, 0.0, 1.0)  # row was never added
        assert codes(self.check(store, ledger)) == {"SC703"}


# ----------------------------------------------------------------------
# Columnar result store (SC801-SC803)
# ----------------------------------------------------------------------
class TestColumnResultStore:
    """``check_column_result_store`` audits the SoA interval planes:
    order/disjointness (SC801), index agreement (SC802), post-flush
    bookkeeping (SC803), and the shared TC bound (SC303)."""

    def build(self):
        store = ColumnResultStore()
        store.add_batch((1, 1, 3), (2, 2, 4), (0.0, 5.0, 1.0), (1.0, 6.0, 9.0))
        store.flush()
        return store

    def check(self, store, **kw):
        return check_column_result_store(store, **kw)

    def test_clean_store_has_no_findings(self):
        store = self.build()
        assert self.check(store) == []
        assert self.check(
            store, t_m=10.0, anchors={1: 0.0, 2: 0.0, 3: 0.0, 4: 0.0}
        ) == []

    def test_pair_keys_out_of_order_is_sc801(self):
        store = self.build()
        store._a[0] = 9  # rows no longer sorted by (a, b)
        found = self.check(store)
        assert "SC801" in codes(found)

    def test_overlapping_intervals_is_sc801(self):
        store = self.build()
        store._lo[1] = 0.5  # second (1, 2) interval now overlaps the first
        assert codes(self.check(store)) == {"SC801"}

    def test_interval_starts_out_of_order_is_sc801(self):
        store = self.build()
        store._lo[1], store._lo[0] = store._lo[0], store._lo[1]
        assert "SC801" in codes(self.check(store))

    def test_stale_run_boundaries_is_sc802(self):
        store = self.build()
        store._run_starts = store._run_starts[:-1]
        found = self.check(store)
        assert "SC802" in codes(found)

    def test_corrupt_b_order_is_sc802(self):
        store = self.build()
        store.pairs_for_object(2)  # force the lazy b-side index
        store._b_order = store._b_order[::-1].copy()
        store._b[0], store._b[1] = 7, 2  # make the reversal observable
        store._a[1] = 1
        found = self.check(store)
        assert "SC802" in codes(found)

    def test_stale_sorted_b_plane_is_sc802(self):
        """The cached sorted ``b`` plane must equal ``b[order]``: point
        lookups binary-search it instead of gathering the plane."""
        store = self.build()
        store.pairs_for_object(2)  # force the lazy b-side index
        assert self.check(store) == []
        store._b_sorted = store._b_sorted.copy()
        store._b_sorted[0] = 3  # still sorted, no longer the b plane
        found = self.check(store)
        assert codes(found) == {"SC802"}
        assert "sorted b plane" in found[0].message

    def test_pair_count_mismatch_is_sc803(self):
        store = self.build()
        store._n_pairs += 1
        assert codes(self.check(store)) == {"SC803"}

    def test_empty_interval_is_sc803(self):
        store = self.build()
        store._hi[2] = store._lo[2] - 1.0
        assert "SC803" in codes(self.check(store))

    def test_nan_endpoint_is_sc803(self):
        import numpy as np

        store = self.build()
        store._hi[2] = np.nan
        assert "SC803" in codes(self.check(store))

    def test_dead_row_after_flush_is_sc803(self):
        store = self.build()
        store._live[0] = False  # dead row without pending bookkeeping
        assert "SC803" in codes(self.check(store))

    def test_interval_past_tc_bound_is_sc303(self):
        store = self.build()
        found = self.check(
            store, t_m=1.0, anchors={1: 0.0, 2: 0.0, 3: 0.0, 4: 0.0}, floor=0.0
        )
        assert codes(found) == {"SC303"}

