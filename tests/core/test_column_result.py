"""Differential suite: ColumnResultStore is store-identical to the
seed JoinResultStore.

The structure-of-arrays store must not be "close" — it must be
*bit-identical* under every mutation the engines perform: batched adds,
object removal, expiry pruning, and the delta ledger fed from array
diffs.  Each comparison below is exact equality on interval endpoints
and on netted delta events, never tolerance-based.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import (
    COLUMNAR_ALGORITHMS,
    ColumnarJoinEngine,
    ContinuousJoinEngine,
    JoinConfig,
)
from repro.core.result import ColumnResultStore, JoinResultStore
from repro.deltas import DeltaLedger, fold_events
from repro.geometry import TimeInterval
from repro.join import JoinTriple
from repro.workloads import VectorUpdateStream, make_workload_arrays


def triple(a, b, s, e):
    return JoinTriple(a, b, TimeInterval(s, e))

T_M = 12.0
N = 60
STEPS = 12


def dump(store):
    return sorted(
        (key, tuple((iv.start, iv.end) for iv in intervals))
        for key, intervals in store._pairs.items()
    )


def drive(algorithm, *, engine_cls, sanitize=False, deltas=False, seed=31):
    """One engine over the workload; the tree engine is the pairs-store
    side (it keeps a ``JoinResultStore``), the columnar engine the
    planes side.  Both are fed the same object batches."""
    config = JoinConfig(t_m=T_M, sanitize=sanitize, deltas=deltas)
    arr = make_workload_arrays(
        N, "uniform", max_speed=3.0, object_size_pct=1.5, t_m=T_M, seed=seed
    )
    scenario = arr.to_scenario()
    engine = engine_cls(
        scenario.set_a, scenario.set_b, algorithm=algorithm, config=config
    )
    engine.run_initial_join()
    stream = VectorUpdateStream(arr, seed=seed + 5)
    for step in range(1, STEPS + 1):
        t = float(step)
        engine.tick(t)
        upd_a, upd_b = stream.updates_at(t)
        engine.apply_updates(upd_a.objects() + upd_b.objects())
    return engine


def pairs_store(tree_engine):
    return tree_engine._strategy.store


# ----------------------------------------------------------------------
# Engine-level identity: columns store vs pairs store
# ----------------------------------------------------------------------
class TestEngineIdentity:
    @pytest.mark.parametrize("algorithm", COLUMNAR_ALGORITHMS)
    @pytest.mark.parametrize("sanitize", [False, True])
    def test_store_identical_over_matrix(self, algorithm, sanitize):
        pairs = drive(algorithm, engine_cls=ContinuousJoinEngine, sanitize=sanitize)
        cols = drive(algorithm, engine_cls=ColumnarJoinEngine, sanitize=sanitize)
        assert isinstance(pairs_store(pairs), JoinResultStore)
        assert isinstance(cols.store, ColumnResultStore)
        assert dump(pairs_store(pairs)) == dump(cols.store)
        assert len(cols.store) > 0  # the identity is not vacuous

    @pytest.mark.parametrize("algorithm", COLUMNAR_ALGORITHMS)
    def test_delta_streams_identical(self, algorithm):
        pairs = drive(algorithm, engine_cls=ContinuousJoinEngine, deltas=True)
        cols = drive(algorithm, engine_cls=ColumnarJoinEngine, deltas=True)
        assert pairs.ledger.ticks() == cols.ledger.ticks()
        for t in pairs.ledger.ticks():
            assert pairs.ledger.events_at(t) == cols.ledger.events_at(t), t
        assert fold_events(cols.ledger).rows() == cols.store.interval_rows()

    def test_default_config_uses_the_column_store(self):
        arr = make_workload_arrays(20, "uniform", t_m=T_M, seed=1)
        engine = ColumnarJoinEngine(
            arr.columns_a(), arr.columns_b(), algorithm="mtb",
            config=JoinConfig(t_m=T_M),
        )
        assert isinstance(engine.store, ColumnResultStore)

    def test_result_store_knob_validated(self):
        """The knob is gone: no spelling of it selects a store layout."""
        with pytest.raises(TypeError, match="result_store"):
            JoinConfig(t_m=T_M, result_store="pairs")


# ----------------------------------------------------------------------
# Store-level randomized oracle
# ----------------------------------------------------------------------
class TestStoreOracle:
    def test_randomized_mutation_stream(self):
        """Every public observable matches the dict-of-lists oracle under
        a random interleaving of adds, removals, prunes, and clears."""
        rng = np.random.default_rng(7)
        ref, col = JoinResultStore(), ColumnResultStore()
        for trial in range(250):
            op = rng.integers(0, 10)
            if op <= 5:  # batched adds dominate, as in the engines
                k = int(rng.integers(1, 6))
                a = rng.integers(0, 12, size=k)
                b = rng.integers(100, 112, size=k)
                lo = np.round(rng.uniform(0, 50, size=k), 2)
                hi = lo + np.round(rng.uniform(0.01, 10, size=k), 2)
                ref.add_batch(a, b, lo, hi)
                col.add_batch(a, b, lo, hi)
            elif op == 6:
                oid = int(rng.integers(0, 12))
                assert ref.remove_object(oid) == col.remove_object(oid)
            elif op == 7:
                oids = rng.integers(100, 112, size=3)
                assert ref.remove_objects(oids) == col.remove_objects(oids)
            elif op == 8:
                t = float(rng.uniform(0, 60))
                assert ref.prune_expired(t) == col.prune_expired(t)
            else:
                t = float(rng.uniform(0, 60))
                assert ref.pairs_at(t) == col.pairs_at(t)
            assert len(ref) == len(col), trial
        assert dump(ref) == dump(col)
        assert ref.interval_rows() == col.interval_rows()
        assert sorted(ref.pair_keys()) == col.pair_keys()
        some = next(iter(col.pair_keys()), None)
        if some is not None:
            assert ref.intervals_for(some) == col.intervals_for(some)
            assert some in col
            assert ref.pairs_for_object(some[0]) == col.pairs_for_object(some[0])

    def test_ledger_events_net_identically(self):
        """Flush-time array diffs must produce the same netted event
        stream as the seed store's incremental records."""
        rng = np.random.default_rng(11)
        ref, col = JoinResultStore(), ColumnResultStore()
        led_ref, led_col = DeltaLedger(), DeltaLedger()
        ref.attach_ledger(led_ref)
        col.attach_ledger(led_col)
        for t in range(1, 20):
            k = int(rng.integers(1, 5))
            a = rng.integers(0, 8, size=k)
            b = rng.integers(50, 58, size=k)
            lo = np.round(rng.uniform(0, 30, size=k), 1)
            hi = lo + np.round(rng.uniform(0.1, 8, size=k), 1)
            ref.add_batch(a, b, lo, hi)
            col.add_batch(a, b, lo, hi)
            if t % 3 == 0:
                oid = int(rng.integers(0, 8))
                ref.remove_object(oid)
                col.remove_object(oid)
            if t % 5 == 0:
                ref.prune_expired(float(t))
                col.prune_expired(float(t))
            led_ref.advance(float(t))
            led_col.advance(float(t))
        assert led_ref.ticks() == led_col.ticks()
        for t in led_ref.ticks():
            assert led_ref.events_at(t) == led_col.events_at(t), t
        assert fold_events(led_col).rows() == col.interval_rows()

    def test_clear_records_full_retraction(self):
        col = ColumnResultStore()
        ledger = DeltaLedger()
        col.attach_ledger(ledger)
        col.add(triple(1, 2, 0.0, 5.0))
        col.add(triple(1, 2, 7.0, 9.0))
        ledger.advance(1.0)
        col.clear()
        ledger.advance(2.0)
        assert len(col) == 0
        assert fold_events(ledger).rows() == {}

    def test_adjacent_intervals_coalesce_like_seed(self):
        ref, col = JoinResultStore(), ColumnResultStore()
        for store in (ref, col):
            store.add(triple(1, 2, 0.0, 1.0))
            store.add(triple(1, 2, 1.0, 2.0))  # touching: must merge
            store.add(triple(1, 2, 5.0, 6.0))  # disjoint: must stay separate
        assert ref.intervals_for((1, 2)) == col.intervals_for((1, 2))
        assert len(col.intervals_for((1, 2))) == 2

    def test_rejects_what_the_seed_rejects(self):
        col = ColumnResultStore()
        with pytest.raises(ValueError, match="NaN"):
            col.add_batch([1], [2], [float("nan")], [1.0])
        with pytest.raises(ValueError, match="empty interval"):
            col.add_batch([1], [2], [3.0], [2.0])
        with pytest.raises(ValueError):
            col.add_batch([1], [2], [float("inf")], [float("inf")])

    def test_approx_bytes_tracks_planes(self):
        col = ColumnResultStore()
        base = col.approx_bytes()
        a = np.arange(100)
        col.add_batch(a, a + 1000, np.zeros(100), np.ones(100))
        col.flush()
        assert col.approx_bytes() > base
