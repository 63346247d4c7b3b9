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
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import ColumnarJoinEngine, JoinConfig
from repro.core.result import ColumnResultStore
from repro.deltas import DeltaLedger, DeltaSubscription, fold_events
from repro.geometry import TimeInterval
from repro.geometry.constants import MERGE_TOL
from repro.join import JoinTriple
from repro.workloads import make_workload

from ..check.sanitize import check_column_result_store
from ..reference_store import JoinResultStore


def triple(a, b, s, e):
    return JoinTriple(a, b, TimeInterval(s, e))

T_M = 12.0


def dump(store):
    return sorted(
        (key, tuple((iv.start, iv.end) for iv in intervals))
        for key, intervals in store._pairs.items()
    )


def assert_stores_agree(ref, col, oids=()):
    """Every read of the planes store equals the dict-of-lists oracle,
    and the planes pass their own invariant audit (SC801-SC803)."""
    rows = ref.interval_rows()
    keys = sorted(rows)
    assert col.interval_rows() == rows
    assert col.pair_keys() == keys
    assert len(col) == len(ref) == len(keys)
    a, b, lo, hi = col.planes()
    assert list(zip(a.tolist(), b.tolist(), lo.tolist(), hi.tolist())) == [
        (*key, start, end) for key in keys for start, end in rows[key]
    ]
    for oid in oids:
        assert col.pairs_for_object(oid) == ref.pairs_for_object(oid), oid
    assert check_column_result_store(col) == []


def ledgered_pair():
    """A dict store and a planes store, each with its own ledger."""
    ref, col = JoinResultStore(), ColumnResultStore()
    ref.attach_ledger(DeltaLedger())
    col.attach_ledger(DeltaLedger())
    return ref, col


def assert_tick_agrees(ref, col):
    """The open tick nets identically and both folds land on the store.

    ``ticks()`` is not compared: it lists ticks with *raw* records, and
    the planes store records a re-merged row it left unchanged as a
    ``-1``/``+1`` pair that nets to nothing where the dict store records
    nothing at all.
    """
    led_ref, led_col = ref._ledger, col._ledger
    assert led_col.events_at(led_col.now) == led_ref.events_at(led_ref.now)
    assert fold_events(led_col).rows() == col.interval_rows()


# ----------------------------------------------------------------------
# Engine-level identity: columns store vs pairs store
# ----------------------------------------------------------------------
class TestEngineIdentity:
    """Which store an engine builds.  That the tree and columnar engines
    store bit-identical rows and net identical delta streams is an
    invariant of the stateful model (``tests/test_model.py``)."""

    def test_default_config_uses_the_column_store(self):
        arr = make_workload(20, "uniform", t_m=T_M, seed=1)
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
        a random interleaving of adds, removals and reads."""
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

    #: Oids on both sides of the packed-key range ``[0, 2**31)``.
    WIDE_OIDS = (-5, 0, 2**31 - 1, 2**31, 2**40)

    @pytest.mark.parametrize("seed", [3, 17])
    def test_wide_oids_match_the_dict_store(self, seed):
        """Negative and >= 2**31 oids take the structured pair key; the
        planes, reads and netted events must not notice."""
        rng = np.random.default_rng(seed)
        oids = np.array(self.WIDE_OIDS)
        ref, col = ledgered_pair()
        for t in range(1, 40):
            k = int(rng.integers(1, 6))
            a, b = rng.choice(oids, size=k), rng.choice(oids, size=k)
            lo = np.round(rng.uniform(0, 30, size=k), 1)
            hi = lo + np.round(rng.uniform(0.1, 8, size=k), 1)
            ref.add_batch(a, b, lo, hi)
            col.add_batch(a, b, lo, hi)
            if t % 3 == 0:
                oid = int(rng.choice(oids))
                assert ref.remove_object(oid) == col.remove_object(oid)
            if t % 4 == 0:
                gone = rng.choice(oids, size=2)
                assert ref.remove_objects(gone) == col.remove_objects(gone)
            assert_stores_agree(ref, col, self.WIDE_OIDS)
            assert_tick_agrees(ref, col)
            ref._ledger.advance(float(t))
            col._ledger.advance(float(t))
        assert len(col) > 0  # the comparison is not vacuous
        assert {int(x) for x in col.planes()[0]} > {0}

    def test_wide_oid_arriving_in_a_packed_store(self):
        """One wide oid in the pending rows switches the key space of
        base lookup and pending sort together, and back once it is gone."""
        ref, col = ledgered_pair()
        for store in (ref, col):
            store.add_batch([1, 1, 7], [2, 9, 8], [0.0, 0.0, 0.0], [1.0, 1.0, 1.0])
        assert_stores_agree(ref, col, (1, 7))
        for store in (ref, col):  # lands between, before and after the runs
            store.add_batch(
                [1, -5, 2**40, 1], [2**31, 3, 2, 2], [4.0, 0.0, 0.0, 0.5], [5.0, 1.0, 1.0, 2.0]
            )
        assert_stores_agree(ref, col, (1, 2, -5, 2**31, 2**40))
        assert_tick_agrees(ref, col)
        for store in (ref, col):
            store.remove_objects([-5, 2**31, 2**40])
            store.add_batch([1], [2], [8.0], [9.0])
        assert_stores_agree(ref, col, (1, 2, -5, 2**31, 2**40))
        assert_tick_agrees(ref, col)
        assert col.planes()[1].max() < 2**31

    def _disjoint_span_stores(self, seed=5):
        """a-side ids in [10, 30), b-side ids a million above — the
        benchmark's shape: neither plane's span holds the other's ids."""
        rng = np.random.default_rng(seed)
        ref, col = ledgered_pair()
        k = 120
        a = rng.integers(10, 30, size=k)
        b = 1_000_000 + rng.integers(0, 25, size=k)
        lo = np.round(rng.uniform(0, 40, size=k), 1)
        hi = lo + np.round(rng.uniform(0.1, 6, size=k), 1)
        for store in (ref, col):
            store.add_batch(a, b, lo, hi)
        return ref, col

    @pytest.mark.parametrize("gone", [
        [3, 9],  # below both planes' spans
        [12, 29],  # inside the a plane's span
        [1_000_003, 1_000_024],  # inside the b plane's
        [2_000_000, 2**40],  # above both
        [500_000],  # between the two
        [11, 1_000_011, 17, 1_000_017],  # both sides at once
        [-5, 2**31, 2**40],
        [12, 12, 1_000_003, 12],  # repeated ids are one removal
        [],
    ])
    def test_remove_objects_equals_the_dict_store(self, gone):
        ref, col = self._disjoint_span_stores()
        assert ref.remove_objects(list(gone)) == col.remove_objects(np.array(gone, dtype=np.int64))
        assert_stores_agree(ref, col, (11, 12, 17, 1_000_003, 1_000_011))
        assert_tick_agrees(ref, col)
        # Again on the dead rows: nothing is killed or reported twice.
        assert ref.remove_objects(list(gone)) == col.remove_objects(gone) == 0
        assert_tick_agrees(ref, col)

    def test_remove_objects_on_pending_adds_dead_rows_and_nothing(self):
        ref, col = self._disjoint_span_stores()
        assert ref.remove_objects([]) == col.remove_objects(np.empty(0, dtype=np.int64)) == 0
        empty_ref, empty_col = ledgered_pair()
        assert empty_ref.remove_objects([7, 2**40]) == empty_col.remove_objects([7, 2**40]) == 0
        # Pending adds are merged before the membership test sees the planes.
        for store in (ref, col):
            store.add_batch([12, 40], [1_000_030, 1_000_003], [50.0, 50.0], [51.0, 51.0])
        assert col._pend
        assert ref.remove_objects([40, 1_000_030]) == col.remove_objects([40, 1_000_030]) == 2
        assert_stores_agree(ref, col, (12, 40, 1_000_003, 1_000_030))
        # Every row dead, no flush in between: the second call finds none.
        everyone = np.concatenate([np.arange(10, 30), 1_000_000 + np.arange(25)])
        assert ref.remove_objects(everyone.tolist()) == col.remove_objects(everyone)
        assert col._dead == col._n > 0
        assert col.remove_objects(everyone) == 0
        assert_stores_agree(ref, col, (12,))
        assert_tick_agrees(ref, col)
        assert len(col) == 0

    def test_sparse_b_plane_takes_the_clipped_isin(self, monkeypatch):
        """A b plane whose own span is too wide for a flag table."""
        from repro.core import result

        calls = []
        isin = np.isin
        monkeypatch.setattr(
            result.np, "isin", lambda plane, ids: calls.append(ids.copy()) or isin(plane, ids)
        )
        ref, col = ledgered_pair()
        for store in (ref, col):
            store.add_batch([1, 2, 3, 4], [7, 2**40, 9, 2**33], [0.0] * 4, [1.0] * 4)
        gone = [2**33, 3, 2**50, 5]
        assert ref.remove_objects(gone) == col.remove_objects(gone) == 2
        assert [ids.tolist() for ids in calls] == [[2**33]]  # clipped to the b span
        assert_stores_agree(ref, col, (1, 2, 3, 4, 7, 9))
        ref, col = self._disjoint_span_stores()
        assert ref.remove_objects([12, 1_000_003]) == col.remove_objects([12, 1_000_003])
        assert len(calls) == 1  # a dense span never gets there

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


# ----------------------------------------------------------------------
# Point lookups and plane reads
# ----------------------------------------------------------------------
class TestReads:
    I64 = np.iinfo(np.int64)

    @pytest.mark.parametrize(
        "b_oids",
        [
            [70_000, 3, 2**16, 3, 2**16 - 1, 70_000, 2**17],  # past one digit
            [2**32, 5, 2**40, 2**32 - 1, 5, 2**40],  # past two
            [-5, 0, -(2**33), 7, -5, -1],  # negative
            [I64.min, I64.max, 0, I64.max, I64.min, -1],  # the whole span
            [9] * 6,  # all equal
            [],  # empty store
        ],
        ids=["ge-2**16", "ge-2**32", "negative", "int64-span", "all-equal", "empty"],
    )
    def test_b_index_is_the_stable_argsort(self, b_oids):
        """The radix-built b-side index is ``argsort(b, kind="stable")``
        row for row, whatever the oids, and serves the same lookups."""
        ref, col = JoinResultStore(), ColumnResultStore()
        k = len(b_oids)
        for store in (ref, col):  # a sorts the rows, so b arrives shuffled
            store.add_batch(np.arange(k) // 2, b_oids, np.zeros(k), np.ones(k))
        a, b, _lo, _hi = col.planes()
        assert col._b_rows(9).tolist() == np.flatnonzero(b == 9).tolist()
        want = np.argsort(b, kind="stable")
        assert col._b_order.dtype == want.dtype
        assert col._b_order.tolist() == want.tolist()
        assert col._b_sorted.tolist() == b[want].tolist()
        for oid in {*b_oids, *a.tolist(), 12345}:
            assert col.pairs_for_object(oid) == ref.pairs_for_object(oid), oid

    def test_pairs_for_object_over_many_rows_and_both_sides(self):
        """A pair holding several rows is reported once; an oid stored
        on the a side of some pairs and the b side of others (and of
        itself) gets all of them."""
        rows = [
            (1, 7, 0.0, 1.0), (1, 7, 2.0, 3.0), (1, 7, 4.0, 5.0),  # three rows
            (7, 1, 0.0, 1.0), (7, 1, 6.0, 8.0),  # 7 on the a side
            (7, 7, 0.0, 1.0), (7, 7, 3.0, 4.0),  # and paired with itself
            (2, 7, 0.0, 1.0), (7, 9, 0.0, 1.0), (3, 4, 0.0, 1.0),
        ]
        ref, col = JoinResultStore(), ColumnResultStore()
        both(ref, col, "add_batch", *zip(*rows))
        assert len(col.planes()[0]) == len(rows)  # nothing merged away
        assert col.pairs_for_object(7) == {(1, 7), (7, 1), (7, 7), (2, 7), (7, 9)}
        for oid in (1, 2, 3, 4, 7, 9, 5):
            assert col.pairs_for_object(oid) == ref.pairs_for_object(oid), oid
        both(ref, col, "remove_object", 1)
        assert col.pairs_for_object(7) == ref.pairs_for_object(7) == {(7, 7), (2, 7), (7, 9)}

    def test_plane_reads_agree_with_the_set_at_touching_endpoints(self):
        """Closed intervals: a pair holds at both of its endpoints, and
        two rows of one pair a merge-tolerance apart never both do."""
        gap = 2 * MERGE_TOL
        rows = [
            (1, 5, 0.0, 2.0), (1, 5, 2.0 + gap, 4.0),  # a hair apart
            (1, 6, 2.0, 2.0),  # a single instant
            (2, 5, 4.0, 6.0), (3, 5, 6.0, 7.0), (0, 9, 1.0, 3.0),
        ]
        ref, col = JoinResultStore(), ColumnResultStore()
        both(ref, col, "add_batch", *zip(*rows))
        for t in (-1.0, 0.0, 1.0, 2.0, 2.0 + gap / 2, 2.0 + gap, 3.0, 4.0, 6.0, 7.0, 7.5):
            a, b = col.pairs_at_planes(t)
            pairs = list(zip(a.tolist(), b.tolist()))
            assert pairs == sorted(ref.pairs_at(t)), t  # (a, b)-sorted, no repeats
            assert set(pairs) == col.pairs_at(t)
            assert col.count_at(t) == len(pairs)
            assert (a.dtype, b.dtype) == (np.int64, np.int64)
        assert col.pairs_at(2.0) == {(0, 9), (1, 5), (1, 6)}
        assert col.count_at(2.0 + gap / 2) == 1  # between (1, 5)'s two rows
        # Reads see deferred mutations: a pending add and a removal.
        both(ref, col, "remove_object", 9)
        both(ref, col, "add_batch", [4], [5], [2.0], [2.5])
        assert col.count_at(2.0) == len(ref.pairs_at(2.0)) == 3
        assert col.pairs_at_planes(2.0)[0].tolist() == [1, 1, 4]


# ----------------------------------------------------------------------
# The flush splice: touched runs re-merged, everything else moved as is
# ----------------------------------------------------------------------
def both(ref, col, op, *args):
    """Apply one mutation to both stores; their return values agree."""
    out_ref, out_col = getattr(ref, op)(*args), getattr(col, op)(*args)
    assert out_ref == out_col, (op, args)


class TestSpliceEdges:
    """Pinned cases, one per edge of the splice."""

    def seeded(self, rows):
        ref, col = ledgered_pair()
        both(ref, col, "add_batch", *zip(*rows))
        assert_stores_agree(ref, col)
        for store in (ref, col):
            store._ledger.advance(1.0)
        return ref, col

    def events(self, col):
        return [(ev.sign, ev.pair, ev.interval) for ev in col._ledger.events_at(1.0)]

    def test_adds_before_between_and_after_untouched_runs(self):
        ref, col = self.seeded([(2, 12, 0.0, 1.0), (4, 14, 0.0, 1.0)])
        merged = col.rows_merged
        both(ref, col, "add_batch", [5, 1, 3], [15, 11, 13], [0.0] * 3, [1.0] * 3)
        assert_stores_agree(ref, col, (1, 2, 3, 4, 5))
        assert_tick_agrees(ref, col)
        assert col.rows_merged - merged == 3  # no stored row was re-merged

    def test_add_into_a_wholly_dead_run(self):
        ref, col = self.seeded([(1, 2, 0.0, 1.0), (1, 2, 5.0, 6.0), (3, 4, 0.0, 9.0)])
        both(ref, col, "remove_object", 1)
        both(ref, col, "add_batch", [1, 1], [2, 2], [5.0, 20.0], [6.0, 21.0])
        assert_stores_agree(ref, col, (1, 2, 3, 4))
        assert_tick_agrees(ref, col)
        # (5, 6) bounced (killed, re-added): it nets to nothing.
        assert self.events(col) == [
            (-1, (1, 2), (0.0, 1.0)), (1, (1, 2), (20.0, 21.0)),
        ]

    def test_pending_row_bridges_two_stored_rows(self):
        """3 -> 1: the bridge is within MERGE_TOL of both neighbours."""
        ref, col = self.seeded([(1, 2, 0.0, 1.0), (1, 2, 2.0, 3.0), (1, 3, 0.0, 1.0)])
        merged = col.rows_merged
        both(
            ref, col, "add_batch",
            [1], [2], [1.0 + MERGE_TOL / 2], [2.0 - MERGE_TOL / 2],
        )
        assert_stores_agree(ref, col, (1, 2, 3))
        assert_tick_agrees(ref, col)
        assert col.rows_merged - merged == 3  # 1 pending + 2 touched
        assert self.events(col) == [
            (-1, (1, 2), (0.0, 1.0)), (-1, (1, 2), (2.0, 3.0)), (1, (1, 2), (0.0, 3.0)),
        ]

    def test_duplicates_within_and_across_pending_batches(self):
        ref, col = self.seeded([(1, 2, 0.0, 1.0)])
        both(ref, col, "add_batch", [1, 1, 5, 5], [2, 2, 6, 6], [0.0, 0.0, 3.0, 3.0], [1.0, 1.0, 4.0, 4.0])
        both(ref, col, "add_batch", [5, 1], [6, 2], [3.0, 0.0], [4.0, 1.0])
        assert_stores_agree(ref, col, (1, 2, 5, 6))
        assert_tick_agrees(ref, col)
        assert self.events(col) == [(1, (5, 6), (3.0, 4.0))]

    def test_equal_starts_keep_the_stored_row_first(self):
        """``-0.0 == 0.0``: among equal starts the stored row sorts
        before the pending ones (and those in arrival order), so the
        merged row starts with the stored row's bits, as in the dict
        store and in a stable sort of the whole store."""
        ref, col = self.seeded([(1, 2, 0.0, 1.0), (3, 4, -0.0, 1.0)])
        both(ref, col, "add_batch", [1, 3, 5, 5], [2, 4, 6, 6], [-0.0, 0.0, -0.0, 0.0], [2.0] * 4)
        assert_stores_agree(ref, col)
        assert repr(col.interval_rows()) == repr(ref.interval_rows())
        assert repr(col.interval_rows()) == repr(
            {(1, 2): ((0.0, 2.0),), (3, 4): ((-0.0, 2.0),), (5, 6): ((-0.0, 2.0),)}
        )

    def test_emptied_and_refilled(self):
        ref, col = self.seeded([(1, 2, 0.0, 1.0), (3, 4, 0.0, 1.0)])
        both(ref, col, "clear")
        assert_stores_agree(ref, col, (1, 2, 3, 4))
        both(ref, col, "add_batch", [3, 0], [4, 9], [0.0, 0.0], [1.0, 2.0])
        assert_stores_agree(ref, col, (0, 3, 4, 9))
        assert_tick_agrees(ref, col)
        assert self.events(col) == [(-1, (1, 2), (0.0, 1.0)), (1, (0, 9), (0.0, 2.0))]

    def test_flush_with_only_dead_rows(self):
        ref, col = self.seeded([(1, 2, 0.0, 1.0), (1, 5, 0.0, 1.0), (3, 4, 0.0, 1.0)])
        merged = col.rows_merged
        both(ref, col, "remove_object", 1)
        col.flush()
        assert col.rows_merged == merged  # nothing to merge, only to drop
        assert_stores_agree(ref, col, (1, 2, 3, 4, 5))
        assert_tick_agrees(ref, col)

    def test_rows_merged_counts_the_change_not_the_store(self):
        """A flush of k pending rows touching r live rows of an N-row
        store hands exactly k + r rows to the merge."""
        n = 50_000
        col = ColumnResultStore()
        a = np.arange(n) // 2
        col.add_batch(a, a + n, np.arange(n) % 2 * 10.0, np.arange(n) % 2 * 10.0 + 1.0)
        col.flush()
        assert col.rows_merged == n and len(col.planes()[0]) == n
        # 10 pending rows: 7 new pairs, 3 into pairs (7, n+7), (7, n+7) and
        # (9000, n+9000) — two stored rows each, so 2 distinct runs = 4 live
        # rows, one of which is killed by hand: 3 live rows are touched.
        col._live[np.searchsorted(col._a, 9000)] = False  # kill one row by hand
        col._dead += 1
        col.add_batch(
            [n] * 7 + [7, 7, 9000],
            list(range(7)) + [n + 7, n + 7, n + 9000],
            [0.0] * 7 + [3.0, 4.0, 10.5],
            [1.0] * 7 + [3.5, 4.5, 12.0],
        )
        col.flush()
        assert col.rows_merged == n + 13
        assert check_column_result_store(col) == []
        assert col.interval_rows()[(7, n + 7)] == (
            (0.0, 1.0), (3.0, 3.5), (4.0, 4.5), (10.0, 11.0),
        )
        assert col.interval_rows()[(9000, n + 9000)] == ((10.0, 12.0),)


A_OIDS = (0, 1, 2, 3)
B_OIDS = (2, 3, 4, 5)  # overlaps A: one oid may sit on both sides
#: Same stream with every oid mapped off the packed-key range.
WIDEN = {0: -5, 1: 0, 2: 2**31 - 1, 3: 2**31, 4: 2**40, 5: 7}

starts = st.builds(
    lambda base, nudge: base + nudge,
    st.sampled_from([0.0, 1.0, 2.0, 3.0, 4.0, 6.0, 8.0]),
    # Gaps of exactly, just under and just over the merge tolerance.
    st.sampled_from([0.0, -0.0, MERGE_TOL / 2, -MERGE_TOL / 2, 2 * MERGE_TOL]),
)
store_rows = st.builds(
    lambda a, b, lo, length: (a, b, lo, lo + length),
    st.sampled_from(A_OIDS),
    st.sampled_from(B_OIDS),
    starts,
    st.sampled_from([0.0, 0.5, 1.0, 2.0, 5.0]),
)
any_oid = st.sampled_from(sorted(set(A_OIDS) | set(B_OIDS)))
mutations = st.one_of(
    st.tuples(st.just("add_batch"), st.lists(store_rows, min_size=1, max_size=6)),
    st.tuples(st.just("add_batch"), st.lists(store_rows, min_size=1, max_size=6)),
    st.tuples(st.just("remove_object"), any_oid),
    st.tuples(st.just("remove_objects"), st.lists(any_oid, min_size=1, max_size=3)),
    st.tuples(st.just("clear")),
    st.tuples(st.just("flush")),
)
#: A round is a few mutations with no read in between, so the flush at
#: its end sees dead rows and pending rows together.
rounds = st.lists(st.lists(mutations, min_size=1, max_size=4), min_size=1, max_size=8)


@settings(max_examples=150, deadline=None)
@given(script=rounds, wide=st.booleans())
def test_splice_matches_the_dict_store_under_interleavings(script, wide):
    """Planes, reads, invariants and netted events equal the dict
    store's after every round of deferred mutations."""
    name = WIDEN.__getitem__ if wide else int
    oids = [name(oid) for oid in sorted(set(A_OIDS) | set(B_OIDS))]
    ref, col = ledgered_pair()
    # The last loop reads every tick, so a watch that never polls pins
    # retention: the planes store records ticks that net to nothing,
    # and the two ledgers would otherwise fold on different clock moves.
    pins = [DeltaSubscription(store._ledger) for store in (ref, col)]
    for tick, mutations_ in enumerate(script, start=1):
        for op, *args in mutations_:
            if op == "flush":  # the reference merges each row as it arrives
                col.flush()
                continue
            if op == "add_batch":
                a, b, lo, hi = zip(*args[0])
                args = ([name(x) for x in a], [name(x) for x in b], lo, hi)
            elif op == "remove_object":
                args = (name(args[0]),)
            elif op == "remove_objects":
                args = ([name(x) for x in args[0]],)
            both(ref, col, op, *args)
        assert_stores_agree(ref, col, oids)
        assert_tick_agrees(ref, col)
        ref._ledger.advance(float(tick))
        col._ledger.advance(float(tick))
    for t in sorted(set(ref._ledger.ticks()) | set(col._ledger.ticks())):
        assert col._ledger.events_at(t) == ref._ledger.events_at(t), t
    assert all(pin.cursor == -float("inf") for pin in pins)  # never polled
