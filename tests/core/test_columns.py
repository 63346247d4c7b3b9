"""Unit tests for the columnar object store (``repro.core.columns``)."""

from __future__ import annotations

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from repro.core import ColumnStore, ObjectsView, UpdateColumns, columns_from_objects
from repro.core.columns import pair_keys, pair_lexsort
from repro.geometry.kernels import KineticBatch
from repro.workloads import make_workload


def some_objects(n=40, seed=3):
    return make_workload(n, "uniform", max_speed=3.0, seed=seed).set_a


class TestUpdateColumns:
    def test_round_trip_through_objects(self):
        objs = some_objects()
        cols = columns_from_objects(objs)
        back = cols.objects()
        assert [o.oid for o in back] == [o.oid for o in objs]
        for a, b in zip(objs, back):
            assert a.kbox.params() == b.kbox.params()

    def test_empty(self):
        cols = UpdateColumns.empty()
        assert len(cols) == 0
        assert cols.objects() == []


class TestColumnStore:
    def test_add_assigns_dense_rows_and_ids(self):
        objs = some_objects(20)
        store = ColumnStore()
        rows = store.add(columns_from_objects(objs))
        assert rows.tolist() == list(range(20))
        assert len(store) == 20
        for i, obj in enumerate(objs):
            assert store.row_of(obj.oid) == i
            assert int(store.oid[i]) == obj.oid
            assert obj.oid in store

    def test_add_rejects_duplicate_ids(self):
        objs = some_objects(5)
        store = ColumnStore.from_objects(objs)
        with pytest.raises(ValueError, match="already stored"):
            store.add(columns_from_objects(objs[:1]))

    def test_from_columns_equals_two_adds_and_from_objects(self):
        """Plane for plane, with the rows each ``add`` returned and the
        running magnitude bounds: one span written whole, two spans
        across a growth, and the object path."""
        objs = some_objects(50)
        cols = columns_from_objects(objs)
        whole = ColumnStore.from_columns(cols)
        halves = ColumnStore(capacity=8)
        first = halves.add(cols.take(np.arange(20)))
        second = halves.add(cols.take(np.arange(20, 50)))
        assert first.tolist() == list(range(20)) and second.tolist() == list(range(20, 50))
        def planes(store):
            view = store.batch()
            return [store.oids.tobytes()] + [
                getattr(view, name).tobytes()
                for name in ("mlo", "mhi", "vlo", "vhi", "tref", "slo", "shi")
            ] + [view.abs_bounds(axis) for axis in (0, 1)]

        for store in (halves, ColumnStore.from_objects(objs)):
            assert len(store) == len(whole) == 50
            assert planes(store) == planes(whole)
            assert store.find(cols.oid).tolist() == list(range(50))

    def test_growth_preserves_contents(self):
        objs = some_objects(100)
        store = ColumnStore(capacity=8)  # forces several doublings
        for k in range(0, 100, 7):
            store.add(columns_from_objects(objs[k : k + 7]))
        assert len(store) == 100
        for obj in objs:
            assert store.get(obj.oid).kbox.params() == obj.kbox.params()

    def test_apply_overwrites_in_place(self):
        objs = some_objects(10)
        store = ColumnStore.from_objects(objs)
        moved = some_objects(10, seed=9)
        upd = columns_from_objects(
            [type(o)(objs[i].oid, o.kbox.mbr, 1.0, -1.0, t_ref=2.0)
             for i, o in enumerate(moved)]
        )
        rows = store.apply(upd)
        assert rows.tolist() == list(range(10))
        assert len(store) == 10
        assert np.all(store.tref[:10] == 2.0)

    def test_remove_swaps_with_last(self):
        objs = some_objects(6)
        store = ColumnStore.from_objects(objs)
        victim = objs[1].oid
        mover = objs[5].oid
        store.remove([victim])
        assert len(store) == 5
        assert victim not in store
        # The former last row moved into the vacated slot, id map intact.
        assert store.row_of(mover) == 1
        assert store.get(mover).kbox.params() == objs[5].kbox.params()
        # Remaining ids all resolve.
        for obj in objs:
            if obj.oid != victim:
                assert store.get(obj.oid).kbox.params() == obj.kbox.params()

    def test_remove_last_row(self):
        objs = some_objects(3)
        store = ColumnStore.from_objects(objs)
        store.remove([objs[2].oid])
        assert len(store) == 2
        assert objs[2].oid not in store

    def test_batch_view_is_zero_copy_and_bit_exact(self):
        objs = some_objects(30)
        store = ColumnStore.from_objects(objs)
        view = store.batch()
        fresh = KineticBatch.from_boxes([o.kbox for o in objs])
        for name in ("mlo", "mhi", "vlo", "vhi", "slo", "shi"):
            assert np.array_equal(getattr(view, name), getattr(fresh, name)), name
            assert getattr(view, name).base is getattr(store, name)
        assert np.array_equal(view.tref, fresh.tref)

    def test_shift_maintained_incrementally(self):
        objs = some_objects(12)
        store = ColumnStore.from_objects(objs)
        upd = columns_from_objects(
            [type(o)(o.oid, o.kbox.mbr, -0.5, 0.75, t_ref=3.0) for o in objs[:4]]
        )
        store.apply(upd)
        view = store.batch()
        fresh = KineticBatch.from_boxes([o.kbox for o in store.objects()])
        assert np.array_equal(view.slo, fresh.slo)
        assert np.array_equal(view.shi, fresh.shi)

    def test_gather(self):
        objs = some_objects(15)
        store = ColumnStore.from_objects(objs)
        rows = np.asarray([2, 7, 11])
        sub = store.gather(rows)
        assert sub.mlo.shape == (2, 3)
        assert np.array_equal(sub.tref, store.tref[rows])

    def test_bucket_keys_match_scalar_rule(self):
        store = ColumnStore()
        objs = some_objects(9)
        cols = columns_from_objects(objs)
        cols.tref[:] = [0.0, 5.0, 9.9, 10.0, 15.0, 19.99, 20.0, 25.0, 31.0]
        store.add(cols)
        keys = store.bucket_keys(10.0)
        assert keys.tolist() == [int(t // 10.0) for t in cols.tref.tolist()]

    def test_objects_view_mapping(self):
        objs = some_objects(8)
        store = ColumnStore.from_objects(objs)
        view = ObjectsView(store)
        assert len(view) == 8
        assert set(view) == {o.oid for o in objs}
        assert view[objs[3].oid].kbox.params() == objs[3].kbox.params()
        with pytest.raises(KeyError):
            view[999_999]


def state_cols(oids, seed, t_ref=0.0, scale=100.0):
    """Random object states for the given ids (``vlo == vhi``)."""
    rng = np.random.default_rng(seed)
    k = len(oids)
    mlo = rng.uniform(-scale, scale, size=(2, k))
    vel = rng.uniform(-3.0, 3.0, size=(2, k))
    return UpdateColumns(
        np.array(oids, dtype=np.int64),
        mlo,
        mlo + rng.uniform(0.0, 5.0, size=(2, k)),
        vel,
        vel.copy(),
        np.full(k, float(t_ref)),
    )


class TestIdIndex:
    """Ids resolve through one sorted-id index, whatever the ids are."""

    #: Below zero, around the int32 edge, past 2**32, the int64 ends.
    WIDE = [-(2**63), -7, -1, 0, 5, 2**31 - 1, 2**31, 2**32, 2**32 + 1, 2**40, 2**63 - 1]

    def check(self, store, model):
        """``model``: id -> the (mlo, tref) its row must hold."""
        assert len(store) == len(model)
        assert sorted(store.oids.tolist()) == sorted(model)
        ids = np.array(sorted(model), dtype=np.int64)
        rows = store.rows_of(ids)
        assert sorted(rows.tolist()) == list(range(len(model)))
        assert np.array_equal(store.oid[rows], ids)
        assert np.array_equal(store.find(ids), rows)
        for oid, row in zip(ids.tolist(), rows.tolist()):
            assert oid in store and store.row_of(oid) == row
            mlo, tref = model[oid]
            assert store.mlo[:, row].tolist() == mlo and store.tref[row] == tref

    def test_interleaved_add_remove_apply(self):
        rng = np.random.default_rng(8)
        store, model = ColumnStore(), {}
        free = list(self.WIDE) + list(range(100, 160))
        for step in range(120):
            op = rng.integers(0, 3)
            if op == 0 and free:
                new = [free.pop(int(rng.integers(len(free)))) for _ in range(min(3, len(free)))]
                cols = state_cols(new, seed=step, t_ref=step)
                rows = store.add(cols)
                assert rows.tolist() == list(range(len(model), len(model) + len(new)))
            elif op == 1 and len(model) >= 2:
                gone = [int(o) for o in rng.choice(sorted(model), size=2, replace=False)]
                store.remove(gone if step % 2 else np.array(gone, dtype=np.int64))
                for oid in gone:
                    del model[oid]
                    free.append(oid)
                    assert oid not in store
                continue
            elif model:
                some = rng.choice(sorted(model), size=min(4, len(model)), replace=False)
                cols = state_cols(some.tolist(), seed=1000 + step, t_ref=step)
                index_before = store._id_order
                rows = store.apply(cols)
                assert np.array_equal(store.oid[rows], cols.oid)
                # Updates move no row: the index survives them.
                assert store._id_order is index_before
            else:
                continue
            for i, oid in enumerate(cols.oid.tolist()):
                model[oid] = (cols.mlo[:, i].tolist(), cols.tref[i])
            self.check(store, model)
        assert len(model) > 10 and set(model) & set(self.WIDE)

    def test_unknown_ids(self):
        store = ColumnStore.from_columns(state_cols(self.WIDE, seed=1))
        for missing in (3, -2, 2**32 + 2, 2**62):
            assert missing not in store
            assert store.find(np.array([missing, 5], dtype=np.int64)).tolist()[0] == -1
            with pytest.raises(KeyError, match=f"unknown object id {missing}"):
                store.rows_of(np.array([5, missing, 2**40], dtype=np.int64))
            with pytest.raises(KeyError, match=f"unknown object id {missing}"):
                store.rows_of([5, missing])
            with pytest.raises(KeyError):
                store.row_of(missing)
            with pytest.raises(KeyError):
                store.get(missing)
            with pytest.raises(KeyError):
                store.remove([5, missing])
            with pytest.raises(KeyError):
                store.apply(state_cols([missing], seed=2))
        assert len(store) == len(self.WIDE) and 5 in store  # the refused removal moved nothing
        # Not an id at all: no row, no error from `in`.
        for key in ("5", 5.0, None, 2**63, -(2**63) - 1, (5,)):
            assert key not in store
            with pytest.raises(KeyError):
                store.row_of(key)
        assert np.int64(5) in store and np.int32(-7) in store
        empty = ColumnStore()
        assert 5 not in empty and empty.find(np.array([5], dtype=np.int64)).tolist() == [-1]
        assert empty.rows_of([]).shape == (0,)

    def test_duplicate_ids(self):
        store = ColumnStore.from_columns(state_cols(self.WIDE, seed=1))
        before = store.columns()
        # Stored already, in batch order; then named twice in the batch.
        with pytest.raises(ValueError, match=r"object 1099511627776 already stored"):
            store.add(state_cols([77, 2**40, -7], seed=3))
        with pytest.raises(ValueError, match=r"object 78 already stored"):
            store.add(state_cols([77, 78, 79, 78, 77], seed=3))
        with pytest.raises(KeyError):
            store.remove([5, 5])
        after = store.columns()
        assert 77 not in store and len(store) == len(self.WIDE)
        for name in ("oid", "mlo", "mhi", "vlo", "vhi", "tref"):
            assert np.array_equal(getattr(after, name), getattr(before, name))
        # `rows_of` answers a repeated id twice, as it always has.
        assert store.rows_of([5, 5]).tolist() == [store.row_of(5)] * 2

    def test_remove_many_keeps_the_prefix_dense(self):
        ids = list(range(50, 90))
        cols = state_cols(ids, seed=4)
        store = ColumnStore.from_columns(cols)
        gone = [50, 88, 89, 63, 70, 87]  # holes below and inside the tail
        store.remove(gone)
        model = {
            oid: (cols.mlo[:, i].tolist(), cols.tref[i])
            for i, oid in enumerate(ids) if oid not in gone
        }
        self.check(store, model)
        store.remove(sorted(model))  # everything
        assert len(store) == 0 and 51 not in store
        store.add(cols)
        assert store.row_of(50) == 0


def fresh_bounds(store):
    """What `_axis_magnitude` computes from the live columns alone."""
    view = store.batch()
    return KineticBatch(view.mlo, view.mhi, view.vlo, view.vhi, view.tref, view.slo, view.shi)


class TestMagnitudeBounds:
    def assert_dominates(self, store, other):
        from repro.geometry import kernels

        carried, fresh = store.batch(), fresh_bounds(store)
        for axis in (0, 1):
            for got, want in zip(carried.abs_bounds(axis), fresh.abs_bounds(axis)):
                assert got >= want
            for t0, t1 in ((0.0, 60.0), (45.0, 45.0), (3.0, float("inf"))):
                assert kernels._axis_magnitude(
                    carried, other, axis, t0, t1
                ) >= kernels._axis_magnitude(fresh, other, axis, t0, t1)
        assert store.gather(np.arange(len(store))[::2]).abs_bounds(0) == carried.abs_bounds(0)

    def test_bound_dominates_the_live_columns_after_any_ops(self):
        rng = np.random.default_rng(12)
        other = ColumnStore.from_columns(state_cols(range(900, 905), seed=0, scale=1.0)).batch()
        store = ColumnStore()
        live, free = [], list(range(60))
        for step in range(150):
            op = rng.integers(0, 3)
            scale = float(rng.choice([1.0, 50.0, 4_000.0]))
            if op == 0 and free:
                new = [free.pop() for _ in range(min(4, len(free)))]
                store.add(state_cols(new, seed=step, t_ref=-step if step % 7 == 0 else step, scale=scale))
                live += new
            elif op == 1 and len(live) > 3:
                gone = [live.pop(int(rng.integers(len(live)))) for _ in range(2)]
                store.remove(gone)
                free += gone
            elif live:
                some = rng.choice(live, size=min(3, len(live)), replace=False).tolist()
                store.apply(state_cols(some, seed=step, t_ref=step, scale=scale))
            if len(store):
                self.assert_dominates(store, other)
        assert len(store) > 5

    def test_bounds_are_monotone_and_a_rebuilt_store_starts_over(self):
        big = state_cols([1, 2], seed=5, scale=9_000.0, t_ref=40.0)
        small = state_cols([3, 4, 5], seed=6, scale=2.0, t_ref=1.0)
        store = ColumnStore.from_columns(small)
        low = store.batch().abs_bounds(0)
        store.add(big)
        high = store.batch().abs_bounds(0)
        assert high[0] > 1_000.0 > low[0] and high[2] == 40.0
        store.remove([1, 2])
        assert store.batch().abs_bounds(0) == high  # evictions do not lower it
        rebuilt = ColumnStore.from_columns(store.columns())
        assert rebuilt.batch().abs_bounds(0) == low  # the live rows' own maxima
        # Either bound serves the same join: rows, order and windows.
        other = ColumnStore.from_columns(state_cols(range(10, 400), seed=7, scale=2.0, t_ref=1.0))
        from repro.geometry.kernels import batch_sweep_join

        assert len(other) * len(store) <= 16_384 < len(other) * len(other)
        for left in (store, other):
            stale = batch_sweep_join(left.batch(), other.batch(), 1.0, 9.0)
            exact = batch_sweep_join(fresh_bounds(left), fresh_bounds(other), 1.0, 9.0)
            assert [p.tobytes() for p in stale] == [p.tobytes() for p in exact]
            assert stale[0].shape[0] > 0

    def test_empty_writes_leave_the_bounds(self):
        store = ColumnStore.from_columns(state_cols([1, 2], seed=8))
        before = store.batch().abs_bounds(1)
        store.apply(UpdateColumns.empty())
        store.add(UpdateColumns.empty())
        assert store.batch().abs_bounds(1) == before
        assert ColumnStore().batch().abs_bounds(0) == (0.0, 0.0, 0.0)


#: Few distinct values: repeated keys, equal rows and ``-0.0`` next to
#: ``0.0`` are the common case; a NaN takes ``lexsort``'s own path.
sort_oids = st.sampled_from([0, 1, 2, 2**31 - 1])
wide_oids = st.sampled_from([-5, 0, 2, 2**31, 2**40])
sort_ends = st.sampled_from([0.0, -0.0, 0.5, 1.0, float("inf"), float("-inf")])


@settings(max_examples=300, deadline=None)
@given(
    rows=st.one_of(
        st.lists(st.tuples(sort_oids, sort_oids, sort_ends, sort_ends), max_size=40),
        st.lists(st.tuples(wide_oids, wide_oids, sort_ends, sort_ends), max_size=40),
        st.lists(
            st.tuples(sort_oids, sort_oids, st.sampled_from([0.0, float("nan")]), sort_ends),
            max_size=8,
        ),
    ),
    sorted_runs=st.integers(0, 3),
)
def test_pair_lexsort_is_lexsort(rows, sorted_runs):
    """The key-first sort returns ``np.lexsort``'s permutation exactly,
    with the packed and the wide (structured) pair key, on random rows
    and on concatenations of already-sorted runs (the store's and the
    ledger's input)."""
    a, b, lo, hi = (np.array(col, dtype=dtype) for col, dtype in zip(
        zip(*rows) if rows else ((), (), (), ()), (np.int64, np.int64, float, float)
    ))
    if sorted_runs:
        runs = np.array_split(np.arange(a.shape[0]), sorted_runs)
        order = np.concatenate([run[np.lexsort((hi[run], lo[run], b[run], a[run]))] for run in runs])
        a, b, lo, hi = a[order], b[order], lo[order], hi[order]
    (key,) = pair_keys((a, b))
    assert pair_lexsort(key, lo, hi).tolist() == np.lexsort((hi, lo, key)).tolist()
    assert pair_lexsort(key, lo).tolist() == np.lexsort((lo, key)).tolist()
    assert pair_lexsort(key).tolist() == np.lexsort((key,)).tolist()
