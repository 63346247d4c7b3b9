"""The sweep join on the calls the columnar engines actually make.

``tests/geometry/test_kernels.py`` aims boxes at the kernel's decision
boundaries; this file replays what the two benchmarked engine shapes
send it — the tc engine at the end-to-end benchmark's density (shrunk
to tier-1 size) and the mtb engine with three live buckets, each with
its initial join — and holds every call to the scalar sweep byte for
byte, rows compared in ``(i, j)`` order (the join returns them in its
grid's order): a
tc call to the one scalar sweep over its window, an mtb call (one per
probe, a window end per row) to the scalar sweeps the per-bucket loop
it replaced ran, one per pair of end groups.  The
number of pairs that reach the exact kernel is pinned per call — for tc
to what the 1-D sweep enumerator this grid replaced sent there: the
grid changes how candidates are found, not which are tested.  Every
call is also held to the NumPy oracle (``tests/geometry/sweep_oracle.py``)
in the join's own order, both counters included.

It also bounds the join's temporaries: nothing in it may grow with the
candidates or with the visiting side's cell-column segments.
"""

from __future__ import annotations

import math
import tracemalloc

import numpy as np
import pytest

from repro.core import ColumnarJoinEngine, JoinConfig
from repro.core import columnar
from repro.core.columns import ColumnStore
from repro.geometry import ps_intersection
from repro.geometry.kernels import SWEEP_GRID_MIN_PAIRS, KineticBatch, batch_sweep_join
from repro.workloads import VectorUpdateStream, make_workload_arrays

from ..geometry.sweep_oracle import batch_boxes, batch_select_sweep_dimension, oracle_sweep_join

SEED = 20080407

#: (algorithm, n per side, object size %, T_M, ticks)
SHAPES = {
    "tc": ("tc", 1_500, 0.1, 60.0, 12),
    "mtb": ("mtb", 1_200, 0.5, 8.0, 8),
}

#: ``counter[1]`` of every captured call: for tc under the 1-D sweep
#: enumerator the grid replaced (recorded when this fixture was
#: written), for mtb as recorded when the per-bucket calls became one
#: call per probe (never below what the bucket calls sent together).
EXACT_TESTS = {
    "tc": (
        8795, 165, 190, 170, 145, 166, 131, 109, 151, 211, 133, 130, 141,
        181, 148, 99, 186, 156, 204, 180, 198, 160, 229, 195, 197,
    ),
    "mtb": (
        829, 94, 91, 94, 96, 74, 89, 115, 125, 123, 141, 121, 136, 132, 117,
        212, 183,
    ),
}


def scenario(n, object_size_pct, t_m):
    return make_workload_arrays(
        n,
        "uniform",
        space_size=1000.0 * math.sqrt(n / 1000.0),
        max_speed=2.0,
        object_size_pct=object_size_pct,
        t_m=t_m,
        seed=SEED,
    )


def captured_calls(shape, monkeypatch):
    """Every ``(batch_a, batch_b, t0, t1, kwargs)`` the engine hands the sweep join."""
    algorithm, n, object_size_pct, t_m, ticks = SHAPES[shape]
    arrays = scenario(n, object_size_pct, t_m)
    calls = []

    def frozen(batch):
        # A whole-dataset batch is a view of columns the next commit overwrites.
        return KineticBatch.from_stack(batch.stacked()[0][:, :batch.n].copy())

    def recording(batch_a, batch_b, t0, t1, **kwargs):
        # So are the window ends the engine keeps per row.
        ends = tuple(None if side is None else side.copy() for side in kwargs["ends"])
        calls.append((frozen(batch_a), frozen(batch_b), t0, t1, {**kwargs, "ends": ends}))
        return batch_sweep_join(batch_a, batch_b, t0, t1, **kwargs)

    monkeypatch.setattr(columnar, "batch_sweep_join", recording)
    engine = ColumnarJoinEngine(
        arrays.columns_a(), arrays.columns_b(), algorithm, JoinConfig(t_m=t_m)
    )
    engine.run_initial_join()
    stream = VectorUpdateStream(arrays, seed=SEED + 1)
    for step in range(1, ticks + 1):
        t = float(step)
        engine.tick(t)
        engine.apply_update_columns(*stream.updates_at(t))
    return calls


def scalar_planes(batch_a, batch_b, t0, t1, dim):
    triples = ps_intersection(
        batch_boxes(batch_a),
        batch_boxes(batch_b),
        t0,
        t1,
        dim=dim,
    )
    return (
        np.array([i for i, _, _ in triples], dtype=np.int64),
        np.array([j for _, j, _ in triples], dtype=np.int64),
        np.array([iv.start for _, _, iv in triples], dtype=np.float64),
        np.array([iv.end for _, _, iv in triples], dtype=np.float64),
    )


def by_pair(planes):
    """Join planes re-sorted by ``(i, j)``: a pair occurs once per call."""
    order = np.lexsort((planes[1], planes[0]))
    return tuple(plane[order] for plane in planes)


def gathered(batch, rows):
    """The batch's ``rows`` as a batch of their own."""
    return KineticBatch.from_stack(batch.stacked()[0].take(rows, axis=1))


def grouped_scalar_planes(batch_a, batch_b, t0, t1, ends, dim):
    """The per-bucket loop as the oracle: one scalar sweep per pair of end
    groups over ``[t0, min(t1, end_a, end_b)]``, rows sorted by ``(i, j)``;
    also the pairs those sweeps sent to the exact test, summed."""
    ends_a, ends_b = (
        np.full(batch.n, t1) if side is None else side
        for batch, side in zip((batch_a, batch_b), ends)
    )
    parts, exact_tests = [], 0
    for end_a in np.unique(ends_a):
        rows_a = np.flatnonzero(ends_a == end_a)
        for end_b in np.unique(ends_b):
            rows_b = np.flatnonzero(ends_b == end_b)
            sub_a, sub_b = gathered(batch_a, rows_a), gathered(batch_b, rows_b)
            until = min(t1, float(end_a), float(end_b))
            idx_a, idx_b, lo, hi = scalar_planes(sub_a, sub_b, t0, until, dim)
            parts.append((rows_a[idx_a], rows_b[idx_b], lo, hi))
            counter = [0, 0]
            batch_sweep_join(sub_a, sub_b, t0, until, dim=dim, counter=counter)
            exact_tests += counter[1]
    return by_pair(tuple(np.concatenate(col) for col in zip(*parts))), exact_tests


def assert_same_planes(got, want, where):
    for g, w in zip(got, want):
        assert g.dtype == w.dtype
        assert g.tobytes() == w.tobytes(), where


def assert_oracle_order(planes, counter, batch_a, batch_b, t0, t1, **kwargs):
    """The rows in the order returned, and both counters, are the oracle's."""
    want_counter = [0, 0]
    want = oracle_sweep_join(batch_a, batch_b, t0, t1, counter=want_counter, **kwargs)
    assert_same_planes(planes, want, (t0, t1))
    assert counter == want_counter, (t0, t1)


class TestReplay:
    @pytest.mark.parametrize("shape", sorted(SHAPES))
    def test_engine_calls_equal_the_scalar_sweep(self, shape, monkeypatch):
        calls = captured_calls(shape, monkeypatch)
        {"tc": self.check_tc_calls, "mtb": self.check_mtb_calls}[shape](calls)

    def check_tc_calls(self, calls):
        """Each call is the one scalar sweep over its window, row for row."""
        assert len(calls) == len(EXACT_TESTS["tc"])
        gridded = 0
        for (batch_a, batch_b, t0, t1, kwargs), exact_tests in zip(calls, EXACT_TESTS["tc"]):
            assert kwargs["ends"] == (None, None)
            assert t1 == t0 + SHAPES["tc"][3]
            gridded += batch_a.n * batch_b.n > SWEEP_GRID_MIN_PAIRS
            dim = batch_select_sweep_dimension(batch_a, batch_b)
            counter = [0, 0]
            planes = batch_sweep_join(batch_a, batch_b, t0, t1, dim, counter=counter)
            want = scalar_planes(batch_a, batch_b, t0, t1, dim)
            assert_same_planes(by_pair(planes), by_pair(want), (t0, t1))
            assert counter[1] == exact_tests, (t0, t1)
            assert planes[0].shape[0] <= counter[1] <= counter[0]
            assert_oracle_order(planes, counter, batch_a, batch_b, t0, t1, dim=dim)
            # The engine's fixed axis returns the same rows.
            fixed = batch_sweep_join(batch_a, batch_b, t0, t1, dim=kwargs["dim"])
            assert_same_planes(by_pair(fixed), by_pair(planes), (t0, t1))
        # Not vacuous: the calls are gridded and the first is the initial join.
        assert gridded >= 0.9 * len(calls)
        assert calls[0][0].n == SHAPES["tc"][1] == calls[0][1].n

    def check_mtb_calls(self, calls):
        """Each call is the scalar sweeps of its end groups, taken together."""
        n, ticks = SHAPES["mtb"][1], SHAPES["mtb"][4]
        # One call for the initial join, one per probe and tick after.
        assert len(calls) == len(EXACT_TESTS["mtb"]) == 1 + 2 * ticks
        live_ends = []
        for (batch_a, batch_b, t0, t1, kwargs), exact_tests in zip(calls, EXACT_TESTS["mtb"]):
            ends, dim = kwargs["ends"], kwargs["dim"]
            # The initial join gives both sides their ends, a probe the other side.
            assert (ends[0] is None) == (t0 > 0.0) and ends[1] is not None
            assert batch_a.n * batch_b.n > SWEEP_GRID_MIN_PAIRS
            live_ends.append((t0, np.unique(ends[1])))
            counter = [0, 0]
            planes = batch_sweep_join(batch_a, batch_b, t0, t1, dim=dim, counter=counter, ends=ends)
            want, grouped_tests = grouped_scalar_planes(batch_a, batch_b, t0, t1, ends, dim)
            assert_same_planes(by_pair(planes), want, (t0, t1))
            assert counter[1] == exact_tests, (t0, t1)
            assert grouped_tests <= counter[1]
            assert planes[0].shape[0] <= counter[1] <= counter[0]
            assert_oracle_order(planes, counter, batch_a, batch_b, t0, t1, dim=dim, ends=ends)
        assert calls[0][0].n == n == calls[0][1].n
        # Not vacuous: the run ends with three buckets live, one window
        # end each, every one of them met by the last probes.
        for t0, distinct in live_ends[-2:]:
            assert t0 == float(ticks) and distinct.shape[0] == 3

    def test_replay_is_large_enough(self):
        assert sum(len(counts) for counts in EXACT_TESTS.values()) >= 40


class TestTemporaries:
    """``tracemalloc`` peaks of whole-dataset joins at benchmark density."""

    def _batches(self, n):
        arrays = scenario(n, 0.1, 60.0)
        return (
            ColumnStore.from_columns(arrays.columns_a()).batch(),
            ColumnStore.from_columns(arrays.columns_b()).batch(),
        )

    def _peak(self, n, **kwargs):
        batch_a, batch_b = self._batches(n)
        tracemalloc.start()
        try:
            planes = batch_sweep_join(batch_a, batch_b, 0.0, 60.0, dim=0, **kwargs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return peak, sum(plane.nbytes for plane in planes)

    def test_initial_join_peak_at_default_chunk(self):
        """The benchmark's 20 000 x 20 000 initial join: 3.90 MiB — the
        call's one buffer (workspace and a first output of a slot per
        binned row), a second output (its 21 448 hits outgrow the first)
        and the exact-size copies; the bound is what the build before the
        bound planes read (4.47 MiB) plus ~15 % (the NumPy join it
        replaced peaked at 7.55 MiB).  The floor, 80 bytes a binned row,
        is below the workspace's doubles and the first output (96): a
        workspace tracemalloc cannot see (a pool outside NumPy) reads
        below it."""
        peak, _ = self._peak(20_000)
        assert 80 * 20_000 <= peak <= 5.15 * 2**20, peak

    def test_only_per_row_planes_grow_with_the_input(self):
        """The peak, outputs excluded, is the call's buffer — 106 bytes a
        binned row: 32 of bound planes, 32 of packed rows, 8 of cell ids
        and indices, at most 2 of cell table and 32 of first output — plus
        any later outputs, which double from there (under two hits' worth
        together), so it grows with the rows and the hits, never with the
        candidates or the cell-column segments, which double with the
        sides here as well.  The bound is 136 bytes a row, what the build
        before the bound planes took.  The floor keeps the workspace where
        tracemalloc sees it."""
        for n in (5_000, 10_000):
            peak, out = self._peak(n)
            assert 80 * n <= peak - out <= 136 * n + 2 * out + 4096, (n, peak - out)


class TestKeptAddresses:
    """A :class:`ColumnStore` keeps its plane stack's address for the
    sweep join and renews it when it reallocates.  Probes on either side
    of a growth and of an eviction — the store binned whole, a few of its
    rows gathered to visit — equal the oracle in bytes and in both
    counters: a stale address would read freed or moved rows."""

    T0, T1 = 2.0, 62.0

    def probes(self, store_a, store_b):
        """Probe each store's first rows against the other store whole."""
        for visitors, binned in ((store_a, store_b), (store_b, store_a)):
            rows = np.arange(0, len(visitors), 7)
            batch_q, batch_p = visitors.gather(rows), binned.batch()
            # The view carries the kept address, and it is the stack's own.
            assert batch_p.stack[1] == binned._stack_address == binned._stack.ctypes.data
            assert batch_q.n * batch_p.n > SWEEP_GRID_MIN_PAIRS
            counter = [0, 0]
            planes = batch_sweep_join(batch_q, batch_p, self.T0, self.T1, dim=0, counter=counter)
            assert planes[0].shape[0] > 0 and counter[1] > 0
            assert_oracle_order(planes, counter, batch_q, batch_p, self.T0, self.T1, dim=0)

    def stores(self):
        arrays = scenario(2_000, 0.5, 60.0)
        cols_a = arrays.columns_a()
        half = np.arange(len(cols_a)) < 1_000
        return (
            ColumnStore.from_columns(cols_a.take(half)),
            ColumnStore.from_columns(arrays.columns_b()),
            cols_a.take(~half),
        )

    def test_growth_between_probes(self):
        store_a, store_b, rest = self.stores()
        self.probes(store_a, store_b)
        stack, address = store_a._stack, store_a._stack_address
        store_a.add(rest)
        # Not vacuous: the add reallocated the columns.
        assert store_a._stack is not stack and store_a._stack_address != address
        del stack
        self.probes(store_a, store_b)

    def test_removal_between_probes(self):
        store_a, store_b, _ = self.stores()
        self.probes(store_a, store_b)
        address = store_a._stack_address
        store_b.remove(store_b.oids[::3].copy())
        store_a.remove(store_a.oids[:100].copy())
        # Rows moved within the columns, which stayed where they were.
        assert store_a._stack_address == address
        self.probes(store_a, store_b)
