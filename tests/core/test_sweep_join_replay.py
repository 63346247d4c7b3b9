"""The sweep join on the calls the columnar engines actually make.

``tests/geometry/test_kernels.py`` aims boxes at the kernel's decision
boundaries; this file replays what the two benchmarked engine shapes
send it — the tc engine at the end-to-end benchmark's density (shrunk
to tier-1 size) and the mtb engine with three live buckets, each with
its initial join — and holds every call to the scalar sweep byte for
byte, rows compared in ``(i, j)`` order (the join returns them in its
grid's order; only ``batch_ps_intersection`` restores the sweep's): a
tc call to the one scalar sweep over its window, an mtb call (one per
probe, a window end per row) to the scalar sweeps the per-bucket loop
it replaced ran, one per pair of end groups.  The
number of pairs that reach the exact kernel is pinned per call — for tc
to what the 1-D sweep enumerator this grid replaced sent there: the
grid changes how candidates are found, not which are tested.

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
from repro.geometry.kernels import (
    SWEEP_GRID_MIN_PAIRS,
    KineticBatch,
    batch_select_sweep_dimension,
    batch_sweep_join,
)
from repro.workloads import VectorUpdateStream, make_workload_arrays

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
        planes = (batch.mlo, batch.mhi, batch.vlo, batch.vhi, batch.tref, batch.slo, batch.shi)
        return KineticBatch(*(plane.copy() for plane in planes))

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
        [batch_a.box(i) for i in range(batch_a.n)],
        [batch_b.box(j) for j in range(batch_b.n)],
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
            sub_a, sub_b = batch_a.compress(rows_a), batch_b.compress(rows_b)
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
            planes = batch_sweep_join(batch_a, batch_b, t0, t1, counter=counter)
            want = scalar_planes(batch_a, batch_b, t0, t1, dim)
            assert_same_planes(by_pair(planes), by_pair(want), (t0, t1))
            assert counter[1] == exact_tests, (t0, t1)
            assert planes[0].shape[0] <= counter[1] <= counter[0]
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
            planes = batch_sweep_join(batch_a, batch_b, 0.0, 60.0, **kwargs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return peak, sum(plane.nbytes for plane in planes)

    def test_initial_join_peak_at_default_chunk(self):
        """The benchmark's 20 000 x 20 000 initial join: 7.55 MiB, with the
        exact kernel's queue drained at a quarter chunk (13.71 MiB when it
        drained at the full chunk); the bound is that plus ~15 %."""
        peak, _ = self._peak(20_000)
        assert peak <= 8.7 * 2**20, peak

    def test_only_per_row_planes_grow_with_the_input(self):
        """At a fixed small chunk the peak, outputs excluded, is the per-row
        planes (swept bounds, padded boxes, binned order, visit table: ~100
        bytes a row) plus a chunk's worth: ~50 bytes a candidate slot, and
        the exact kernel's ~240 bytes a pair over the quarter chunk its
        queue holds — the same chunk's worth when both sides double, though
        candidates and segments double with them.  Unblocked segment tables
        alone would add ~160 bytes a row."""
        chunk = 2_048
        for n in (5_000, 10_000):
            peak, out = self._peak(n, chunk=chunk)
            assert peak - out <= 105 * 2 * n + 120 * chunk, (n, peak - out)
