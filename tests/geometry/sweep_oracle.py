"""The NumPy sweep join: the oracle of the compiled ``batch_sweep_join``.

This is the join as NumPy array passes — the formulation whose IEEE
operations ``repro/geometry/sweep.c`` performs one pair at a time, in
the same order and association — kept with the tests the way the scalar
functions of :mod:`repro.geometry.plane_sweep` are: the tests call both
and compare bytes.  Stage one is a :class:`_SweepGrid` over the larger
side, walked in blocks of whole visiting rows of at most ``chunk``
segments plus candidates; each visiting row takes its cell columns in
order and then the overflow run, so the rows come back in one order
whatever the ``chunk`` — the compiled join's order.  Its swept bounds
(:func:`batch_sweep_bounds`) and exact pair windows
(:func:`_pair_windows`) are NumPy twins of
:func:`~repro.geometry.plane_sweep.sweep_bounds` and
:func:`~repro.geometry.intersection.intersection_interval`, bit for bit.

The tolerances and grid constants are read from
:mod:`repro.geometry.kernels` at call time, so a test that patches one
there patches both joins.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.geometry import kernels
from repro.geometry.box import NDIMS
from repro.geometry.constants import PAIR_TEST_EPS as _EPS
from repro.geometry.interval import INF
from repro.geometry.kernels import KineticBatch, _EMPTY_JOIN, _axis_magnitude, _row_ends
from repro.geometry.kinetic import KineticBox

#: Default flush threshold (stage-one candidates) for the chunked sweep
#: join.  The smaller side is walked in row blocks whose cell-column
#: segments plus grid candidates stay within this count, so no temporary
#: outgrows it: per candidate a block holds its position in the binned
#: order, its row on the visiting side, four gathered bounds and the
#: reject mask — ~50 bytes, so ~3 MiB at 64k.  The ~15 % that pass both
#: range tests queue for the pair-window kernel, which spends ~30
#: doubles (~240 bytes) per pair, so the queue drains at a quarter of
#: this count: ~4 MiB of kernel temporaries, where a full 64k queue
#: (~15 MiB) spilled the cache — 153 -> 106 ns a pair on the
#: 20k-per-side benchmark's initial-join pairs (2-vCPU host), and an
#: eighth (114 ns) is no better.  A benchmark tick's calls queue 2-3.5k
#: pairs each, below either threshold.  The rows returned are
#: chunk-invariant (every predicate is elementwise, and where the queue
#: drains moves none of them); the value only trades temporary size
#: against dispatch count.  On the 20k-per-side benchmark workload 64k
#: measures level with 32k and ahead of 128k, whose temporaries spill
#: the cache.
SWEEP_JOIN_CHUNK = 65_536


def _clamp_constraint(c, m, lo, hi, ok) -> None:
    """Tighten the windows ``[lo, hi]`` with ``c + m*t <= 0`` in place.

    Mirrors :func:`repro.geometry.intersection._le_zero_window`: a zero
    slope rejects wherever ``c > _EPS``; a positive slope caps ``hi`` at
    the root; a negative slope raises ``lo`` to it.  Rejection is
    deferred to the final ``lo <= hi`` test, which is equivalent to the
    scalar early returns because ``lo``/``hi`` only move inward.

    A bound moves only where the root is strictly inward: on a tie the
    scalar ``min``/``max`` keep their first operand (the bound), where
    ``np.minimum``/``np.maximum`` may keep the root — a ``-0.0`` root
    would then replace a ``0.0`` bound and the bytes would differ.
    """
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        root = -c / m
    np.logical_and(ok, (m != 0.0) | (c <= _EPS), out=ok)
    move = root < hi
    move &= m > 0.0
    np.copyto(hi, root, where=move)
    np.greater(root, lo, out=move)
    move &= m < 0.0
    np.copyto(lo, root, where=move)
    # A subnormal slope can overflow the division to +inf; first contact
    # at the infinite timestamp means the pair never meets (the scalar
    # path rejects the same way).
    np.logical_and(ok, lo < INF, out=ok)


def _pair_windows(batch_a: KineticBatch, ia, batch_b: KineticBatch, jb, t0, t1):
    """Constraint windows of ``a[ia] x b[jb]`` under NumPy broadcasting.

    ``ia``/``jb`` are index arrays that broadcast together.  ``t1`` is
    one window end, or an array of their shape with one end per pair — the clamps
    are elementwise, so a pair's window is the one a call with its own
    end as the scalar computes.  Returns ``(lo, hi, valid)``.
    """
    shape = np.broadcast(batch_a.tref[ia], batch_b.tref[jb]).shape
    lo = np.full(shape, float(t0))
    hi = np.empty(shape)
    hi[...] = t1
    ok = np.ones(shape, dtype=bool)
    for d in range(NDIMS):
        a_slo, a_shi = batch_a.slo[d][ia], batch_a.shi[d][ia]
        a_vlo, a_vhi = batch_a.vlo[d][ia], batch_a.vhi[d][ia]
        b_slo, b_shi = batch_b.slo[d][jb], batch_b.shi[d][jb]
        b_vlo, b_vhi = batch_b.vlo[d][jb], batch_b.vhi[d][jb]
        # Constraint 1: a.lo(t) - b.hi(t) <= 0.
        _clamp_constraint(a_slo - b_shi, a_vlo - b_vhi, lo, hi, ok)
        # Constraint 2: b.lo(t) - a.hi(t) <= 0.
        _clamp_constraint(b_slo - a_shi, b_vlo - a_vhi, lo, hi, ok)
    np.logical_and(ok, lo <= hi, out=ok)
    return lo, hi, ok


def batch_sweep_bounds(
    batch: KineticBatch,
    dim: int,
    t0: float,
    t1: Union[float, "np.ndarray"],
    rows: Optional["np.ndarray"] = None,
) -> Tuple["np.ndarray", "np.ndarray"]:
    """Vectorized :func:`~repro.geometry.plane_sweep.sweep_bounds`.

    Returns ``(lb, ub)`` arrays over the batch — over ``batch[rows]``
    when an index array is given — bit-identical to the scalar per-box
    computation (including the degenerate ``t1 = inf`` case, where
    outward velocities yield infinite bounds).  ``t1`` may be an array
    of finite ends, one per returned row: every operation is
    elementwise, so a row's bounds are those a call with its own end as
    the scalar returns.
    """
    cols = (batch.tref, batch.mlo[dim], batch.mhi[dim], batch.vlo[dim], batch.vhi[dim])
    if rows is not None:
        cols = tuple(col[rows] for col in cols)
    tref, mlo, mhi, vlo, vhi = cols
    # In-place accumulation: `vbr * dt + mbr` is the same IEEE sum as
    # `mbr + vbr * dt`, in a third of the temporaries.
    dt = t0 - tref
    lb = vlo * dt
    lb += mlo
    ub = vhi * dt
    ub += mhi
    if not isinstance(t1, np.ndarray) and t1 == INF:
        lb[~(vlo >= 0)] = -INF
        ub[~(vhi <= 0)] = INF
        return lb, ub
    np.subtract(t1, tref, out=dt)
    end = vlo * dt
    end += mlo
    np.minimum(lb, end, out=lb)
    np.multiply(vhi, dt, out=end)
    end += mhi
    np.maximum(ub, end, out=ub)
    return lb, ub


def batch_boxes(batch: KineticBatch) -> List[KineticBox]:
    """The batch's rows as kinetic boxes, for the scalar path."""
    columns = [
        plane[d]
        for lo, hi in ((batch.mlo, batch.mhi), (batch.vlo, batch.vhi))
        for d in range(NDIMS)
        for plane in (lo, hi)
    ]
    params = np.stack([*columns, batch.tref], axis=1).tolist()
    return [KineticBox.from_params(tuple(row)) for row in params]


def batch_select_sweep_dimension(batch_a: KineticBatch, batch_b: KineticBatch) -> int:
    """Dimension selection (§IV-D.2) over two batches: the axis with the
    smallest total of ``|v_lo| + |v_hi|``, as
    :func:`~repro.geometry.plane_sweep.select_sweep_dimension` picks it."""
    totals = [
        np.abs(batch.vlo).sum(axis=1) + np.abs(batch.vhi).sum(axis=1)
        for batch in (batch_a, batch_b)
    ]
    return int(np.argmin(totals[0] + totals[1]))


def _grid_shape(extent: Sequence[float], span: Sequence[float], rows: int) -> List[int]:
    """Cells per axis for ``rows`` binned boxes.

    ``SWEEP_GRID_CELLS_PER_SPAN`` cells per span of extent on each axis,
    at most ``SWEEP_GRID_MAX_AXIS``, then both axes scaled back (keeping
    the aspect, so a 4:1 stripe gets 4:1 cells) until a cell averages
    ``SWEEP_GRID_ROWS_PER_CELL`` rows.  ``span`` is positive — it
    includes the reach pad — so the quotient is finite.
    """
    want = [
        min(
            max(kernels.SWEEP_GRID_CELLS_PER_SPAN * extent[axis] / span[axis], 1.0),
            float(kernels.SWEEP_GRID_MAX_AXIS),
        )
        for axis in range(NDIMS)
    ]
    budget = max(rows / kernels.SWEEP_GRID_ROWS_PER_CELL, 1.0)
    if want[0] * want[1] > budget:
        scale = (budget / (want[0] * want[1])) ** 0.5
        thin = 0 if want[0] <= want[1] else 1
        if want[thin] * scale < 1.0:
            # The thin axis keeps its one cell; the other takes the budget.
            want[thin], want[1 - thin] = 1.0, min(want[1 - thin], budget)
        else:
            want = [w * scale for w in want]
    return [int(w) for w in want]


class _SweepGrid:
    """Uniform grid over one side's padded 2-D swept boxes, built per call.

    Bins each row by the lower corner ``lo`` of its box: ``order`` lists
    the rows cell by cell and ``cell_start`` each cell's run in it (cell
    id = ``cx * ny + cy``, so a column of cells is one contiguous run).
    Rows that are non-finite, or wider than ``SWEEP_GRID_OVERSIZE`` mean
    widths, go to an overflow cell after the last.  A one-cell grid
    keeps every row in place: ``order`` is ``None``, nothing is sorted.
    """

    __slots__ = ("rows", "shape", "origin", "inv", "reach", "order", "cell_start", "_sat")

    def __init__(self, lo, hi, pad: Sequence[float]):
        self._set_one_cell(lo[0].shape[0])
        with np.errstate(invalid="ignore"):
            width = [hi[axis] - lo[axis] for axis in range(NDIMS)]
        regular = None  # every row, until one turns out irregular
        stats = [self._axis_stats(lo[axis], width[axis]) for axis in range(NDIMS)]
        if not all(self._all_regular(*s) for s in stats):
            with np.errstate(invalid="ignore"):
                # `inf - inf` and any infinite corner poison the sum.
                regular = np.isfinite(lo[0] + lo[1] + width[0] + width[1])
            if regular.any():
                means = [float(w[regular].mean()) for w in width]
                for axis in range(NDIMS):
                    regular &= width[axis] <= kernels.SWEEP_GRID_OVERSIZE * max(means[axis], 0.0)
            lo = [x[regular] for x in lo]
            if not lo[0].shape[0]:
                return
            width = [w[regular] for w in width]
            stats = [self._axis_stats(lo[axis], width[axis]) for axis in range(NDIMS)]
        extent, span = [], []
        for axis, (lo_min, lo_max, w_max, w_mean) in enumerate(stats):
            self.origin[axis] = lo_min
            extent.append(lo_max - lo_min)
            # W: no binned box is wider; the pad absorbs the rounding of
            # `hi - lo` and of a visiting row's `lo - W`.
            self.reach[axis] = max(w_max, 0.0) + pad[axis]
            span.append(max(w_mean, 0.0) + self.reach[axis])
        if not np.isfinite(extent[0] + extent[1]):
            # Finite corners at both ends of the doubles: no cell size.
            return
        nx, ny = _grid_shape(extent, span, lo[0].shape[0])
        cells = nx * ny
        if cells == 1:
            # Everyone shares the one cell, irregular rows included.
            return
        self.shape = [nx, ny]
        self.inv = [
            self.shape[axis] / extent[axis] if self.shape[axis] > 1 else 0.0
            for axis in range(NDIMS)
        ]
        cell = self.cells(lo[0], 0, 0, nx - 1)
        cell *= ny
        cell += self.cells(lo[1], 1, 0, ny - 1)
        if regular is not None:
            binned, cell = cell, np.full(self.rows, cells, dtype=np.intp)
            cell[regular] = binned
        # 16-bit keys: the stable argsort is a radix sort.
        self.order = np.argsort(cell.astype(np.int16), kind="stable")
        count = np.bincount(cell, minlength=cells + 1)
        self.cell_start = np.concatenate([[0], np.cumsum(count)])
        # Summed-area table: the rows binned in any cell rectangle, O(1).
        self._sat = np.zeros((nx + 1, ny + 1), dtype=np.intp)
        np.cumsum(
            np.cumsum(count[:cells].reshape(nx, ny), axis=0),
            axis=1,
            out=self._sat[1:, 1:],
        )

    @classmethod
    def one_cell(cls, rows: int) -> "_SweepGrid":
        """The grid of a batch too small to bin: all pairs."""
        grid = cls.__new__(cls)
        grid._set_one_cell(rows)
        return grid

    def _set_one_cell(self, rows: int) -> None:
        self.rows = rows
        self.shape = [1, 1]
        self.origin = [0.0, 0.0]
        self.inv = [0.0, 0.0]
        self.reach = [0.0, 0.0]
        self.order = None
        self.cell_start = np.array([0, rows], dtype=np.intp)
        self._sat = None

    @staticmethod
    def _axis_stats(lo, width) -> Tuple[float, float, float, float]:
        return (
            float(lo.min()),
            float(lo.max()),
            float(width.max()),
            float(width.sum()) / lo.shape[0],
        )

    @staticmethod
    def _all_regular(lo_min, lo_max, w_max, w_mean) -> bool:
        """No row is non-finite or oversize, judged from the axis extremes.

        NaN and infinities propagate through ``min``/``max``/``sum``, so
        finite extremes mean finite rows.
        """
        return bool(
            np.isfinite(lo_min + lo_max + w_mean)
            and w_max <= kernels.SWEEP_GRID_OVERSIZE * max(w_mean, 0.0)
        )

    def cells(self, x, axis: int, lowest: int, highest: int):
        """Cell of coordinate ``x`` along ``axis``, clipped to ``[lowest, highest]``.

        Every step (``x - origin``, ``* inv``, clip, floor) is monotone
        non-decreasing in ``x`` under IEEE rounding, so ``x <= y`` gives
        ``cells(x) <= cells(y)`` — all the conservativeness argument
        (module docstring) asks of it.
        """
        if self.shape[axis] == 1:
            # No arithmetic: `inf * 0` must not reach the integer cast.
            return np.zeros(x.shape, dtype=np.intp)
        scaled = x - self.origin[axis]
        scaled *= self.inv[axis]
        np.clip(scaled, lowest, highest, out=scaled)
        return np.floor(scaled, out=scaled).astype(np.intp)

    def _visits(self, lb, ub):
        """What each visiting row must scan: a cell rectangle and an extra run.

        Returns ``(x0, columns, y0, y1, extra, count)`` per row: the
        binned partners of a finite row lie in cells ``x0 .. x0 +
        columns - 1`` by ``y0 .. y1`` (``columns = 0`` when it can have
        none there) or in the overflow cell, the run ``extra .. n`` of
        the binned order; a non-finite row, and every row of a one-cell
        grid, scans no rectangle and ``extra = 0``: the whole side.
        ``count`` is the rows those runs hold.
        """
        n = self.rows
        if self.order is None:
            none = np.zeros(lb[0].shape[0], dtype=np.intp)
            return none, none, none, none, none, none + n
        nx, ny = self.shape
        with np.errstate(invalid="ignore"):
            finite = np.isfinite(lb[0] + lb[1] + ub[0] + ub[1])
        if not finite.all():
            lb = [np.where(finite, x, 0.0) for x in lb]
            ub = [np.where(finite, x, 0.0) for x in ub]
        x0 = self.cells(lb[0] - self.reach[0], 0, 0, nx)
        x1 = self.cells(ub[0], 0, -1, nx - 1)
        y0 = self.cells(lb[1] - self.reach[1], 1, 0, ny)
        y1 = self.cells(ub[1], 1, -1, ny - 1)
        # One empty axis empties the rectangle; so does a non-finite row.
        x1 = np.where((y1 < y0) | (x1 < x0) | ~finite, x0 - 1, x1)
        sat = self._sat
        count = sat[x1 + 1, y1 + 1] - sat[x0, y1 + 1] - sat[x1 + 1, y0] + sat[x0, y0]
        extra = np.where(finite, self.cell_start[nx * ny], 0)
        return x0, x1 - x0 + 1, y0, y1, extra, count + (n - extra)

    def candidates(self, lb, ub, chunk: int):
        """Stage one: yield ``(pos, row)`` candidate arrays, block by block.

        ``row`` indexes the visiting side, whose swept bounds are ``lb``
        / ``ub`` per axis; ``pos`` is a position in the binned order
        (``order[pos]`` is the binned row; the row itself when ``order``
        is ``None``).  The visiting side is walked in blocks of whole
        rows holding at most ``chunk`` segments plus candidates (always
        at least one row, so a single oversized row still goes through):
        no table here outgrows ``chunk``.
        """
        n = self.rows
        ny = self.shape[1]
        cell_start = self.cell_start
        x0, columns, y0, y1, extra, count = self._visits(lb, ub)
        with_extra = bool((extra < n).any())
        cum = np.cumsum(columns + with_extra + count)
        m = cum.shape[0]
        row = 0
        while row < m:
            base = int(cum[row - 1]) if row else 0
            end = max(int(np.searchsorted(cum, base + chunk, side="right")), row + 1)
            rows = np.arange(row, end)
            row = end
            # One segment per visited cell column: the run of the binned
            # order from cell (cx, y0) through cell (cx, y1).
            k = columns[rows]
            seg_row = np.repeat(rows, k)
            cx = x0[seg_row] + np.arange(seg_row.shape[0]) - np.repeat(np.cumsum(k) - k, k)
            cx *= ny
            start = cell_start[cx + y0[seg_row]]
            stop = cell_start[cx + y1[seg_row] + 1]
            if with_extra:
                # Each row's overflow run right after its own columns.
                by_row = np.argsort(np.concatenate([seg_row, rows]), kind="stable")
                seg_row = np.concatenate([seg_row, rows])[by_row]
                start = np.concatenate([start, extra[rows]])[by_row]
                stop = np.concatenate([stop, np.full(rows.shape[0], n)])[by_row]
            cnt = stop - start
            total = int(cnt.sum())
            if total:
                pos = np.repeat(start - (np.cumsum(cnt) - cnt), cnt)
                pos += np.arange(total)
                yield pos, np.repeat(seg_row, cnt)


def _sweep_partners(lb_p, ub_p, lb_q, ub_q, q_is_a: bool):
    """The scalar sweep's candidate rule on paired swept ranges.

    Whichever row has the lower ``lb`` pivots (side a on ties) and takes
    the partners whose ``lb`` its ``ub`` reaches.
    """
    q_pivots = lb_q <= lb_p if q_is_a else lb_q < lb_p
    return np.where(q_pivots, lb_p <= ub_q, lb_q <= ub_p)


def oracle_sweep_join(
    batch_a: KineticBatch,
    batch_b: KineticBatch,
    t0: float,
    t1: float,
    dim: int,
    counter: Optional[List[int]] = None,
    chunk: int = SWEEP_JOIN_CHUNK,
    ends: Tuple[Optional["np.ndarray"], Optional["np.ndarray"]] = (None, None),
) -> Tuple["np.ndarray", "np.ndarray", "np.ndarray", "np.ndarray"]:
    """Arrays-out plane-sweep join: the whole-dataset probe primitive.

    Returns ``(idx_a, idx_b, lo, hi)`` arrays of the intersecting pairs
    — ``batch_a[idx_a[k]]`` intersects ``batch_b[idx_b[k]]`` exactly
    during ``[lo[k], hi[k]]``: rows and windows are those of the scalar
    reference :func:`~repro.geometry.plane_sweep.ps_intersection` on
    ``dim``, bit for bit.  The rows come in the grid's deterministic
    enumeration order, not the sweep's.

    ``ends = (ends_a, ends_b)`` gives either side one finite window end
    per row (MTB: a row's bucket end plus ``T_M``).  Pair ``(i, j)`` is
    then joined over ``[t0, min(t1, ends_a[i], ends_b[j])]``, and the
    rows returned — indices and windows, bit for bit — are the union of
    the rows the call returns for each group of equal-end rows of ``a``
    against each such group of ``b`` with that minimum as its ``t1``:
    every stage-one filter works on a row's swept box over its *own*
    window, which contains the pair's, and the survivors meet the sweep
    rule and the exact kernel on the pair's window.

    Stage one is a uniform grid over the 2-D swept boxes, built for this
    call and dropped with it (:class:`_SweepGrid`).  The larger side is
    binned once, one cell per row, by the lower corner of its
    slack-padded swept box; each row of the smaller side visits the
    cells from ``lo - W`` to ``hi`` per axis (``W``: the widest binned
    box, padded), one contiguous run of the binned order per cell
    column.  Binned rows that are oversize or non-finite (``t1 = inf``)
    sit in an overflow cell every row visits, a non-finite visiting row
    takes the whole binned side, and a batch of at most
    ``SWEEP_GRID_MIN_PAIRS`` pairs gets a single cell: all pairs,
    nothing sorted.  ``counter[0]`` counts the candidates so enumerated
    — the same number whichever ``dim`` sweeps.

    Each candidate then runs the scalar sweep's own predicate chain: the
    slack-padded reject on the axis orthogonal to ``dim``, the
    zero-tolerance swept-range test on ``dim`` (exactly the scalar
    sweep's candidate rule, side a pivoting first on ties), and for the
    survivors — ``counter[1]`` counts them — the exact pair-window
    kernel.  Candidates arrive in blocks of at most ``chunk`` and
    survivors queue up to a quarter of that count before the exact
    kernel runs (it holds ~5x a candidate's bytes per pair), so the
    temporaries stay bounded, and cache-sized, for dataset-scale joins
    (100k × 100k).
    """
    if t1 < t0:
        raise ValueError("t_end must be >= t_start")
    end_a = _row_ends(ends[0], batch_a.n, t0, t1)
    end_b = _row_ends(ends[1], batch_b.n, t0, t1)
    if batch_a.n == 0 or batch_b.n == 0:
        return _EMPTY_JOIN
    orth = 1 - dim
    # The larger side is binned ("p"), the smaller visits ("q").
    flip = batch_a.n > batch_b.n
    batch_q, batch_p = (batch_b, batch_a) if flip else (batch_a, batch_b)
    end_q, end_p = (end_b, end_a) if flip else (end_a, end_b)
    lb_q, ub_q = zip(*(batch_sweep_bounds(batch_q, axis, t0, end_q) for axis in range(NDIMS)))
    lb_p, ub_p = zip(*(batch_sweep_bounds(batch_p, axis, t0, end_p) for axis in range(NDIMS)))
    per_row = ends[0] is not None or ends[1] is not None
    # The latest finite instant a bound above was evaluated at, if any.
    far = t1
    if per_row:
        end_q = np.broadcast_to(end_q, (batch_q.n,))
        end_p = np.broadcast_to(end_p, (batch_p.n,))
        end_a, end_b = (end_p, end_q) if flip else (end_q, end_p)
        far = max(float(end.max()) for end in (end_q, end_p) if end[0] < INF)
    # Slack-padded binned boxes: the orthogonal axis's for the reject,
    # both axes' for the grid.
    gridded = batch_q.n * batch_p.n > kernels.SWEEP_GRID_MIN_PAIRS
    lo_p, hi_p, pad = [None] * NDIMS, [None] * NDIMS, [0.0] * NDIMS
    for axis in range(NDIMS) if gridded else (orth,):
        mag = _axis_magnitude(batch_a, batch_b, axis, t0, far)
        lo_p[axis] = lb_p[axis] - kernels._FILTER_SLACK * mag
        hi_p[axis] = ub_p[axis] + kernels._FILTER_SLACK * mag
        pad[axis] = kernels._GRID_PAD * mag
    grid = _SweepGrid(lo_p, hi_p, pad) if gridded else _SweepGrid.one_cell(batch_p.n)
    # Binned-side columns in binned order, so a run reads sequentially;
    # the visiting side's are read by row.
    order = grid.order
    p_lb, p_ub, p_lo, p_hi = (
        col if order is None else col.take(order)
        for col in (lb_p[dim], ub_p[dim], lo_p[orth], hi_p[orth])
    )
    q_lb, q_ub, q_olb, q_oub = lb_q[dim], ub_q[dim], lb_q[orth], ub_q[orth]
    pend: List = []
    out: List = []

    def run_exact() -> int:
        idx_a, idx_b = (np.concatenate(col) for col in zip(*pend))
        pend.clear()
        until = np.minimum(end_a[idx_a], end_b[idx_b]) if per_row else t1
        lo, hi, ok = _pair_windows(batch_a, idx_a, batch_b, idx_b, t0, until)
        sel = np.flatnonzero(ok)
        out.append((idx_a[sel], idx_b[sel], lo[sel], hi[sel]))
        return idx_a.shape[0]

    drain = max(chunk // 4, 1)
    enumerated = pending = tested = 0
    for pos, qrow in grid.candidates(lb_q, ub_q, chunk):
        enumerated += pos.shape[0]
        # Negated so an unordered comparison (NaN) passes to the exact
        # kernel instead of being dropped here.
        reject = p_lo[pos] > q_oub[qrow]
        reject |= p_hi[pos] < q_olb[qrow]
        keep = np.flatnonzero(~reject)
        pos, qrow = pos[keep], qrow[keep]
        keep = np.flatnonzero(
            _sweep_partners(p_lb[pos], p_ub[pos], q_lb[qrow], q_ub[qrow], not flip)
        )
        pos, qrow = pos[keep], qrow[keep]
        prow = pos if order is None else order[pos]
        if per_row:
            # Own-window ranges contain the pair's, so nothing the rule
            # admits on the pair's window was dropped above; where the
            # two rows' ends differ, apply it there as well, as the call
            # on the pair's two end groups does.
            until_p, until_q = end_p[prow], end_q[qrow]
            uneven = np.flatnonzero(until_p != until_q)
            until = np.minimum(until_p[uneven], until_q[uneven])
            admitted = _sweep_partners(
                *batch_sweep_bounds(batch_p, dim, t0, until, prow[uneven]),
                *batch_sweep_bounds(batch_q, dim, t0, until, qrow[uneven]),
                not flip,
            )
            if not admitted.all():
                keep = np.delete(np.arange(prow.shape[0]), uneven[~admitted])
                prow, qrow = prow[keep], qrow[keep]
        pend.append((prow, qrow) if flip else (qrow, prow))
        pending += prow.shape[0]
        # Survivors are a fraction of a block, so they queue for the
        # exact kernel; at ~5x a candidate's bytes per pair, the queue
        # drains at a quarter chunk to stay cache-sized.
        if pending >= drain:
            tested += run_exact()
            pending = 0
    if pending:
        tested += run_exact()
    if counter is not None:
        counter[0] += enumerated
        if len(counter) > 1:
            counter[1] += tested
    if not out:
        return _EMPTY_JOIN
    return tuple(np.concatenate(col) for col in zip(*out))
