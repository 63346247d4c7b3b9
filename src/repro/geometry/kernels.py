"""Vectorized NumPy kernels for the pair-test hot path.

Every join strategy bottoms out in
:func:`~repro.geometry.intersection.intersection_interval`, called once
per candidate pair from the plane sweep, the IC entry filter and the
TPR-tree search.  This module batches those calls: a
:class:`KineticBatch` holds a whole node's (or dataset's) kinetic boxes
as structure-of-arrays columns, and the ``batch_*`` kernels evaluate all
pair constraints with NumPy broadcasting instead of per-pair Python.

Exactness contract
------------------
The kernels are *bit-identical* to the scalar path, not merely close:

* the constraint coefficients are pre-shifted to reference time 0
  (``lo - v_lo * t_ref``), and the scalar ``intersection_interval`` is
  written with the same association, so both paths perform the same
  IEEE-754 operations per constraint;
* sweep bounds evaluate ``mbr + vbr * (t - t_ref)`` elementwise, the
  exact expression :meth:`KineticBox.lo` / :meth:`~KineticBox.hi` use;
* window clamping is a chain of ``min``/``max`` accumulations, which are
  exact and order-independent, so the sequential scalar clamps and the
  broadcast kernel clamps agree to the last bit.

The scalar implementations stay in place as the reference the parity
suites compare against; these kernels are the only production path, and
consumers choose between the two by input size alone.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from .box import NDIMS
from .constants import PAIR_TEST_EPS as _EPS
from .interval import INF, TimeInterval
from .kinetic import KineticBox

__all__ = [
    "PROBE_BATCH_MIN",
    "KineticBatch",
    "batch_intersection_intervals",
    "batch_probe_windows",
    "batch_filter_against",
    "batch_sweep_bounds",
    "batch_select_sweep_dimension",
    "batch_ps_intersection",
    "batch_sweep_join",
    "batch_all_pairs_intersection",
]

#: Flat ``KineticBox.params()`` layout: 4 MBR + 4 VBR bounds + t_ref.
_N_PARAMS = 4 * NDIMS + 1

#: Minimum batch size for a 1-vs-N probe to beat the scalar loop when
#: the :class:`KineticBatch` must be packed fresh for the call (as in
#: tree search, where nodes are visited once per query).  Measured
#: crossover is ~n=30 pack-included and ~n=16 with a cached pack;
#: consumers that cannot amortize the pack should take the scalar path
#: below this size.  Grid kernels (N x M pairs) win from ~16x16 and are
#: not gated.
PROBE_BATCH_MIN = 32


class KineticBatch:
    """Structure-of-arrays view of a sequence of kinetic boxes.

    Arrays are indexed ``[dim, i]``; ``slo``/``shi`` are the MBR bounds
    pre-shifted to reference time 0 (``mbr - vbr * t_ref``), so a bound
    at time ``t`` is simply ``slo + vlo * t`` and the per-pair ``t_ref``
    arithmetic of the scalar path vanishes from the kernels.  The raw
    ``mlo``/``mhi``/``tref`` columns are kept as well because the sweep
    bounds must evaluate ``mbr + vbr * (t - t_ref)`` to stay bit-exact
    with :func:`~repro.geometry.plane_sweep.sweep_bounds`.

    >>> from repro.geometry import Box
    >>> batch = KineticBatch.from_boxes(
    ...     [KineticBox.rigid(Box(0, 1, 2, 3), 1.0, -1.0, 0.0)]
    ... )
    >>> len(batch)
    1
    """

    __slots__ = ("n", "mlo", "mhi", "vlo", "vhi", "tref", "slo", "shi", "_speed_sums")

    def __init__(self, mlo, mhi, vlo, vhi, tref, slo=None, shi=None):
        self.n = int(tref.shape[0])
        self.mlo = mlo
        self.mhi = mhi
        self.vlo = vlo
        self.vhi = vhi
        self.tref = tref
        self.slo = mlo - vlo * tref if slo is None else slo
        self.shi = mhi - vhi * tref if shi is None else shi
        self._speed_sums = None

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_boxes(cls, boxes: Sequence[KineticBox]) -> "KineticBatch":
        """Pack a sequence of kinetic boxes into one SoA batch."""
        params = np.array([kb.params() for kb in boxes], dtype=np.float64)
        params = params.reshape(-1, _N_PARAMS)
        lo_cols = [2 * d for d in range(NDIMS)]
        hi_cols = [2 * d + 1 for d in range(NDIMS)]
        v_off = 2 * NDIMS
        return cls(
            np.ascontiguousarray(params[:, lo_cols].T),
            np.ascontiguousarray(params[:, hi_cols].T),
            np.ascontiguousarray(params[:, [v_off + c for c in lo_cols]].T),
            np.ascontiguousarray(params[:, [v_off + c for c in hi_cols]].T),
            np.ascontiguousarray(params[:, 4 * NDIMS]),
        )

    @classmethod
    def from_entries(cls, entries: Sequence) -> "KineticBatch":
        """Pack the ``kbox`` of each index entry (leaf or internal)."""
        return cls.from_boxes([e.kbox for e in entries])

    # ------------------------------------------------------------------
    # Introspection / slicing
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self.n

    @property
    def speed_sums(self):
        """Per-dimension total of ``|v_lo| + |v_hi|`` over the batch.

        Computed once and cached — this is the §IV-D.2 dimension
        selection statistic, which the scalar path re-sums per node
        pair.
        """
        if self._speed_sums is None:
            self._speed_sums = np.abs(self.vlo).sum(axis=1) + np.abs(self.vhi).sum(
                axis=1
            )
        return self._speed_sums

    def compress(self, mask: "np.ndarray") -> "KineticBatch":
        """Sub-batch of the rows where the boolean ``mask`` is true."""
        return KineticBatch(
            self.mlo[:, mask],
            self.mhi[:, mask],
            self.vlo[:, mask],
            self.vhi[:, mask],
            self.tref[mask],
            self.slo[:, mask],
            self.shi[:, mask],
        )

    def box(self, i: int) -> KineticBox:
        """Reconstruct row ``i`` as a :class:`KineticBox` (diagnostics)."""
        flat: List[float] = []
        for arr_lo, arr_hi in ((self.mlo, self.mhi), (self.vlo, self.vhi)):
            for d in range(NDIMS):
                flat.append(float(arr_lo[d, i]))
                flat.append(float(arr_hi[d, i]))
        flat.append(float(self.tref[i]))
        return KineticBox.from_params(tuple(flat))

    def __repr__(self) -> str:
        return f"KineticBatch(n={self.n})"


# ----------------------------------------------------------------------
# Core window kernel
# ----------------------------------------------------------------------
def _clamp_constraint(c, m, lo, hi, ok) -> None:
    """Tighten the windows ``[lo, hi]`` with ``c + m*t <= 0`` in place.

    Mirrors :func:`repro.geometry.intersection._le_zero_window`: a zero
    slope rejects wherever ``c > _EPS``; a positive slope caps ``hi`` at
    the root; a negative slope raises ``lo`` to it.  Rejection is
    deferred to the final ``lo <= hi`` test, which is equivalent to the
    scalar early returns because ``lo``/``hi`` only move inward.
    """
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        root = -c / m
    np.logical_and(ok, (m != 0.0) | (c <= _EPS), out=ok)
    np.minimum(hi, root, out=hi, where=m > 0.0)
    np.maximum(lo, root, out=lo, where=m < 0.0)
    # A subnormal slope can overflow the division to +inf; first contact
    # at the infinite timestamp means the pair never meets (the scalar
    # path rejects the same way).
    np.logical_and(ok, lo < INF, out=ok)


def _pair_windows(batch_a: KineticBatch, ia, batch_b: KineticBatch, jb, t0, t1):
    """Constraint windows of ``a[ia] x b[jb]`` under NumPy broadcasting.

    ``ia``/``jb`` may be ints, index arrays, slices, or ``None`` (for a
    broadcast axis); the result shape is their broadcast.  Returns
    ``(lo, hi, valid)``.
    """
    shape = np.broadcast(batch_a.tref[ia], batch_b.tref[jb]).shape
    lo = np.full(shape, float(t0))
    hi = np.full(shape, float(t1))
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


def batch_intersection_intervals(
    batch_a: KineticBatch, batch_b: KineticBatch, t0: float, t1: float = INF
) -> Tuple["np.ndarray", "np.ndarray", "np.ndarray"]:
    """All-pairs constraint windows between two batches.

    Returns ``(lo, hi, valid)`` arrays of shape ``(len(a), len(b))``:
    where ``valid[i, j]`` is true, ``a[i]`` and ``b[j]`` overlap exactly
    during ``[lo[i, j], hi[i, j]]`` — the same interval the scalar
    ``intersection_interval(a[i], b[j], t0, t1)`` returns; where false,
    the scalar returns ``None``.  ``t1`` may be ``inf``.
    """
    if t1 < t0:
        raise ValueError("t_end must be >= t_start")
    return _pair_windows(
        batch_a, (slice(None), None), batch_b, (None, slice(None)), t0, t1
    )


def batch_probe_windows(
    batch: KineticBatch, other: KineticBox, t0: float, t1: float = INF
) -> Tuple["np.ndarray", "np.ndarray", "np.ndarray"]:
    """Constraint windows of every batch row against one probe box.

    The 1-vs-N case (tree search, single-side descent, IC filter) as a
    single stacked pass: returns 1-D ``(lo, hi, ok)`` where row ``i``
    equals ``intersection_interval(batch[i], other, t0, t1)`` (``None``
    ⇔ ``not ok[i]``).  The probe's shifted coefficients are plain Python
    floats (same ops as the batch pre-shift, so still bit-exact) —
    packing a one-box batch per call would cost more than the probe.

    The result is independent of which side plays the "A" role: swapping
    roles permutes the constraint *set* per dimension, and the reduction
    below is order-independent, so callers may probe with either
    orientation and still match the scalar bit-for-bit.
    """
    if t1 < t0:
        raise ValueError("t_end must be >= t_start")
    o_vlo = [other.vbr.lo(d) for d in range(NDIMS)]
    o_vhi = [other.vbr.hi(d) for d in range(NDIMS)]
    o_slo = [other.mbr.lo(d) - o_vlo[d] * other.t_ref for d in range(NDIMS)]
    o_shi = [other.mbr.hi(d) - o_vhi[d] * other.t_ref for d in range(NDIMS)]
    # All 2*NDIMS constraints ``c + m*t <= 0`` stacked into one pass:
    # rows alternate constraint 1 (batch.lo(t) <= other.hi(t)) and
    # constraint 2 (other.lo(t) <= batch.hi(t)) per dimension.
    c = np.stack(
        [arr for d in range(NDIMS)
         for arr in (batch.slo[d] - o_shi[d], o_slo[d] - batch.shi[d])]
    )
    m = np.stack(
        [arr for d in range(NDIMS)
         for arr in (batch.vlo[d] - o_vhi[d], o_vlo[d] - batch.vhi[d])]
    )
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        root = -c / m
    pos = m > 0.0
    neg = m < 0.0
    # min/max are exact and order-independent, so reducing over the
    # constraint axis equals the scalar's sequential clamps bit-for-bit.
    hi = np.minimum(np.where(pos, root, INF).min(axis=0), t1)
    lo = np.maximum(np.where(neg, root, -INF).max(axis=0), t0)
    flat_reject = (~(pos | neg)) & (c > _EPS)
    ok = ~flat_reject.any(axis=0)
    ok &= lo <= hi
    # Same overflow guard as _clamp_constraint: a +inf contact time is
    # "never meets", matching the scalar rejection.
    ok &= lo < INF
    return lo, hi, ok


def batch_filter_against(
    batch: KineticBatch, other: KineticBox, t0: float, t1: float = INF
) -> "np.ndarray":
    """Boolean mask of batch rows intersecting ``other`` during the window.

    This is the IC entry filter (`_filter_against`) as one kernel call:
    ``mask[i]`` is true iff ``intersection_interval(batch[i], other, t0,
    t1)`` is not ``None``.
    """
    _lo, _hi, ok = batch_probe_windows(batch, other, t0, t1)
    return ok


# ----------------------------------------------------------------------
# Plane-sweep kernels
# ----------------------------------------------------------------------
def batch_sweep_bounds(
    batch: KineticBatch, dim: int, t0: float, t1: float
) -> Tuple["np.ndarray", "np.ndarray"]:
    """Vectorized :func:`~repro.geometry.plane_sweep.sweep_bounds`.

    Returns ``(lb, ub)`` arrays over the batch, bit-identical to the
    scalar per-box computation (including the degenerate ``t1 = inf``
    case, where outward velocities yield infinite bounds).
    """
    dt0 = t0 - batch.tref
    lo_t0 = batch.mlo[dim] + batch.vlo[dim] * dt0
    hi_t0 = batch.mhi[dim] + batch.vhi[dim] * dt0
    if t1 == INF:
        lb = np.where(batch.vlo[dim] >= 0, lo_t0, -INF)
        ub = np.where(batch.vhi[dim] <= 0, hi_t0, INF)
        return lb, ub
    dt1 = t1 - batch.tref
    lb = np.minimum(lo_t0, batch.mlo[dim] + batch.vlo[dim] * dt1)
    ub = np.maximum(hi_t0, batch.mhi[dim] + batch.vhi[dim] * dt1)
    return lb, ub


def batch_select_sweep_dimension(batch_a: KineticBatch, batch_b: KineticBatch) -> int:
    """Dimension-selection (§IV-D.2) from the cached per-batch speed sums.

    The scalar heuristic re-sums every entry's ``speed_sum`` per node
    pair; here the totals are computed once per batch and reused, so
    selection is O(NDIMS) after the first call.
    """
    totals = batch_a.speed_sums + batch_b.speed_sums
    return int(np.argmin(totals))


#: Default flush threshold (candidate pairs) for the chunked sweep join.
#: Bounds peak memory at roughly ``chunk * 8 doubles`` regardless of how
#: many candidates the sweep produces in total.  Results are
#: chunk-invariant (the window math is elementwise); the value only
#: trades gather-temporary size against dispatch count.  64k keeps the
#: per-flush working set (~a few MiB) inside cache, which measures both
#: *faster* and an order of magnitude lighter than multi-million-row
#: flushes at the 100k-per-side scale.
SWEEP_JOIN_CHUNK = 65_536


def batch_sweep_join(
    batch_a: KineticBatch,
    batch_b: KineticBatch,
    t0: float,
    t1: float,
    dim: Optional[int] = None,
    counter: Optional[List[int]] = None,
    chunk: int = SWEEP_JOIN_CHUNK,
) -> Tuple["np.ndarray", "np.ndarray", "np.ndarray", "np.ndarray"]:
    """Arrays-out plane-sweep join: the whole-dataset probe primitive.

    The candidate generation of :func:`batch_ps_intersection` with the
    result left in columnar form: returns ``(idx_a, idx_b, lo, hi)``
    arrays of the surviving pairs, in sweep order — ``batch_a[idx_a[k]]``
    intersects ``batch_b[idx_b[k]]`` exactly during ``[lo[k], hi[k]]``,
    bit-identical to the scalar ``intersection_interval``.  Candidate
    segments are flushed through the pair-window kernel every ``chunk``
    pairs, so peak memory stays bounded for dataset-scale sweeps
    (100k × 100k) where materializing all candidates at once would not.
    """
    if t1 < t0:
        raise ValueError("t_end must be >= t_start")
    empty = (
        np.empty(0, dtype=np.int64),
        np.empty(0, dtype=np.int64),
        np.empty(0),
        np.empty(0),
    )
    if batch_a.n == 0 or batch_b.n == 0:
        return empty
    if dim is None:
        dim = batch_select_sweep_dimension(batch_a, batch_b)
    lb_a, ub_a = batch_sweep_bounds(batch_a, dim, t0, t1)
    lb_b, ub_b = batch_sweep_bounds(batch_b, dim, t0, t1)
    order_a = np.argsort(lb_a, kind="stable")
    order_b = np.argsort(lb_b, kind="stable")
    lba, uba = lb_a[order_a], ub_a[order_a]
    lbb, ubb = lb_b[order_b], ub_b[order_b]
    m, n = batch_a.n, batch_b.n
    # Each pivot's candidate segment on the other (sorted) side is a
    # contiguous range, both ends from one binary search: the start is
    # the scalar sweep's pointer position when the pivot is processed
    # (the count of opposing lbs strictly before it — `<=` for b-side
    # pivots, since lb ties process side a first), the stop is the
    # first position whose lb exceeds the pivot's ub.  This replaces
    # the per-pivot python merge loop with O(segments) array work.
    starts_a = np.searchsorted(lbb, lba, side="left")
    stops_a = np.searchsorted(lbb, uba, side="right")
    starts_b = np.searchsorted(lba, lbb, side="right")
    stops_b = np.searchsorted(lba, ubb, side="right")
    # Merged pivot order = the scalar sweep's processing order: both lb
    # arrays are sorted, so one stable argsort of their concatenation
    # interleaves them and keeps side a first on ties.
    merged = np.argsort(np.concatenate([lba, lbb]), kind="stable")
    counts = np.maximum(
        np.concatenate([stops_a - starts_a, stops_b - starts_b]), 0
    )[merged]
    seg_start = np.concatenate([starts_a, starts_b])[merged]
    piv_val = np.concatenate([order_a, order_b])[merged]
    piv_is_b = merged >= m
    cum = np.cumsum(counts)
    total = int(cum[-1]) if counts.size else 0
    if total == 0:
        return empty
    seg_off = cum - counts
    out_a: List = []
    out_b: List = []
    out_lo: List = []
    out_hi: List = []
    n_seg = int(counts.size)
    seg = 0
    while seg < n_seg:
        # Largest block of whole segments near the chunk budget (always
        # at least one, so a single oversized segment still flushes).
        end = int(np.searchsorted(cum, int(seg_off[seg]) + chunk, side="left"))
        end = max(min(end + 1, n_seg), seg + 1)
        cnt = counts[seg:end]
        t = int(cum[end - 1] - seg_off[seg])
        if t == 0:
            seg = end
            continue
        base = np.cumsum(cnt) - cnt
        within = np.arange(t, dtype=np.int64) - np.repeat(base, cnt)
        pos = np.repeat(seg_start[seg:end], cnt) + within
        pivot = np.repeat(piv_val[seg:end], cnt)
        from_b = np.repeat(piv_is_b[seg:end], cnt)
        # A pivot pairs with the *other* side's sorted run; gather both
        # (clipped in-bounds) and select per row.
        idx_a = np.where(from_b, order_a[np.minimum(pos, m - 1)], pivot)
        idx_b = np.where(from_b, pivot, order_b[np.minimum(pos, n - 1)])
        lo, hi, ok = _pair_windows(batch_a, idx_a, batch_b, idx_b, t0, t1)
        sel = np.nonzero(ok)[0]
        out_a.append(idx_a[sel])
        out_b.append(idx_b[sel])
        out_lo.append(lo[sel])
        out_hi.append(hi[sel])
        seg = end
    if counter is not None:
        counter[0] += total
    if not out_a:
        return empty
    return (
        np.concatenate(out_a),
        np.concatenate(out_b),
        np.concatenate(out_lo),
        np.concatenate(out_hi),
    )


def batch_ps_intersection(
    batch_a: KineticBatch,
    batch_b: KineticBatch,
    t0: float,
    t1: float,
    dim: Optional[int] = None,
    counter: Optional[List[int]] = None,
) -> List[Tuple[int, int, TimeInterval]]:
    """Plane sweep with vectorized candidate testing.

    Same contract as :func:`~repro.geometry.plane_sweep.ps_intersection`
    — ``(i, j, interval)`` triples in sweep order.  The sweep itself is
    restructured for batching: every pivot's candidate range comes from
    one vectorized binary search over the sorted sweep bounds, the
    cheap merge loop only *collects* (pivot, candidates) index segments,
    and all collected pairs are then tested by a gather kernel — a
    handful of NumPy dispatches for the whole sweep instead of one per
    pivot.  This is a thin triple-building wrapper over
    :func:`batch_sweep_join`, which keeps the result in arrays.
    """
    idx_a, idx_b, lo, hi = batch_sweep_join(
        batch_a, batch_b, t0, t1, dim=dim, counter=counter
    )
    return [
        (int(i), int(j), TimeInterval(s, e))
        for i, j, s, e in zip(
            idx_a.tolist(), idx_b.tolist(), lo.tolist(), hi.tolist()
        )
    ]


def batch_all_pairs_intersection(
    batch_a: KineticBatch,
    batch_b: KineticBatch,
    t0: float,
    t1: float = INF,
    counter: Optional[List[int]] = None,
) -> List[Tuple[int, int, TimeInterval]]:
    """Nested-loop reference as one broadcast kernel call.

    Same contract (and result order) as
    :func:`~repro.geometry.plane_sweep.all_pairs_intersection`.
    """
    if batch_a.n == 0 or batch_b.n == 0:
        return []
    lo, hi, ok = batch_intersection_intervals(batch_a, batch_b, t0, t1)
    if counter is not None:
        counter[0] += batch_a.n * batch_b.n
    ii, jj = np.nonzero(ok)
    starts = lo[ii, jj].tolist()
    ends = hi[ii, jj].tolist()
    return [
        (int(i), int(j), TimeInterval(s, e))
        for i, j, s, e in zip(ii.tolist(), jj.tolist(), starts, ends)
    ]
