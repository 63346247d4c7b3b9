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

* the sweep join's orthogonal-bound reject only removes pairs the exact
  test would reject anyway, so it changes which pairs are *tested*, never
  which are *returned*.  The argument: a pair the exact test accepts has
  a finite ``t*`` in ``[t0, t1]`` (its window start) at which every
  constraint ``c + m*t <= 0`` holds up to ``PAIR_TEST_EPS`` plus the
  rounding of ``c``, ``m`` and the root ``-c/m`` (a flat constraint
  accepts ``c <= PAIR_TEST_EPS``; a root that overflows to ``+inf`` on
  the window start is rejected by both paths).  On the orthogonal axis
  that reads ``a.lo(t*) <= b.hi(t*) + eps'`` and ``b.lo(t*) <= a.hi(t*)
  + eps'``; bounds are linear in ``t``, so the swept ``lb = min(lo(t0),
  lo(t1))`` and ``ub = max(hi(t0), hi(t1))`` bracket them and ``lb_a <=
  ub_b + eps''``, ``lb_b <= ub_a + eps''`` — where ``eps''`` adds the
  rounding between ``mbr + vbr * (t - t_ref)`` and ``(mbr - vbr * t_ref)
  + vbr * t``.  Every such rounding is a few ``2**-53`` of the largest
  intermediate, ``|mbr| + |vbr| * (|t_ref| + |t|)``, and the reject
  fires only beyond ``SWEEP_FILTER_SLACK`` (``1e-9``) times that
  magnitude (at least 1), which dominates ``PAIR_TEST_EPS`` plus all of
  them by six orders.  With ``t1 = inf`` an outward bound is ``±inf``
  and passes.  The *sweep* axis keeps zero tolerance — its candidate
  set, order and count are the scalar sweep's — so rows, row order and
  ``counter[0]`` are unchanged.

The scalar implementations stay in place as the reference the parity
suites compare against; these kernels are the only production path, and
consumers choose between the two by input size alone.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from .box import NDIMS
from .constants import PAIR_TEST_EPS as _EPS
from .constants import SWEEP_FILTER_SLACK as _FILTER_SLACK
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


#: Default flush threshold (1-D sweep candidates) for the chunked sweep
#: join.  Per candidate a chunk holds its position in the sorted other
#: side, the two orthogonal bounds gathered from there, the pivot's two
#: padded bounds and the reject mask — ~42 bytes, so ~2.7 MiB at 64k;
#: the few percent that survive the filter queue up to the same count
#: before the pair-window kernel spends its ~30 doubles per pair on
#: them.  Results are chunk-invariant (filter and window math are
#: elementwise); the value only trades temporary size against dispatch
#: count.  On the 20k-per-side benchmark workload 64k measures level
#: with 32k and ahead of 128k, whose temporaries spill the cache.
SWEEP_JOIN_CHUNK = 65_536


def _filter_slack(
    batch_a: KineticBatch, batch_b: KineticBatch, dim: int, t0: float, t1: float
) -> float:
    """Absolute slack of the orthogonal-bound reject along ``dim``.

    ``SWEEP_FILTER_SLACK`` times the largest magnitude any intermediate
    of the bound or constraint arithmetic can reach on this axis:
    ``|mbr| + |vbr| * (|t_ref| + |t|)`` dominates ``mbr``, ``vbr *
    t_ref``, the shifted ``slo``/``shi``, ``vbr * (t - t_ref)`` and the
    bounds themselves, so every rounding error involved is at most a few
    ``2**-53`` of it.  An overflowing magnitude gives an infinite slack,
    which rejects nothing.
    """
    horizon = max(abs(t0), abs(t1) if t1 < INF else 0.0)
    mag = 0.0
    for batch in (batch_a, batch_b):
        pos = max(np.abs(batch.mlo[dim]).max(), np.abs(batch.mhi[dim]).max())
        vel = max(np.abs(batch.vlo[dim]).max(), np.abs(batch.vhi[dim]).max())
        mag = max(mag, float(pos + vel * (np.abs(batch.tref).max() + horizon)))
    return _FILTER_SLACK * max(1.0, mag)


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
    bit-identical to the scalar ``intersection_interval``.

    Candidates pass two stages.  The 1-D sweep on ``dim`` enumerates
    every pair whose swept ranges meet there (what the scalar sweep
    tests; ``counter[0]`` counts these).  Each is then compared on the
    *other* axis's swept bounds and dropped when those are separated by
    more than the filter slack (see the module docstring); only the
    survivors run the exact pair-window kernel, and a second
    ``counter`` slot, when given, counts them.  Candidates are flushed
    every ``chunk`` pairs, so peak memory stays bounded for
    dataset-scale sweeps (100k × 100k) where materializing all
    candidates at once would not.
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
    # The starts are also each pivot's count of opposing pivots the
    # scalar sweep processes first, so own position + start is its rank
    # in the merged processing order (side a first on lb ties) and the
    # per-pivot columns scatter straight into that order.
    rank_a = np.arange(m) + starts_a
    rank_b = np.arange(n) + starts_b

    def merged(col_a, col_b):
        out = np.empty(m + n, dtype=col_a.dtype)
        out[rank_a] = col_a
        out[rank_b] = col_b
        return out

    counts = np.maximum(merged(stops_a - starts_a, stops_b - starts_b), 0)
    cum = np.cumsum(counts)
    total = int(cum[-1])
    if counter is not None:
        counter[0] += total
    if total == 0:
        return empty
    seg_off = cum - counts
    # Orthogonal swept bounds, permuted into sweep order so a segment
    # reads them near-sequentially.  Both sorted sides share one
    # position space, b's run then a's: an a-pivot's segment starts at
    # `starts_a`, a b-pivot's at `n + starts_b`, and a position >= n
    # says the candidate is an a row (its pivot a b row).
    orth = 1 - dim
    slack = _filter_slack(batch_a, batch_b, orth, t0, t1)
    olb_a, oub_a = batch_sweep_bounds(batch_a, orth, t0, t1)
    olb_b, oub_b = batch_sweep_bounds(batch_b, orth, t0, t1)
    olba, ouba = olb_a[order_a], oub_a[order_a]
    olbb, oubb = olb_b[order_b], oub_b[order_b]
    lb_at = np.concatenate([olbb, olba])
    ub_at = np.concatenate([oubb, ouba])
    row_at = np.concatenate([order_b, order_a])
    piv_row = merged(order_a, order_b)
    piv_lo = merged(olba, olbb) - slack
    piv_hi = merged(ouba, oubb) + slack
    # Sweep candidate g of segment s sits at position `g + shift[s]`.
    shift = merged(starts_a, starts_b + n) - seg_off
    pend: List = []
    pending = 0
    tested = 0
    out: List = []
    n_seg = m + n
    seg = 0
    while seg < n_seg:
        # Largest block of whole segments near the chunk budget (always
        # at least one, so a single oversized segment still flushes).
        base = int(seg_off[seg])
        end = int(np.searchsorted(cum, base + chunk, side="left"))
        end = max(min(end + 1, n_seg), seg + 1)
        block = slice(seg, end)
        seg = end
        t = int(cum[end - 1]) - base
        if t:
            cnt = counts[block]
            pos = np.repeat(shift[block], cnt) + np.arange(base, base + t)
            # Negated so an unordered comparison (NaN) passes to the
            # exact kernel instead of being dropped here.
            reject = lb_at[pos] > np.repeat(piv_hi[block], cnt)
            reject |= ub_at[pos] < np.repeat(piv_lo[block], cnt)
            keep = np.flatnonzero(~reject)
            # Only the survivors are mapped back to row indices; the
            # segment of sweep candidate g is the first whose cumulative
            # count exceeds g.
            pivot = piv_row[np.searchsorted(cum, keep + base, side="right")]
            pos = pos[keep]
            other = row_at[pos]
            from_b = pos >= n
            pend.append(
                (np.where(from_b, other, pivot), np.where(from_b, pivot, other))
            )
            pending += keep.shape[0]
        # Survivors are a few percent of a block, so they queue until
        # they fill a chunk of their own for the exact kernel.
        if pending and (pending >= chunk or seg == n_seg):
            idx_a, idx_b = (np.concatenate(col) for col in zip(*pend))
            lo, hi, ok = _pair_windows(batch_a, idx_a, batch_b, idx_b, t0, t1)
            sel = np.flatnonzero(ok)
            out.append((idx_a[sel], idx_b[sel], lo[sel], hi[sel]))
            tested += pending
            pending = 0
            pend.clear()
    if counter is not None and len(counter) > 1:
        counter[1] += tested
    if not out:
        return empty
    return tuple(np.concatenate(col) for col in zip(*out))


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
