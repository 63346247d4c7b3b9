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
  the window start is rejected by both paths).  On either axis that
  reads ``a.lo(t*) <= b.hi(t*) + eps'`` and ``b.lo(t*) <= a.hi(t*) +
  eps'``; bounds are linear in ``t``, so the swept ``lb = min(lo(t0),
  lo(t1))`` and ``ub = max(hi(t0), hi(t1))`` bracket them and ``lb_a <=
  ub_b + eps''``, ``lb_b <= ub_a + eps''`` — where ``eps''`` adds the
  rounding between ``mbr + vbr * (t - t_ref)`` and ``(mbr - vbr * t_ref)
  + vbr * t``.  Every such rounding is a few ``2**-53`` of the largest
  intermediate, ``|mbr| + |vbr| * (|t_ref| + |t|)``, and the reject
  fires only beyond ``SWEEP_FILTER_SLACK`` (``1e-9``) times that
  magnitude (at least 1), which dominates ``PAIR_TEST_EPS`` plus all of
  them by six orders.  With ``t1 = inf`` an outward bound is ``±inf``
  and passes.  The *sweep* axis keeps zero tolerance: there a candidate
  must pass the scalar sweep's own rule (the box with the lower ``lb``
  pivots, side a on ties, and takes partners with ``lb <= ub_pivot``).

* the sweep join's grid (stage one) only skips pairs whose slack-padded
  swept boxes are apart on some axis — pairs the exact test rejects, by
  the argument above (it holds on either axis) — so it changes how many
  candidates are *enumerated*, never which rows are *returned*.  One
  side's boxes, padded by the slack on both axes to ``[lo, hi]``, are
  binned by the cell of ``lo``; a row of the other side with swept
  range ``[lb, ub]`` visits, per axis, the cells from ``cell(lb - W)``
  to ``cell(ub)``.  Take a pair with ``lo <= ub`` and ``lb <= hi`` on
  both axes, as computed floats.  The cell index — ``floor(clip((x -
  origin) * inv))``, every step monotone non-decreasing under IEEE
  rounding — is monotone in the coordinate, so ``lo <= ub`` puts the
  binned cell at or below ``cell(ub)``; and ``lo = hi - (hi - lo) >= lb
  - W`` puts it at or above ``cell(lb - W)`` provided ``W`` is at least
  every binned ``hi - lo`` *as a real number* and ``lb - W`` does not
  round upward past ``lo``.  ``W`` is the largest computed ``hi - lo``
  plus ``SWEEP_GRID_PAD`` (``1e-12``) times the axis magnitude above:
  the computed width and the computed ``lb - W`` are each off by at
  most ``2**-53`` of an operand no larger than twice that magnitude,
  four orders below the pad.  Rows the grid cannot place — non-finite
  boxes (``t1 = inf``), boxes wider than a few mean widths — go to an
  overflow cell that every row visits, and a non-finite visiting row
  scans the whole binned side, so nothing is lost there either.  For
  proper boxes (``lb <= ub``) the zero-tolerance sweep test and the
  orthogonal reject each imply those two inequalities on their axis, so
  the pairs that reach the exact kernel are also exactly those an
  exhaustive enumeration would send, and the rows returned are the
  scalar sweep's.  Their order is the grid's enumeration order, which
  is deterministic but no scalar call's: the result store sorts what it
  is given, so only :func:`batch_ps_intersection` — the tree engines'
  call, which promises ``ps_intersection``'s order — sorts its hits by
  the scalar sweep's total order (pivot ``lb``, side a first, pivot
  row, partner ``lb``, partner row — its two stable sorts and its
  merge), which no two pairs share.

* the magnitude both tolerances scale with enters the two arguments
  above only as an upper bound on the intermediates: a larger one
  widens the slack and the pad, so fewer pairs are rejected and none of
  the accepted ones.  A batch may therefore carry bounds its owner
  keeps as it writes the columns (:meth:`KineticBatch.abs_bounds`) in
  place of the maxima of the rows it holds now.

* per-row window ends (``ends`` of :func:`batch_sweep_join`: pair
  ``(i, j)`` is joined over ``[t0, min(end_a[i], end_b[j])]``) return,
  bit for bit, the rows of one call per pair of equal-end groups with
  that minimum as its scalar ``t1``.  Every operation on a window end
  — the swept bounds' ``t1 - t_ref``, the pair window's initial ``hi``
  and its ``min`` clamps — is elementwise, so an array of ends computes
  per element what the scalar computes for all.  Stage one (grid and
  orthogonal reject) sees each row's swept box over ``[t0, its own
  end]``; the accepted pair's ``t*`` lies in ``[t0, min(...)]``, inside
  both rows' own windows, so the argument above holds unchanged, and a
  swept range only grows with its window (``mbr + vbr * dt`` is
  monotone in ``dt`` under IEEE rounding), so the zero-tolerance rule
  on own-window ranges admits every pair it admits on the pair's
  window.  Pairs whose two ends differ then meet the rule once more on
  ranges re-evaluated over the pair's window — the same elementwise
  expression on gathered rows — which is the test the group call
  applies.

The scalar implementations (:mod:`repro.geometry.plane_sweep`) stay in
place as the oracle the tests call directly; these kernels are the only
production path.  The one place a scalar loop still runs in production
is a tree search visiting a node under :data:`PROBE_BATCH_MIN` entries,
chosen by input size alone.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from .box import NDIMS
from .constants import PAIR_TEST_EPS as _EPS
from .constants import SWEEP_FILTER_SLACK as _FILTER_SLACK
from .constants import SWEEP_GRID_PAD as _GRID_PAD
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
    "radix_argsort",
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

    __slots__ = (
        "n", "mlo", "mhi", "vlo", "vhi", "tref", "slo", "shi", "_speed_sums", "_abs_bounds",
    )

    def __init__(self, mlo, mhi, vlo, vhi, tref, slo=None, shi=None, abs_bounds=None):
        self.n = int(tref.shape[0])
        self.mlo = mlo
        self.mhi = mhi
        self.vlo = vlo
        self.vhi = vhi
        self.tref = tref
        self.slo = mlo - vlo * tref if slo is None else slo
        self.shi = mhi - vhi * tref if shi is None else shi
        self._speed_sums = None
        #: ``(|mbr| per axis, |vbr| per axis, |t_ref|)`` upper bounds the
        #: owner of the columns keeps (:class:`~repro.core.columns.
        #: ColumnStore`), or ``None``: :meth:`abs_bounds` then scans.
        self._abs_bounds = abs_bounds

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

    def abs_bounds(self, axis: int) -> Tuple[float, float, float]:
        """Upper bounds of ``|mbr|`` and ``|vbr|`` on ``axis`` and of ``|t_ref|``.

        The bounds carried from the column store when there are any (no
        pass over the rows; they may exceed the live maxima), else the
        maxima themselves.
        """
        if self._abs_bounds is not None:
            pos, vel, tref = self._abs_bounds
            return float(pos[axis]), float(vel[axis]), tref
        return (
            max(_abs_max(self.mlo[axis]), _abs_max(self.mhi[axis])),
            max(_abs_max(self.vlo[axis]), _abs_max(self.vhi[axis])),
            _abs_max(self.tref),
        )

    def compress(self, mask: "np.ndarray") -> "KineticBatch":
        """Sub-batch of the rows where ``mask`` (boolean or index) selects."""
        return KineticBatch(
            self.mlo[:, mask],
            self.mhi[:, mask],
            self.vlo[:, mask],
            self.vhi[:, mask],
            self.tref[mask],
            self.slo[:, mask],
            self.shi[:, mask],
            self._abs_bounds,
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

    ``ia``/``jb`` may be ints, index arrays, slices, or ``None`` (for a
    broadcast axis); the result shape is their broadcast.  ``t1`` is one
    window end, or an array of that shape with one end per pair — the
    clamps are elementwise, so a pair's window is the one a call with
    its own end as the scalar computes.  Returns ``(lo, hi, valid)``.
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

    The batch plays the "A" role and matches the scalar byte-for-byte.
    Swapping roles only permutes the constraints within a dimension, and
    a min/max is order-independent in value, so callers may probe with
    either orientation and get equal windows (a ``±0.0`` tie may then
    keep the other sign, which no comparison can tell apart).
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
    # The scalar's sequential clamps, in its order and with its tie rule
    # (see _clamp_constraint), so a signed zero comes back byte-equal.
    caps = np.where(pos, root, INF)
    floors = np.where(neg, root, -INF)
    hi = np.full(batch.n, float(t1))
    lo = np.full(batch.n, float(t0))
    for k in range(2 * NDIMS):
        np.copyto(hi, caps[k], where=caps[k] < hi)
        np.copyto(lo, floors[k], where=floors[k] > lo)
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

    This is ImprovedJoin's IC entry filter as one kernel call:
    ``mask[i]`` is true iff ``intersection_interval(batch[i], other, t0,
    t1)`` is not ``None``.
    """
    _lo, _hi, ok = batch_probe_windows(batch, other, t0, t1)
    return ok


# ----------------------------------------------------------------------
# Plane-sweep kernels
# ----------------------------------------------------------------------
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


def batch_select_sweep_dimension(batch_a: KineticBatch, batch_b: KineticBatch) -> int:
    """Dimension-selection (§IV-D.2) from the cached per-batch speed sums.

    The scalar heuristic re-sums every entry's ``speed_sum`` per node
    pair; here the totals are computed once per batch and reused, so
    selection is O(NDIMS) after the first call.
    """
    totals = batch_a.speed_sums + batch_b.speed_sums
    return int(np.argmin(totals))


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

#: Most cells the sweep join's grid takes per axis: 181**2 = 32 761 cells
#: plus the overflow cell number within ``int16``, and NumPy's stable
#: ``argsort`` of a 16-bit key is a radix sort — 0.14 ms for 20 000 rows
#: against 1.7 ms for the float ``argsort`` of the 1-D sweep it replaced.
SWEEP_GRID_MAX_AXIS = 181

#: Cells per *span* of extent on each axis, a span being what a visiting
#: row scans beyond its own box: mean binned width + widest binned width
#: ``W``.  Finer cells cut the candidates (a row scans ``(width + W +
#: cell)**2`` of area) but add cell-column segments (``(width + W) /
#: cell + 1`` per row).  Candidates per 20k-per-side tick call (m ~ 340):
#: 26.3k / 21.4k / 16.9k / 15.4k at 1.5 / 2 / 3 / 4 — past 3 each step
#: saves under a tenth while the segments keep growing — and the call
#: itself is flat within this host's noise from 2 to 6 (2.2-2.5 ms).
SWEEP_GRID_CELLS_PER_SPAN = 3.0

#: Fewest binned rows per cell on average: below it the cell table costs
#: more than the candidates it saves.  Same call: 16.9k candidates at 1
#: and 2 (the span rule binds), 18.3k at 4, 22.8k at 8; 2.1-2.3 ms.
SWEEP_GRID_ROWS_PER_CELL = 2.0

#: Largest ``m * n`` joined as one cell — all pairs, nothing binned or
#: sorted.  Building and walking a grid costs ~0.1 ms whatever the
#: input; testing a pair's swept ranges ~20 ns.  128 x 128 measures level
#: either way on the benchmark inputs, 64 x 64 is 0.1 ms faster without
#: a grid and 256 x 256 is 2 ms slower, so every node-scale batch of the
#: tree engines (<= ~50 entries a side) takes this path.
SWEEP_GRID_MIN_PAIRS = 16_384

#: A binned row wider than this multiple of the mean binned width on
#: either axis leaves the grid for the overflow cell, which every row
#: visits, so one outlier cannot stretch every row's reach ``W``.
#: Uniform speeds put the widest swept box at ~3x the mean: nothing
#: overflows on the benchmark workloads.
SWEEP_GRID_OVERSIZE = 4.0

_EMPTY_JOIN = (
    np.empty(0, dtype=np.int64),
    np.empty(0, dtype=np.int64),
    np.empty(0),
    np.empty(0),
)


def _abs_max(arr) -> float:
    return max(-float(arr.min()), float(arr.max()))


def _axis_magnitude(
    batch_a: KineticBatch, batch_b: KineticBatch, axis: int, t0: float, t1: float
) -> float:
    """Largest magnitude (at least 1) the bound arithmetic reaches on ``axis``.

    ``|mbr| + |vbr| * (|t_ref| + |t|)`` dominates ``mbr``, ``vbr *
    t_ref``, the shifted ``slo``/``shi``, ``vbr * (t - t_ref)`` and the
    swept bounds themselves, so every rounding error involved is at most
    a few ``2**-53`` of it.  The orthogonal reject's slack and the grid's
    reach pad are both relative to it; an overflowing magnitude makes
    them infinite, which rejects nothing and bins nothing.  Both uses
    need it only as an upper bound — a larger one widens the slack and
    the pad, which rejects less — so the per-batch terms come from
    :meth:`KineticBatch.abs_bounds`: the column store's running bounds
    when the batch carries them, one pass over its columns otherwise.
    """
    horizon = max(abs(t0), abs(t1) if t1 < INF else 0.0)
    mag = 1.0
    for batch in (batch_a, batch_b):
        pos, vel, tref = batch.abs_bounds(axis)
        mag = max(mag, pos + vel * (tref + horizon))
    return mag


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
            max(SWEEP_GRID_CELLS_PER_SPAN * extent[axis] / span[axis], 1.0),
            float(SWEEP_GRID_MAX_AXIS),
        )
        for axis in range(NDIMS)
    ]
    budget = max(rows / SWEEP_GRID_ROWS_PER_CELL, 1.0)
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
                    regular &= width[axis] <= SWEEP_GRID_OVERSIZE * max(means[axis], 0.0)
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
            and w_max <= SWEEP_GRID_OVERSIZE * max(w_mean, 0.0)
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
                seg_row = np.concatenate([seg_row, rows])
                start = np.concatenate([start, extra[rows]])
                stop = np.concatenate([stop, np.full(rows.shape[0], n)])
            cnt = stop - start
            total = int(cnt.sum())
            if total:
                pos = np.repeat(start - (np.cumsum(cnt) - cnt), cnt)
                pos += np.arange(total)
                yield pos, np.repeat(seg_row, cnt)


def _row_ends(ends: Optional["np.ndarray"], rows: int, t0: float, t1: float):
    """One side's window ends: ``t1``, or its per-row ends capped at ``t1``."""
    if ends is None:
        return t1
    ends = np.asarray(ends, dtype=np.float64)
    if ends.shape != (rows,):
        raise ValueError(f"expected one window end per row, {rows} of them")
    if not np.isfinite(ends).all() or (ends < t0).any():
        raise ValueError("per-row window ends must be finite and >= t_start")
    return np.minimum(ends, t1)


def _sweep_partners(lb_p, ub_p, lb_q, ub_q, q_is_a: bool):
    """The scalar sweep's candidate rule on paired swept ranges.

    Whichever row has the lower ``lb`` pivots (side a on ties) and takes
    the partners whose ``lb`` its ``ub`` reaches.
    """
    q_pivots = lb_q <= lb_p if q_is_a else lb_q < lb_p
    return np.where(q_pivots, lb_p <= ub_q, lb_q <= ub_p)


def batch_sweep_join(
    batch_a: KineticBatch,
    batch_b: KineticBatch,
    t0: float,
    t1: float,
    dim: Optional[int] = None,
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
    enumeration order, not the sweep's: every store-side consumer sorts
    them, and :func:`batch_ps_intersection` sorts them into sweep order
    for the callers that need it.

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
    if dim is None:
        dim = batch_select_sweep_dimension(batch_a, batch_b)
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
    gridded = batch_q.n * batch_p.n > SWEEP_GRID_MIN_PAIRS
    lo_p, hi_p, pad = [None] * NDIMS, [None] * NDIMS, [0.0] * NDIMS
    for axis in range(NDIMS) if gridded else (orth,):
        mag = _axis_magnitude(batch_a, batch_b, axis, t0, far)
        lo_p[axis] = lb_p[axis] - _FILTER_SLACK * mag
        hi_p[axis] = ub_p[axis] + _FILTER_SLACK * mag
        pad[axis] = _GRID_PAD * mag
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


def _sweep_order(lb_a, lb_b, idx_a, idx_b) -> "np.ndarray":
    """The permutation putting join hits into the scalar sweep's order.

    Pivots by (``lb``, side a first, row), each pivot's partners by
    (``lb``, row) — the scalar sweep's two stable sorts and its merge.
    ``lb_a`` / ``lb_b`` are the sides' swept lower bounds on the sweep
    axis; no two hits share the key, so the order is total.
    """
    key_a, key_b = lb_a[idx_a], lb_b[idx_b]
    a_pivots = key_a <= key_b
    rows = max(lb_a.shape[0], lb_b.shape[0])
    return np.lexsort((
        *_radix_digits(np.where(a_pivots, idx_b, idx_a), rows),
        np.where(a_pivots, key_b, key_a),
        *_radix_digits(np.where(a_pivots, idx_a, idx_b), rows),
        ~a_pivots,
        np.where(a_pivots, key_a, key_b),
    ))


def _radix_digits(idx, limit: int) -> List["np.ndarray"]:
    """``idx < limit`` as base-65 536 digits, least significant first.

    ``lexsort`` keys: it radix-sorts a 16-bit key where it merge-sorts a
    wider one, which takes a third off ordering the 260k hits of a
    100k-per-side join (137 -> 89 ms).
    """
    digits = [(idx & 0xFFFF).astype(np.uint16)]
    top = (limit - 1) >> 16
    while top:
        idx = idx >> 16
        digits.append((idx & 0xFFFF).astype(np.uint16))
        top >>= 16
    return digits


def radix_argsort(plane: "np.ndarray") -> "np.ndarray":
    """``np.argsort(plane, kind="stable")`` of an ``int64`` plane, by radix.

    Sorts the offsets from the plane's minimum as 16-bit digits
    (:func:`_radix_digits`; ``lexsort`` is stable), so one pass serves
    oids spanning under 65 536 and four serve any plane: the offsets are
    taken modulo ``2**64``, where negative values and a span past
    ``2**63`` are at home.  Same permutation as the merge sort, bit for
    bit: 2.5 -> 0.25 ms at 30k rows, 29 -> 5 ms at 260k.
    """
    if plane.shape[0] == 0:
        return np.empty(0, dtype=np.intp)
    low, high = int(plane.min()), int(plane.max())
    offset = plane.view(np.uint64) - np.uint64(low % 2**64)
    return np.lexsort(_radix_digits(offset, high - low + 1))


def _scalar_sweep_tests(lb_a, ub_a, lb_b, ub_b) -> int:
    """How many pairs the scalar sweep tests, from the sweep bounds alone.

    Whichever box has the lower ``lb`` pivots (side a on ties) and tests
    the opposing boxes whose ``lb`` lies between its own ``lb`` and
    ``ub``; in ``lb`` order those are one contiguous range per pivot.
    """
    sorted_a, sorted_b = np.sort(lb_a), np.sort(lb_b)
    by_a = np.searchsorted(sorted_b, ub_a, side="right")
    by_a -= np.searchsorted(sorted_b, lb_a, side="left")
    by_b = np.searchsorted(sorted_a, ub_b, side="right")
    by_b -= np.searchsorted(sorted_a, lb_b, side="right")
    # An inverted swept box (ub < lb) pivots over an empty range.
    return int(np.maximum(by_a, 0).sum() + np.maximum(by_b, 0).sum())


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
    — ``(i, j, interval)`` triples in sweep order, and ``counter[0]``
    grows by the pairs the *scalar* sweep tests on ``dim`` (the tree
    engines report it as ``pair_tests``), counted here from the sweep
    bounds because :func:`batch_sweep_join`, which does the work and
    keeps the result in arrays, enumerates a different candidate set.
    A thin wrapper over it that sorts its hits into the scalar sweep's
    order (:func:`_sweep_order`) and builds the triples.
    """
    if t1 < t0:
        raise ValueError("t_end must be >= t_start")
    if batch_a.n == 0 or batch_b.n == 0:
        return []
    if dim is None:
        dim = batch_select_sweep_dimension(batch_a, batch_b)
    lb_a, ub_a = batch_sweep_bounds(batch_a, dim, t0, t1)
    lb_b, ub_b = batch_sweep_bounds(batch_b, dim, t0, t1)
    if counter is not None:
        counter[0] += _scalar_sweep_tests(lb_a, ub_a, lb_b, ub_b)
    planes = batch_sweep_join(batch_a, batch_b, t0, t1, dim=dim)
    order = _sweep_order(lb_a, lb_b, planes[0], planes[1])
    idx_a, idx_b, lo, hi = (plane[order].tolist() for plane in planes)
    return [
        (i, j, TimeInterval(s, e)) for i, j, s, e in zip(idx_a, idx_b, lo, hi)
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
