"""The columnar engine's pair test: one compiled plane-sweep join.

The tree engines test their pairs with the paper's scalar primitives —
:func:`~repro.geometry.intersection.intersection_interval` and the
plane sweep of :mod:`repro.geometry.plane_sweep` — one call per pair.
The columnar engine joins whole datasets instead: a
:class:`KineticBatch` holds a dataset's (or a gathered probe's) kinetic
boxes as structure-of-arrays planes, and :func:`batch_sweep_join` joins
two of them in one C function (``sweep.c``, compiled on first import
and called through ``ctypes``).  :func:`radix_argsort` sorts the id
planes of the column store, the result store and the delta ledger.

Exactness contract
------------------
The compiled join is *bit-identical* to the scalar path, not merely
close, and to the NumPy formulation of the same join, which the tests
keep as its oracle: the same IEEE-754 double operations, in the same
order and association, with no contraction (``-ffp-contract=off``, no
fused multiply-add, no ``-ffast-math``, no ``-march``), and NumPy's own
semantics wherever C's differ — the NaN and tie rules of
``np.minimum``/``np.maximum``, the pairwise summation of a reduction,
Python's ``max``/``min`` and float power.  Every argument below is
about those operations, so it holds for either:

* the constraint coefficients are pre-shifted to reference time 0
  (``lo - v_lo * t_ref``), and the scalar ``intersection_interval`` is
  written with the same association, so both paths perform the same
  IEEE-754 operations per constraint;
* sweep bounds evaluate ``mbr + vbr * (t - t_ref)`` elementwise, the
  exact expression :meth:`KineticBox.lo` / :meth:`~KineticBox.hi` use;
* window clamping is a chain of ``min``/``max`` accumulations in the
  scalar's order, a bound moving only where the root is strictly inward
  (the scalar's tie rule), so the clamps agree to the last bit, the
  sign of a zero included.

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
  is given.

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

The scalar implementations (:mod:`repro.geometry.plane_sweep`) are the
tree engines' pair tests and the oracle the tests hold this join to, as
is the NumPy sweep join (``tests/geometry/sweep_oracle.py``).  A tree
node holds 30 entries (Table I), too few for packing a batch per node
pair to pay for itself.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import platform
import sysconfig
import tempfile
from pathlib import Path
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .box import NDIMS
from .constants import PAIR_TEST_EPS as _EPS
from .constants import SWEEP_FILTER_SLACK as _FILTER_SLACK
from .constants import SWEEP_GRID_PAD as _GRID_PAD
from .interval import INF, check_window
from .kinetic import KineticBox

__all__ = [
    "KineticBatch",
    "batch_sweep_join",
    "radix_argsort",
]

#: Flat ``KineticBox.params()`` layout: 4 MBR + 4 VBR bounds + t_ref.
_N_PARAMS = 4 * NDIMS + 1

#: Rows of a plane stack (:func:`stack_planes`): the six ``[axis, row]``
#: planes, one row per axis, then ``t_ref``.
STACK_ROWS = 6 * NDIMS + 1


def stack_planes(stack: "np.ndarray") -> Tuple["np.ndarray", ...]:
    """Views ``(mlo, mhi, vlo, vhi, tref, slo, shi)`` of a plane stack.

    A stack is one ``(STACK_ROWS, stride)`` array holding a batch's
    columns in the order ``sweep.c`` reads them — per axis the MBR lows,
    then the MBR highs, the VBR lows and highs, the shifted lows and
    highs, then ``t_ref`` — so the compiled join finds every column from
    the stack's address and stride alone.
    """
    rows = [stack[k:k + NDIMS] for k in range(0, 6 * NDIMS, NDIMS)]
    mlo, mhi, vlo, vhi, slo, shi = rows
    return mlo, mhi, vlo, vhi, stack[6 * NDIMS], slo, shi


class KineticBatch:
    """Structure-of-arrays view of a plane stack of kinetic boxes.

    The planes are views of one stack (:func:`stack_planes`), indexed
    ``[dim, i]``; ``slo``/``shi`` are the MBR bounds pre-shifted to
    reference time 0 (``mbr - vbr * t_ref``), so a bound at time ``t`` is
    ``slo + vlo * t`` with no per-pair ``t_ref`` arithmetic.  The raw
    ``mlo``/``mhi``/``tref`` planes are kept as well because the swept
    bounds evaluate ``mbr + vbr * (t - t_ref)``, the expression of
    :func:`~repro.geometry.plane_sweep.sweep_bounds`.  The stack is a
    column store's own, a gathered one, or one packed by
    :meth:`from_boxes`.

    >>> from repro.geometry import Box
    >>> batch = KineticBatch.from_boxes(
    ...     [KineticBox.rigid(Box(0, 1, 2, 3), 1.0, -1.0, 0.0)]
    ... )
    >>> len(batch)
    1
    """

    __slots__ = ("n", "mlo", "mhi", "vlo", "vhi", "tref", "slo", "shi", "_abs_bounds", "stack")

    @classmethod
    def from_stack(
        cls,
        stack: "np.ndarray",
        n: Optional[int] = None,
        address: Optional[int] = None,
        abs_bounds=None,
    ) -> "KineticBatch":
        """A batch over the first ``n`` columns (default: all) of a
        C-contiguous plane stack (:func:`stack_planes`), its planes views
        of it.  ``address`` is the stack's, when its owner keeps it.  The
        compiled join reads ``n`` doubles from every row of the stack, at
        its address and row stride, so anything else is refused."""
        batch = cls.__new__(cls)
        batch.n = stack.shape[1] if n is None else n
        if not (
            stack.dtype == np.float64
            and stack.flags.c_contiguous
            and stack.shape[0] == STACK_ROWS
            and batch.n <= stack.shape[1]
        ):
            raise ValueError(
                f"{batch.n} rows over a plane stack {stack.shape} of {stack.dtype}"
                f" (C-contiguous: {stack.flags.c_contiguous})"
            )
        (
            batch.mlo, batch.mhi, batch.vlo, batch.vhi, batch.tref, batch.slo, batch.shi
        ) = stack_planes(stack[:, :batch.n])
        #: ``(stack, address)``: the plane stack whose first ``n`` columns
        #: are this batch's planes, and where it starts when its owner
        #: keeps that (else ``None``, looked up by :meth:`stacked`).
        batch.stack = (stack, address)
        #: ``(|mbr| per axis, |vbr| per axis, |t_ref|)`` upper bounds the
        #: owner of the columns keeps (:class:`~repro.core.columns.
        #: ColumnStore`), or ``None``: :meth:`abs_bounds` then scans.
        batch._abs_bounds = abs_bounds
        return batch

    @classmethod
    def from_boxes(cls, boxes: Sequence[KineticBox]) -> "KineticBatch":
        """Pack a sequence of kinetic boxes into a new plane stack."""
        params = np.array([kb.params() for kb in boxes], dtype=np.float64)
        params = params.reshape(-1, _N_PARAMS)
        stack = np.empty((STACK_ROWS, params.shape[0]))
        mlo, mhi, vlo, vhi, tref, slo, shi = stack_planes(stack)
        # Per box: the MBR's (lo, hi) per axis, the VBR's, then t_ref.
        mlo[...] = params[:, 0:2 * NDIMS:2].T
        mhi[...] = params[:, 1:2 * NDIMS:2].T
        vlo[...] = params[:, 2 * NDIMS:4 * NDIMS:2].T
        vhi[...] = params[:, 2 * NDIMS + 1:4 * NDIMS:2].T
        tref[...] = params[:, 4 * NDIMS]
        np.subtract(mlo, vlo * tref, out=slo)
        np.subtract(mhi, vhi * tref, out=shi)
        return cls.from_stack(stack)

    def __len__(self) -> int:
        return self.n

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

    def stacked(self) -> Tuple["np.ndarray", int]:
        """``(stack, address)``: the plane stack this batch is a view of."""
        stack, address = self.stack
        return stack, stack.ctypes.data if address is None else address

    def __repr__(self) -> str:
        return f"KineticBatch(n={self.n})"


# The grid constants below were tuned on the sweep join's NumPy
# formulation (now the tests' oracle); the compiled join keeps them, so
# it enumerates the same candidates.

#: Most cells the sweep join's grid takes per axis: 181**2 = 32 761 cells
#: plus the overflow cell, whose run table the call allocates.
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
#: a grid and 256 x 256 is 2 ms slower.
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


def _load_sweep():
    """Build ``sweep.c`` once per source and flags; bind its entry and layout.

    The object lives in this package's ``__pycache__``, named by a hash
    of the source bytes, the compiler and its flags, the interpreter's
    extension tag and the machine, so an object built from other source
    or for another platform is never loaded.  It is compiled under a
    temporary name and renamed into place: concurrent first imports each
    build, and one object remains.  A failed build, or an object that
    does not load, raises ``ImportError``.
    """
    source = _SWEEP_SOURCE.read_bytes()
    tags = (*_SWEEP_BUILD, sysconfig.get_config_var("EXT_SUFFIX") or "", platform.machine())
    key = hashlib.sha256(b"\0".join([source, *(tag.encode() for tag in tags)]))
    lib = _SWEEP_SOURCE.parent / "__pycache__" / f"sweep-{key.hexdigest()[:16]}.so"
    if not lib.exists():
        try:
            lib.parent.mkdir(exist_ok=True)
            fd, tmp = tempfile.mkstemp(prefix=lib.stem + ".", suffix=".tmp", dir=lib.parent)
        except OSError as exc:
            raise ImportError(f"cannot build {_SWEEP_SOURCE.name} into {lib.parent}: {exc}") from exc
        os.close(fd)
        # Only a build needs it: every worker process imports this module.
        import subprocess

        try:
            try:
                build = subprocess.run(
                    [*_SWEEP_BUILD, "-o", tmp, str(_SWEEP_SOURCE), "-lm"],
                    capture_output=True,
                    text=True,
                )
            except OSError as exc:
                raise ImportError(
                    f"building {_SWEEP_SOURCE.name} needs the C compiler "
                    f"{_SWEEP_BUILD[0]!r}: {exc}"
                ) from exc
            if build.returncode != 0:
                raise ImportError(
                    f"{_SWEEP_BUILD[0]!r} failed to build {_SWEEP_SOURCE.name}:\n{build.stderr}"
                )
            os.replace(tmp, lib)
        finally:
            if os.path.exists(tmp):
                os.unlink(tmp)
    try:
        compiled = ctypes.CDLL(str(lib))
    except OSError as exc:
        raise ImportError(f"cannot load {lib}: {exc}") from exc
    entry = compiled.sweep_join
    entry.restype = ctypes.c_int64
    entry.argtypes = [ctypes.c_void_p] * 7 + [ctypes.c_int64]
    compiled.sweep_layout.restype = None
    compiled.sweep_layout.argtypes = [ctypes.c_void_p]
    layout = (ctypes.c_int64 * 8)()
    compiled.sweep_layout(layout)
    return entry, tuple(layout)


#: The compiler and its fixed flags: IEEE doubles as written, no fused
#: multiply-add, no fast-math reassociation, no host-specific code.
_SWEEP_BUILD = ("cc", "-O2", "-fPIC", "-shared", "-ffp-contract=off")
_SWEEP_SOURCE = Path(__file__).with_name("sweep.c")
_sweep_join, _layout = _load_sweep()
#: ``sweep_join``'s state slots read here, the int64 and double slots its
#: buffers take besides the binned rows', the fewest output slots it
#: works with and the doubles a binned row takes (``sweep_layout`` in
#: ``sweep.c``).
_PHASE, _ENUMERATED, _TESTED, _DONE, _INT_FIXED, _FLOAT_FIXED, _ROOM, _ROW_DOUBLES = _layout


def batch_sweep_join(
    batch_a: KineticBatch,
    batch_b: KineticBatch,
    t0: float,
    t1: float,
    dim: int,
    counter: Optional[List[int]] = None,
    ends: Tuple[Optional["np.ndarray"], Optional["np.ndarray"]] = (None, None),
) -> Tuple["np.ndarray", "np.ndarray", "np.ndarray", "np.ndarray"]:
    """Arrays-out plane-sweep join: the whole-dataset probe primitive.

    Returns ``(idx_a, idx_b, lo, hi)`` arrays of the intersecting pairs
    — ``batch_a[idx_a[k]]`` intersects ``batch_b[idx_b[k]]`` exactly
    during ``[lo[k], hi[k]]``: rows and windows are those of the scalar
    reference :func:`~repro.geometry.plane_sweep.ps_intersection` on
    ``dim`` (0 or 1: the caller picks the sweep axis), bit for bit.  The
    rows come in the grid's deterministic enumeration order (visiting
    row by visiting row), not the sweep's: the result store sorts them.

    ``ends = (ends_a, ends_b)`` gives either side one finite window end
    per row (MTB: a row's bucket end plus ``T_M``).  Pair ``(i, j)`` is
    then joined over ``[t0, min(t1, ends_a[i], ends_b[j])]``, and the
    rows returned — indices and windows, bit for bit — are the union of
    the rows the call returns for each group of equal-end rows of ``a``
    against each such group of ``b`` with that minimum as its ``t1``:
    every stage-one filter works on a row's swept box over its *own*
    window, which contains the pair's, and the survivors meet the sweep
    rule and the exact kernel on the pair's window.

    The join runs in C (``sweep.c``, built on first import).  Stage one
    is a uniform grid over the 2-D swept boxes, built for this call and
    dropped with it.  The larger side is binned once, one cell per row,
    by the lower corner of its slack-padded swept box; each row of the
    smaller side visits the cells from ``lo - W`` to ``hi`` per axis
    (``W``: the widest binned box, padded), one contiguous run of the
    binned order per cell column.  Binned rows that are oversize or
    non-finite (``t1 = inf``) sit in an overflow cell every row visits, a
    non-finite visiting row takes the whole binned side, and a batch of
    at most ``SWEEP_GRID_MIN_PAIRS`` pairs gets a single cell: all
    pairs, nothing sorted.  ``counter[0]`` counts the candidates so
    enumerated — the same number whichever ``dim`` sweeps.

    The binned side is built the same way for every call shape (a
    scalar ``t1``, finite or not, per-row ends, oversize or non-finite
    rows): one pass over its columns writes each row's swept bounds to
    four planes and folds the extremes of its padded box; the mean
    widths are NumPy's pairwise sums over those planes; one pass puts
    each row's cell id (int32) in a plane of its own and counts the
    cells; one pass packs each row, as a 32-byte record, into its cell's
    run and its index into a plane beside them.  A side comes as a plane
    stack (:func:`stack_planes`) — a column store's own, with the address
    the store keeps, a gathered one or a packed one — so the call hands
    ``sweep.c`` two addresses and builds no pointer table.

    Each candidate then runs the scalar sweep's own predicate chain: the
    slack-padded reject on the axis orthogonal to ``dim``, the
    zero-tolerance swept-range test on ``dim`` (exactly the scalar
    sweep's candidate rule, side a pivoting first on ties), and for the
    survivors — ``counter[1]`` counts them — the exact pair window.
    Workspaces and outputs are arrays allocated for the call: O(rows)
    of workspace, never O(candidates) — per binned row 32 bytes of bound
    planes, a 32-byte packed row, and with a grid 8 bytes of cell id and
    index and at most 2 of cell table, then the first output's 32 (106
    in all); an output that fills up is continued in a larger one from
    where the enumeration stopped.
    """
    check_window(t0, t1)
    end_a = _row_ends(ends[0], batch_a.n, t0, t1)
    end_b = _row_ends(ends[1], batch_b.n, t0, t1)
    if batch_a.n == 0 or batch_b.n == 0:
        return _EMPTY_JOIN
    if dim not in (0, 1):
        raise ValueError(f"the sweep axis is 0 or 1, not {dim!r}")
    # The latest finite instant a swept bound is evaluated at, if any.
    far = t1
    if ends[0] is not None or ends[1] is not None:
        far = max(
            float(end.max()) if isinstance(end, np.ndarray) else end
            for end in (end_a, end_b)
            if isinstance(end, np.ndarray) or end < INF
        )
    # Each side's columns as one plane stack: the store's own, kept with
    # its address, for the engines' calls.
    stack_a, stack_b = batch_a.stacked(), batch_b.stacked()
    n_p = max(batch_a.n, batch_b.n)
    gridded = batch_a.n * batch_b.n > SWEEP_GRID_MIN_PAIRS
    # A grid never has more cells than half its binned rows plus one.
    max_cells = min(SWEEP_GRID_MAX_AXIS ** 2, n_p // 2 + 1) if gridded else 0
    # One buffer for the call (see ``sweep.c``): parameters, state and
    # workspace as int64 (with a grid, its cell table, then a cell id
    # and an index per binned row, all int32), the same as doubles (the
    # binned side's bound planes and its packed rows), then a first
    # output of a slot per binned row, at least ``_ROOM``.  Should the
    # hits outgrow it, each further output gets a buffer of its own.
    n_int = _INT_FIXED + ((max_cells + 3 + 2 * n_p + 1) // 2 if gridded else 0)
    n_float = _FLOAT_FIXED + _ROW_DOUBLES * n_p
    cap = max(n_p, _ROOM)
    buffer = np.empty(n_int + n_float + 4 * cap)
    ints, floats = buffer[:n_int].view(np.int64), buffer[n_int:n_int + n_float]
    ints[:8] = (
        batch_a.n, batch_b.n, stack_a[0].shape[1], stack_b[0].shape[1], dim, gridded,
        max_cells, 0,
    )
    floats[:11] = (
        t0, t1, 0.0, 0.0, 0.0, 0.0, _EPS, SWEEP_GRID_CELLS_PER_SPAN,
        SWEEP_GRID_ROWS_PER_CELL, SWEEP_GRID_OVERSIZE, SWEEP_GRID_MAX_AXIS,
    )
    # Slack-padded binned boxes: the orthogonal axis's for the reject,
    # both axes' for the grid.
    for axis in range(NDIMS) if gridded else (1 - dim,):
        mag = _axis_magnitude(batch_a, batch_b, axis, t0, far)
        floats[2 + axis] = _FILTER_SLACK * mag
        floats[4 + axis] = _GRID_PAD * mag
    base = buffer.ctypes.data
    args = (
        stack_a[1],
        stack_b[1],
        None if ends[0] is None else end_a.ctypes.data,
        None if ends[1] is None else end_b.ctypes.data,
        base,
        base + 8 * n_int,
    )
    chunks: List = []
    out, at = buffer, n_int + n_float
    address = base + 8 * at
    while True:
        # `cap` slots each of idx_a, idx_b, lo and hi.
        got = _sweep_join(*args, address, cap)
        if got < 0:
            raise RuntimeError("the sweep join's grid outgrew its cell table")
        planes = out[at:at + 4 * cap]
        chunks.append((
            planes[:got].view(np.int64),
            planes[cap:cap + got].view(np.int64),
            planes[2 * cap:2 * cap + got],
            planes[3 * cap:3 * cap + got],
        ))
        if ints[_PHASE] == _DONE:
            break
        cap *= 2
        out, at = np.empty(4 * cap), 0
        address = out.ctypes.data
    if counter is not None:
        counter[0] += int(ints[_ENUMERATED])
        if len(counter) > 1:
            counter[1] += int(ints[_TESTED])
    # Exact-size copies: the buffers' unused tails are not kept alive.
    return tuple(np.concatenate(col) for col in zip(*chunks))


def _radix_digits(idx, limit: int) -> List["np.ndarray"]:
    """``idx < limit`` as base-65 536 digits, least significant first.

    ``lexsort`` keys: it radix-sorts a 16-bit key where it merge-sorts a
    wider one.
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
