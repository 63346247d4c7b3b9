"""Plane sweep over *moving* rectangles (paper §IV-D.1, ``PSIntersection``).

The classic plane-sweep join of Brinkhoff et al. orders two sets of
static rectangles by their lower bound in one dimension and scans them in
that order, so each rectangle is only tested against the rectangles whose
x-ranges can overlap it.  Moving rectangles break the static lower/upper
bounds — but under *time-constrained* processing the motion is confined
to a window ``[t0, t1]``, so valid sweep bounds exist:

    lb(O) = min(O.lo(t0), O.lo(t1))        (lowest the lower bound gets)
    ub(O) = max(O.hi(t0), O.hi(t1))        (highest the upper bound gets)

Two objects with ``ub(O1) < lb(O2)`` can never overlap in the sweep
dimension during the window, which is exactly the pruning property the
sweep requires.  Note that an unconstrained window (``t1 = inf``) makes
``ub`` infinite and the sweep degenerates to all-pairs — this is why the
paper emphasises that TC processing *enables* plane sweep.
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence, Tuple

from .box import NDIMS
from .intersection import intersection_interval
from .interval import INF, TimeInterval, check_window
from .kinetic import KineticBox

__all__ = [
    "sweep_bounds",
    "select_sweep_dimension",
    "ps_intersection",
    "all_pairs_intersection",
]


def sweep_bounds(kb: KineticBox, dim: int, t0: float, t1: float) -> Tuple[float, float]:
    """The ``(lb, ub)`` sweep bounds of ``kb`` along ``dim`` over ``[t0, t1]``.

    With ``t1 = inf`` the bounds degenerate to ``(-inf, inf)`` whenever
    the corresponding velocity points outward, reflecting that an
    unconstrained sweep cannot prune.
    """
    if t1 == INF:
        lb = kb.lo(dim, t0) if kb.vbr.lo(dim) >= 0 else -INF
        ub = kb.hi(dim, t0) if kb.vbr.hi(dim) <= 0 else INF
        return lb, ub
    return (
        min(kb.lo(dim, t0), kb.lo(dim, t1)),
        max(kb.hi(dim, t0), kb.hi(dim, t1)),
    )


def select_sweep_dimension(
    boxes_a: Sequence[KineticBox], boxes_b: Sequence[KineticBox]
) -> int:
    """Pick the sweep dimension per the paper's *dimension selection*.

    The dimension with the smallest sum of absolute bound speeds is
    chosen (§IV-D.2): slower movement means tighter sweep bounds and
    fewer candidate pairs to test.
    """
    totals = [0.0] * NDIMS
    for boxes in (boxes_a, boxes_b):
        for kb in boxes:
            for dim in range(NDIMS):
                totals[dim] += kb.speed_sum(dim)
    best_dim = 0
    best_sum = math.inf
    for dim in range(NDIMS):
        if totals[dim] < best_sum:
            best_sum = totals[dim]
            best_dim = dim
    return best_dim


def ps_intersection(
    boxes_a: Sequence[KineticBox],
    boxes_b: Sequence[KineticBox],
    t0: float,
    t1: float,
    dim: Optional[int] = None,
    counter: Optional[List[int]] = None,
) -> List[Tuple[int, int, TimeInterval]]:
    """All intersecting pairs between two sets of moving rectangles.

    Returns ``(i, j, interval)`` triples where ``boxes_a[i]`` overlaps
    ``boxes_b[j]`` during ``interval ⊆ [t0, t1]``.  ``dim`` forces a
    sweep dimension (``None`` applies dimension selection).  When
    ``counter`` is given, ``counter[0]`` is incremented once per 1-D
    sweep candidate, each of which is tested exactly.

    The tree engines' plane sweep (ImprovedJoin's PS), and the
    reference the columnar engine's compiled
    :func:`~repro.geometry.kernels.batch_sweep_join` is held to.

    The sweep runs both sorted sequences in ``lb`` order; for the item
    with the globally smallest ``lb`` it scans the other sequence while
    sweep ranges overlap, delegating the exact (two-dimensional, timed)
    test to :func:`intersection_interval`.
    """
    check_window(t0, t1)
    if dim is None:
        dim = select_sweep_dimension(boxes_a, boxes_b)
    seq_a = sorted(
        ((sweep_bounds(kb, dim, t0, t1), i, kb) for i, kb in enumerate(boxes_a)),
        key=lambda item: item[0][0],
    )
    seq_b = sorted(
        ((sweep_bounds(kb, dim, t0, t1), j, kb) for j, kb in enumerate(boxes_b)),
        key=lambda item: item[0][0],
    )
    results: List[Tuple[int, int, TimeInterval]] = []
    ia = ib = 0
    while ia < len(seq_a) and ib < len(seq_b):
        (lb_a, ub_a), idx_a, kb_a = seq_a[ia]
        (lb_b, ub_b), idx_b, kb_b = seq_b[ib]
        if lb_a <= lb_b:
            # kb_a is the next pivot: scan B while its lb can reach ub_a.
            k = ib
            while k < len(seq_b) and seq_b[k][0][0] <= ub_a:
                if counter is not None:
                    counter[0] += 1
                interval = intersection_interval(kb_a, seq_b[k][2], t0, t1)
                if interval is not None:
                    results.append((idx_a, seq_b[k][1], interval))
                k += 1
            ia += 1
        else:
            k = ia
            while k < len(seq_a) and seq_a[k][0][0] <= ub_b:
                if counter is not None:
                    counter[0] += 1
                interval = intersection_interval(seq_a[k][2], kb_b, t0, t1)
                if interval is not None:
                    results.append((seq_a[k][1], idx_b, interval))
                k += 1
            ib += 1
    return results


def all_pairs_intersection(
    boxes_a: Sequence[KineticBox],
    boxes_b: Sequence[KineticBox],
    t0: float,
    t1: float = INF,
    counter: Optional[List[int]] = None,
) -> List[Tuple[int, int, TimeInterval]]:
    """Nested loop: every pair tested exactly once.

    ImprovedJoin's pair test without PS, and the oracle against which
    :func:`ps_intersection` is verified.
    """
    check_window(t0, t1)
    results: List[Tuple[int, int, TimeInterval]] = []
    for i, ka in enumerate(boxes_a):
        for j, kb in enumerate(boxes_b):
            if counter is not None:
                counter[0] += 1
            interval = intersection_interval(ka, kb, t0, t1)
            if interval is not None:
                results.append((i, j, interval))
    return results
