"""Exact intersection interval of two moving rectangles.

This implements the paper's ``intersect(e_A, e_B, t_s, t_e)`` primitive
(§II-C): given two kinetic boxes and a query window, return the time
interval inside the window during which the rectangles overlap, or
``None`` if they never do.

Two axis-parallel rectangles overlap at time ``t`` iff, in **every**
dimension ``d``::

    a.lo_d(t) <= b.hi_d(t)   and   b.lo_d(t) <= a.hi_d(t)

Each inequality is linear in ``t``, so each yields a sub-interval of the
real line (possibly empty, a half-line, or everything).  The overlap
interval is the intersection of the four constraint intervals and the
query window.  Because the constraint set is an intersection of
half-lines, the result is always a single closed interval — moving
rectangles under linear motion intersect during at most one maximal
interval.
"""

from __future__ import annotations

from typing import Optional, Tuple

from .box import NDIMS
from .constants import PAIR_TEST_EPS as _EPS
from .interval import INF, TimeInterval, check_window
from .kinetic import KineticBox

__all__ = ["intersection_interval", "intersects_during", "first_contact_time"]


def _le_zero_window(
    c: float, m: float, lo: float, hi: float
) -> Optional[Tuple[float, float]]:
    """Sub-window of ``[lo, hi]`` where ``c + m*t <= 0`` (closed).

    Returns ``None`` when the constraint holds nowhere in the window.
    ``hi`` may be ``inf``.
    """
    if m == 0.0:
        return (lo, hi) if c <= _EPS else None
    root = -c / m
    if m > 0:
        # Holds for t <= root.
        if root < lo:
            return None
        return (lo, min(hi, root))
    # m < 0: holds for t >= root.  A subnormal slope can overflow the
    # division to +inf; "first contact at the infinite timestamp" means
    # the rectangles never actually meet.
    if root > hi or root == INF:
        return None
    return (max(lo, root), hi)


def intersection_interval(
    a: KineticBox, b: KineticBox, t_start: float, t_end: float = INF
) -> Optional[TimeInterval]:
    """When do ``a`` and ``b`` overlap within ``[t_start, t_end]``?

    Returns the single maximal closed :class:`TimeInterval` of overlap
    clipped to the window, or ``None`` when the rectangles are disjoint
    throughout the window.  ``t_end`` may be ``inf`` (the paper's
    "infinite timestamp").

    >>> from repro.geometry import Box
    >>> a = KineticBox.rigid(Box(0, 1, 0, 1), 1, 0, 0.0)
    >>> b = KineticBox.rigid(Box(4, 5, 0, 1), 0, 0, 0.0)
    >>> intersection_interval(a, b, 0.0)
    TimeInterval(3, 5)
    """
    check_window(t_start, t_end)
    lo, hi = t_start, t_end
    for dim in range(NDIMS):
        # Each bound re-expressed at reference time 0: lo(t) = slo + v*t.
        # The (x - v * t_ref) association is shared with the compiled
        # sweep join (repro.geometry.kernels), whose batches pre-shift
        # their columns the same way — keeping the two paths bit-identical.
        a_slo = a.mbr.lo(dim) - a.vbr.lo(dim) * a.t_ref
        a_shi = a.mbr.hi(dim) - a.vbr.hi(dim) * a.t_ref
        b_slo = b.mbr.lo(dim) - b.vbr.lo(dim) * b.t_ref
        b_shi = b.mbr.hi(dim) - b.vbr.hi(dim) * b.t_ref
        # Constraint 1: a.lo(t) - b.hi(t) <= 0.
        window = _le_zero_window(
            a_slo - b_shi, a.vbr.lo(dim) - b.vbr.hi(dim), lo, hi
        )
        if window is None:
            return None
        lo, hi = window
        # Constraint 2: b.lo(t) - a.hi(t) <= 0.
        window = _le_zero_window(
            b_slo - a_shi, b.vbr.lo(dim) - a.vbr.hi(dim), lo, hi
        )
        if window is None:
            return None
        lo, hi = window
    if lo > hi:
        return None
    return TimeInterval(lo, hi)


def intersects_during(
    a: KineticBox, b: KineticBox, t_start: float, t_end: float = INF
) -> bool:
    """Whether ``a`` and ``b`` overlap at any time in ``[t_start, t_end]``."""
    return intersection_interval(a, b, t_start, t_end) is not None


def first_contact_time(
    a: KineticBox, b: KineticBox, t_start: float, t_end: float = INF
) -> Optional[float]:
    """Earliest ``t`` in the window at which the rectangles overlap.

    This is the *influence time* lower bound used by the TP-join
    traversal for node pairs that do not currently intersect.
    """
    interval = intersection_interval(a, b, t_start, t_end)
    return interval.start if interval is not None else None
