"""Closed time intervals, possibly unbounded to the right.

The join algorithms in this package reason about *when* two moving
rectangles intersect.  Those answers are closed intervals ``[start, end]``
on the time axis, where ``end`` may be ``math.inf`` (the paper writes this
as the "infinite timestamp").  This module provides a small, exact
interval algebra used throughout :mod:`repro.geometry` and
:mod:`repro.join`.

All operations treat intervals as *closed*: two intervals that share only
an endpoint still intersect.  This matches the paper's semantics, where a
pair of objects that touch at a single timestamp is reported at that
timestamp.
"""

from __future__ import annotations

import math
from typing import Iterable, Iterator, List, Optional, Sequence

from .constants import MERGE_TOL as _EPS

__all__ = ["INF", "TimeInterval", "check_clock", "check_read", "check_window", "merge_intervals"]

INF = math.inf


def check_clock(now: float, t: float) -> None:
    """Refuse a clock move from ``now`` to ``t`` unless ``t`` is finite
    and no earlier than ``now``.

    Written as ``if t < now: raise``, the test lets NaN through (every
    comparison with NaN is false), and a NaN clock lets the next tick
    run backwards.  Pass ``now = -INF`` to vet a start time.
    """
    if not (now <= t and math.isfinite(t)):
        raise ValueError(
            f"time went backwards (before the present {now}) or is not finite: {t}"
        )


def check_window(t0: float, t1: float) -> None:
    """Refuse a pair window ``[t0, t1]`` unless ``t0`` is finite and no
    later than ``t1`` (which may be ``inf``).

    Written as ``if t1 < t0: raise``, the test lets a NaN end through,
    and the joins then return no rows instead of an error.
    """
    if not (t0 <= t1 and math.isfinite(t0)):
        raise ValueError(f"t_end must be >= t_start, and t_start finite: [{t0}, {t1}]")


def check_read(now: float, t: float) -> None:
    """Refuse an answer read at ``t`` unless ``now <= t``.

    An update drops the updated object's stored intervals, past ones
    included, so an engine's answer before its clock is silently wrong;
    it answers the present and, by extrapolation, the future only.
    Written as ``now <= t``, the test also refuses NaN.
    """
    if not now <= t:
        raise ValueError(
            f"a read only answers the present of the engine clock ({now}) or later: {t}"
        )


class TimeInterval:
    """A closed interval ``[start, end]`` on the time axis.

    ``end`` may be :data:`math.inf` for an unbounded interval.  Instances
    are immutable and hashable; degenerate intervals (``start == end``)
    are allowed and represent a single timestamp.

    >>> TimeInterval(1, 4).intersect(TimeInterval(3, 9))
    TimeInterval(3, 4)
    >>> TimeInterval(0, INF).contains(1e12)
    True
    """

    __slots__ = ("start", "end")

    def __init__(self, start: float, end: float):
        if math.isnan(start) or math.isnan(end):
            raise ValueError("interval endpoints may not be NaN")
        if start == INF:
            raise ValueError("interval may not start at +inf")
        if end < start:
            raise ValueError(f"empty interval: [{start}, {end}]")
        object.__setattr__(self, "start", float(start))
        object.__setattr__(self, "end", float(end))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("TimeInterval is immutable")

    def __reduce__(self):
        # Default slot-state pickling restores via setattr, which the
        # immutability guard rejects; rebuild through __init__ instead.
        return (TimeInterval, (self.start, self.end))

    # ------------------------------------------------------------------
    # Basic predicates
    # ------------------------------------------------------------------
    @property
    def duration(self) -> float:
        """Length of the interval (``inf`` when unbounded)."""
        return self.end - self.start

    def contains(self, t: float) -> bool:
        """Whether timestamp ``t`` lies inside the closed interval."""
        return self.start <= t <= self.end

    def contains_interval(self, other: "TimeInterval") -> bool:
        """Whether ``other`` lies entirely inside this interval."""
        return self.start <= other.start and other.end <= self.end

    def overlaps(self, other: "TimeInterval") -> bool:
        """Whether the two closed intervals share at least one point."""
        return self.start <= other.end and other.start <= self.end

    # ------------------------------------------------------------------
    # Algebra
    # ------------------------------------------------------------------
    def intersect(self, other: "TimeInterval") -> Optional["TimeInterval"]:
        """Intersection with ``other``, or ``None`` when disjoint."""
        lo = max(self.start, other.start)
        hi = min(self.end, other.end)
        if lo > hi:
            return None
        return TimeInterval(lo, hi)

    def union(self, other: "TimeInterval") -> Optional["TimeInterval"]:
        """Union with ``other`` when contiguous, else ``None``.

        Two closed intervals have an interval union iff they overlap or
        touch; otherwise the union is not an interval and ``None`` is
        returned.
        """
        if not self.overlaps(other):
            return None
        return TimeInterval(min(self.start, other.start), max(self.end, other.end))

    def clamp(self, lo: float, hi: float) -> Optional["TimeInterval"]:
        """Intersection with ``[lo, hi]`` expressed as raw endpoints."""
        return self.intersect(TimeInterval(lo, hi))

    def shift(self, delta: float) -> "TimeInterval":
        """The interval translated by ``delta`` time units."""
        return TimeInterval(self.start + delta, self.end + delta)

    # ------------------------------------------------------------------
    # Dunder plumbing
    # ------------------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TimeInterval):
            return NotImplemented
        return self.start == other.start and self.end == other.end

    def __hash__(self) -> int:
        return hash((self.start, self.end))

    def __repr__(self) -> str:
        return f"TimeInterval({_fmt(self.start)}, {_fmt(self.end)})"

    def __iter__(self) -> Iterator[float]:
        yield self.start
        yield self.end

    def approx_equals(self, other: "TimeInterval", tol: float = _EPS) -> bool:
        """Equality up to ``tol``, treating two infinities as equal."""
        return _close(self.start, other.start, tol) and _close(self.end, other.end, tol)


def _close(a: float, b: float, tol: float) -> bool:
    if a == b:
        return True
    if math.isinf(a) or math.isinf(b):
        return False
    return abs(a - b) <= tol


def _fmt(v: float) -> str:
    return "INF" if v == INF else f"{v:g}"


def merge_intervals(intervals: Iterable[TimeInterval], tol: float = _EPS) -> List[TimeInterval]:
    """Coalesce a collection of closed intervals into disjoint ones.

    Intervals that overlap or whose gap is at most ``tol`` are merged.
    The result is sorted by start time.

    >>> merge_intervals([TimeInterval(5, 9), TimeInterval(1, 5)])
    [TimeInterval(1, 9)]
    """
    items: Sequence[TimeInterval] = sorted(intervals, key=lambda iv: (iv.start, iv.end))
    merged: List[TimeInterval] = []
    for iv in items:
        if merged and iv.start <= merged[-1].end + tol:
            last = merged[-1]
            if iv.end > last.end:
                merged[-1] = TimeInterval(last.start, iv.end)
        else:
            merged.append(iv)
    return merged
