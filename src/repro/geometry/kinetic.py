"""Kinetic (moving) rectangles: an MBR plus a VBR and a reference time.

This is the paper's object model (§II-A): a moving object ``O`` is
described by its MBR at a reference time ``t_ref`` and its velocity
bounding rectangle (VBR).  The rectangle occupied at time ``t >= t_ref``
has, along each dimension ``d``::

    lo_d(t) = mbr.lo(d) + vbr.lo(d) * (t - t_ref)
    hi_d(t) = mbr.hi(d) + vbr.hi(d) * (t - t_ref)

For a *data object* the VBR is degenerate (``vbr.lo == vbr.hi`` in each
dimension): the rectangle translates rigidly.  For a *TPR-tree node* the
VBR holds the min/max velocities of the children, so the node rectangle
is a conservative bound that never stops containing its children for any
``t >= t_ref``.
"""

from __future__ import annotations

from typing import Iterable, Tuple

from .box import NDIMS, Box

__all__ = ["KineticBox"]


class KineticBox:
    """A rectangle whose bounds move linearly with time.

    Immutable.  ``mbr`` is the spatial rectangle at ``t_ref``; ``vbr``
    gives the velocity of each bound.

    >>> kb = KineticBox(Box(0, 1, 0, 1), Box(1, 1, 0, 0), t_ref=0.0)
    >>> kb.at(3.0)
    Box(3, 4, 0, 1)
    """

    __slots__ = ("mbr", "vbr", "t_ref")

    def __init__(self, mbr: Box, vbr: Box, t_ref: float):
        object.__setattr__(self, "mbr", mbr)
        object.__setattr__(self, "vbr", vbr)
        object.__setattr__(self, "t_ref", float(t_ref))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("KineticBox is immutable")

    def __reduce__(self):
        # Default slot-state pickling restores via setattr, which the
        # immutability guard rejects; rebuild through __init__ instead.
        return (KineticBox, (self.mbr, self.vbr, self.t_ref))

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def moving_point(
        cls, x: float, y: float, vx: float, vy: float, t_ref: float
    ) -> "KineticBox":
        """A zero-extent object translating rigidly at ``(vx, vy)``."""
        return cls(Box.point(x, y), Box.point(vx, vy), t_ref)

    @classmethod
    def rigid(cls, mbr: Box, vx: float, vy: float, t_ref: float) -> "KineticBox":
        """A rectangle translating rigidly at ``(vx, vy)``."""
        return cls(mbr, Box.point(vx, vy), t_ref)

    @classmethod
    def union_at(cls, t_ref: float, boxes: Iterable["KineticBox"]) -> "KineticBox":
        """The tightest kinetic bound of ``boxes`` referenced at ``t_ref``.

        Positions are evaluated at ``t_ref`` and the VBR takes the
        per-dimension min of lower velocities and max of upper
        velocities, so the result contains every input for all
        ``t >= t_ref``.
        """
        it = iter(boxes)
        try:
            first = next(it)
        except StopIteration:
            raise ValueError("union_at requires at least one box") from None
        mbr = first.at(t_ref)
        vbr = first.vbr
        for kb in it:
            mbr = mbr.union(kb.at(t_ref))
            vbr = vbr.union(kb.vbr)
        return cls(mbr, vbr, t_ref)

    # ------------------------------------------------------------------
    # Evaluation
    # ------------------------------------------------------------------
    def lo(self, dim: int, t: float) -> float:
        """Lower bound along ``dim`` at time ``t``."""
        return self.mbr.lo(dim) + self.vbr.lo(dim) * (t - self.t_ref)

    def hi(self, dim: int, t: float) -> float:
        """Upper bound along ``dim`` at time ``t``."""
        return self.mbr.hi(dim) + self.vbr.hi(dim) * (t - self.t_ref)

    def at(self, t: float) -> Box:
        """The (possibly degenerate) rectangle occupied at time ``t``.

        For bounding boxes whose extent shrinks before ``t_ref`` the
        raw linear bounds may cross; callers should only evaluate at
        ``t >= t_ref`` (checked).
        """
        dt = t - self.t_ref
        return Box(
            self.mbr.lo(0) + self.vbr.lo(0) * dt,
            self.mbr.hi(0) + self.vbr.hi(0) * dt,
            self.mbr.lo(1) + self.vbr.lo(1) * dt,
            self.mbr.hi(1) + self.vbr.hi(1) * dt,
        )

    def with_reference(self, t_ref: float) -> "KineticBox":
        """The same motion re-expressed with reference time ``t_ref``.

        Only meaningful for ``t_ref >= self.t_ref`` when this box is a
        conservative bound (extents never shrink going forward).
        """
        return KineticBox(self.at(t_ref), self.vbr, t_ref)

    # ------------------------------------------------------------------
    # Metrics (used by TPR-tree insertion heuristics)
    # ------------------------------------------------------------------
    def extent(self, dim: int, t: float) -> float:
        """Side length along ``dim`` at time ``t`` (may be negative
        before ``t_ref`` for conservative bounds)."""
        return self.hi(dim, t) - self.lo(dim, t)

    def integrated_area(self, t0: float, t1: float) -> float:
        """Exact integral of the (clamped) area over ``[t0, t1]``.

        The area ``A(t) = w(t) * h(t)`` is quadratic in ``t`` with
        ``w, h`` linear; the integral is evaluated in closed form over
        the sub-interval where both are positive.
        """
        if t1 < t0:
            raise ValueError("t1 must be >= t0")
        if t1 <= t0:  # degenerate window integrates to zero
            return 0.0
        lo, hi = t0, t1
        # Restrict to the region where both extents are non-negative.
        for dim in (0, 1):
            # extent(t) = extent(t_ref) + slope * (t - t_ref); as c + m*t.
            m = self.vbr.hi(dim) - self.vbr.lo(dim)
            c = self.extent(dim, self.t_ref) - m * self.t_ref
            if m == 0:
                if c < 0:
                    return 0.0
                continue
            root = -c / m
            if m > 0:
                lo = max(lo, root)
            else:
                hi = min(hi, root)
        if lo >= hi:
            return 0.0
        # A(t) = (cw + mw t)(ch + mh t); integrate the quadratic exactly.
        mw = self.vbr.hi(0) - self.vbr.lo(0)
        mh = self.vbr.hi(1) - self.vbr.lo(1)
        cw = self.extent(0, self.t_ref) - mw * self.t_ref
        ch = self.extent(1, self.t_ref) - mh * self.t_ref
        a2 = mw * mh
        a1 = cw * mh + ch * mw
        a0 = cw * ch

        def antideriv(t: float) -> float:
            return a2 * t**3 / 3 + a1 * t**2 / 2 + a0 * t

        return antideriv(hi) - antideriv(lo)

    def integrated_union_enlargement(
        self, other: "KineticBox", t0: float, t1: float
    ) -> float:
        """Integral over ``[t0, t1]`` of the area the union adds over
        this box's own area — the TPR-tree insertion penalty."""
        union = KineticBox.union_at(t0, [self, other])
        return union.integrated_area(t0, t1) - self.with_reference(t0).integrated_area(
            t0, t1
        )

    def speed_sum(self, dim: int) -> float:
        """Sum of absolute bound speeds along ``dim``.

        Used by the paper's *dimension selection* heuristic (§IV-D.2):
        the sweep dimension is the one with the smallest total speed.
        """
        return abs(self.vbr.lo(dim)) + abs(self.vbr.hi(dim))

    # ------------------------------------------------------------------
    # Dunder plumbing
    # ------------------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, KineticBox):
            return NotImplemented
        return (
            self.mbr == other.mbr
            and self.vbr == other.vbr
            and self.t_ref == other.t_ref
        )

    def __hash__(self) -> int:
        return hash((self.mbr, self.vbr, self.t_ref))

    def __repr__(self) -> str:
        return f"KineticBox(mbr={self.mbr!r}, vbr={self.vbr!r}, t_ref={self.t_ref:g})"

    def params(self) -> Tuple[float, ...]:
        """Flat parameter tuple ``(mbr bounds…, vbr bounds…, t_ref)``
        used by the storage serializer."""
        return self.mbr.bounds + self.vbr.bounds + (self.t_ref,)

    @classmethod
    def from_params(cls, params: Tuple[float, ...]) -> "KineticBox":
        """Inverse of :meth:`params`."""
        if len(params) != 4 * NDIMS + 1:
            raise ValueError("expected 9 parameters")
        return cls(
            Box.from_bounds(params[0:4]), Box.from_bounds(params[4:8]), params[8]
        )
