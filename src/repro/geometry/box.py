"""Static axis-parallel rectangles: MBRs and VBRs.

A :class:`Box` is a 2-d axis-parallel rectangle described by per-dimension
lower and upper bounds.  The same class serves two roles in the paper's
model:

* an **MBR** (minimum bounding rectangle) — bounds in *space*;
* a **VBR** (velocity bounding rectangle) — bounds in *velocity space*,
  where "lower/upper bound" are the minimum/maximum velocities of the
  bounded objects along each axis.  A VBR may legitimately have
  ``lo > hi`` nowhere, but negative coordinates everywhere.

Boxes are immutable value objects.  Degenerate boxes (``lo == hi`` in a
dimension) are allowed — moving *points* are just boxes of zero extent.
"""

from __future__ import annotations

import math
from typing import Iterable, Iterator, Optional, Sequence, Tuple

__all__ = ["Box"]

NDIMS = 2


class Box:
    """An axis-parallel rectangle in ``NDIMS`` dimensions.

    Bounds are stored as a flat tuple ``(x_lo, x_hi, y_lo, y_hi)``.

    >>> Box(0, 2, 0, 3).area
    6.0
    >>> Box(0, 2, 0, 3).intersects(Box(2, 4, 1, 5))   # closed: touch counts
    True
    """

    __slots__ = ("_b",)

    def __init__(self, x_lo: float, x_hi: float, y_lo: float, y_hi: float):
        if x_hi < x_lo or y_hi < y_lo:
            raise ValueError(
                f"malformed box: [{x_lo}, {x_hi}] x [{y_lo}, {y_hi}]"
            )
        object.__setattr__(
            self, "_b", (float(x_lo), float(x_hi), float(y_lo), float(y_hi))
        )

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("Box is immutable")

    def __reduce__(self):
        # Default slot-state pickling restores via setattr, which the
        # immutability guard rejects; rebuild through __init__ instead.
        return (Box, self._b)

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_bounds(cls, bounds: Sequence[float]) -> "Box":
        """Build from a flat ``(x_lo, x_hi, y_lo, y_hi)`` sequence."""
        if len(bounds) != 2 * NDIMS:
            raise ValueError(f"expected {2 * NDIMS} bounds, got {len(bounds)}")
        return cls(*bounds)

    @classmethod
    def point(cls, x: float, y: float) -> "Box":
        """A degenerate box representing a single point."""
        return cls(x, x, y, y)

    @classmethod
    def union_of(cls, boxes: Iterable["Box"]) -> "Box":
        """Smallest box enclosing all ``boxes`` (at least one required)."""
        it = iter(boxes)
        try:
            first = next(it)
        except StopIteration:
            raise ValueError("union_of requires at least one box") from None
        x_lo, x_hi, y_lo, y_hi = first._b
        for b in it:
            bx_lo, bx_hi, by_lo, by_hi = b._b
            x_lo = min(x_lo, bx_lo)
            x_hi = max(x_hi, bx_hi)
            y_lo = min(y_lo, by_lo)
            y_hi = max(y_hi, by_hi)
        return cls(x_lo, x_hi, y_lo, y_hi)

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------
    @property
    def x_lo(self) -> float:
        return self._b[0]

    @property
    def x_hi(self) -> float:
        return self._b[1]

    @property
    def y_lo(self) -> float:
        return self._b[2]

    @property
    def y_hi(self) -> float:
        return self._b[3]

    @property
    def bounds(self) -> Tuple[float, float, float, float]:
        """The flat ``(x_lo, x_hi, y_lo, y_hi)`` tuple."""
        return self._b

    def lo(self, dim: int) -> float:
        """Lower bound along dimension ``dim`` (0 = x, 1 = y)."""
        return self._b[2 * dim]

    def hi(self, dim: int) -> float:
        """Upper bound along dimension ``dim`` (0 = x, 1 = y)."""
        return self._b[2 * dim + 1]

    def side(self, dim: int) -> float:
        """Extent along dimension ``dim``."""
        return self._b[2 * dim + 1] - self._b[2 * dim]

    @property
    def center(self) -> Tuple[float, float]:
        return (
            (self._b[0] + self._b[1]) / 2,
            (self._b[2] + self._b[3]) / 2,
        )

    @property
    def area(self) -> float:
        return (self._b[1] - self._b[0]) * (self._b[3] - self._b[2])

    @property
    def margin(self) -> float:
        """Half-perimeter, the R*-tree "margin" metric."""
        return (self._b[1] - self._b[0]) + (self._b[3] - self._b[2])

    # ------------------------------------------------------------------
    # Geometry
    # ------------------------------------------------------------------
    def intersects(self, other: "Box") -> bool:
        """Closed-rectangle intersection test (touching counts)."""
        a, b = self._b, other._b
        return a[0] <= b[1] and b[0] <= a[1] and a[2] <= b[3] and b[2] <= a[3]

    def intersection(self, other: "Box") -> Optional["Box"]:
        """The overlap rectangle, or ``None`` when disjoint."""
        a, b = self._b, other._b
        x_lo = max(a[0], b[0])
        x_hi = min(a[1], b[1])
        y_lo = max(a[2], b[2])
        y_hi = min(a[3], b[3])
        if x_lo > x_hi or y_lo > y_hi:
            return None
        return Box(x_lo, x_hi, y_lo, y_hi)

    def union(self, other: "Box") -> "Box":
        """Smallest box enclosing both rectangles."""
        a, b = self._b, other._b
        return Box(min(a[0], b[0]), max(a[1], b[1]), min(a[2], b[2]), max(a[3], b[3]))

    def contains(self, other: "Box") -> bool:
        """Whether ``other`` lies entirely inside this box."""
        a, b = self._b, other._b
        return a[0] <= b[0] and b[1] <= a[1] and a[2] <= b[2] and b[3] <= a[3]

    def enlargement(self, other: "Box") -> float:
        """Area growth needed for this box to also cover ``other``."""
        return self.union(other).area - self.area

    def overlap_area(self, other: "Box") -> float:
        """Area of the intersection (0 when disjoint)."""
        inter = self.intersection(other)
        return inter.area if inter is not None else 0.0

    def min_distance(self, other: "Box") -> float:
        """Euclidean distance between the closest points of two boxes."""
        a, b = self._b, other._b
        dx = max(b[0] - a[1], a[0] - b[1], 0.0)
        dy = max(b[2] - a[3], a[2] - b[3], 0.0)
        return math.hypot(dx, dy)

    def translated(self, dx: float, dy: float) -> "Box":
        """The box moved by ``(dx, dy)``."""
        a = self._b
        return Box(a[0] + dx, a[1] + dx, a[2] + dy, a[3] + dy)

    def expanded(self, dx_lo: float, dx_hi: float, dy_lo: float, dy_hi: float) -> "Box":
        """Grow each bound outward by the given (non-negative) amounts."""
        a = self._b
        return Box(a[0] - dx_lo, a[1] + dx_hi, a[2] - dy_lo, a[3] + dy_hi)

    # ------------------------------------------------------------------
    # Dunder plumbing
    # ------------------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Box):
            return NotImplemented
        return self._b == other._b

    def __hash__(self) -> int:
        return hash(self._b)

    def __iter__(self) -> Iterator[float]:
        return iter(self._b)

    def __repr__(self) -> str:
        return "Box({:g}, {:g}, {:g}, {:g})".format(*self._b)

    def approx_equals(self, other: "Box", tol: float = 1e-9) -> bool:
        """Coordinate-wise equality up to ``tol``."""
        return all(abs(a - b) <= tol for a, b in zip(self._b, other._b))
