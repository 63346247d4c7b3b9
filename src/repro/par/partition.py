"""Spatial stripe partitioning for the sharded engine.

The space domain is cut into ``K`` half-open stripes along one axis;
the first and last stripes extend to infinity so the partition covers
every position an object (or its swept halo) can ever occupy.  Stripe
boundaries default to equi-count quantiles of the object centers, which
balances shard populations under skew; the axis defaults to the one
with the smaller total bound speed — the velocity-partitioning insight
(Nguyen et al.): slower movement means tighter swept extents, smaller
ghost regions, and less cross-shard duplication.

Membership of a moving object is decided by its *swept* extent over the
ghost horizon (see :mod:`repro.par.sharded`), not its instantaneous
position, so every pair that can intersect inside the horizon is fully
contained in at least one shard.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import List, Sequence, Tuple

import numpy as np

from ..geometry import INF
from ..geometry.box import NDIMS
from ..objects import MovingObject

__all__ = ["StripePartition"]


class StripePartition:
    """``K`` contiguous stripes along one axis, covering the whole line.

    ``cuts`` holds the ``K - 1`` strictly increasing inner boundaries;
    stripe ``s`` spans ``[cuts[s-1], cuts[s]]`` with the outermost
    bounds at ``±inf``.  Boundaries are treated as belonging to *both*
    neighboring stripes — over-inclusive on a zero-measure set, which
    keeps membership closed under floating-point ties.
    """

    __slots__ = ("cuts", "axis")

    def __init__(self, cuts: Sequence[float], axis: int = 0):
        cuts = [float(c) for c in cuts]
        if any(b <= a for a, b in zip(cuts, cuts[1:])):
            raise ValueError(f"cuts must be strictly increasing: {cuts}")
        if axis not in range(NDIMS):
            raise ValueError(f"axis must be in 0..{NDIMS - 1}")
        object.__setattr__(self, "cuts", tuple(cuts))
        object.__setattr__(self, "axis", int(axis))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("StripePartition is immutable")

    # ------------------------------------------------------------------
    @property
    def n_shards(self) -> int:
        return len(self.cuts) + 1

    def region(self, shard: int) -> Tuple[float, float]:
        """The ``[lo, hi]`` extent of one stripe (``±inf`` at the rim)."""
        if not 0 <= shard < self.n_shards:
            raise IndexError(f"no shard {shard} in a {self.n_shards}-way partition")
        lo = self.cuts[shard - 1] if shard > 0 else -INF
        hi = self.cuts[shard] if shard < len(self.cuts) else INF
        return lo, hi

    def shards_for_span(self, lo: float, hi: float) -> Tuple[int, ...]:
        """Every stripe whose (closed) extent intersects ``[lo, hi]``."""
        if hi < lo:
            raise ValueError(f"empty span: [{lo}, {hi}]")
        first = bisect_left(self.cuts, lo)
        last = bisect_right(self.cuts, hi)
        return tuple(range(first, last + 1))

    def spans_to_shards(
        self, lo: np.ndarray, hi: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Vectorized :meth:`shards_for_span` over span arrays.

        Returns ``(first, last)`` int arrays: span ``k`` intersects
        exactly stripes ``first[k] .. last[k]`` inclusive.  The
        ``searchsorted`` sides mirror the ``bisect_left``/
        ``bisect_right`` pair of the scalar path, so routing decisions
        are bit-identical.
        """
        if np.any(hi < lo):
            bad = int(np.argmax(hi < lo))
            raise ValueError(f"empty span: [{lo[bad]}, {hi[bad]}]")
        cuts = np.asarray(self.cuts)
        first = np.searchsorted(cuts, lo, side="left")
        last = np.searchsorted(cuts, hi, side="right")
        return first, last

    # ------------------------------------------------------------------
    @classmethod
    def fit(
        cls,
        objects: Sequence[MovingObject],
        n_shards: int,
        axis: object = "auto",
    ) -> "StripePartition":
        """Fit a balanced ``n_shards``-way partition over ``objects``.

        ``axis="auto"`` picks the dimension with the smaller total bound
        speed; pass ``0``/``1`` to force one.  Cuts are equi-count
        quantiles of object centers at their reference times, decaying
        to equal-width spacing when quantiles collide (point masses).
        """
        if n_shards < 1:
            raise ValueError("n_shards must be >= 1")
        if axis == "auto":
            totals = [0.0] * NDIMS
            for obj in objects:
                for dim in range(NDIMS):
                    totals[dim] += abs(obj.kbox.vbr.lo(dim)) + abs(
                        obj.kbox.vbr.hi(dim)
                    )
            axis = min(range(NDIMS), key=lambda dim: totals[dim])
        axis = int(axis)  # type: ignore[arg-type]
        if n_shards == 1 or not objects:
            return cls((), axis)
        centers = sorted(
            (obj.kbox.mbr.lo(axis) + obj.kbox.mbr.hi(axis)) / 2.0
            for obj in objects
        )
        n = len(centers)
        quantiles = [centers[(k * n) // n_shards] for k in range(1, n_shards)]
        cuts: List[float] = []
        for q in quantiles:
            if not cuts or q > cuts[-1]:
                cuts.append(q)
        if len(cuts) < n_shards - 1:
            lo, hi = centers[0], centers[-1]
            width = (hi - lo) / n_shards if hi > lo else 1.0
            cuts = [lo + width * k for k in range(1, n_shards)]
        return cls(cuts, axis)

    # ------------------------------------------------------------------
    def __reduce__(self):
        return (StripePartition, (self.cuts, self.axis))

    def __repr__(self) -> str:
        return f"StripePartition(K={self.n_shards}, axis={self.axis})"
