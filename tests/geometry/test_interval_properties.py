"""Property tests: interval algebra laws and intersection edge cases.

Complements ``test_intersection.py`` (which pins the dense-sampling
oracle for *rigid* movers) with three things it does not cover: the
algebraic laws of :class:`TimeInterval` / :func:`merge_intervals`, the
sampling oracle for *deforming* kinetic boxes whose lower and upper
bounds move at different speeds, and the exact regression example for
the subnormal-slope overflow where ``-c / m`` rounds to ``+inf``.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry import (
    INF,
    Box,
    KineticBox,
    TimeInterval,
    all_pairs_intersection,
    intersection_interval,
    merge_intervals,
)
from repro.geometry.kernels import KineticBatch, batch_sweep_join

finite_t = st.floats(min_value=-50, max_value=50, allow_nan=False)
end_t = st.one_of(finite_t, st.just(INF))


@st.composite
def intervals(draw):
    start = draw(finite_t)
    end = draw(end_t)
    if end < start:
        start, end = end, start
    return TimeInterval(start, end)


@st.composite
def deforming_kboxes(draw):
    """Kinetic boxes whose bounds drift apart (vlo <= vhi per axis)."""
    x = draw(st.floats(min_value=-30, max_value=30, allow_nan=False))
    y = draw(st.floats(min_value=-30, max_value=30, allow_nan=False))
    w = draw(st.floats(min_value=0, max_value=8, allow_nan=False))
    h = draw(st.floats(min_value=0, max_value=8, allow_nan=False))
    vels = []
    for _ in range(2):
        v1 = draw(st.floats(min_value=-3, max_value=3, allow_nan=False))
        v2 = draw(st.floats(min_value=-3, max_value=3, allow_nan=False))
        vels.append((min(v1, v2), max(v1, v2)))
    (vxlo, vxhi), (vylo, vyhi) = vels
    return KineticBox(Box(x, x + w, y, y + h), Box(vxlo, vxhi, vylo, vyhi), 0.0)


class TestIntervalAlgebra:
    @given(intervals(), intervals())
    def test_intersect_commutes(self, p, q):
        assert p.intersect(q) == q.intersect(p)
        assert p.overlaps(q) == q.overlaps(p)
        assert p.union(q) == q.union(p)

    @given(intervals(), intervals(), intervals())
    def test_intersect_associates(self, p, q, r):
        def chain(x, y, z):
            pq = x.intersect(y)
            return None if pq is None else pq.intersect(z)

        assert chain(p, q, r) == chain(r, q, p)

    @given(intervals(), intervals())
    def test_intersection_is_contained_in_both(self, p, q):
        got = p.intersect(q)
        if got is None:
            assert not p.overlaps(q)
        else:
            assert p.contains_interval(got) and q.contains_interval(got)
            assert p.overlaps(q)

    @given(intervals(), finite_t)
    def test_membership_splits_on_intersection(self, p, t):
        window = TimeInterval(t - 1.0, t + 1.0)
        both = p.intersect(window)
        assert (both is not None and both.contains(t)) == p.contains(t)

    @given(intervals(), intervals())
    def test_union_when_defined_is_tight(self, p, q):
        got = p.union(q)
        if got is None:
            assert not p.overlaps(q)
        else:
            assert got.start == min(p.start, q.start)
            assert got.end == max(p.end, q.end)
            assert got.contains_interval(p) and got.contains_interval(q)

    @given(intervals())
    def test_clamp_is_intersection_with_window(self, p):
        assert p.clamp(-10.0, 10.0) == p.intersect(TimeInterval(-10.0, 10.0))

    @given(st.lists(intervals(), max_size=12))
    def test_merge_is_sorted_disjoint_and_idempotent(self, items):
        merged = merge_intervals(items)
        for prev, cur in zip(merged, merged[1:]):
            assert prev.end < cur.start, "merged output must be disjoint"
        assert merge_intervals(merged) == merged

    @given(st.lists(intervals(), min_size=1, max_size=12), finite_t)
    def test_merge_preserves_membership(self, items, t):
        before = any(iv.contains(t) for iv in items)
        after = any(iv.contains(t) for iv in merge_intervals(items))
        # Merging may only add points inside tolerance-closed gaps.
        if before:
            assert after


class TestDeformingBoxes:
    @given(deforming_kboxes(), deforming_kboxes())
    @settings(max_examples=200, deadline=None)
    def test_matches_dense_sampling(self, a, b):
        t0, t1 = 0.0, 15.0
        iv = intersection_interval(a, b, t0, t1)
        samples = 120
        for i in range(samples + 1):
            t = t0 + (t1 - t0) * i / samples
            static = a.at(t).intersects(b.at(t))
            predicted = iv is not None and iv.start - 1e-7 <= t <= iv.end + 1e-7
            if static != predicted:
                nearly_touching = a.at(t).min_distance(b.at(t)) < 1e-6
                near_edge = iv is not None and (
                    min(abs(t - iv.start), abs(t - iv.end)) < 1e-6
                )
                assert near_edge or nearly_touching, (a, b, t, iv)

    @given(deforming_kboxes(), deforming_kboxes(),
           st.floats(min_value=0, max_value=10, allow_nan=False),
           st.floats(min_value=0, max_value=10, allow_nan=False))
    @settings(max_examples=200, deadline=None)
    def test_window_clamping_monotone(self, a, b, lo_shift, width):
        wide = intersection_interval(a, b, 0.0, 30.0)
        lo = lo_shift
        hi = min(30.0, lo + width)
        narrow = intersection_interval(a, b, lo, hi)
        if narrow is not None:
            assert wide is not None
            assert wide.start <= narrow.start + 1e-9
            assert wide.end >= narrow.end - 1e-9
            # The narrow answer is exactly the wide one clipped.
            clipped = wide.intersect(TimeInterval(lo, hi))
            assert clipped is not None
            assert narrow.approx_equals(clipped, tol=1e-9)


class TestSubnormalSlopeRegression:
    """``-c / m`` overflowing to ``+inf`` must mean "never", not crash.

    A velocity-bound difference of one ULP (5e-324) once made
    ``_le_zero_window`` return a window starting at ``+inf``, which
    :class:`TimeInterval` rejects with ``ValueError``.  The separating
    gap can never close at that closing speed, so the primitive must
    report no intersection — in the scalar path and the compiled join.
    """

    A = KineticBox(Box(10.0, 11.0, 0.0, 1.0), Box(0.0, 0.0, 0.0, 0.0), 0.0)
    B = KineticBox(Box(0.0, 1.0, 0.0, 1.0), Box(0.0, 5e-324, 0.0, 0.0), 0.0)

    def test_scalar_path(self):
        assert intersection_interval(self.A, self.B, 0.0) is None
        assert intersection_interval(self.B, self.A, 0.0) is None
        assert intersection_interval(self.A, self.B, 0.0, 1e12) is None

    def test_all_pairs_kernel(self):
        assert all_pairs_intersection([self.A], [self.B], 0.0, INF) == []
        batch_a, batch_b = KineticBatch.from_boxes([self.A]), KineticBatch.from_boxes([self.B])
        for dim in (0, 1):
            assert batch_sweep_join(batch_a, batch_b, 0.0, INF, dim)[0].shape == (0,)

    def test_probe_kernel(self):
        """``B`` probed by ``A`` among other rows, and the other way round."""
        others = [
            KineticBox.rigid(Box(50.0 + k, 51.0 + k, 0.0, 1.0), 0.0, 0.0, 0.0) for k in range(4)
        ]
        batch = KineticBatch.from_boxes([self.B, *others])
        probe = KineticBatch.from_boxes([self.A])
        for sides in ((batch, probe), (probe, batch)):
            assert batch_sweep_join(*sides, 0.0, INF, 0)[0].shape == (0,)
