"""Unit and property tests for the time-interval algebra."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.geometry import INF, TimeInterval, merge_intervals

finite = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
)


def intervals(allow_unbounded: bool = True):
    def build(draw_tuple):
        start, length, unbounded = draw_tuple
        end = INF if (unbounded and allow_unbounded) else start + abs(length)
        return TimeInterval(start, end)

    return st.tuples(finite, finite, st.booleans()).map(build)


class TestConstruction:
    def test_valid(self):
        iv = TimeInterval(1.0, 2.5)
        assert iv.start == 1.0
        assert iv.end == 2.5

    def test_degenerate_allowed(self):
        iv = TimeInterval(3.0, 3.0)
        assert iv.duration == 0.0
        assert iv.contains(3.0)

    def test_unbounded(self):
        iv = TimeInterval(0.0, INF)
        assert iv.duration == INF
        assert iv.contains(1e18)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            TimeInterval(2.0, 1.0)

    def test_nan_rejected(self):
        with pytest.raises(ValueError):
            TimeInterval(math.nan, 1.0)
        with pytest.raises(ValueError):
            TimeInterval(0.0, math.nan)

    def test_start_at_inf_rejected(self):
        with pytest.raises(ValueError):
            TimeInterval(INF, INF)

    def test_immutable(self):
        iv = TimeInterval(0.0, 1.0)
        with pytest.raises(AttributeError):
            iv.start = 5.0

    def test_repr_and_iter(self):
        iv = TimeInterval(1.0, INF)
        assert "INF" in repr(iv)
        assert tuple(iv) == (1.0, INF)


class TestPredicates:
    def test_contains_boundaries(self):
        iv = TimeInterval(1.0, 4.0)
        assert iv.contains(1.0)
        assert iv.contains(4.0)
        assert not iv.contains(0.999)
        assert not iv.contains(4.001)

    def test_contains_interval(self):
        outer = TimeInterval(0.0, 10.0)
        assert outer.contains_interval(TimeInterval(2.0, 8.0))
        assert outer.contains_interval(outer)
        assert not outer.contains_interval(TimeInterval(2.0, 11.0))

    def test_overlaps_touching(self):
        assert TimeInterval(0, 2).overlaps(TimeInterval(2, 5))
        assert not TimeInterval(0, 2).overlaps(TimeInterval(2.0001, 5))


class TestAlgebra:
    def test_intersect(self):
        assert TimeInterval(1, 4).intersect(TimeInterval(3, 9)) == TimeInterval(3, 4)
        assert TimeInterval(1, 2).intersect(TimeInterval(3, 4)) is None

    def test_intersect_touching_gives_degenerate(self):
        assert TimeInterval(0, 2).intersect(TimeInterval(2, 5)) == TimeInterval(2, 2)

    def test_union(self):
        assert TimeInterval(0, 2).union(TimeInterval(1, 5)) == TimeInterval(0, 5)
        assert TimeInterval(0, 1).union(TimeInterval(2, 3)) is None

    def test_clamp(self):
        assert TimeInterval(0, 10).clamp(3, 5) == TimeInterval(3, 5)
        assert TimeInterval(0, 10).clamp(11, 12) is None

    def test_shift(self):
        assert TimeInterval(1, 2).shift(3) == TimeInterval(4, 5)

    def test_equality_and_hash(self):
        assert TimeInterval(1, 2) == TimeInterval(1, 2)
        assert hash(TimeInterval(1, 2)) == hash(TimeInterval(1, 2))
        assert TimeInterval(1, 2) != TimeInterval(1, 3)

    def test_approx_equals(self):
        assert TimeInterval(1, 2).approx_equals(TimeInterval(1 + 1e-12, 2))
        assert TimeInterval(0, INF).approx_equals(TimeInterval(0, INF))
        assert not TimeInterval(0, INF).approx_equals(TimeInterval(0, 1e18))


class TestProperties:
    @given(intervals(), intervals())
    def test_intersection_commutative(self, a, b):
        assert a.intersect(b) == b.intersect(a)

    @given(intervals(), intervals())
    def test_intersection_subset(self, a, b):
        inter = a.intersect(b)
        if inter is not None:
            assert a.contains_interval(inter)
            assert b.contains_interval(inter)

    @given(intervals(), intervals())
    def test_overlap_iff_intersection(self, a, b):
        assert a.overlaps(b) == (a.intersect(b) is not None)

    @given(intervals(allow_unbounded=False), finite)
    def test_membership_matches_intersection(self, iv, t):
        point = TimeInterval(t, t)
        assert iv.contains(t) == (iv.intersect(point) is not None)


class TestMerge:
    def test_merges_overlapping(self):
        assert merge_intervals(
            [TimeInterval(5, 9), TimeInterval(1, 5)]
        ) == [TimeInterval(1, 9)]

    def test_keeps_disjoint(self):
        merged = merge_intervals([TimeInterval(0, 1), TimeInterval(3, 4)])
        assert merged == [TimeInterval(0, 1), TimeInterval(3, 4)]

    def test_empty(self):
        assert merge_intervals([]) == []

    def test_unbounded_swallows(self):
        merged = merge_intervals([TimeInterval(0, INF), TimeInterval(5, 7)])
        assert merged == [TimeInterval(0, INF)]

    @given(st.lists(intervals(allow_unbounded=False), max_size=12), finite)
    def test_merge_preserves_membership(self, ivs, t):
        # With zero tolerance the merge is exact: membership of any
        # timestamp is unchanged.  (The default tolerance deliberately
        # fuses near-touching intervals, which can add epsilon slivers.)
        before = any(iv.contains(t) for iv in ivs)
        after = any(iv.contains(t) for iv in merge_intervals(ivs, tol=0.0))
        assert before == after

    @given(st.lists(intervals(allow_unbounded=False), max_size=12))
    def test_merge_output_disjoint_and_sorted(self, ivs):
        merged = merge_intervals(ivs, tol=0.0)
        for first, second in zip(merged, merged[1:]):
            assert first.end < second.start
