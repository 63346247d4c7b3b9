"""Unit and property tests for static boxes (MBRs/VBRs)."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.geometry import Box

coord = st.floats(min_value=-1e4, max_value=1e4, allow_nan=False, allow_infinity=False)
extent = st.floats(min_value=0.0, max_value=100.0, allow_nan=False, allow_infinity=False)


@st.composite
def boxes(draw):
    x = draw(coord)
    y = draw(coord)
    w = draw(extent)
    h = draw(extent)
    return Box(x, x + w, y, y + h)


class TestConstruction:
    def test_basic(self):
        b = Box(0, 2, 1, 4)
        assert b.bounds == (0, 2, 1, 4)
        assert b.area == 6
        assert b.margin == 5
        assert b.center == (1, 2.5)

    def test_malformed_rejected(self):
        with pytest.raises(ValueError):
            Box(2, 1, 0, 1)
        with pytest.raises(ValueError):
            Box(0, 1, 2, 1)

    def test_degenerate_point(self):
        p = Box.point(3, 4)
        assert p.area == 0
        assert Box(0, 5, 0, 5).contains(p)

    def test_from_bounds(self):
        assert Box.from_bounds((0, 1, 2, 3)) == Box(0, 1, 2, 3)
        with pytest.raises(ValueError):
            Box.from_bounds((0, 1, 2))

    def test_union_of(self):
        u = Box.union_of([Box(0, 1, 0, 1), Box(5, 6, -2, 0)])
        assert u == Box(0, 6, -2, 1)
        with pytest.raises(ValueError):
            Box.union_of([])

    def test_immutable_and_hashable(self):
        b = Box(0, 1, 0, 1)
        with pytest.raises(AttributeError):
            b.something = 1
        assert hash(b) == hash(Box(0, 1, 0, 1))

    def test_dim_accessors(self):
        b = Box(0, 2, 3, 7)
        assert (b.lo(0), b.hi(0)) == (0, 2)
        assert (b.lo(1), b.hi(1)) == (3, 7)
        assert b.side(0) == 2
        assert b.side(1) == 4


class TestGeometry:
    def test_intersects_touching(self):
        assert Box(0, 1, 0, 1).intersects(Box(1, 2, 0, 1))

    def test_disjoint(self):
        assert not Box(0, 1, 0, 1).intersects(Box(1.01, 2, 0, 1))
        assert Box(0, 1, 0, 1).intersection(Box(1.01, 2, 0, 1)) is None

    def test_intersection_value(self):
        inter = Box(0, 4, 0, 4).intersection(Box(2, 6, 1, 3))
        assert inter == Box(2, 4, 1, 3)

    def test_contains(self):
        assert Box(0, 10, 0, 10).contains(Box(1, 2, 3, 4))
        assert not Box(0, 10, 0, 10).contains(Box(1, 11, 3, 4))

    def test_enlargement(self):
        assert Box(0, 1, 0, 1).enlargement(Box(0, 2, 0, 1)) == pytest.approx(1.0)
        assert Box(0, 2, 0, 2).enlargement(Box(0, 1, 0, 1)) == 0.0

    def test_overlap_area(self):
        assert Box(0, 2, 0, 2).overlap_area(Box(1, 3, 1, 3)) == pytest.approx(1.0)
        assert Box(0, 1, 0, 1).overlap_area(Box(5, 6, 5, 6)) == 0.0

    def test_min_distance(self):
        assert Box(0, 1, 0, 1).min_distance(Box(4, 5, 4, 5)) == pytest.approx(
            (3**2 + 3**2) ** 0.5
        )
        assert Box(0, 2, 0, 2).min_distance(Box(1, 3, 1, 3)) == 0.0

    def test_translated(self):
        assert Box(0, 1, 0, 1).translated(2, -1) == Box(2, 3, -1, 0)

    def test_expanded(self):
        assert Box(0, 1, 0, 1).expanded(1, 2, 3, 4) == Box(-1, 3, -3, 5)


class TestProperties:
    @given(boxes(), boxes())
    def test_union_contains_both(self, a, b):
        u = a.union(b)
        assert u.contains(a)
        assert u.contains(b)

    @given(boxes(), boxes())
    def test_intersection_inside_both(self, a, b):
        inter = a.intersection(b)
        if inter is not None:
            assert a.contains(inter)
            assert b.contains(inter)

    @given(boxes(), boxes())
    def test_intersects_symmetric(self, a, b):
        assert a.intersects(b) == b.intersects(a)

    @given(boxes(), boxes())
    def test_intersects_iff_intersection(self, a, b):
        assert a.intersects(b) == (a.intersection(b) is not None)

    @given(boxes(), boxes())
    def test_enlargement_non_negative(self, a, b):
        assert a.enlargement(b) >= -1e-9

    @given(boxes(), boxes())
    def test_min_distance_zero_iff_intersecting(self, a, b):
        if a.intersects(b):
            assert a.min_distance(b) == 0.0
        else:
            assert a.min_distance(b) > 0.0
