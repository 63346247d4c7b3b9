"""Unit and property tests for kinetic (moving) boxes."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry import Box, KineticBox

from ..conftest import random_kbox

small = st.floats(min_value=-50, max_value=50, allow_nan=False, allow_infinity=False)
ext = st.floats(min_value=0.0, max_value=20.0, allow_nan=False, allow_infinity=False)
speed = st.floats(min_value=-5, max_value=5, allow_nan=False, allow_infinity=False)
tval = st.floats(min_value=0.0, max_value=50.0, allow_nan=False, allow_infinity=False)


@st.composite
def rigid_kboxes(draw):
    x = draw(small)
    y = draw(small)
    w = draw(ext)
    h = draw(ext)
    vx = draw(speed)
    vy = draw(speed)
    t_ref = draw(st.floats(min_value=0.0, max_value=5.0, allow_nan=False))
    return KineticBox.rigid(Box(x, x + w, y, y + h), vx, vy, t_ref)


class TestEvaluation:
    def test_rigid_translation(self):
        kb = KineticBox.rigid(Box(0, 1, 0, 1), 1, -0.5, 0.0)
        assert kb.at(4.0) == Box(4, 5, -2, -1)

    def test_moving_point(self):
        kb = KineticBox.moving_point(2, 3, 1, 1, 1.0)
        assert kb.at(3.0) == Box.point(4, 5)

    def test_bounds_per_dimension(self):
        kb = KineticBox(Box(0, 2, 0, 3), Box(-1, 1, 0, 2), 0.0)
        assert kb.lo(0, 2.0) == -2
        assert kb.hi(0, 2.0) == 4
        assert kb.lo(1, 2.0) == 0
        assert kb.hi(1, 2.0) == 7

    def test_with_reference(self):
        kb = KineticBox.rigid(Box(0, 1, 0, 1), 2, 0, 0.0)
        moved = kb.with_reference(3.0)
        assert moved.t_ref == 3.0
        assert moved.at(5.0) == kb.at(5.0)

    def test_params_roundtrip(self):
        kb = KineticBox(Box(1, 2, 3, 4), Box(-1, 1, -2, 2), 7.5)
        assert KineticBox.from_params(kb.params()) == kb
        with pytest.raises(ValueError):
            KineticBox.from_params((1.0, 2.0))

    def test_immutable(self):
        kb = KineticBox.rigid(Box(0, 1, 0, 1), 0, 0, 0.0)
        with pytest.raises(AttributeError):
            kb.t_ref = 5.0


class TestUnion:
    def test_union_requires_input(self):
        with pytest.raises(ValueError):
            KineticBox.union_at(0.0, [])

    @given(st.lists(rigid_kboxes(), min_size=1, max_size=6), tval, tval)
    @settings(max_examples=200)
    def test_union_bounds_children_forever(self, children, t_ref_off, dt):
        t_ref = max(c.t_ref for c in children) + t_ref_off
        union = KineticBox.union_at(t_ref, children)
        t = t_ref + dt
        ubox = union.at(t).expanded(1e-6, 1e-6, 1e-6, 1e-6)
        for child in children:
            assert ubox.contains(child.at(t))


class TestIntegratedArea:
    def test_static_box(self):
        kb = KineticBox.rigid(Box(0, 2, 0, 3), 1, 1, 0.0)
        # Rigid box: area constant 6, integral over [0, 5] = 30.
        assert kb.integrated_area(0, 5) == pytest.approx(30.0)

    def test_growing_box_closed_form(self):
        kb = KineticBox(Box(0, 2, 0, 3), Box(-0.5, 0.5, -1, 1), 0.0)
        # w(t) = 2 + t, h(t) = 3 + 2t; ∫₀²(2+t)(3+2t)dt = 12 + 14 + 16/3.
        assert kb.integrated_area(0, 2) == pytest.approx(12 + 14 + 16 / 3)

    def test_zero_length_interval(self):
        kb = KineticBox.rigid(Box(0, 1, 0, 1), 0, 0, 0.0)
        assert kb.integrated_area(3, 3) == 0.0

    def test_reversed_interval_rejected(self):
        kb = KineticBox.rigid(Box(0, 1, 0, 1), 0, 0, 0.0)
        with pytest.raises(ValueError):
            kb.integrated_area(2, 1)

    def test_shrinking_vbr_unconstructible(self):
        # A bound whose extent shrinks (v_lo > v_hi) cannot even be
        # built: Box enforces lo <= hi, so the clamping branch of
        # integrated_area is purely defensive.
        with pytest.raises(ValueError):
            KineticBox(Box(0, 1, 0, 1), Box(0.5, -0.5, 0, 0), 0.0)

    def test_degenerate_extent_zero_area(self):
        kb = KineticBox(Box(0, 0, 0, 5), Box(0, 0, 0, 0), 0.0)
        assert kb.integrated_area(0, 10) == 0.0

    @given(rigid_kboxes(), tval, tval)
    @settings(max_examples=100)
    def test_matches_numeric_integration(self, kb, t0_off, length):
        t0 = kb.t_ref + t0_off
        t1 = t0 + length
        exact = kb.integrated_area(t0, t1)
        steps = 400
        dt = (t1 - t0) / steps if steps else 0

        def clamped_area(t):
            return max(kb.extent(0, t), 0.0) * max(kb.extent(1, t), 0.0)

        numeric = sum(clamped_area(t0 + (i + 0.5) * dt) * dt for i in range(steps))
        assert exact == pytest.approx(numeric, rel=1e-2, abs=1e-6)

    def test_union_enlargement_non_negative(self):
        rng = random.Random(7)
        for _ in range(100):
            a = random_kbox(rng)
            b = random_kbox(rng)
            t0 = max(a.t_ref, b.t_ref)
            assert a.integrated_union_enlargement(b, t0, t0 + 10) >= -1e-6


class TestSpeedSum:
    def test_rigid(self):
        kb = KineticBox.rigid(Box(0, 1, 0, 1), 3, -2, 0.0)
        assert kb.speed_sum(0) == 6
        assert kb.speed_sum(1) == 4

    def test_bounding(self):
        kb = KineticBox(Box(0, 1, 0, 1), Box(-1, 2, 0, 0), 0.0)
        assert kb.speed_sum(0) == 3
        assert kb.speed_sum(1) == 0
