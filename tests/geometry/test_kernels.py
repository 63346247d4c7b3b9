"""Batch kernels agree EXACTLY with the scalar geometry oracle.

The vectorized kernels (:mod:`repro.geometry.kernels`) promise
bit-identical results to the scalar path — not approximately equal,
*equal*: same intervals to the last bit, same candidate pairs, same
ordering.  These tests enforce that promise with hypothesis-generated
boxes (including subnormal velocities and exact-tangency contacts) and
handcrafted degenerate cases: zero-length windows (``t0 == t1``),
touching boundaries, zero velocities, and infinite windows.
"""

from __future__ import annotations

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry import (
    INF,
    Box,
    KineticBatch,
    KineticBox,
    all_pairs_intersection,
    batch_all_pairs_intersection,
    batch_filter_against,
    batch_intersection_intervals,
    batch_probe_windows,
    batch_ps_intersection,
    batch_select_sweep_dimension,
    batch_sweep_bounds,
    intersection_interval,
    ps_intersection,
    sweep_bounds,
)

from ..conftest import random_kbox

# Finite values spanning magnitudes down to subnormals — the regime
# where different float associations actually diverge.
finite = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
)
small = st.floats(min_value=-10.0, max_value=10.0, allow_nan=False)
tref = st.floats(min_value=-5.0, max_value=5.0, allow_nan=False)


@st.composite
def kboxes(draw):
    """An arbitrary (possibly degenerate, possibly expanding) kinetic box."""
    x0, y0 = draw(finite), draw(finite)
    w, h = draw(st.floats(min_value=0.0, max_value=100.0)), draw(
        st.floats(min_value=0.0, max_value=100.0)
    )
    vxl, vyl = draw(small), draw(small)
    vxh = draw(st.floats(min_value=0.0, max_value=5.0))
    vyh = draw(st.floats(min_value=0.0, max_value=5.0))
    return KineticBox(
        Box(x0, x0 + w, y0, y0 + h),
        Box(vxl, vxl + vxh, vyl, vyl + vyh),
        draw(tref),
    )


@st.composite
def windows(draw):
    """A window ``[t0, t1]`` with t1 >= t0; degenerate t0 == t1 allowed."""
    t0 = draw(st.floats(min_value=0.0, max_value=20.0, allow_nan=False))
    dt = draw(st.floats(min_value=0.0, max_value=30.0, allow_nan=False))
    return t0, t0 + dt


def batch_of(boxes):
    return KineticBatch.from_boxes(list(boxes))


def scalar_window(a, b, t0, t1):
    iv = intersection_interval(a, b, t0, t1)
    return None if iv is None else (iv.start, iv.end)


def assert_grid_matches(boxes_a, boxes_b, t0, t1):
    """The (lo, hi, ok) grid must equal per-pair scalar calls bit-for-bit."""
    lo, hi, ok = batch_intersection_intervals(
        batch_of(boxes_a), batch_of(boxes_b), t0, t1
    )
    for i, a in enumerate(boxes_a):
        for j, b in enumerate(boxes_b):
            expect = scalar_window(a, b, t0, t1)
            if expect is None:
                assert not ok[i, j], (i, j, a, b)
            else:
                assert ok[i, j], (i, j, a, b)
                # Exact equality — the whole point of the shared
                # pre-shifted association.
                assert float(lo[i, j]) == expect[0], (i, j, a, b)
                assert float(hi[i, j]) == expect[1], (i, j, a, b)


class TestPairWindowParity:
    @given(kboxes(), kboxes(), windows())
    @settings(max_examples=300, deadline=None)
    def test_single_pair_exact(self, a, b, window):
        t0, t1 = window
        assert_grid_matches([a], [b], t0, t1)

    @given(kboxes(), kboxes())
    @settings(max_examples=100, deadline=None)
    def test_infinite_window(self, a, b):
        assert_grid_matches([a], [b], 0.0, INF)

    @given(kboxes(), kboxes(), st.floats(min_value=0.0, max_value=20.0))
    @settings(max_examples=100, deadline=None)
    def test_degenerate_window(self, a, b, t):
        assert_grid_matches([a], [b], t, t)

    def test_rejects_inverted_window(self):
        batch = batch_of([random_kbox(random.Random(0))])
        with pytest.raises(ValueError):
            batch_intersection_intervals(batch, batch, 5.0, 4.0)
        with pytest.raises(ValueError):
            intersection_interval(batch.box(0), batch.box(0), 5.0, 4.0)

    def test_touching_boundaries(self):
        # Two static boxes sharing exactly the x = 1 edge: closed-box
        # semantics ⇒ they intersect over the whole window.
        a = KineticBox.rigid(Box(0, 1, 0, 1), 0.0, 0.0, 0.0)
        b = KineticBox.rigid(Box(1, 2, 0, 1), 0.0, 0.0, 0.0)
        assert_grid_matches([a], [b], 0.0, 10.0)
        lo, hi, ok = batch_intersection_intervals(batch_of([a]), batch_of([b]), 0, 10)
        assert ok[0, 0] and float(lo[0, 0]) == 0.0 and float(hi[0, 0]) == 10.0

    def test_zero_velocities_disjoint(self):
        a = KineticBox.rigid(Box(0, 1, 0, 1), 0.0, 0.0, 0.0)
        b = KineticBox.rigid(Box(3, 4, 0, 1), 0.0, 0.0, 0.0)
        _lo, _hi, ok = batch_intersection_intervals(batch_of([a]), batch_of([b]), 0, 10)
        assert not ok[0, 0]
        assert_grid_matches([a], [b], 0.0, 10.0)

    def test_grazing_contact_subnormal_velocity(self):
        # The association-sensitive case: a subnormal velocity whose
        # t_ref shift underflows.  Both paths must make the same call.
        v = 3.703016526847892e-38
        a = KineticBox(Box(0, 1, 0, 0), Box(v, v, 0, 0), 1.0)
        b = KineticBox.rigid(Box(1, 1, 0, 0), 0.0, 0.0, 0.0)
        assert_grid_matches([a], [b], 0.0, 25.0)

    @given(st.lists(kboxes(), min_size=0, max_size=7),
           st.lists(kboxes(), min_size=0, max_size=7), windows())
    @settings(max_examples=60, deadline=None)
    def test_grid_exact(self, boxes_a, boxes_b, window):
        t0, t1 = window
        if boxes_a and boxes_b:
            assert_grid_matches(boxes_a, boxes_b, t0, t1)


class TestSweepBoundsParity:
    @given(kboxes(), windows(), st.integers(min_value=0, max_value=1))
    @settings(max_examples=200, deadline=None)
    def test_finite_window(self, kb, window, dim):
        t0, t1 = window
        lb, ub = batch_sweep_bounds(batch_of([kb]), dim, t0, t1)
        slb, sub = sweep_bounds(kb, dim, t0, t1)
        assert float(lb[0]) == slb and float(ub[0]) == sub

    @given(kboxes(), st.floats(min_value=0, max_value=20),
           st.integers(min_value=0, max_value=1))
    @settings(max_examples=100, deadline=None)
    def test_infinite_window(self, kb, t0, dim):
        lb, ub = batch_sweep_bounds(batch_of([kb]), dim, t0, INF)
        slb, sub = sweep_bounds(kb, dim, t0, INF)
        assert float(lb[0]) == slb and float(ub[0]) == sub


class TestProbeParity:
    """The 1-vs-N probe kernel is exact in *both* role orientations."""

    @given(st.lists(kboxes(), min_size=1, max_size=8), kboxes(), windows())
    @settings(max_examples=100, deadline=None)
    def test_windows_exact_both_orientations(self, boxes, other, window):
        t0, t1 = window
        lo, hi, ok = batch_probe_windows(batch_of(boxes), other, t0, t1)
        for i, kb in enumerate(boxes):
            for a, b in ((kb, other), (other, kb)):
                expect = scalar_window(a, b, t0, t1)
                if expect is None:
                    assert not ok[i], (i, a, b)
                else:
                    assert ok[i], (i, a, b)
                    assert float(lo[i]) == expect[0], (i, a, b)
                    assert float(hi[i]) == expect[1], (i, a, b)

    def test_rejects_inverted_window(self):
        batch = batch_of([random_kbox(random.Random(0))])
        with pytest.raises(ValueError):
            batch_probe_windows(batch, batch.box(0), 5.0, 4.0)


class TestFilterParity:
    @given(st.lists(kboxes(), min_size=1, max_size=10), kboxes(), windows())
    @settings(max_examples=100, deadline=None)
    def test_mask_matches_scalar(self, boxes, other, window):
        t0, t1 = window
        mask = batch_filter_against(batch_of(boxes), other, t0, t1)
        for i, kb in enumerate(boxes):
            assert bool(mask[i]) == (
                intersection_interval(kb, other, t0, t1) is not None
            ), (i, kb, other)


class TestSweepParity:
    """ps/all-pairs kernels return the *same triples in the same order*."""

    def _random_sets(self, seed, n_a, n_b):
        rng = random.Random(seed)
        return (
            [random_kbox(rng) for _ in range(n_a)],
            [random_kbox(rng) for _ in range(n_b)],
        )

    @pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
    def test_all_pairs_exact(self, seed):
        boxes_a, boxes_b = self._random_sets(seed, 40, 35)
        ca, ck = [0], [0]
        scalar = all_pairs_intersection(boxes_a, boxes_b, 0, 30, ca, use_kernels=False)
        vector = all_pairs_intersection(boxes_a, boxes_b, 0, 30, ck, use_kernels=True)
        assert ca == ck
        assert [(i, j, iv.start, iv.end) for i, j, iv in scalar] == [
            (i, j, iv.start, iv.end) for i, j, iv in vector
        ]

    @pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("dim", [None, 0, 1])
    def test_ps_exact(self, seed, dim):
        boxes_a, boxes_b = self._random_sets(seed, 45, 40)
        ca, ck = [0], [0]
        scalar = ps_intersection(
            boxes_a, boxes_b, 0, 12, dim=dim, counter=ca, use_kernels=False
        )
        vector = ps_intersection(
            boxes_a, boxes_b, 0, 12, dim=dim, counter=ck, use_kernels=True
        )
        assert ca == ck, "candidate counts diverged"
        assert [(i, j, iv.start, iv.end) for i, j, iv in scalar] == [
            (i, j, iv.start, iv.end) for i, j, iv in vector
        ]

    def test_ps_degenerate_window(self):
        boxes_a, boxes_b = self._random_sets(9, 30, 30)
        scalar = ps_intersection(boxes_a, boxes_b, 5.0, 5.0, use_kernels=False)
        vector = ps_intersection(boxes_a, boxes_b, 5.0, 5.0, use_kernels=True)
        assert [(i, j, iv.start, iv.end) for i, j, iv in scalar] == [
            (i, j, iv.start, iv.end) for i, j, iv in vector
        ]

    def test_empty_sides(self):
        boxes, _ = self._random_sets(3, 5, 0)
        assert ps_intersection(boxes, [], 0, 10, use_kernels=True) == []
        assert ps_intersection([], boxes, 0, 10, use_kernels=True) == []
        assert all_pairs_intersection([], boxes, 0, 10, use_kernels=True) == []


class TestDimensionSelection:
    @pytest.mark.parametrize("seed", [11, 12, 13])
    def test_matches_scalar_choice(self, seed):
        from repro.geometry import select_sweep_dimension

        boxes_a, boxes_b = (
            [random_kbox(random.Random(seed)) for _ in range(20)],
            [random_kbox(random.Random(seed + 100)) for _ in range(20)],
        )
        scalar = select_sweep_dimension(boxes_a, boxes_b)
        vector = batch_select_sweep_dimension(batch_of(boxes_a), batch_of(boxes_b))
        assert scalar == vector

    def test_speed_sums_cached(self):
        batch = batch_of([random_kbox(random.Random(0)) for _ in range(8)])
        first = batch.speed_sums
        assert batch.speed_sums is first  # computed once, reused


class TestKineticBatch:
    def test_round_trip(self):
        rng = random.Random(42)
        boxes = [random_kbox(rng) for _ in range(10)]
        batch = batch_of(boxes)
        assert len(batch) == 10
        for i, kb in enumerate(boxes):
            assert batch.box(i) == kb

    def test_compress(self):
        rng = random.Random(7)
        boxes = [random_kbox(rng) for _ in range(6)]
        batch = batch_of(boxes)
        import numpy as np

        mask = np.array([True, False, True, False, True, False])
        sub = batch.compress(mask)
        assert len(sub) == 3
        assert [sub.box(k) for k in range(3)] == [boxes[0], boxes[2], boxes[4]]
