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

from repro.geometry import kernels
from repro.geometry.constants import PAIR_TEST_EPS
from repro.geometry.kernels import batch_sweep_join

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

    def test_signed_zero_contact_at_t0(self):
        # b.lo(t) - a.hi(t) = -0.0 - t gives a -0.0 root against the
        # window start 0.0: the scalar `max` keeps the bound, and so must
        # both kernels, sign of zero included.
        import numpy as np

        a = KineticBox.rigid(Box(-1.0, 0.0, 0.0, 1.0), 1.0, 0.0, 0.0)
        b = KineticBox.rigid(Box(-0.0, 2.0, 0.0, 1.0), 0.0, 0.0, 0.0)
        want = np.array(scalar_window(a, b, 0.0, 5.0)).tobytes()
        lo, hi, ok = batch_intersection_intervals(batch_of([a]), batch_of([b]), 0.0, 5.0)
        assert ok[0, 0] and np.array([lo[0, 0], hi[0, 0]]).tobytes() == want
        lo, hi, ok = batch_probe_windows(batch_of([a]), b, 0.0, 5.0)
        assert ok[0] and np.array([lo[0], hi[0]]).tobytes() == want

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
        scalar = all_pairs_intersection(boxes_a, boxes_b, 0, 30, ca)
        vector = batch_all_pairs_intersection(batch_of(boxes_a), batch_of(boxes_b), 0, 30, ck)
        assert ca == ck
        assert [(i, j, iv.start, iv.end) for i, j, iv in scalar] == [
            (i, j, iv.start, iv.end) for i, j, iv in vector
        ]

    @pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("dim", [None, 0, 1])
    def test_ps_exact(self, seed, dim):
        boxes_a, boxes_b = self._random_sets(seed, 45, 40)
        ca, ck = [0], [0]
        scalar = ps_intersection(boxes_a, boxes_b, 0, 12, dim=dim, counter=ca)
        vector = batch_ps_intersection(
            batch_of(boxes_a), batch_of(boxes_b), 0, 12, dim=dim, counter=ck
        )
        assert ca == ck, "candidate counts diverged"
        assert [(i, j, iv.start, iv.end) for i, j, iv in scalar] == [
            (i, j, iv.start, iv.end) for i, j, iv in vector
        ]

    def test_ps_degenerate_window(self):
        boxes_a, boxes_b = self._random_sets(9, 30, 30)
        scalar = ps_intersection(boxes_a, boxes_b, 5.0, 5.0)
        vector = batch_ps_intersection(batch_of(boxes_a), batch_of(boxes_b), 5.0, 5.0)
        assert [(i, j, iv.start, iv.end) for i, j, iv in scalar] == [
            (i, j, iv.start, iv.end) for i, j, iv in vector
        ]

    def test_empty_sides(self):
        boxes, _ = self._random_sets(3, 5, 0)
        batch, empty = batch_of(boxes), batch_of([])
        assert batch_ps_intersection(batch, empty, 0, 10) == []
        assert batch_ps_intersection(empty, batch, 0, 10) == []
        assert batch_all_pairs_intersection(empty, batch, 0, 10) == []


# ----------------------------------------------------------------------
# The sweep join's orthogonal-bound reject never drops an accepted pair
# ----------------------------------------------------------------------
#: Coordinate scales: the unit space, the 1M-object space (side
#: 1000 * sqrt(1e6 / 1000)) and far beyond it.
SCALES = (1.0, 31_623.0, 1e7)
SUBNORMAL = 5e-324


def ulps(x, k):
    """``x`` moved ``k`` representable doubles up (down for negative k)."""
    for _ in range(abs(k)):
        x = math.nextafter(x, math.inf if k > 0 else -math.inf)
    return x


def aimed_pair(axis, scale, offset, width, v, dv, t_ref, t_contact, gap, gap_ulps):
    """Two boxes whose ``axis`` ranges meet, give or take ``gap``, at ``t_contact``.

    ``b`` sits above ``a`` on ``axis`` with relative velocity ``dv`` and
    is placed so that ``b.lo(t_contact) = a.hi(t_contact) + gap`` (then
    nudged ``gap_ulps`` doubles); on the other axis both span the same
    generous range, so the pair is a 1-D candidate when that one sweeps.
    """
    a_lo = offset * scale
    a_hi = a_lo + width * scale
    b_lo = ulps(a_hi - dv * (t_contact - t_ref) + gap, gap_ulps)
    b_hi = b_lo + width * scale
    span = (0.0, 10.0 * scale)

    def kbox(lo, hi, vel):
        pos = (lo, hi, *span) if axis == 0 else (*span, lo, hi)
        vbr = (vel, vel, 0.0, 0.0) if axis == 0 else (0.0, 0.0, vel, vel)
        return KineticBox(Box(*pos), Box(*vbr), t_ref)

    return kbox(a_lo, a_hi, v), kbox(b_lo, b_hi, v + dv)


@st.composite
def filter_cases(draw):
    """Box sets aimed at the reject's decision boundary, plus a window."""
    scale = draw(st.sampled_from(SCALES))
    axis = draw(st.sampled_from([0, 1]))
    t0 = draw(st.sampled_from([0.0, 3.0, 7.25]))
    t1 = draw(st.sampled_from([t0, t0 + 12.0, t0 + 60.0, INF]))
    boxes_a, boxes_b = [], []
    for k in range(draw(st.integers(min_value=1, max_value=6))):
        # Equal velocities (the flat-slope `c <= EPS` accept), a
        # subnormal relative velocity (the overflow-to-inf guard), or an
        # ordinary closing/opening speed with contact at a window end.
        dv = draw(st.sampled_from([0.0, SUBNORMAL, -SUBNORMAL, 1.5, -1.5, 1e-3]))
        a, b = aimed_pair(
            axis,
            scale,
            offset=k * 40.0,
            width=draw(st.sampled_from([0.0, 1.0, 3.7])),
            v=draw(st.sampled_from([0.0, 2.0, -1.3, 0.1])),
            dv=dv,
            t_ref=draw(st.sampled_from([0.0, t0, -4.5, 2.75])),
            t_contact=draw(st.sampled_from([t0, t0 if t1 == INF else t1])),
            gap=draw(st.sampled_from([0.0, PAIR_TEST_EPS, -PAIR_TEST_EPS])),
            gap_ulps=draw(st.sampled_from([0, 1, -1])),
        )
        if draw(st.booleans()):
            a, b = b, a
        boxes_a.append(a)
        boxes_b.append(b)
    return boxes_a, boxes_b, t0, t1


def assert_sweep_join_matches(boxes_a, boxes_b, t0, t1):
    """Rows, row order and windows equal the scalar sweep's on both axes.

    The scalar sweep's candidate count is pinned where the tree engines
    read it, on ``ps_intersection``; the join's own ``counter[0]`` is its
    grid's stage-one work, the same whichever axis sweeps.
    """
    batch_a, batch_b = batch_of(boxes_a), batch_of(boxes_b)
    stage_one = set()
    for dim in (0, 1):
        cs, cp = [0], [0]
        scalar = [
            (i, j, iv.start, iv.end)
            for i, j, iv in ps_intersection(boxes_a, boxes_b, t0, t1, dim=dim, counter=cs)
        ]
        batch_ps_intersection(batch_a, batch_b, t0, t1, dim=dim, counter=cp)
        assert cp == cs, dim
        for chunk in (1, 7, 65_536):
            ck = [0, 0]
            idx_a, idx_b, lo, hi = batch_sweep_join(
                batch_a, batch_b, t0, t1, dim=dim, counter=ck, chunk=chunk
            )
            rows = list(zip(idx_a.tolist(), idx_b.tolist(), lo.tolist(), hi.tolist()))
            assert rows == scalar, (dim, chunk)
            assert len(rows) <= ck[1] <= ck[0], (dim, chunk)
            stage_one.add(ck[0])
    assert len(stage_one) == 1, stage_one


class TestSweepFilterConservative:
    @given(filter_cases())
    @settings(max_examples=300, deadline=None)
    def test_aimed_cases_exact(self, case):
        assert_sweep_join_matches(*case)

    @given(st.lists(kboxes(), min_size=1, max_size=12),
           st.lists(kboxes(), min_size=1, max_size=12), windows())
    @settings(max_examples=100, deadline=None)
    def test_arbitrary_boxes_exact(self, boxes_a, boxes_b, window):
        assert_sweep_join_matches(boxes_a, boxes_b, *window)
        assert_sweep_join_matches(boxes_a, boxes_b, window[0], INF)

    @pytest.mark.parametrize("scale", SCALES)
    @pytest.mark.parametrize("axis", [0, 1])
    @pytest.mark.parametrize("t1", [0.0, 12.0, INF])
    @pytest.mark.parametrize("dv", [0.0, SUBNORMAL, -SUBNORMAL, 1.5, -1.5])
    def test_pinned_boundary_cases(self, scale, axis, t1, dv):
        boxes_a, boxes_b = [], []
        k = 0
        for t_contact in {0.0, 0.0 if t1 == INF else t1}:
            for gap in (0.0, PAIR_TEST_EPS, -PAIR_TEST_EPS):
                for gap_ulps in (0, 1, -1):
                    a, b = aimed_pair(
                        axis, scale, k * 40.0, 1.0, 0.75, dv, -4.5, t_contact, gap, gap_ulps
                    )
                    boxes_a.append(a)
                    boxes_b.append(b)
                    k += 1
        assert_sweep_join_matches(boxes_a, boxes_b, 0.0, t1)

    # Found by random search over the `filter_cases` space: the exact
    # test accepts, yet the swept bounds as computed are separated — by
    # one or two ulps of the coordinate, far more than PAIR_TEST_EPS at
    # these scales.  An absolute slack would drop them; a relative one
    # must not.  (scale, axis, t, aimed_pair arguments)
    ROUNDING_AT_SCALE = [
        (31_623.0, 0, 7.25, (13.7, 3.7, -1.3, 1e-3, -4.5, 7.25, -PAIR_TEST_EPS, 0)),
        (1e7, 1, 3.0, (80.0, 1.0, 0.1, 1e-3, -4.5, 3.0, PAIR_TEST_EPS, 1)),
    ]

    @pytest.mark.parametrize("scale, axis, t, args", ROUNDING_AT_SCALE)
    def test_pinned_rounding_at_scale(self, scale, axis, t, args):
        a, b = aimed_pair(axis, scale, *args)
        assert intersection_interval(a, b, t, t) is not None
        lb_a, ub_a = batch_sweep_bounds(batch_of([a]), axis, t, t)
        lb_b, ub_b = batch_sweep_bounds(batch_of([b]), axis, t, t)
        separation = max(float(lb_a[0] - ub_b[0]), float(lb_b[0] - ub_a[0]))
        assert separation > 10 * PAIR_TEST_EPS  # not vacuous
        assert_sweep_join_matches([a], [b], t, t)

    def _forgiven_gap(self):
        # Equal velocities, orthogonal gap of EPS/2: separated swept
        # ranges, yet the exact test's flat-slope rule accepts the pair.
        return aimed_pair(1, 1.0, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0, PAIR_TEST_EPS / 2, 0)

    def test_forgiven_gap_is_kept(self):
        a, b = self._forgiven_gap()
        assert intersection_interval(a, b, 0.0, 10.0) is not None
        assert_sweep_join_matches([a], [b], 0.0, 10.0)

    def test_forgiven_gap_needs_the_slack(self, monkeypatch):
        """The pinned case bites: with no slack the filter drops the pair."""
        a, b = self._forgiven_gap()
        monkeypatch.setattr(kernels, "_FILTER_SLACK", 0.0)
        idx_a, _, _, _ = batch_sweep_join(batch_of([a]), batch_of([b]), 0.0, 10.0, dim=0)
        assert idx_a.shape[0] == 0

    def test_second_counter_slot_counts_exact_tests(self):
        rng = random.Random(5)
        boxes_a = [random_kbox(rng) for _ in range(60)]
        boxes_b = [random_kbox(rng) for _ in range(60)]
        counter = [0, 0]
        idx_a, _, _, _ = batch_sweep_join(
            batch_of(boxes_a), batch_of(boxes_b), 0.0, 12.0, counter=counter
        )
        assert 0 < idx_a.shape[0] <= counter[1] < counter[0]
        one_slot = [0]
        batch_sweep_join(batch_of(boxes_a), batch_of(boxes_b), 0.0, 12.0, counter=one_slot)
        assert one_slot == [counter[0]]


# ----------------------------------------------------------------------
# Per-row window ends: one call equals the calls on the end groups
# ----------------------------------------------------------------------
def grouped_scalar_rows(boxes_a, boxes_b, t0, t1, ends_a, ends_b, dim):
    """What the per-bucket loop computed: one scalar sweep per pair of
    end groups over ``[t0, min(t1, end_a, end_b)]``, rows as ``(i, j, lo,
    hi)`` sorted by ``(i, j)``.  A side without ends is one group at ``t1``."""
    ends_a = [t1] * len(boxes_a) if ends_a is None else ends_a
    ends_b = [t1] * len(boxes_b) if ends_b is None else ends_b
    rows = []
    for end_a in sorted(set(ends_a)):
        rows_a = [i for i, e in enumerate(ends_a) if e == end_a]
        for end_b in sorted(set(ends_b)):
            rows_b = [j for j, e in enumerate(ends_b) if e == end_b]
            rows += [
                (rows_a[i], rows_b[j], iv.start, iv.end)
                for i, j, iv in ps_intersection(
                    [boxes_a[i] for i in rows_a],
                    [boxes_b[j] for j in rows_b],
                    t0,
                    min(t1, end_a, end_b),
                    dim=dim,
                )
            ]
    return sorted(rows)


def row_bytes(rows):
    """``(i, j, lo, hi)`` rows as bytes: ``-0.0`` and ``0.0`` differ."""
    import numpy as np

    return tuple(
        np.array([row[k] for row in rows], dtype=dtype).tobytes()
        for k, dtype in enumerate((np.int64, np.int64, np.float64, np.float64))
    )


def assert_per_row_join_matches(boxes_a, boxes_b, t0, t1, ends_a, ends_b):
    import numpy as np

    batch_a, batch_b = batch_of(boxes_a), batch_of(boxes_b)
    ends = tuple(None if e is None else np.array(e, dtype=np.float64) for e in (ends_a, ends_b))
    for dim in (0, 1):
        want = grouped_scalar_rows(boxes_a, boxes_b, t0, t1, ends_a, ends_b, dim)
        orders = set()
        for chunk in (1, 7, 65_536):
            counter = [0, 0]
            planes = batch_sweep_join(
                batch_a, batch_b, t0, t1, dim=dim, counter=counter, chunk=chunk, ends=ends
            )
            got = list(zip(*(plane.tolist() for plane in planes)))
            assert row_bytes(sorted(got)) == row_bytes(want), (dim, chunk)
            assert len(got) <= counter[1] <= counter[0]
            orders.add(row_bytes(got))
        assert len(orders) == 1, dim  # chunk-invariant, order included


@st.composite
def per_row_cases(draw):
    boxes_a = draw(st.lists(kboxes(), min_size=1, max_size=7))
    boxes_b = draw(st.lists(kboxes(), min_size=1, max_size=7))
    # From zero: a window bound or contact at exactly t = 0 must come back
    # with the scalar path's sign of zero (compared as bytes).
    t0 = draw(st.floats(min_value=0.0, max_value=20.0, allow_nan=False))
    spans = st.floats(min_value=0.0, max_value=30.0, allow_nan=False)

    def side_ends(n):
        if draw(st.booleans()):
            return None
        distinct = [t0 + draw(spans) for _ in range(draw(st.integers(1, 4)))]
        return [draw(st.sampled_from(distinct)) for _ in range(n)]

    ends_a, ends_b = side_ends(len(boxes_a)), side_ends(len(boxes_b))
    # The cap sits among the ends: above all, between, or below all.
    t1 = t0 + draw(spans)
    return boxes_a, boxes_b, t0, t1, ends_a, ends_b


class TestPerRowEnds:
    @given(per_row_cases())
    @settings(max_examples=200, deadline=None)
    def test_rows_are_the_union_over_end_groups(self, case):
        assert_per_row_join_matches(*case)

    @given(filter_cases(), st.data())
    @settings(max_examples=100, deadline=None)
    def test_aimed_contacts_with_a_longer_partner_window(self, case, data):
        """Grazing pairs: the row that outlives the pair's window sweeps
        further on its own, and must not bring the pair in on that."""
        boxes_a, boxes_b, t0, t1 = case
        t1 = t0 + 12.0 if t1 == INF else t1  # contacts were aimed at t0 then
        longer = st.sampled_from([t1, t1 + 1.0, t1 + 50.0])
        ends_a = [data.draw(longer) for _ in boxes_a]
        ends_b = [data.draw(longer) for _ in boxes_b]
        assert_per_row_join_matches(boxes_a, boxes_b, t0, t1 + 50.0, ends_a, ends_b)

    def test_gridded_with_three_ends_a_side(self):
        boxes_a, boxes_b = TestSweepGrid()._uniform(21, 140, 900)
        rng = random.Random(22)
        ends_a = [rng.choice([9.0, 13.0, 17.0]) for _ in boxes_a]
        ends_b = [rng.choice([8.0, 12.0, 16.0]) for _ in boxes_b]
        assert len(boxes_a) * len(boxes_b) > kernels.SWEEP_GRID_MIN_PAIRS
        assert_per_row_join_matches(boxes_a, boxes_b, 1.0, 20.0, ends_a, ends_b)
        assert_per_row_join_matches(boxes_b, boxes_a, 1.0, 20.0, ends_b, None)
        assert_per_row_join_matches(boxes_a, boxes_b, 1.0, 14.0, None, ends_b)

    def test_equal_ends_are_the_float_call_in_rows_and_order(self):
        import numpy as np

        boxes_a, boxes_b = TestSweepGrid()._uniform(23, 120, 400)
        batch_a, batch_b = batch_of(boxes_a), batch_of(boxes_b)
        for dim in (0, 1):
            want = batch_sweep_join(batch_a, batch_b, 1.0, 13.0, dim=dim)
            scalar = ps_intersection(boxes_a, boxes_b, 1.0, 13.0, dim=dim)
            assert row_bytes(list(zip(*(p.tolist() for p in want)))) == row_bytes(
                [(i, j, iv.start, iv.end) for i, j, iv in scalar]
            )
            for ends in (
                (np.full(120, 13.0), None),
                (None, np.full(400, 13.0)),
                (np.full(120, 13.0), np.full(400, 40.0)),
            ):
                got = batch_sweep_join(batch_a, batch_b, 1.0, 13.0, dim=dim, ends=ends)
                assert [p.tobytes() for p in got] == [p.tobytes() for p in want]

    def test_infinite_cap_leaves_the_per_row_ends(self):
        boxes_a, boxes_b = TestSweepGrid()._uniform(24, 30, 700)
        ends_b = [5.0 + (j % 3) for j in range(700)]
        assert_per_row_join_matches(boxes_a, boxes_b, 1.0, INF, None, ends_b)

    @pytest.mark.parametrize("bad", [INF, -INF, math.nan, 0.5])
    def test_bad_per_row_end_is_refused(self, bad):
        import numpy as np

        boxes_a, boxes_b = TestSweepGrid()._uniform(25, 3, 4)
        batch_a, batch_b = batch_of(boxes_a), batch_of(boxes_b)
        for side in (0, 1):
            ends = [None, None]
            ends[side] = np.array([5.0] * (3 + side))
            ends[side][1] = bad
            with pytest.raises(ValueError, match="window ends"):
                batch_sweep_join(batch_a, batch_b, 1.0, 9.0, ends=tuple(ends))
        with pytest.raises(ValueError, match="one window end per row"):
            batch_sweep_join(batch_a, batch_b, 1.0, 9.0, ends=(np.array([5.0] * 4), None))


def test_radix_digits_sort_like_the_index():
    """The hit ordering's 16-bit keys, past one digit (> 65 536 rows a side)."""
    import numpy as np

    idx = np.random.default_rng(3).integers(0, 200_000, size=5_000)
    for limit, width in ((200_000, 2), (65_536, 1), (65_537, 2), (1, 1)):
        digits = kernels._radix_digits(idx % limit, limit)
        assert len(digits) == width and all(d.dtype == np.uint16 for d in digits)
        assert (np.lexsort(digits) == np.argsort(idx % limit, kind="stable")).all()


@settings(max_examples=200, deadline=None)
@given(
    values=st.lists(
        st.one_of(
            st.integers(-(2**63), 2**63 - 1),
            st.sampled_from([0, 1, 2**16 - 1, 2**16, 2**32, -1, -(2**63), 2**63 - 1]),
        ),
        max_size=40,
    )
)
def test_radix_argsort_is_the_stable_argsort(values):
    """Any ``int64`` plane — negative, past 2**32, spanning all 64 bits,
    repeated, empty — sorts to the merge sort's permutation."""
    import numpy as np

    plane = np.array(values, dtype=np.int64)
    want = np.argsort(plane, kind="stable")
    got = kernels.radix_argsort(plane)
    assert got.dtype == want.dtype and got.tolist() == want.tolist()


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


# ----------------------------------------------------------------------
# The sweep join's grid: multi-cell inputs against the scalar sweep
# ----------------------------------------------------------------------
def static_box(x, y, w, h):
    return KineticBox.rigid(Box(x, x + w, y, y + h), 0.0, 0.0, 0.0)


def on_axis(axis, lo, hi, across_lo, across_hi):
    """A static box spanning exactly ``[lo, hi]`` on ``axis``."""
    bounds = (lo, hi, across_lo, across_hi) if axis == 0 else (across_lo, across_hi, lo, hi)
    return KineticBox.rigid(Box(*bounds), 0.0, 0.0, 0.0)


def lattice(axis, scale=1.0, width=30.0, side=20, half=50.0):
    """``side**2`` static squares, lower corners evenly over ``[-half, half]**2``."""
    step = 2.0 * half / (side - 1)
    corners = [(-half + k * step) * scale for k in range(side)]
    width *= scale
    return [on_axis(axis, x, x + width, y, y + width) for x in corners for y in corners]


def binned_grid(batch_q, batch_p, t0, t1):
    """The grid ``batch_sweep_join`` builds when it bins ``batch_p``.

    Also returns the padded boxes and the visiting side's swept bounds;
    callers tie this reconstruction to the kernel by comparing its
    candidate count with ``counter[0]``.
    """
    from repro.geometry.constants import SWEEP_FILTER_SLACK, SWEEP_GRID_PAD

    lo, hi, pad, lb_q, ub_q = [], [], [], [], []
    for axis in (0, 1):
        mag = kernels._axis_magnitude(batch_q, batch_p, axis, t0, t1)
        lb, ub = batch_sweep_bounds(batch_p, axis, t0, t1)
        lo.append(lb - SWEEP_FILTER_SLACK * mag)
        hi.append(ub + SWEEP_FILTER_SLACK * mag)
        pad.append(SWEEP_GRID_PAD * mag)
        lb, ub = batch_sweep_bounds(batch_q, axis, t0, t1)
        lb_q.append(lb)
        ub_q.append(ub)
    return kernels._SweepGrid(lo, hi, pad), lo, hi, lb_q, ub_q


def cell_edge(grid, axis, k):
    """Smallest double whose cell along ``axis`` is at least ``k`` (by bisection)."""
    import numpy as np

    def cell(x):
        return int(grid.cells(np.array([x]), axis, 0, grid.shape[axis] - 1)[0])

    below = grid.origin[axis]
    above = below + (k + 1) / grid.inv[axis]
    assert cell(below) < k <= cell(above)
    while math.nextafter(below, math.inf) < above:
        mid = below + (above - below) / 2.0
        if cell(mid) >= k:
            above = mid
        else:
            below = mid
    return above


def exact_tests_without_grid(batch_a, batch_b, t0, t1, dim, monkeypatch):
    """``counter[1]`` of the same join enumerated exhaustively (one cell)."""
    with monkeypatch.context() as patch:
        patch.setattr(kernels, "SWEEP_GRID_MIN_PAIRS", batch_a.n * batch_b.n)
        counter = [0, 0]
        batch_sweep_join(batch_a, batch_b, t0, t1, dim=dim, counter=counter)
    assert counter[0] == batch_a.n * batch_b.n
    return counter[1]


def assert_grid_join_matches(boxes_a, boxes_b, t0, t1, monkeypatch, cells=2):
    """A gridded join equals the scalar sweep and tests what all-pairs would."""
    assert_sweep_join_matches(boxes_a, boxes_b, t0, t1)
    batch_a, batch_b = batch_of(boxes_a), batch_of(boxes_b)
    small, large = sorted((batch_a, batch_b), key=len)
    grid, _, _, lb_q, ub_q = binned_grid(small, large, t0, t1)
    assert grid.shape[0] * grid.shape[1] >= cells, grid.shape
    enumerated = sum(pos.shape[0] for pos, _ in grid.candidates(lb_q, ub_q, 65_536))
    for dim in (0, 1):
        counter = [0, 0]
        batch_sweep_join(batch_a, batch_b, t0, t1, dim=dim, counter=counter)
        # The grid rebuilt here is the one the kernel used.
        assert counter[0] == enumerated, dim
        assert counter[1] == exact_tests_without_grid(
            batch_a, batch_b, t0, t1, dim, monkeypatch
        ), dim
    return grid


class TestSweepGrid:
    """Inputs large enough to be binned (the suites above are one cell)."""

    def _uniform(self, seed, n_a, n_b, space=(400.0, 400.0)):
        """Rigid movers like ``random_kbox``'s, over a rectangle."""
        rng = random.Random(seed)

        def box():
            x, y = rng.uniform(0, space[0]), rng.uniform(0, space[1])
            w, h = rng.uniform(0.1, 5.0), rng.uniform(0.1, 5.0)
            return KineticBox.rigid(
                Box(x, x + w, y, y + h),
                rng.uniform(-2.0, 2.0),
                rng.uniform(-2.0, 2.0),
                rng.uniform(0.0, 2.0),
            )

        return [box() for _ in range(n_a)], [box() for _ in range(n_b)]

    def test_uniform_many_cells(self, monkeypatch):
        boxes_a, boxes_b = self._uniform(11, 300, 3_000)
        grid = assert_grid_join_matches(boxes_a, boxes_b, 1.0, 13.0, monkeypatch, cells=100)
        assert min(grid.shape) >= 4
        # The larger side is binned whichever argument it is.
        assert_sweep_join_matches(boxes_b[:600], boxes_a[:40], 1.0, 13.0)

    def test_stage_one_count_ignores_the_sweep_axis(self):
        """Same grid for either ``dim``: uniform, and a 4:1 stripe like a shard's."""
        for space in ((400.0, 400.0), (800.0, 200.0)):
            boxes_a, boxes_b = self._uniform(12, 200, 2_000, space)
            batch_a, batch_b = batch_of(boxes_a), batch_of(boxes_b)
            counts = []
            for dim in (0, 1):
                counter = [0, 0]
                batch_sweep_join(batch_a, batch_b, 0.0, 20.0, dim=dim, counter=counter)
                counts.append(counter[0])
            assert counts[0] == counts[1] < 200 * 2_000 // 4, (space, counts)

    @pytest.mark.parametrize("axis", [0, 1])
    @pytest.mark.parametrize("scale", [1.0, 1e7])
    def test_partners_across_a_cell_edge(self, axis, scale, monkeypatch):
        """``aimed_pair`` contacts straddling a cell boundary on either axis."""
        boxes_p = lattice(axis, scale)
        fill = [
            on_axis(axis, 7.0 * k * scale, (7.0 * k + 1.0) * scale, -60.0 * scale, -59.0 * scale)
            for k in range(45)
        ]
        grid, *_ = binned_grid(batch_of(fill), batch_of(boxes_p), 0.0, 12.0)
        assert grid.shape[axis] >= 2
        edge = cell_edge(grid, axis, 1)
        boxes_a, boxes_b = list(fill), list(boxes_p)
        for gap in (0.0, PAIR_TEST_EPS, -PAIR_TEST_EPS):
            for gap_ulps in (0, 1, -1):
                # a's upper bound sits on the edge, b's lower corner
                # across it, give or take the gap.
                a, b = aimed_pair(
                    axis, 1.0, edge - 3.0 * scale, 3.0 * scale, 0.0, 0.0, 0.0, 0.0, gap, gap_ulps
                )
                boxes_a.append(a)
                boxes_b.append(b)
        assert_grid_join_matches(boxes_a, boxes_b, 0.0, 12.0, monkeypatch)

    @pytest.mark.parametrize("axis", [0, 1])
    def test_lower_corner_exactly_on_a_cell_edge(self, axis, monkeypatch):
        """A binned corner on the edge itself and one double below it, each
        touched exactly by a visiting row's upper bound."""
        from repro.geometry.constants import SWEEP_FILTER_SLACK

        boxes_p = lattice(axis)
        fill = [on_axis(axis, 7.0 * k, 7.0 * k + 1.0, -60.0, -59.0) for k in range(45)]
        batch_fill = batch_of(fill)
        grid, *_ = binned_grid(batch_fill, batch_of(boxes_p), 0.0, 12.0)
        slack = SWEEP_FILTER_SLACK * kernels._axis_magnitude(
            batch_fill, batch_of(boxes_p), axis, 0.0, 12.0
        )
        edge = cell_edge(grid, axis, grid.shape[axis] // 2)
        boxes_a, boxes_b = list(fill), list(boxes_p)
        for corner in (edge, math.nextafter(edge, -math.inf)):
            raw = corner + slack
            while raw - slack > corner:
                raw = math.nextafter(raw, -math.inf)
            padded = raw - slack
            boxes_b.append(on_axis(axis, raw, raw + 30.0, 0.0, 30.0))
            # Upper bound == the padded corner: the reject's `lo > ub` is false.
            boxes_a.append(on_axis(axis, padded - 2.0, padded, 0.0, 2.0))
        grid = assert_grid_join_matches(boxes_a, boxes_b, 0.0, 12.0, monkeypatch)
        cells = [
            int(grid.cells(batch_sweep_bounds(batch_of([kb]), axis, 0.0, 12.0)[0] - slack,
                           axis, 0, grid.shape[axis] - 1)[0])
            for kb in boxes_b[-2:]
        ]
        assert cells[0] == cells[1] + 1  # the two corners straddle the edge

    @pytest.mark.parametrize("axis", [0, 1])
    def test_reach_needs_its_pad(self, axis, monkeypatch):
        """The widest binned box, its width rounded *down*, touched at its far end.

        The visiting row starts at ``hi`` exactly, so it passes the
        reject, and ``hi - W`` lands above the binned corner — in the
        next cell, because the corner sits just below a cell edge.  Only
        the pad on ``W`` keeps the pair among the exact tests.
        """
        import numpy as np

        from repro.geometry.constants import SWEEP_FILTER_SLACK

        def inputs(raw_lo, raw_hi):
            return lattice(axis) + [on_axis(axis, raw_lo, raw_hi, 0.0, 30.0)]

        fill = [on_axis(axis, 95.0, 96.0, -60.0 + k, -59.0 + k) for k in range(45)]
        batch_fill = batch_of(fill)
        boxes_p = inputs(0.0, 40.0)
        grid, *_ = binned_grid(batch_fill, batch_of(boxes_p), 0.0, 12.0)
        slack = SWEEP_FILTER_SLACK * kernels._axis_magnitude(
            batch_fill, batch_of(boxes_p), axis, 0.0, 12.0
        )
        edge = min(
            (cell_edge(grid, axis, k) for k in range(1, grid.shape[axis])), key=abs
        )
        assert abs(edge) < 1e-6  # an edge at the lattice's centre, a slack off zero
        # Padded corner: the largest reachable double below the edge.
        raw_lo = edge + slack
        while raw_lo - slack >= edge:
            raw_lo = math.nextafter(raw_lo, -math.inf)
        lo = raw_lo - slack
        # Far ends over the binades between the lattice's width and the
        # oversize limit, until one makes `hi - lo` round down far enough
        # that the unpadded reach `hi - (hi - lo)` starts at the edge.
        hazard = None
        for raw_hi in (31.0 + 0.5 * k for k in range(170)):
            hi = raw_hi + slack
            if hi - (hi - lo) >= edge:
                hazard = (raw_hi, hi)
                break
        assert hazard is not None
        raw_hi, hi = hazard
        boxes_p = inputs(raw_lo, raw_hi)
        boxes_q = fill + [on_axis(axis, hi, hi + 5.0, 0.0, 30.0)]
        batch_q, batch_p = batch_of(boxes_q), batch_of(boxes_p)
        grid, lo_p, hi_p, lb_q, _ = binned_grid(batch_q, batch_p, 0.0, 12.0)
        # Not vacuous: the pair passes the reject on `axis`, the widest
        # computed width is this box's, and without the pad the visit
        # would start one cell past the binned corner.
        assert lb_q[axis][-1] == hi_p[axis][-1] == hi and lo_p[axis][-1] == lo
        width = hi_p[axis] - lo_p[axis]
        assert width[-1] == width.max()
        first = lambda x: int(grid.cells(np.array([x]), axis, 0, grid.shape[axis])[0])
        assert first(hi - width[-1]) == first(lo) + 1
        assert first(hi - grid.reach[axis]) <= first(lo)
        assert_grid_join_matches(boxes_q, boxes_p, 0.0, 12.0, monkeypatch)

    def test_oversize_rows_leave_the_grid(self, monkeypatch):
        boxes_a, boxes_b = self._uniform(13, 120, 1_500)
        rng = random.Random(14)
        for boxes in (boxes_a, boxes_b):
            for _ in range(5):  # ~10x the mean swept width, on each side
                x, y = rng.uniform(0, 100), rng.uniform(0, 100)
                boxes.append(static_box(x, y, 300.0, 280.0))
        grid = assert_grid_join_matches(boxes_a, boxes_b, 0.0, 12.0, monkeypatch, cells=16)
        # The wide rows sit in the overflow cell, not in the reach.
        assert grid.rows - int(grid.cell_start[-2]) == 5
        assert max(grid.reach) < 100.0

    def test_unbounded_rows_among_finite_ones(self, monkeypatch):
        """``t1 = inf``: movers sweep to infinity, static rows stay binned."""
        boxes_a, boxes_b = self._uniform(15, 150, 900)
        rng = random.Random(16)
        for boxes in (boxes_a, boxes_b):
            for k in range(0, len(boxes), 3):
                x, y = rng.uniform(0, 400), rng.uniform(0, 400)
                boxes[k] = static_box(x, y, 6.0, 6.0)
        grid = assert_grid_join_matches(boxes_a, boxes_b, 2.0, INF, monkeypatch, cells=4)
        assert 0 < int(grid.cell_start[-2]) < grid.rows  # both kinds present

    def test_inverted_swept_boxes(self):
        """Expanding boxes read before ``t_ref`` are inverted over the window."""
        boxes_a, boxes_b = self._uniform(17, 150, 900)
        for boxes in (boxes_a, boxes_b):
            for k in range(0, len(boxes), 4):
                kb = boxes[k]
                boxes[k] = KineticBox(kb.mbr, Box(-1.5, 1.5, -0.5, 2.5), 30.0)
        lb, ub = batch_sweep_bounds(batch_of(boxes_b), 0, 0.0, 12.0)
        assert (ub < lb).any()
        assert_sweep_join_matches(boxes_a, boxes_b, 0.0, 12.0)
        # Every binned row inverted: no width is positive.
        inverted = [kb for kb in boxes_b if kb.t_ref == 30.0]
        assert_sweep_join_matches(boxes_a, inverted, 0.0, 12.0)

    def test_all_rows_at_one_point(self):
        """Zero extent on both axes, zero width: one cell, every pair."""
        points_a = [static_box(5.0, 7.0, 0.0, 0.0) for _ in range(130)]
        points_b = [static_box(5.0, 7.0, 0.0, 0.0) for _ in range(140)]
        assert_sweep_join_matches(points_a, points_b, 0.0, 12.0)
        counter = [0, 0]
        rows = batch_sweep_join(batch_of(points_a), batch_of(points_b), 0.0, 12.0, counter=counter)
        assert rows[0].shape[0] == counter[0] == 130 * 140

    def test_zero_width_points_over_an_extent(self, monkeypatch):
        """Pinned crash: point boxes made ``extent / span`` overflow ``int()``."""
        rng = random.Random(18)
        points_a = [static_box(rng.uniform(0, 50), rng.uniform(0, 50), 0.0, 0.0) for _ in range(130)]
        points_b = [static_box(rng.uniform(0, 50), rng.uniform(0, 50), 0.0, 0.0) for _ in range(400)]
        points_b += points_a[:20]  # some coincide
        assert_grid_join_matches(points_a, points_b, 0.0, 12.0, monkeypatch, cells=100)
        # Without the slack the widths are exactly zero: the reach is its pad.
        monkeypatch.setattr(kernels, "_FILTER_SLACK", 0.0)
        assert_sweep_join_matches(points_a, points_b, 0.0, 12.0)

    def test_one_cell_axis_with_unbounded_rows(self):
        """Pinned crash: ``inf * 0 = NaN`` reached the cell-index cast."""
        rng = random.Random(19)
        boxes_a, boxes_b = [], []
        for boxes, n in ((boxes_a, 130), (boxes_b, 400)):
            for k in range(n):
                # One row of boxes: no extent across, so one cell there.
                kb = static_box(rng.uniform(0, 900), 3.0, 4.0, 4.0)
                if k % 5 == 0:
                    kb = KineticBox(kb.mbr, Box(-1.0, 1.0, -1.0, 1.0), 0.0)
                boxes.append(kb)
        small, large = batch_of(boxes_a), batch_of(boxes_b)
        grid = binned_grid(small, large, 0.0, INF)[0]
        assert grid.shape[0] > 1 and grid.shape[1] == 1
        assert_sweep_join_matches(boxes_a, boxes_b, 0.0, INF)

    def test_no_regular_row_at_all(self):
        """Pinned crash: nothing to bin (one inverted box; all rows unbounded)."""
        import numpy as np

        grid = kernels._SweepGrid(
            [np.array([3.0]), np.array([1.0])], [np.array([2.0]), np.array([0.5])], [1e-12, 1e-12]
        )
        assert grid.order is None and grid.shape == [1, 1]
        boxes_a, boxes_b = self._uniform(20, 130, 140)
        grid = binned_grid(batch_of(boxes_a), batch_of(boxes_b), 0.0, INF)[0]
        assert grid.order is None
        assert_sweep_join_matches(boxes_a, boxes_b, 0.0, INF)

    def test_extent_beyond_the_float_range(self):
        """Corners at both ends of the doubles: the extent overflows, one cell."""
        boxes_a = [static_box(k, 0.0, 1.0, 1.0) for k in range(130)]
        boxes_b = [static_box(k, 0.0, 1.0, 1.0) for k in range(138)]
        boxes_b += [static_box(-1e308, 0.0, 1.0, 1.0), static_box(1e308, 0.0, 0.0, 1.0)]
        assert_sweep_join_matches(boxes_a, boxes_b, 0.0, 12.0)
