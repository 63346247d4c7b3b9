"""The compiled sweep join agrees EXACTLY with the scalar geometry oracle.

The columnar engine's pair test, :func:`~repro.geometry.kernels.
batch_sweep_join`, promises bit-identical results to the scalar path —
not approximately equal, *equal*: the same rows with the same windows
to the last bit, the sign of a zero included.  Its rows come in grid
order, so they are compared sorted by pair.  It is also held, byte for
byte and in its own order, to its NumPy oracle (``sweep_oracle.py``).
These tests enforce that promise with hypothesis-generated boxes
(including subnormal velocities and exact-tangency contacts) and
handcrafted degenerate cases: zero-length windows (``t0 == t1``),
touching boundaries, zero velocities, and infinite windows.
"""

from __future__ import annotations

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry import (
    INF,
    Box,
    KineticBatch,
    KineticBox,
    all_pairs_intersection,
    intersection_interval,
    ps_intersection,
    select_sweep_dimension,
    sweep_bounds,
)

from repro.geometry import kernels
from repro.geometry.constants import PAIR_TEST_EPS
from repro.geometry.kernels import batch_sweep_join
from repro.index import TPRStarTree, TreeStorage
from repro.join import JoinTechniques, improved_join, naive_join
from repro.objects import MovingObject

from ..conftest import random_kbox
from .sweep_oracle import (
    _grid_shape,
    _SweepGrid,
    batch_boxes,
    batch_select_sweep_dimension,
    batch_sweep_bounds,
    _pair_windows,
    oracle_sweep_join,
)

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


def row_bytes(rows):
    """``(i, j, lo, hi)`` rows as bytes: ``-0.0`` and ``0.0`` differ."""
    return tuple(
        np.array([row[k] for row in rows], dtype=dtype).tobytes()
        for k, dtype in enumerate((np.int64, np.int64, np.float64, np.float64))
    )


def joined(boxes_a, boxes_b, t0, t1, dim, counter=None):
    """The compiled join's ``(i, j, lo, hi)`` rows, sorted by pair; its
    rows in the order returned and both counters are the oracle's."""
    batch_a, batch_b = batch_of(boxes_a), batch_of(boxes_b)
    counter = [0, 0] if counter is None else counter
    planes = batch_sweep_join(batch_a, batch_b, t0, t1, dim=dim, counter=counter)
    assert_oracle_matches(planes, counter, batch_a, batch_b, t0, t1, dim=dim)
    return sorted(zip(*(plane.tolist() for plane in planes)))


def scalar_rows(triples):
    return [(i, j, iv.start, iv.end) for i, j, iv in triples]


def assert_grid_matches(boxes_a, boxes_b, t0, t1):
    """The oracle's exact pair windows over the whole grid equal per-pair
    scalar calls, as bytes; the compiled join returns the scalar sweep's
    rows on either axis, and the oracle's."""
    lo, hi, ok = _pair_windows(
        batch_of(boxes_a), np.arange(len(boxes_a))[:, None],
        batch_of(boxes_b), np.arange(len(boxes_b))[None, :],
        t0, t1,
    )
    for i, a in enumerate(boxes_a):
        for j, b in enumerate(boxes_b):
            expect = scalar_window(a, b, t0, t1)
            assert bool(ok[i, j]) == (expect is not None), (i, j, a, b)
            if expect is not None:
                got = np.array([lo[i, j], hi[i, j]])
                assert got.tobytes() == np.array(expect).tobytes(), (i, j, a, b)
    assert_sweep_join_matches(boxes_a, boxes_b, t0, t1)


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
        kb = random_kbox(random.Random(0))
        batch = batch_of([kb])
        with pytest.raises(ValueError):
            batch_sweep_join(batch, batch, 5.0, 4.0, dim=0)
        with pytest.raises(ValueError):
            intersection_interval(kb, kb, 5.0, 4.0)

    def test_touching_boundaries(self):
        # Two static boxes sharing exactly the x = 1 edge: closed-box
        # semantics ⇒ they intersect over the whole window.
        a = KineticBox.rigid(Box(0, 1, 0, 1), 0.0, 0.0, 0.0)
        b = KineticBox.rigid(Box(1, 2, 0, 1), 0.0, 0.0, 0.0)
        assert_grid_matches([a], [b], 0.0, 10.0)
        for dim in (0, 1):
            assert joined([a], [b], 0, 10, dim) == [(0, 0, 0.0, 10.0)]

    def test_zero_velocities_disjoint(self):
        a = KineticBox.rigid(Box(0, 1, 0, 1), 0.0, 0.0, 0.0)
        b = KineticBox.rigid(Box(3, 4, 0, 1), 0.0, 0.0, 0.0)
        for dim in (0, 1):
            assert joined([a], [b], 0, 10, dim) == []
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
        # the oracle's pair windows and the compiled join, sign of zero
        # included.
        a = KineticBox.rigid(Box(-1.0, 0.0, 0.0, 1.0), 1.0, 0.0, 0.0)
        b = KineticBox.rigid(Box(-0.0, 2.0, 0.0, 1.0), 0.0, 0.0, 0.0)
        assert_grid_matches([a], [b], 0.0, 5.0)
        want = row_bytes([(0, 0, *scalar_window(a, b, 0.0, 5.0))])
        assert row_bytes(joined([a], [b], 0.0, 5.0, dim=0)) == want

    @given(st.lists(kboxes(), min_size=0, max_size=7),
           st.lists(kboxes(), min_size=0, max_size=7), windows())
    @settings(max_examples=60, deadline=None)
    def test_grid_exact(self, boxes_a, boxes_b, window):
        t0, t1 = window
        if boxes_a and boxes_b:
            assert_grid_matches(boxes_a, boxes_b, t0, t1)


class TestSweepBoundsParity:
    """The oracle's swept bounds are the scalar ``sweep_bounds``."""

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
    """A one-row side — a 1-vs-N probe — is exact in *both* roles: the
    larger side is binned whichever argument it is."""

    @given(st.lists(kboxes(), min_size=1, max_size=8), kboxes(), windows())
    @settings(max_examples=100, deadline=None)
    def test_windows_exact_both_orientations(self, boxes, other, window):
        assert_sweep_join_matches(boxes, [other], *window)
        assert_sweep_join_matches([other], boxes, *window)

    def test_rejects_inverted_window(self):
        batch = batch_of([random_kbox(random.Random(0))])
        many = batch_of([random_kbox(random.Random(1)) for _ in range(5)])
        for sides in ((batch, many), (many, batch)):
            with pytest.raises(ValueError):
                batch_sweep_join(*sides, 5.0, 4.0, dim=0)


class TestSweepParity:
    """The compiled join returns the scalar sweep's and the nested loop's
    rows, and sends no more pairs to the exact test than the sweep."""

    def _random_sets(self, seed, n_a, n_b):
        rng = random.Random(seed)
        return (
            [random_kbox(rng) for _ in range(n_a)],
            [random_kbox(rng) for _ in range(n_b)],
        )

    @pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
    def test_all_pairs_exact(self, seed):
        boxes_a, boxes_b = self._random_sets(seed, 40, 35)
        ca, ck = [0], [0, 0]
        scalar = all_pairs_intersection(boxes_a, boxes_b, 0, 30, ca)
        # A one-cell join enumerates every pair, as the nested loop tests
        # it; and no random pair grazes within PAIR_TEST_EPS on the sweep
        # axis, where the sweep's zero tolerance would drop it.
        assert row_bytes(joined(boxes_a, boxes_b, 0, 30, 0, ck)) == row_bytes(scalar_rows(scalar))
        assert ca == ck[:1] == [40 * 35]

    @pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("dim", [None, 0, 1])
    def test_ps_exact(self, seed, dim):
        boxes_a, boxes_b = self._random_sets(seed, 45, 40)
        if dim is None:
            dim = select_sweep_dimension(boxes_a, boxes_b)
        ca, ck = [0], [0, 0]
        scalar = scalar_rows(ps_intersection(boxes_a, boxes_b, 0, 12, dim=dim, counter=ca))
        rows = joined(boxes_a, boxes_b, 0, 12, dim, ck)
        assert row_bytes(rows) == row_bytes(sorted(scalar))
        assert len(rows) <= ck[1] <= ca[0], "exact tests beyond the sweep's"

    def test_ps_degenerate_window(self):
        boxes_a, boxes_b = self._random_sets(9, 30, 30)
        scalar = scalar_rows(ps_intersection(boxes_a, boxes_b, 5.0, 5.0))
        assert row_bytes(joined(boxes_a, boxes_b, 5.0, 5.0, 0)) == row_bytes(sorted(scalar))

    def test_empty_sides(self):
        boxes, _ = self._random_sets(3, 5, 0)
        for sides in ((boxes, []), ([], boxes)):
            assert joined(*sides, 0, 10, 0) == []
            assert ps_intersection(*sides, 0, 10) == []
            assert all_pairs_intersection(*sides, 0, 10) == []


#: Windows no pair join takes: a NaN end or start (every comparison
#: with NaN is false, so ``t1 < t0`` lets them through) and an infinite
#: start.
BAD_WINDOWS = [(math.nan, 5.0), (0.0, math.nan), (math.nan, math.nan), (INF, INF), (-INF, 5.0)]


class TestWindowRefusal:
    """Every pair-window entry point refuses a bad window with
    ``ValueError`` — on two boxes that intersect, so a join that ran
    would return a row rather than raise."""

    boxes = [KineticBox.rigid(Box(0.0, 1.0, 0.0, 1.0), 0.0, 0.0, 0.0)]

    def refuses(self, join, t0, t1):
        with pytest.raises(ValueError, match="t_end must be >= t_start"):
            join(t0, t1)

    def trees(self):
        """One tree a side, each holding one object over the boxes."""
        storage = TreeStorage()
        trees = (TPRStarTree(storage=storage), TPRStarTree(storage=storage))
        for oid, tree in enumerate(trees):
            tree.insert(MovingObject(oid, Box(0.0, 1.0, 0.0, 1.0), 0.0, 0.0, 0.0), 0.0)
        return trees

    @pytest.mark.parametrize("t0, t1", BAD_WINDOWS)
    def test_intersection_interval(self, t0, t1):
        self.refuses(lambda t0, t1: intersection_interval(*self.boxes * 2, t0, t1), t0, t1)

    @pytest.mark.parametrize("t0, t1", BAD_WINDOWS)
    def test_ps_intersection(self, t0, t1):
        self.refuses(lambda t0, t1: ps_intersection(self.boxes, self.boxes, t0, t1), t0, t1)

    @pytest.mark.parametrize("t0, t1", BAD_WINDOWS)
    def test_all_pairs_intersection(self, t0, t1):
        self.refuses(lambda t0, t1: all_pairs_intersection(self.boxes, self.boxes, t0, t1), t0, t1)

    @pytest.mark.parametrize("t0, t1", BAD_WINDOWS)
    def test_naive_join(self, t0, t1):
        tree_a, tree_b = self.trees()
        self.refuses(lambda t0, t1: naive_join(tree_a, tree_b, t0, t1), t0, t1)

    @pytest.mark.parametrize("techniques", ["all", "none"])
    @pytest.mark.parametrize("t0, t1", BAD_WINDOWS)
    def test_improved_join(self, t0, t1, techniques):
        tree_a, tree_b = self.trees()
        tech = getattr(JoinTechniques, techniques)()
        self.refuses(lambda t0, t1: improved_join(tree_a, tree_b, t0, t1, tech), t0, t1)

    @pytest.mark.parametrize("t0, t1", BAD_WINDOWS)
    def test_batch_sweep_join(self, t0, t1):
        batch = batch_of(self.boxes)
        self.refuses(lambda t0, t1: batch_sweep_join(batch, batch, t0, t1, dim=0), t0, t1)

    def test_the_boxes_intersect(self):
        batch = batch_of(self.boxes)
        assert intersection_interval(*self.boxes * 2, 0.0, 5.0).duration == 5.0
        assert len(ps_intersection(self.boxes, self.boxes, 0.0, 5.0)) == 1
        assert batch_sweep_join(batch, batch, 0.0, 5.0, dim=0)[0].tolist() == [0]
        tree_a, tree_b = self.trees()
        assert len(naive_join(tree_a, tree_b, 0.0, 5.0)) == 1
        for tech in (JoinTechniques.all(), JoinTechniques.none()):
            assert len(improved_join(tree_a, tree_b, 0.0, 5.0, tech)) == 1


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


def assert_oracle_matches(planes, counter, batch_a, batch_b, t0, t1, **kwargs):
    """The compiled join's rows, in its order, and both counters are the
    NumPy oracle's, called with ``kwargs``."""
    want_counter = [0, 0]
    want = oracle_sweep_join(batch_a, batch_b, t0, t1, counter=want_counter, **kwargs)
    assert [p.dtype for p in planes] == [w.dtype for w in want]
    assert [p.tobytes() for p in planes] == [w.tobytes() for w in want], kwargs
    assert counter == want_counter, kwargs


def assert_sweep_join_matches(boxes_a, boxes_b, t0, t1):
    """Rows and windows equal the scalar sweep's on both axes, as bytes.

    The join returns its rows in the grid's order, so they are compared
    sorted by ``(i, j)`` (a pair occurs once per call).  The pairs that
    reach its exact test (``counter[1]``) are at most those the scalar
    sweep tests; its ``counter[0]`` is its grid's stage-one work, the
    same whichever axis sweeps.  The NumPy oracle returns the same bytes
    in the same order, with the same counters.
    """
    batch_a, batch_b = batch_of(boxes_a), batch_of(boxes_b)
    stage_one = set()
    for dim in (0, 1):
        cs = [0]
        scalar = scalar_rows(ps_intersection(boxes_a, boxes_b, t0, t1, dim=dim, counter=cs))
        ck = [0, 0]
        planes = batch_sweep_join(batch_a, batch_b, t0, t1, dim=dim, counter=ck)
        rows = list(zip(*(plane.tolist() for plane in planes)))
        assert row_bytes(sorted(rows)) == row_bytes(sorted(scalar)), dim
        assert len(rows) <= ck[1] <= min(ck[0], cs[0]), dim
        stage_one.add(ck[0])
        assert_oracle_matches(planes, ck, batch_a, batch_b, t0, t1, dim=dim)
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
            batch_of(boxes_a), batch_of(boxes_b), 0.0, 12.0, dim=0, counter=counter
        )
        assert 0 < idx_a.shape[0] <= counter[1] < counter[0]
        one_slot = [0]
        batch_sweep_join(batch_of(boxes_a), batch_of(boxes_b), 0.0, 12.0, dim=0, counter=one_slot)
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


def assert_per_row_join_matches(boxes_a, boxes_b, t0, t1, ends_a, ends_b):
    batch_a, batch_b = batch_of(boxes_a), batch_of(boxes_b)
    ends = tuple(None if e is None else np.array(e, dtype=np.float64) for e in (ends_a, ends_b))
    for dim in (0, 1):
        want = grouped_scalar_rows(boxes_a, boxes_b, t0, t1, ends_a, ends_b, dim)
        counter = [0, 0]
        planes = batch_sweep_join(batch_a, batch_b, t0, t1, dim=dim, counter=counter, ends=ends)
        got = list(zip(*(plane.tolist() for plane in planes)))
        assert row_bytes(sorted(got)) == row_bytes(want), dim
        assert len(got) <= counter[1] <= counter[0]
        again = batch_sweep_join(batch_a, batch_b, t0, t1, dim=dim, ends=ends)
        # The grid's order is deterministic.
        assert [p.tobytes() for p in again] == [p.tobytes() for p in planes]
        assert_oracle_matches(planes, counter, batch_a, batch_b, t0, t1, dim=dim, ends=ends)


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
        boxes_a, boxes_b = TestSweepGrid()._uniform(23, 120, 400)
        batch_a, batch_b = batch_of(boxes_a), batch_of(boxes_b)
        for dim in (0, 1):
            want = batch_sweep_join(batch_a, batch_b, 1.0, 13.0, dim=dim)
            scalar = ps_intersection(boxes_a, boxes_b, 1.0, 13.0, dim=dim)
            assert row_bytes(sorted(zip(*(p.tolist() for p in want)))) == row_bytes(
                sorted((i, j, iv.start, iv.end) for i, j, iv in scalar)
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
        boxes_a, boxes_b = TestSweepGrid()._uniform(25, 3, 4)
        batch_a, batch_b = batch_of(boxes_a), batch_of(boxes_b)
        for side in (0, 1):
            ends = [None, None]
            ends[side] = np.array([5.0] * (3 + side))
            ends[side][1] = bad
            with pytest.raises(ValueError, match="window ends"):
                batch_sweep_join(batch_a, batch_b, 1.0, 9.0, dim=0, ends=tuple(ends))
        with pytest.raises(ValueError, match="one window end per row"):
            batch_sweep_join(
                batch_a, batch_b, 1.0, 9.0, dim=0, ends=(np.array([5.0] * 4), None)
            )


def test_radix_digits_sort_like_the_index():
    """The hit ordering's 16-bit keys, past one digit (> 65 536 rows a side)."""
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
    plane = np.array(values, dtype=np.int64)
    want = np.argsort(plane, kind="stable")
    got = kernels.radix_argsort(plane)
    assert got.dtype == want.dtype and got.tolist() == want.tolist()


class TestDimensionSelection:
    @pytest.mark.parametrize("seed", [11, 12, 13])
    def test_matches_scalar_choice(self, seed):
        boxes_a, boxes_b = (
            [random_kbox(random.Random(seed)) for _ in range(20)],
            [random_kbox(random.Random(seed + 100)) for _ in range(20)],
        )
        scalar = select_sweep_dimension(boxes_a, boxes_b)
        vector = batch_select_sweep_dimension(batch_of(boxes_a), batch_of(boxes_b))
        assert scalar == vector


class TestKineticBatch:
    def test_round_trip(self):
        """Packed boxes come back whole, from planes that are all views
        of the batch's one plane stack, pre-shifted as the scalar is."""
        rng = random.Random(42)
        boxes = [random_kbox(rng) for _ in range(10)]
        batch = batch_of(boxes)
        assert len(batch) == 10
        assert batch_boxes(batch) == boxes
        stack, address = batch.stacked()
        assert address == stack.ctypes.data
        planes = (batch.mlo, batch.mhi, batch.vlo, batch.vhi, batch.tref, batch.slo, batch.shi)
        assert all(plane.base is stack for plane in planes)
        assert batch.slo.tobytes() == (batch.mlo - batch.vlo * batch.tref).tobytes()
        assert batch.shi.tobytes() == (batch.mhi - batch.vhi * batch.tref).tobytes()


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
    """The oracle's grid: the one ``batch_sweep_join`` builds when it bins ``batch_p``.

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
    return _SweepGrid(lo, hi, pad), lo, hi, lb_q, ub_q


def cell_edge(grid, axis, k):
    """Smallest double whose cell along ``axis`` is at least ``k`` (by bisection)."""
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
        rows = batch_sweep_join(
            batch_of(points_a), batch_of(points_b), 0.0, 12.0, dim=0, counter=counter
        )
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
        grid = _SweepGrid(
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

    @pytest.mark.parametrize(
        "last, cells, in_order", [(91.35750400786331, 35, 36), (91.35750400786333, 36, 36)]
    )
    def test_mean_width_is_summed_pairwise(self, last, cells, in_order):
        """The grid's shape follows the mean binned width as NumPy sums it,
        pairwise, to the ulp.  The last row's corner is one of the two
        doubles either side of the 35/36 x-cell edge, and on the first a
        left-to-right sum, an ulp off, lands on the other side."""
        import functools
        import operator

        rng = random.Random(1)
        widths = [rng.uniform(0.1, 5.0) for _ in range(999)]
        corners = [rng.uniform(0.0, 90.0) for _ in range(999)]
        large = [static_box(x, 0.0, w, 1.0) for x, w in zip(corners, widths)]
        large.append(static_box(last, 0.0, 2.0, 1.0))
        # The far box fixes the magnitude, so the slack and the pad.
        small = [static_box(1000.0, 0.0, 1.0, 1.0)]
        small += [static_box(5.0 * k, 0.0, 1.0, 1.0) for k in range(19)]
        grid, lo, hi, _, _ = binned_grid(batch_of(small), batch_of(large), 0.0, 1.0)
        extent = [float(x.max()) - float(x.min()) for x in lo]
        by_sum = {}
        for name, total in (
            ("pairwise", lambda w: float(w.sum())),
            ("in order", lambda w: functools.reduce(operator.add, w.tolist(), 0.0)),
        ):
            span = [
                max(total(hi[axis] - lo[axis]) / len(large), 0.0) + grid.reach[axis]
                for axis in (0, 1)
            ]
            by_sum[name] = _grid_shape(extent, span, len(large))
        assert grid.shape == by_sum["pairwise"] == [cells, 1]
        assert by_sum["in order"] == [in_order, 1]
        assert_sweep_join_matches(small, large, 0.0, 1.0)


# ----------------------------------------------------------------------
# The compiled join against its oracles, case by case
# ----------------------------------------------------------------------
def signed_zero_pairs(k):
    """``k`` pairs whose window closes at ``-0.0`` from ``t0 = 0``: a
    moving left, b static, touching at x = 1 — the root of ``b.lo - a.hi``
    is ``-0.0 / 1``."""
    pairs = []
    for i in range(k):
        y = 3.0 * i
        pairs.append((
            KineticBox.rigid(Box(0.0, 1.0, y, y + 1.0), -1.0, 0.0, 0.0),
            KineticBox.rigid(Box(1.0, 2.0, y, y + 1.0), 0.0, 0.0, 0.0),
        ))
    return pairs


class TestCompiledAgainstOracle:
    """Every shape of input the join treats differently, with either side
    the larger (the larger is binned): rows as bytes in the order returned
    and both counters against the NumPy oracle, rows sorted by pair
    against the scalar ``ps_intersection`` (or its per-end-group calls)."""

    @pytest.fixture(params=["a_smaller", "a_larger"])
    def flip(self, request):
        return request.param == "a_larger"

    def sides(self, small, large, flip):
        return (large, small) if flip else (small, large)

    def test_tc_gridded(self, flip):
        small, large = TestSweepGrid()._uniform(31, 150, 900)
        assert len(small) * len(large) > kernels.SWEEP_GRID_MIN_PAIRS
        assert_sweep_join_matches(*self.sides(small, large, flip), 1.0, 13.0)

    def test_per_row_ends(self, flip):
        small, large = TestSweepGrid()._uniform(32, 120, 700)
        rng = random.Random(33)
        ends_small = [rng.choice([6.0, 9.0]) for _ in small]
        ends_large = [rng.choice([5.0, 8.0, 11.0]) for _ in large]
        boxes_a, boxes_b = self.sides(small, large, flip)
        ends_a, ends_b = self.sides(ends_small, ends_large, flip)
        assert_per_row_join_matches(boxes_a, boxes_b, 1.0, 10.0, ends_a, ends_b)
        assert_per_row_join_matches(boxes_a, boxes_b, 1.0, INF, None, ends_b)
        assert_per_row_join_matches(boxes_a, boxes_b, 1.0, 10.0, ends_a, None)

    def test_unbounded_window(self, flip):
        small, large = TestSweepGrid()._uniform(34, 130, 800)
        rng = random.Random(35)
        for boxes in (small, large):
            for k in range(0, len(boxes), 4):
                boxes[k] = static_box(rng.uniform(0, 400), rng.uniform(0, 400), 5.0, 5.0)
        assert_sweep_join_matches(*self.sides(small, large, flip), 2.0, INF)

    def test_oversize_rows(self, flip):
        small, large = TestSweepGrid()._uniform(36, 120, 1_000)
        rng = random.Random(37)
        for boxes in (small, large):
            for _ in range(4):
                boxes.append(static_box(rng.uniform(0, 100), rng.uniform(0, 100), 250.0, 300.0))
        assert_sweep_join_matches(*self.sides(small, large, flip), 0.0, 12.0)

    @pytest.mark.parametrize("gridded", [False, True])
    def test_signed_zero_contact_at_t0(self, flip, gridded):
        pairs = signed_zero_pairs(6)
        small = [a for a, _ in pairs]
        large = [b for _, b in pairs]
        if gridded:
            extra_small, extra_large = TestSweepGrid()._uniform(38, 120, 600)
            small, large = small + extra_small, large + extra_large
        assert (len(small) * len(large) > kernels.SWEEP_GRID_MIN_PAIRS) == gridded
        boxes_a, boxes_b = self.sides(small, large, flip)
        assert_sweep_join_matches(boxes_a, boxes_b, 0.0, 5.0)
        # Not vacuous: the six contacts come back closing at -0.0.
        planes = batch_sweep_join(batch_of(boxes_a), batch_of(boxes_b), 0.0, 5.0, dim=0)
        closing = planes[3][(planes[2] == 0.0) & (planes[3] == 0.0)]
        assert closing.shape[0] >= 6 and np.signbit(closing).all()

    def test_one_cell_batches(self, flip):
        rng = random.Random(39)
        small = [random_kbox(rng) for _ in range(9)]
        large = [random_kbox(rng) for _ in range(40)]
        assert_sweep_join_matches(*self.sides(small, large, flip), 0.0, 12.0)
        # Enough pairs for a grid, yet every row in one cell: no extent.
        points_small = [static_box(5.0, 7.0, 1.0, 1.0) for _ in range(120)]
        points_large = [static_box(5.0, 7.0, 1.0, 1.0) for _ in range(150)]
        assert_sweep_join_matches(*self.sides(points_small, points_large, flip), 0.0, 12.0)

    def test_tie_with_an_inverted_swept_box(self, flip):
        """Equal swept ``lb`` on the sweep axis, side a's box inverted over
        the window: side a pivots on the tie and takes nobody, so the pair
        never reaches the exact test, whichever side is binned."""
        inverted = KineticBox(Box(10.0, 12.0, 0.0, 1.0), Box(-1.5, 1.5, 0.0, 0.0), 30.0)
        lb, ub = batch_sweep_bounds(batch_of([inverted]), 0, 0.0, 12.0)
        assert ub[0] < lb[0] == 37.0
        boxes_a, boxes_b = [inverted], [static_box(37.0, 0.0, 3.0, 1.0)]
        (boxes_a if flip else boxes_b).extend(
            static_box(200.0 + 9.0 * k, 0.0, 1.0, 1.0) for k in range(5)
        )
        counter = [0, 0]
        batch_sweep_join(batch_of(boxes_a), batch_of(boxes_b), 0.0, 12.0, dim=0, counter=counter)
        assert counter[1] == 0
        assert_sweep_join_matches(boxes_a, boxes_b, 0.0, 12.0)

    def test_outputs_that_outgrow_the_first_buffer(self, flip):
        """Every pair meets: the hits overflow the first output many times
        over, and the resumed calls lose and repeat nothing."""
        small = [static_box(0.0, 0.0, 1.0, 1.0) for _ in range(20)]
        large = [static_box(0.5, 0.5, 1.0, 1.0) for _ in range(300)]
        boxes_a, boxes_b = self.sides(small, large, flip)
        counter = [0, 0]
        planes = batch_sweep_join(
            batch_of(boxes_a), batch_of(boxes_b), 0.0, 3.0, dim=0, counter=counter
        )
        assert planes[0].shape[0] == counter[1] == counter[0] == 20 * 300
        assert_sweep_join_matches(boxes_a, boxes_b, 0.0, 3.0)

    @pytest.mark.parametrize("chunk", [1, 7])
    def test_oracle_is_chunk_invariant(self, chunk):
        """The oracle walks the visiting rows in blocks of at most ``chunk``
        candidates (a chunk of 1 visits a row at a time); no block size
        moves a row or a count."""
        small, large = TestSweepGrid()._uniform(40, 120, 700)
        rng = random.Random(41)
        ends = (np.array([rng.choice([6.0, 9.0]) for _ in small]), None)
        batch_a, batch_b = batch_of(small), batch_of(large)
        for kwargs in ({}, {"ends": ends}):
            counter = [0, 0]
            planes = batch_sweep_join(
                batch_a, batch_b, 1.0, 10.0, dim=0, counter=counter, **kwargs
            )
            assert_oracle_matches(
                planes, counter, batch_a, batch_b, 1.0, 10.0, dim=0, chunk=chunk, **kwargs
            )

    def test_the_sweep_axis_is_0_or_1(self):
        batch = batch_of([static_box(0.0, 0.0, 1.0, 1.0)])
        for dim in (-1, 2):
            with pytest.raises(ValueError, match="sweep axis"):
                batch_sweep_join(batch, batch, 0.0, 1.0, dim=dim)

    def test_planes_shorter_than_the_batch_are_refused(self):
        """The compiled join reads ``n`` doubles from every row of a
        C-contiguous plane stack: a batch of more rows than its stack
        holds, or over a stack of another layout, is refused before any
        pointer is passed."""
        batch = batch_of([static_box(0.0, 0.0, 1.0, 1.0), static_box(2.0, 0.0, 1.0, 1.0)])
        stack = batch.stacked()[0]
        short = np.ascontiguousarray(stack[:, :1])
        for bad, n in ((short, 2), (stack[:, ::-1], 2), (stack.astype(np.float32), 2),
                       (stack[:-1].copy(), 2)):
            with pytest.raises(ValueError, match="plane stack"):
                batch_sweep_join(KineticBatch.from_stack(bad, n), batch, 0.0, 1.0, dim=0)
