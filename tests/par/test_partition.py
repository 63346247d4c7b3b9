"""StripePartition: stripe geometry, fitting, and closed membership."""

from __future__ import annotations

import pickle

import pytest

from repro.geometry import INF, Box
from repro.objects import MovingObject
from repro.par import StripePartition


def obj(oid, x, vx=0.0, vy=0.0, y=0.0, side=1.0):
    return MovingObject(oid, Box(x, x + side, y, y + side), vx, vy, 0.0)


class TestStripeGeometry:
    def test_regions_tile_the_line(self):
        p = StripePartition((10.0, 20.0, 35.0))
        assert p.n_shards == 4
        assert p.region(0) == (-INF, 10.0)
        assert p.region(1) == (10.0, 20.0)
        assert p.region(2) == (20.0, 35.0)
        assert p.region(3) == (35.0, INF)
        with pytest.raises(IndexError):
            p.region(4)

    def test_single_stripe_covers_everything(self):
        p = StripePartition(())
        assert p.region(0) == (-INF, INF)
        assert p.shards_for_span(-1e12, 1e12) == (0,)

    def test_span_membership(self):
        p = StripePartition((10.0, 20.0))
        assert p.shards_for_span(0.0, 5.0) == (0,)
        assert p.shards_for_span(12.0, 15.0) == (1,)
        assert p.shards_for_span(5.0, 15.0) == (0, 1)
        assert p.shards_for_span(5.0, 25.0) == (0, 1, 2)
        with pytest.raises(ValueError):
            p.shards_for_span(3.0, 2.0)

    def test_boundary_belongs_to_both_neighbors(self):
        p = StripePartition((10.0,))
        assert p.shards_for_span(10.0, 10.0) == (0, 1)
        assert p.shards_for_span(9.0, 10.0) == (0, 1)
        assert p.shards_for_span(10.0, 11.0) == (0, 1)

    def test_validation(self):
        with pytest.raises(ValueError):
            StripePartition((5.0, 5.0))
        with pytest.raises(ValueError):
            StripePartition((5.0, 3.0))
        with pytest.raises(ValueError):
            StripePartition((), axis=7)

    def test_immutable(self):
        p = StripePartition((1.0,))
        with pytest.raises(AttributeError):
            p.axis = 1


class TestFit:
    def test_quantile_cuts_balance_population(self):
        objs = [obj(i, float(x)) for i, x in enumerate(range(100))]
        p = StripePartition.fit(objs, 4, axis=0)
        assert p.n_shards == 4
        counts = [0] * 4
        for o in objs:
            lo, hi = o.kbox.mbr.x_lo, o.kbox.mbr.x_hi
            for s in p.shards_for_span(lo, hi):
                counts[s] += 1
        # Quantile cuts keep every stripe within a factor of the mean.
        assert min(counts) >= 100 // 4 - 2

    def test_auto_axis_prefers_the_slow_dimension(self):
        fast_x = [obj(i, float(i), vx=5.0, vy=0.1) for i in range(20)]
        assert StripePartition.fit(fast_x, 2).axis == 1
        fast_y = [obj(i, float(i), vx=0.1, vy=5.0) for i in range(20)]
        assert StripePartition.fit(fast_y, 2).axis == 0

    def test_point_mass_falls_back_to_equal_width(self):
        objs = [obj(i, 50.0) for i in range(10)]  # all centers collide
        p = StripePartition.fit(objs, 3, axis=0)
        assert p.n_shards == 3
        assert len(p.cuts) == 2

    def test_one_shard_and_empty_input(self):
        assert StripePartition.fit([obj(0, 1.0)], 1, axis=0).cuts == ()
        assert StripePartition.fit([], 5, axis=0).cuts == ()
        with pytest.raises(ValueError):
            StripePartition.fit([], 0)


class TestRoundTrips:
    def test_pickle_round_trip(self):
        p = StripePartition((3.0, 9.0), axis=1)
        q = pickle.loads(pickle.dumps(p))
        assert q.cuts == p.cuts and q.axis == p.axis
