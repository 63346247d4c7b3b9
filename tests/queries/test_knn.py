"""Continuous kNN: exact snapshots against the brute-force oracle."""

import pytest

from repro.core import JoinConfig
from repro.geometry import Box, KineticBox
from repro.index import TPRStarTree
from repro.objects import MovingObject
from repro.queries import ContinuousKNNEngine, knn_at
from repro.workloads import UpdateStream, uniform_workload


def brute_knn(objects, qx, qy, k, t):
    point = Box.point(qx, qy)
    return sorted((o.mbr_at(t).min_distance(point), o.oid) for o in objects)[:k]


class TestKnnAt:
    def test_matches_bruteforce(self):
        scenario = uniform_workload(250, seed=5, object_size_pct=1.0)
        tree = TPRStarTree()
        for o in scenario.set_a:
            tree.insert(o, 0.0)
        for t in (0.0, 4.0, 9.0):
            got = knn_at(tree, 480, 520, 7, t)
            want = brute_knn(scenario.set_a, 480, 520, 7, t)
            assert [oid for _, oid in got] == [oid for _, oid in want]
            for (gd, _), (wd, _) in zip(got, want):
                assert gd == pytest.approx(wd)

    def test_k_larger_than_population(self):
        scenario = uniform_workload(5, seed=1)
        tree = TPRStarTree()
        for o in scenario.set_a:
            tree.insert(o, 0.0)
        assert len(knn_at(tree, 0, 0, 20, 0.0)) == 5

    def test_invalid_k(self):
        tree = TPRStarTree()
        with pytest.raises(ValueError):
            knn_at(tree, 0, 0, 0, 0.0)


class TestContinuousKNNEngine:
    def make(self, k=5, t_m=10.0, seed=6, vq=(0.6, -0.3)):
        scenario = uniform_workload(
            150, seed=seed, max_speed=3.0, object_size_pct=1.0, t_m=t_m
        )
        query = KineticBox.moving_point(500, 500, vq[0], vq[1], 0.0)
        engine = ContinuousKNNEngine(
            scenario.set_a, query, k=k,
            config=JoinConfig(t_m=t_m), max_speed=3.0,
        )
        return scenario, engine

    def test_initial_knn(self):
        _scenario, engine = self.make()
        got = [oid for _, oid in engine.knn(0.0)]
        want = [
            oid for _, oid in brute_knn(engine.objects.values(), 500, 500, 5, 0.0)
        ]
        assert got == want

    def test_continuous_correctness_under_updates(self):
        scenario, engine = self.make()
        stream = UpdateStream(scenario, seed=12)
        shadow_b = {o.oid: o for o in scenario.set_b}
        for step in range(1, 35):
            t = float(step)
            engine.tick(t)
            for obj in stream.updates_for(t, {**engine.objects, **shadow_b}):
                if obj.oid in engine.objects:
                    engine.apply_update(obj)
                else:
                    shadow_b[obj.oid] = obj
            qx, qy = engine.query.at(t).center
            got = [oid for _, oid in engine.knn()]
            want = [
                oid for _, oid in brute_knn(engine.objects.values(), qx, qy, 5, t)
            ]
            assert got == want, t

    def test_candidate_set_much_smaller_than_population(self):
        _scenario, engine = self.make()
        assert engine.candidate_count < len(engine.objects) / 3

    def test_validation(self):
        scenario = uniform_workload(20, seed=2)
        boxy_query = KineticBox.rigid(Box(0, 5, 0, 5), 0, 0, 0.0)
        with pytest.raises(ValueError):
            ContinuousKNNEngine(scenario.set_a, boxy_query, k=3)
        point = KineticBox.moving_point(0, 0, 0, 0, 0.0)
        with pytest.raises(ValueError):
            ContinuousKNNEngine(scenario.set_a, point, k=0)

    @pytest.mark.parametrize(
        "query",
        [
            # Zero area, but a segment: its answer would be its centre's.
            KineticBox(Box(0, 100, 5, 5), Box(0, 0, 0, 0), 0.0),
            KineticBox(Box(5, 5, 0, 100), Box(0, 0, 0, 0), 0.0),
            # A point whose velocity is a range, not one motion.
            KineticBox(Box(5, 5, 5, 5), Box(-1, 1, 0, 0), 0.0),
            KineticBox(Box(5, 5, 5, 5), Box(0, 0, 2, 3), 0.0),
        ],
        ids=["x-segment", "y-segment", "x-velocity-range", "y-velocity-range"],
    )
    def test_query_must_be_a_moving_point(self, query):
        objects = [
            MovingObject(1, Box(0, 1, 0, 1), 0.0, 0.0, 0.0),
            MovingObject(2, Box(98, 99, 4, 5), 0.0, 0.0, 0.0),
        ]
        with pytest.raises(ValueError, match="moving point"):
            ContinuousKNNEngine(objects, query, k=1)

    def test_unknown_update_rejected(self):
        scenario, engine = self.make()
        with pytest.raises(KeyError):
            engine.apply_update(scenario.set_b[0])


class TestOneShotPaths:
    """One-shot snapshot paths of the kNN engine: future-time queries
    that renew the candidate window on demand, the filter-set bound,
    and the clock/identity guards."""

    def test_future_snapshot_renews_the_window(self):
        """``knn(t)`` beyond the current Theorem-1 window refreshes the
        candidate set for ``[t, t + T_M]`` and stays exact.  ``t`` must
        stay inside the Theorem-2 bucket horizon ``t_eb + T_M`` — with
        no updates arriving, predictions beyond it have all expired,
        which is outside the model's contract."""
        _scenario, engine = self.make_static()
        far = engine.config.t_m * 1.2  # past the initial window end
        qx, qy = engine.query.at(far).center
        got = [oid for _, oid in engine.knn(far)]
        want = [
            oid
            for _, oid in brute_knn(engine.objects.values(), qx, qy, 5, far)
        ]
        assert got == want
        assert engine._window_end >= far

    def test_candidate_set_covers_k_and_filters(self):
        _scenario, engine = self.make_static()
        assert engine.k <= engine.candidate_count <= len(engine.objects)

    def test_static_query_point(self):
        """Zero-velocity query: the Lipschitz margin reduces to object
        speed only, and snapshots stay exact across the window."""
        _scenario, engine = self.make_static(vq=(0.0, 0.0))
        for t in (0.0, 3.0, 7.0):
            got = [oid for _, oid in engine.knn(t)]
            want = [
                oid
                for _, oid in brute_knn(engine.objects.values(), 500, 500, 5, t)
            ]
            assert got == want, t

    def test_past_snapshot_rejected(self):
        _scenario, engine = self.make_static()
        engine.tick(3.0)
        with pytest.raises(ValueError, match="present"):
            engine.knn(1.0)
        with pytest.raises(ValueError, match="backwards"):
            engine.tick(2.0)

    def test_unknown_object_update_rejected(self):
        _scenario, engine = self.make_static()
        stray = engine.objects.pop(next(iter(engine.objects)))
        with pytest.raises(KeyError):
            engine.apply_update(stray)

    def make_static(self, vq=(0.6, -0.3)):
        scenario = uniform_workload(
            150, seed=6, max_speed=3.0, object_size_pct=1.0, t_m=10.0
        )
        query = KineticBox.moving_point(500, 500, vq[0], vq[1], 0.0)
        engine = ContinuousKNNEngine(
            scenario.set_a, query, k=5,
            config=JoinConfig(t_m=10.0), max_speed=3.0,
        )
        return scenario, engine
