"""Corner cases across the stack: degenerate workloads that historically
break spatial index implementations."""

import math
import random

import pytest

from repro.core import ColumnarJoinEngine, ContinuousJoinEngine, JoinConfig
from repro.geometry import Box, INF, KineticBox
from repro.index import TPRStarTree
from repro.join import brute_force_join, brute_force_pairs_at, naive_join, tc_join
from repro.objects import MovingObject

from .check.sanitize import check_tpr_tree, raise_on_findings


class TestStaticWorlds:
    """Zero velocity everywhere: the join degenerates to the static case."""

    def make_static(self, n=100, seed=0):
        import random

        rng = random.Random(seed)
        objs_a, objs_b = [], []
        for i in range(n):
            x, y = rng.uniform(0, 500), rng.uniform(0, 500)
            objs_a.append(MovingObject(i, Box(x, x + 8, y, y + 8), 0, 0, 0.0))
            x, y = rng.uniform(0, 500), rng.uniform(0, 500)
            objs_b.append(
                MovingObject(10000 + i, Box(x, x + 8, y, y + 8), 0, 0, 0.0)
            )
        return objs_a, objs_b

    def test_static_join_intervals_span_window(self):
        objs_a, objs_b = self.make_static()
        for triple in brute_force_join(objs_a, objs_b, 0.0, 60.0):
            assert triple.interval.start == 0.0
            assert triple.interval.end == 60.0

    def test_static_unbounded_naive_join(self):
        objs_a, objs_b = self.make_static()
        tree_a, tree_b = TPRStarTree(), TPRStarTree()
        tree_b.storage = tree_a.storage  # share tracker for the assert below
        tree_b = TPRStarTree(storage=tree_a.storage)
        for o in objs_a:
            tree_a.insert(o, 0.0)
        for o in objs_b:
            tree_b.insert(o, 0.0)
        got = {(t.a_oid, t.b_oid) for t in naive_join(tree_a, tree_b, 0.0, INF)}
        want = brute_force_pairs_at(objs_a, objs_b, 0.0)
        assert got == want
        # Static + unbounded: every found interval is [0, inf).
        for triple in naive_join(tree_a, tree_b, 0.0, INF):
            assert triple.interval.end == INF


class TestStackedObjects:
    """Many objects at the exact same position: splits must terminate and
    every pair must be reported."""

    def test_identical_positions(self):
        objs_a = [
            MovingObject(i, Box(10, 12, 10, 12), 1.0, -1.0, 0.0) for i in range(80)
        ]
        objs_b = [
            MovingObject(1000 + i, Box(11, 13, 11, 13), 1.0, -1.0, 0.0)
            for i in range(80)
        ]
        storage_tree = TPRStarTree(node_capacity=8)
        tree_b = TPRStarTree(storage=storage_tree.storage, node_capacity=8)
        for o in objs_a:
            storage_tree.insert(o, 0.0)
        for o in objs_b:
            tree_b.insert(o, 0.0)
        raise_on_findings(check_tpr_tree(storage_tree, 0.0))
        triples = tc_join(storage_tree, tree_b, 0.0, 30.0)
        assert len(triples) == 80 * 80  # everyone overlaps everyone

    def test_engine_with_stacked_objects(self):
        objs_a = [MovingObject(i, Box(0, 2, 0, 2), 0.5, 0.5, 0.0) for i in range(30)]
        objs_b = [
            MovingObject(100 + i, Box(1, 3, 1, 3), 0.5, 0.5, 0.0) for i in range(30)
        ]
        engine = ContinuousJoinEngine.create(
            objs_a, objs_b, algorithm="mtb", config=JoinConfig(t_m=10.0)
        )
        engine.run_initial_join()
        assert len(engine.result_at(0.0)) == 900


class TestSingletons:
    @pytest.mark.parametrize("algorithm", ["naive", "etp", "tc", "mtb"])
    def test_one_object_each(self, algorithm):
        a = MovingObject(1, Box(0, 1, 0, 1), 1.0, 0.0, 0.0)
        b = MovingObject(2, Box(9, 10, 0, 1), -1.0, 0.0, 0.0)
        engine = ContinuousJoinEngine.create(
            [a], [b], algorithm=algorithm, config=JoinConfig(t_m=100.0)
        )
        engine.run_initial_join()
        assert engine.result_at(0.0) == set()
        engine.tick(4.5)  # they overlap during [4, 5]
        assert engine.result_at(4.5) == {(1, 2)}
        engine.tick(6.0)
        assert engine.result_at(6.0) == set()

    def test_exact_separation_instant_conventions(self):
        """At the exact instant two objects stop touching, the interval
        strategies use closed semantics (pair included) while ETP uses
        the TP 'valid immediately after' convention (pair excluded).
        Both are defensible; answers differ only on this measure-zero
        set and agree at every other time."""
        a = MovingObject(1, Box(0, 1, 0, 1), 1.0, 0.0, 0.0)
        b = MovingObject(2, Box(9, 10, 0, 1), -1.0, 0.0, 0.0)
        for algorithm, expected in (("mtb", {(1, 2)}), ("etp", set())):
            engine = ContinuousJoinEngine.create(
                [a], [b], algorithm=algorithm, config=JoinConfig(t_m=100.0)
            )
            engine.run_initial_join()
            engine.tick(5.0)  # separation instant
            assert engine.result_at(5.0) == expected, algorithm

    @pytest.mark.parametrize("algorithm", ["naive", "tc", "mtb", "etp"])
    def test_empty_b_side(self, algorithm):
        a = MovingObject(1, Box(0, 1, 0, 1), 1.0, 0.0, 0.0)
        engine = ContinuousJoinEngine.create(
            [a], [], algorithm=algorithm, config=JoinConfig(t_m=10.0)
        )
        engine.run_initial_join()
        assert engine.result_at(0.0) == set()


class TestPointObjects:
    """Zero-extent objects (moving points) are legal box degenerations."""

    def test_point_join(self):
        a = MovingObject(1, Box.point(0, 0), 1.0, 1.0, 0.0)
        b = MovingObject(2, Box.point(4, 4), 0.0, 0.0, 0.0)
        [triple] = brute_force_join([a], [b], 0.0, 10.0)
        assert triple.interval.start == pytest.approx(4.0)
        assert triple.interval.end == pytest.approx(4.0)

    def test_points_in_tree(self):
        import random

        rng = random.Random(3)
        tree_a = TPRStarTree()
        tree_b = TPRStarTree(storage=tree_a.storage)
        objs_a, objs_b = [], []
        for i in range(60):
            x, y = rng.uniform(0, 50), rng.uniform(0, 50)
            obj = MovingObject(
                i, Box.point(x, y), rng.uniform(-2, 2), rng.uniform(-2, 2), 0.0
            )
            objs_a.append(obj)
            tree_a.insert(obj, 0.0)
            x, y = rng.uniform(0, 50), rng.uniform(0, 50)
            obj = MovingObject(
                1000 + i, Box.point(x, y), rng.uniform(-2, 2), rng.uniform(-2, 2), 0.0
            )
            objs_b.append(obj)
            tree_b.insert(obj, 0.0)
        raise_on_findings(check_tpr_tree(tree_a, 0.0))
        got = sorted((t.a_oid, t.b_oid) for t in tc_join(tree_a, tree_b, 0.0, 20.0))
        want = sorted(
            (t.a_oid, t.b_oid) for t in brute_force_join(objs_a, objs_b, 0.0, 20.0)
        )
        assert got == want


class TestExtremeParameters:
    def test_huge_tm(self):
        a = MovingObject(1, Box(0, 1, 0, 1), 0.001, 0, 0.0)
        b = MovingObject(2, Box(500, 501, 0, 1), 0, 0, 0.0)
        engine = ContinuousJoinEngine.create(
            [a], [b], algorithm="tc", config=JoinConfig(t_m=1e6)
        )
        engine.run_initial_join()
        # Meets at t ≈ 499000, far in the future but within T_M.
        assert engine.result_at(0.0) == set()

    def test_very_fast_objects(self):
        q = KineticBox.rigid(Box(0, 1000, 0, 1000), 0, 0, 0.0)
        tree = TPRStarTree()
        objs = []
        import random

        rng = random.Random(8)
        for i in range(100):
            x, y = rng.uniform(0, 1000), rng.uniform(0, 1000)
            obj = MovingObject(
                i, Box(x, x + 5, y, y + 5),
                rng.uniform(-500, 500), rng.uniform(-500, 500), 0.0,
            )
            objs.append(obj)
            tree.insert(obj, 0.0)
        raise_on_findings(check_tpr_tree(tree, 0.0))
        hits = {oid for oid, _ in tree.search(q, 0.0, 1.0)}
        assert hits == {o.oid for o in objs}


class TestGrazingAtTheFarCorner:
    """Contacts that last an instant or slide along an edge, at the far
    corner of the space of 1M objects a side (side ``1000 * sqrt(1000)``,
    ``benchmarks/bench_scale.py``'s constant density).  Finite motions
    are accepted as given (DESIGN §5.5), so coordinates this large must
    round alike in every engine: each answers the same at every tick."""

    SIDE = 1000.0 * math.sqrt(1000.0)
    T_M = 10.0

    def touching_pairs(self, seed, n=40):
        """``n`` A/B pairs that touch at an integer tick: corner to corner
        for one instant, or edge to edge while sliding past."""
        rng = random.Random(seed)
        objs_a, objs_b = [], []
        for i in range(n):
            side = rng.uniform(0.5, 3.0)
            tau = float(rng.randint(1, 9))
            x, y = (rng.uniform(self.SIDE - 200.0, self.SIDE - 2 * side) for _ in "xy")
            va = (rng.uniform(-3, 3), rng.uniform(-3, 3))
            if i % 2:
                # B's lower-left corner meets A's upper-right one at tau,
                # closing in x and parting in y: one instant of contact.
                vb = (va[0] - rng.uniform(0.1, 2), va[1] + rng.uniform(0.1, 2))
                at_tau = (x + side, y + side)
            else:
                # B's left edge lies on A's right edge, sliding in y.
                vb = (va[0], va[1] + rng.uniform(-2, 2))
                at_tau = (x + side, y + rng.uniform(-side, side))
            objs_a.append(self.mover(i, (x, y), side, va, tau))
            objs_b.append(self.mover(100_000 + i, at_tau, side, vb, tau))
        return objs_a, objs_b

    @staticmethod
    def mover(oid, at_tau, side, velocity, tau):
        """A square with its lower-left corner at ``at_tau`` at ``tau``,
        reported at 0."""
        x, y = (p - v * tau for p, v in zip(at_tau, velocity))
        return MovingObject(oid, Box(x, x + side, y, y + side), *velocity, 0.0)

    @pytest.mark.parametrize("seed", range(3))
    def test_every_engine_answers_alike(self, seed):
        objs_a, objs_b = self.touching_pairs(seed)
        config = JoinConfig(t_m=self.T_M)
        engines = {
            f"tree-{algorithm}": ContinuousJoinEngine(objs_a, objs_b, algorithm, config)
            for algorithm in ("naive", "tc", "mtb")
        }
        for algorithm in ("tc", "mtb"):
            engines[f"columnar-{algorithm}"] = ColumnarJoinEngine(
                objs_a, objs_b, algorithm, config
            )
        seen = set()
        for engine in engines.values():
            engine.run_initial_join()
        for step in range(10):
            t = float(step)
            answers = {}
            for name, engine in engines.items():
                engine.tick(t)
                answers[name] = engine.result_at(t)
            want = answers["tree-naive"]
            assert all(got == want for got in answers.values()), (t, answers)
            seen |= want
        assert seen, "vacuous: no contact at any tick"
