"""TC-Join and the Theorem-1/Theorem-2 correctness invariants.

These are the paper's core claims, tested directly:

* **Theorem 1** — joining each updated object over ``[t_u, t_u + T_M]``
  and unioning the results answers the continuous query exactly, at
  every timestamp, provided every object updates within ``T_M``.
* **Theorem 2** — the same holds with the tighter per-bucket horizon
  ``[t_u, lut(otherset) + T_M]``.
"""

import random

import pytest

from repro.index import MTBTree, TPRStarTree, TreeStorage
from repro.join import (
    JoinTechniques,
    JoinTriple,
    brute_force_join,
    brute_force_pairs_at,
    mtb_join,
    mtb_join_object,
    tc_join,
)

from ..conftest import random_object, random_objects
from ..reference_store import JoinResultStore


def norm(triples):
    return sorted((a, b, round(iv.start, 6), round(iv.end, 6)) for a, b, iv in triples)


class TestTCJoin:
    def test_matches_bruteforce_window(self):
        storage = TreeStorage()
        tree_a = TPRStarTree(storage=storage)
        tree_b = TPRStarTree(storage=storage)
        objs_a = random_objects(40, 200)
        objs_b = random_objects(41, 200, id_offset=100000)
        for o in objs_a:
            tree_a.insert(o, 0.0)
        for o in objs_b:
            tree_b.insert(o, 0.0)
        t_m = 60.0
        got_plain = norm(tc_join(tree_a, tree_b, 0.0, t_m))
        got_improved = norm(tc_join(tree_a, tree_b, 0.0, t_m, JoinTechniques.all()))
        want = norm(brute_force_join(objs_a, objs_b, 0.0, t_m))
        assert got_plain == want
        assert got_improved == want

    def test_invalid_tm(self):
        storage = TreeStorage()
        tree = TPRStarTree(storage=storage)
        with pytest.raises(ValueError):
            tc_join(tree, tree, 0.0, 0.0)


class TestTheorem1:
    def test_union_of_constrained_joins_is_continuously_correct(self):
        """Simulate updates; re-join each updated object over
        [t_u, t_u + T_M] only; the union must equal brute force at every
        timestamp."""
        rng = random.Random(77)
        t_m = 12.0
        objs_a = {o.oid: o for o in random_objects(50, 60, max_speed=4.0)}
        objs_b = {o.oid: o for o in random_objects(51, 60, id_offset=100000, max_speed=4.0)}
        store = JoinResultStore()
        for triple in brute_force_join(objs_a.values(), objs_b.values(), 0.0, t_m):
            store.add(triple)
        next_due = {
            oid: rng.uniform(1, t_m) for oid in list(objs_a) + list(objs_b)
        }
        for step in range(1, 40):
            t = float(step)
            for oid, due in list(next_due.items()):
                if due > t:
                    continue
                side = objs_a if oid in objs_a else objs_b
                obj = random_object(
                    rng, oid, t_ref=t, max_speed=4.0
                )
                side[oid] = obj
                next_due[oid] = t + rng.uniform(1, t_m)
                store.remove_object(oid)
                # Theorem-1 window join of the updated object only.
                if oid in objs_a:
                    fresh = brute_force_join([obj], objs_b.values(), t, t + t_m)
                else:
                    fresh = [
                        JoinTriple(a, obj.oid, iv)
                        for _o, a, iv in brute_force_join(
                            [obj], objs_a.values(), t, t + t_m
                        )
                    ]
                for triple in fresh:
                    store.add(triple)
            got = store.pairs_at(t)
            want = brute_force_pairs_at(objs_a.values(), objs_b.values(), t)
            assert got == want, (step, got ^ want)


class TestTheorem2:
    def test_mtb_forest_join_horizons(self):
        """mtb_join's per-bucket-pair windows cover exactly
        [t, min(bucket ends) + T_M] for every pair."""
        storage = TreeStorage()
        t_m = 20.0
        forest_a = MTBTree(t_m=t_m, storage=storage)
        forest_b = MTBTree(t_m=t_m, storage=storage)
        objs_a = random_objects(60, 150)
        objs_b = random_objects(61, 150, id_offset=100000)
        for o in objs_a:
            forest_a.insert(o, 0.0)
        for o in objs_b:
            forest_b.insert(o, 0.0)
        # Single bucket [0, 10): horizon = 10 + 20 = 30.
        got = norm(mtb_join(forest_a, forest_b, 0.0, JoinTechniques.all()))
        want = norm(brute_force_join(objs_a, objs_b, 0.0, 30.0))
        assert got == want

    def test_mtb_join_object_per_bucket_horizon(self):
        storage = TreeStorage()
        t_m = 20.0
        forest = MTBTree(t_m=t_m, storage=storage)
        old = random_objects(70, 80, t_ref=5.0)       # bucket [0,10) → horizon 30
        new = random_objects(71, 80, id_offset=5000, t_ref=15.0)  # bucket [10,20) → 40
        for o in old:
            forest.insert(o, 5.0)
        for o in new:
            forest.insert(o, 15.0)
        probe = random_object(random.Random(5), 99999, t_ref=16.0)
        got = sorted(
            (t.b_oid, round(t.interval.start, 6))
            for t in mtb_join_object(forest, probe.kbox, probe.oid, 16.0)
        )
        want = sorted(
            [(t.b_oid, round(t.interval.start, 6))
             for t in brute_force_join([probe], old, 16.0, 30.0)]
            + [(t.b_oid, round(t.interval.start, 6))
               for t in brute_force_join([probe], new, 16.0, 40.0)]
        )
        assert got == want

    def test_mismatched_tm_rejected(self):
        storage = TreeStorage()
        fa = MTBTree(t_m=10.0, storage=storage)
        fb = MTBTree(t_m=20.0, storage=storage)
        with pytest.raises(ValueError):
            mtb_join(fa, fb, 0.0)

    def test_drained_bucket_skipped(self):
        storage = TreeStorage()
        forest = MTBTree(t_m=10.0, storage=storage)
        for o in random_objects(80, 30, t_ref=2.0):
            forest.insert(o, 2.0)
        probe = random_object(random.Random(9), 77777, t_ref=40.0)
        # Bucket [0,5) horizon ends at 15 < t_now=40 → nothing to probe.
        assert mtb_join_object(forest, probe.kbox, probe.oid, 40.0) == []
