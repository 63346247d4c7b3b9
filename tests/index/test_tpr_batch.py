"""Batched maintenance (insert_batch / delete_batch / bulk_delete).

The batch paths may build a *different tree shape* than the sequential
loops (routing decisions are taken against pre-batch bounds, underflow
against batch-final occupancy), but tree contents, every structural
invariant, and every search answer must be identical — that is the
shape-independence contract the group-commit engine relies on.
"""

import random

import pytest

from repro.geometry import Box, INF, KineticBox, intersection_interval, kernels
from repro.index import MTBTree, TPRStarTree, TPRTree
from repro.objects import MovingObject

from ..conftest import random_object

TREES = [TPRTree, TPRStarTree]


def make_objects(rng, n, t=0.0, base=0):
    return [random_object(rng, base + i, t_ref=t) for i in range(n)]


def answers(tree, rng, t=0.0, trials=8):
    """Search answers over random probe regions (shape-independent)."""
    out = []
    for _ in range(trials):
        x, y = rng.uniform(0, 900), rng.uniform(0, 900)
        region = KineticBox.rigid(
            Box(x, x + 150, y, y + 150),
            rng.uniform(-2, 2), rng.uniform(-2, 2), t,
        )
        out.append(
            sorted(
                (oid, round(iv.start, 9), round(min(iv.end, 1e9), 9))
                for oid, iv in tree.search(region, t, t + 30.0)
            )
        )
    return out


class TestInsertBatch:
    @pytest.mark.parametrize("cls", TREES)
    def test_matches_sequential_inserts(self, cls):
        rng = random.Random(11)
        objs = make_objects(rng, 300)
        seq, bat = cls(node_capacity=10), cls(node_capacity=10)
        for obj in objs:
            seq.insert(obj, 0.0)
        bat.insert_batch(objs, 0.0)
        bat.validate(0.0)
        assert len(bat) == len(seq) == 300
        probe_rng = random.Random(99)
        assert answers(bat, random.Random(99)) == answers(seq, probe_rng)

    @pytest.mark.parametrize("cls", TREES)
    def test_incremental_batches_under_churn(self, cls):
        rng = random.Random(12)
        tree = cls(node_capacity=8)
        tree.insert_batch(make_objects(rng, 120), 0.0)
        t = 0.0
        for round_no in range(5):
            t += 3.0
            tree.insert_batch(make_objects(rng, 25, t=t, base=1000 + 100 * round_no), t)
            tree.validate(t)
        assert len(tree) == 120 + 5 * 25

    def test_small_batch_uses_scalar_path(self):
        tree = TPRStarTree()
        rng = random.Random(13)
        tree.insert_batch(make_objects(rng, 2), 0.0)  # below INSERT_BATCH_MIN
        tree.validate(0.0)
        assert len(tree) == 2

    def test_duplicates_rejected(self):
        tree = TPRStarTree()
        obj = MovingObject(1, Box(0, 1, 0, 1), 0, 0, 0.0)
        tree.insert(obj, 0.0)
        with pytest.raises(ValueError):
            tree.insert_batch([MovingObject(2, Box(0, 1, 0, 1), 0, 0, 0.0), obj], 0.0)
        dup = MovingObject(3, Box(0, 1, 0, 1), 0, 0, 0.0)
        with pytest.raises(ValueError):
            tree.insert_batch([dup, dup], 0.0)


class TestDeleteBatch:
    @pytest.mark.parametrize("cls", TREES)
    def test_matches_sequential_deletes(self, cls):
        rng = random.Random(21)
        objs = make_objects(rng, 250)
        seq, bat = cls(node_capacity=10), cls(node_capacity=10)
        for obj in objs:
            seq.insert(obj, 0.0)
            bat.insert(obj, 0.0)
        victims = [obj.oid for obj in rng.sample(objs, 90)]
        removed_seq = [seq.delete(oid, 1.0) for oid in victims]
        removed_bat = bat.delete_batch(victims, 1.0)
        assert removed_bat == removed_seq  # same stored versions, in order
        bat.validate(1.0)
        assert len(bat) == len(seq) == 160
        probe_rng = random.Random(77)
        assert answers(bat, random.Random(77), t=1.0) == answers(
            seq, probe_rng, t=1.0
        )
        assert bat.guided_delete_misses == 0

    @pytest.mark.parametrize("cls", TREES)
    def test_delete_everything_in_one_batch(self, cls):
        # Dissolving every subtree at once exercises the root-drain
        # rebuild, a state sequential deletion can never reach.
        rng = random.Random(22)
        objs = make_objects(rng, 180)
        tree = cls(node_capacity=8)
        tree.insert_batch(objs, 0.0)
        tree.delete_batch([obj.oid for obj in objs], 1.0)
        assert len(tree) == 0
        assert tree.height == 1
        tree.validate(1.0)
        tree.insert_batch(make_objects(rng, 40, t=1.0, base=500), 1.0)
        tree.validate(1.0)

    def test_missing_oid_raises(self):
        tree = TPRStarTree()
        rng = random.Random(23)
        tree.insert_batch(make_objects(rng, 20), 0.0)
        with pytest.raises(KeyError):
            tree.delete_batch([0, 1, 9999], 0.0)

    @pytest.mark.parametrize("cls", TREES)
    def test_interleaved_batch_churn(self, cls):
        rng = random.Random(24)
        tree = cls(node_capacity=8)
        live = {}
        for obj in make_objects(rng, 150):
            live[obj.oid] = obj
        tree.insert_batch(list(live.values()), 0.0)
        t = 0.0
        for round_no in range(6):
            t += 2.0
            victims = rng.sample(sorted(live), 40)
            tree.delete_batch(victims, t)
            refreshed = [random_object(rng, oid, t_ref=t) for oid in victims]
            tree.insert_batch(refreshed, t)
            for obj in refreshed:
                live[obj.oid] = obj
            tree.validate(t)
        region = KineticBox.rigid(Box(-1e6, 1e6, -1e6, 1e6), 0, 0, t)
        got = {oid for oid, _ in tree.search(region, t, INF)}
        assert got == set(live)


class TestForestBulkDelete:
    def test_matches_per_object_delete(self):
        rng = random.Random(31)
        seq, bat = MTBTree(t_m=20.0), MTBTree(t_m=20.0)
        objs = []
        for t_ref in (0.0, 7.0, 14.0):  # spread over three buckets
            for obj in make_objects(rng, 40, t=t_ref, base=int(t_ref) * 100):
                objs.append(obj)
        for obj in objs:
            seq.insert(obj, obj.t_ref)
            bat.insert(obj, obj.t_ref)
        victims = [obj.oid for obj in rng.sample(objs, 70)]
        removed_seq = [seq.delete(oid, 15.0) for oid in victims]
        removed_bat = bat.bulk_delete(victims, 15.0)
        assert removed_bat == removed_seq
        assert len(bat) == len(seq)
        assert bat.num_buckets == seq.num_buckets  # drained buckets dropped
        bat.validate(15.0)

    def test_emptied_bucket_is_dropped(self):
        rng = random.Random(32)
        forest = MTBTree(t_m=20.0)
        early = make_objects(rng, 30, t=0.0)
        late = make_objects(rng, 30, t=12.0, base=100)
        for obj in early + late:
            forest.insert(obj, obj.t_ref)
        assert forest.num_buckets == 2
        forest.bulk_delete([obj.oid for obj in early], 12.0)
        assert forest.num_buckets == 1
        forest.validate(12.0)


class TestInsertionCostKernel:
    def test_matches_scalar_integrals(self):
        rng = random.Random(41)
        entries = [random_object(rng, i).kbox for i in range(25)]
        objs = [random_object(rng, 100 + i).kbox for i in range(12)]
        t0, t1 = 2.0, 32.0
        enlargements, areas = kernels.batch_insertion_costs(
            kernels.KineticBatch.from_boxes(entries),
            kernels.KineticBatch.from_boxes(objs),
            t0,
            t1,
        )
        for i, ekb in enumerate(entries):
            want_area = ekb.integrated_area(t0, t1)
            assert areas[i] == pytest.approx(want_area, rel=1e-12)
            for j, okb in enumerate(objs):
                want = ekb.integrated_union_enlargement(okb, t0, t1)
                assert enlargements[i, j] == pytest.approx(
                    want, rel=1e-12, abs=1e-9
                )

    def test_routing_agrees_with_choose_child(self):
        rng = random.Random(42)
        tree = TPRStarTree(node_capacity=8)
        tree.insert_batch(make_objects(rng, 200), 0.0)
        root = tree.read_node(tree.root_id)
        probes = [random_object(rng, 500 + i, t_ref=1.0) for i in range(20)]
        routes = tree._route_batch([p.kbox for p in probes], 1.0)
        for probe, route in zip(probes, routes):
            want = root.entries[tree._choose_child(root, probe.kbox, 1.0)].ref
            assert route[0] == want
