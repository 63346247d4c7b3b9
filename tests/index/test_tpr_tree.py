"""Structural and behavioural tests for the TPR*-tree."""

import random

import pytest

from repro.geometry import Box, INF, KineticBox, intersection_interval
from repro.index import TPRStarTree, TreeStorage, bulk_load, max_entries_for_page
from repro.objects import MovingObject
from repro.storage import DEFAULT_PAGE_SIZE

from ..check.sanitize import check_tpr_tree, raise_on_findings
from ..conftest import random_object, random_objects

TREES = [TPRStarTree]


def build_tree(cls, n, seed=0, t=0.0, **kwargs):
    rng = random.Random(seed)
    tree = cls(**kwargs)
    objects = {}
    for oid in range(n):
        obj = random_object(rng, oid, t_ref=t)
        tree.insert(obj, t)
        objects[oid] = obj
    return tree, objects, rng


class TestConstruction:
    def test_empty_tree(self):
        tree = TPRStarTree()
        assert len(tree) == 0
        assert tree.height == 1
        assert tree.search(
            KineticBox.rigid(Box(0, 1000, 0, 1000), 0, 0, 0), 0.0
        ) == []

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            TPRStarTree(node_capacity=3)
        with pytest.raises(ValueError):
            TPRStarTree(node_capacity=1000)  # exceeds 4 KiB page
        with pytest.raises(ValueError):
            TPRStarTree(horizon=0)

    def test_duplicate_insert_rejected(self):
        tree = TPRStarTree()
        obj = MovingObject(1, Box(0, 1, 0, 1), 0, 0, 0.0)
        tree.insert(obj, 0.0)
        with pytest.raises(ValueError):
            tree.insert(obj, 0.0)

    @pytest.mark.parametrize("cls", TREES)
    def test_height_grows(self, cls):
        tree, _objects, _ = build_tree(cls, 400, node_capacity=10)
        assert tree.height >= 3
        raise_on_findings(check_tpr_tree(tree, 0.0))


class TestInvariants:
    @pytest.mark.parametrize("cls", TREES)
    def test_validate_after_bulk_insert(self, cls):
        tree, _objects, _ = build_tree(cls, 500)
        raise_on_findings(check_tpr_tree(tree, 0.0))
        assert len(tree) == 500

    @pytest.mark.parametrize("cls", TREES)
    def test_validate_under_update_churn(self, cls):
        tree, objects, rng = build_tree(cls, 250, seed=5)
        t = 0.0
        for _round in range(6):
            t += 7.0
            for oid in rng.sample(sorted(objects), 60):
                obj = random_object(rng, oid, t_ref=t)
                tree.update(obj, t)
                objects[oid] = obj
            raise_on_findings(check_tpr_tree(tree, t))
        assert tree.guided_delete_misses == 0

    @pytest.mark.parametrize("cls", TREES)
    def test_delete_down_to_empty(self, cls):
        tree, objects, rng = build_tree(cls, 200, seed=9)
        oids = sorted(objects)
        rng.shuffle(oids)
        for i, oid in enumerate(oids):
            tree.delete(oid, 1.0)
            if i % 50 == 0:
                raise_on_findings(check_tpr_tree(tree, 1.0))
        assert len(tree) == 0
        assert tree.height == 1

    def test_delete_missing_raises(self):
        tree = TPRStarTree()
        with pytest.raises(KeyError):
            tree.delete(1, 0.0)


class TestSearch:
    @pytest.mark.parametrize("cls", TREES)
    def test_search_matches_bruteforce(self, cls):
        tree, objects, rng = build_tree(cls, 300, seed=3)
        for trial in range(10):
            x, y = rng.uniform(0, 900), rng.uniform(0, 900)
            region = KineticBox.rigid(
                Box(x, x + 120, y, y + 120),
                rng.uniform(-2, 2), rng.uniform(-2, 2), 0.0,
            )
            t0 = rng.uniform(0, 5)
            t1 = t0 + rng.uniform(0, 40)
            got = sorted(
                (oid, round(iv.start, 6)) for oid, iv in tree.search(region, t0, t1)
            )
            want = []
            for oid, obj in objects.items():
                iv = intersection_interval(obj.kbox, region, t0, t1)
                if iv is not None:
                    want.append((oid, round(iv.start, 6)))
            assert got == sorted(want), trial

    def test_search_at_page_capacity(self):
        """Nodes as wide as a 4 KiB page allows answer with exactly the
        ``(oid, interval)`` set a scan of every object gives, bounded and
        unbounded windows alike.  Packing 1 400 objects at 50 entries a
        node puts leaves of up to 41 entries under a 36-entry root."""
        capacity = max_entries_for_page(DEFAULT_PAGE_SIZE)
        objects = random_objects(6, 1400)
        tree = bulk_load(objects, t0=0.0, node_capacity=capacity)
        assert tree.node_capacity == 50
        assert tree.height == 2 and len(tree.root_node().entries) > 32
        rng = random.Random(6)
        for trial in range(12):
            x, y = rng.uniform(0, 900), rng.uniform(0, 900)
            region = KineticBox.rigid(
                Box(x, x + rng.uniform(1, 150), y, y + rng.uniform(1, 150)),
                rng.uniform(-3, 3), rng.uniform(-3, 3), rng.uniform(0, 2),
            )
            t0 = rng.uniform(0, 5)
            t1 = INF if trial % 3 == 0 else t0 + rng.uniform(0, 40)
            got = set(tree.search(region, t0, t1))
            want = set()
            for obj in objects:
                iv = intersection_interval(obj.kbox, region, t0, t1)
                if iv is not None:
                    want.add((obj.oid, iv))
            assert got and got == want, trial

    def test_search_unbounded_window(self):
        tree, objects, _ = build_tree(TPRStarTree, 100, seed=4)
        region = KineticBox.rigid(Box(0, 50, 0, 50), 0, 0, 0.0)
        got = {oid for oid, _ in tree.search(region, 0.0, INF)}
        want = {
            oid
            for oid, obj in objects.items()
            if intersection_interval(obj.kbox, region, 0.0, INF) is not None
        }
        assert got == want


class TestStorageBehaviour:
    def test_shared_storage_and_io_accounting(self):
        storage = TreeStorage(buffer_pages=10)
        t1 = TPRStarTree(storage=storage)
        t2 = TPRStarTree(storage=storage)
        rng = random.Random(0)
        for oid in range(200):
            t1.insert(random_object(rng, oid), 0.0)
            t2.insert(random_object(rng, 10000 + oid), 0.0)
        # With a 10-page buffer and ~15+ pages of nodes, evictions and
        # re-reads must have produced real I/O.
        assert storage.tracker.page_reads > 0
        assert storage.tracker.page_writes > 0

    def test_persistence_through_eviction(self):
        """Nodes must survive full buffer turnover (write-back works)."""
        storage = TreeStorage(buffer_pages=4)
        tree = TPRStarTree(storage=storage)
        rng = random.Random(2)
        objects = {}
        for oid in range(300):
            obj = random_object(rng, oid)
            tree.insert(obj, 0.0)
            objects[oid] = obj
        raise_on_findings(check_tpr_tree(tree, 0.0))
        assert sorted(o.oid for o in tree.all_objects()) == sorted(objects)

    def test_node_visits_counted(self):
        tree, _objects, _ = build_tree(TPRStarTree, 100)
        before = tree.storage.tracker.node_visits
        tree.search(KineticBox.rigid(Box(0, 10, 0, 10), 0, 0, 0.0), 0.0, 1.0)
        assert tree.storage.tracker.node_visits > before


class TestHorizonSensitivity:
    def test_small_horizon_still_correct(self):
        tree, objects, _ = build_tree(TPRStarTree, 150, horizon=5.0)
        raise_on_findings(check_tpr_tree(tree, 0.0))
        region = KineticBox.rigid(Box(100, 400, 100, 400), 0, 0, 0.0)
        got = {oid for oid, _ in tree.search(region, 0.0, 100.0)}
        want = {
            oid
            for oid, obj in objects.items()
            if intersection_interval(obj.kbox, region, 0.0, 100.0) is not None
        }
        assert got == want
