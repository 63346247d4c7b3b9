"""Tests for the MTB-tree time-bucket forest."""

import random

import pytest

from repro.index import MTBTree, TreeStorage
from repro.objects import MovingObject
from repro.geometry import Box

from ..check.sanitize import check_mtb_forest, raise_on_findings
from ..conftest import random_object


def fresh_forest(t_m=60.0, m=2, **kwargs):
    return MTBTree(t_m=t_m, buckets_per_tm=m, **kwargs)


class TestBucketArithmetic:
    def test_bucket_key_and_end(self):
        forest = fresh_forest(t_m=60.0, m=2)  # bucket length 30
        assert forest.bucket_length == 30.0
        assert forest.bucket_key(0.0) == 0
        assert forest.bucket_key(29.999) == 0
        assert forest.bucket_key(30.0) == 1
        assert forest.bucket_end(0) == 30.0
        assert forest.bucket_end(3) == 120.0

    def test_validation(self):
        with pytest.raises(ValueError):
            MTBTree(t_m=0)
        with pytest.raises(ValueError):
            MTBTree(t_m=60, buckets_per_tm=0)


class TestMaintenance:
    def test_insert_goes_to_update_time_bucket(self):
        forest = fresh_forest()
        obj = MovingObject(1, Box(0, 1, 0, 1), 1, 0, t_ref=45.0)
        forest.insert(obj, 45.0)
        keys = [key for key, _end, _tree in forest.trees()]
        assert keys == [forest.bucket_key(45.0)] == [1]

    def test_duplicate_insert_rejected(self):
        forest = fresh_forest()
        obj = MovingObject(1, Box(0, 1, 0, 1), 0, 0, 0.0)
        forest.insert(obj, 0.0)
        with pytest.raises(ValueError):
            forest.insert(obj, 0.0)

    def test_update_moves_bucket(self):
        forest = fresh_forest()
        obj = MovingObject(1, Box(0, 1, 0, 1), 1, 0, t_ref=0.0)
        forest.insert(obj, 0.0)
        newer = obj.updated(40.0)
        forest.update(newer, 40.0)
        keys = [key for key, _end, _tree in forest.trees()]
        assert keys == [1]  # old bucket drained and dropped
        assert forest.objects.tag(1) == 1

    def test_empty_buckets_dropped_and_pages_freed(self):
        storage = TreeStorage()
        forest = fresh_forest(storage=storage)
        rng = random.Random(0)
        for oid in range(50):
            forest.insert(random_object(rng, oid), 0.0)
        pages_full = storage.disk.num_pages
        for oid in range(50):
            forest.delete(oid, 10.0)
        assert forest.num_buckets == 0
        assert storage.disk.num_pages < pages_full

    def test_bounded_bucket_count_under_tm_contract(self):
        """With every object updating within T_M, at most m+1 buckets live."""
        rng = random.Random(1)
        forest = fresh_forest(t_m=20.0, m=2)  # bucket length 10
        objects = {}
        for oid in range(120):
            obj = random_object(rng, oid)
            forest.insert(obj, 0.0)
            objects[oid] = obj
        next_due = {oid: rng.uniform(1, 20) for oid in objects}
        t = 0.0
        for _step in range(80):
            t += 1.0
            for oid, due in list(next_due.items()):
                if due <= t:
                    obj = objects[oid].updated(t)
                    forest.update(obj, t)
                    objects[oid] = obj
                    next_due[oid] = t + rng.uniform(1, 20)
            if t > 20:
                assert forest.num_buckets <= 3, (t, forest.num_buckets)
        raise_on_findings(check_mtb_forest(forest, t))

    def test_forest_validate_checks_membership(self):
        forest = fresh_forest()
        rng = random.Random(2)
        for oid in range(100):
            forest.insert(random_object(rng, oid), 0.0)
        raise_on_findings(check_mtb_forest(forest, 0.0))

    def test_delete_returns_stored_version(self):
        forest = fresh_forest()
        obj = MovingObject(7, Box(0, 1, 0, 1), 2, 3, 0.0)
        forest.insert(obj, 0.0)
        stored = forest.delete(7, 5.0)
        assert stored == obj
        assert len(forest) == 0


class TestTreeFactory:
    def test_trees_sorted_by_bucket(self):
        forest = fresh_forest(t_m=60.0, m=2)
        forest.insert(MovingObject(1, Box(0, 1, 0, 1), 0, 0, t_ref=40.0), 40.0)
        forest.insert(MovingObject(2, Box(0, 1, 0, 1), 0, 0, t_ref=5.0), 40.0)
        keys = [key for key, _end, _tree in forest.trees()]
        assert keys == sorted(keys) == [0, 1]
