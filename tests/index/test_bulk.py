"""Bulk loading: packed trees must be indistinguishable in behaviour."""

import random

import pytest

from repro.geometry import Box, KineticBox, intersection_interval
from repro.index import TPRStarTree, bulk_load, collect_tree_stats
from repro.workloads import uniform_workload

from ..check.sanitize import check_tpr_tree, raise_on_findings
from ..conftest import random_objects


class TestBulkLoad:
    def test_empty(self):
        tree = bulk_load([], t0=0.0)
        assert len(tree) == 0
        assert tree.height == 1

    def test_single_node_worth(self):
        objs = random_objects(1, 10)
        tree = bulk_load(objs, t0=0.0)
        assert len(tree) == 10
        assert tree.height == 1
        raise_on_findings(check_tpr_tree(tree, 0.0))

    @pytest.mark.parametrize("n", [31, 100, 500, 2000])
    def test_invariants_at_scale(self, n):
        objs = random_objects(2, n)
        tree = bulk_load(objs, t0=0.0)
        assert len(tree) == n
        raise_on_findings(check_tpr_tree(tree, 0.0))

    def test_duplicate_ids_rejected(self):
        objs = random_objects(3, 5)
        with pytest.raises(ValueError):
            bulk_load(objs + [objs[0]], t0=0.0)

    def test_search_equivalent_to_insert_built(self):
        objs = random_objects(5, 600)
        packed = bulk_load(objs, t0=0.0)
        built = TPRStarTree()
        for obj in objs:
            built.insert(obj, 0.0)
        region = KineticBox.rigid(Box(200, 500, 300, 600), 0.8, -0.3, 0.0)
        got = sorted(packed.search(region, 0.0, 40.0))
        want = sorted(built.search(region, 0.0, 40.0))
        assert [g[0] for g in got] == [w[0] for w in want]

    def test_supports_updates_after_load(self):
        objs = random_objects(6, 300)
        tree = bulk_load(objs, t0=0.0)
        rng = random.Random(0)
        by_id = {o.oid: o for o in objs}
        for oid in rng.sample(sorted(by_id), 100):
            newer = by_id[oid].updated(5.0)
            tree.update(newer, 5.0)
            by_id[oid] = newer
        for oid in rng.sample(sorted(by_id), 50):
            tree.delete(oid, 6.0)
            del by_id[oid]
        raise_on_findings(check_tpr_tree(tree, 6.0))
        assert len(tree) == 250

    def test_packing_quality(self):
        """STR packing should fill leaves near the fill factor."""
        scenario = uniform_workload(1000, seed=8)
        tree = bulk_load(scenario.set_a, t0=0.0)
        stats = collect_tree_stats(tree, 0.0)
        assert stats.avg_leaf_fill > 0.6

    def test_bounds_valid_into_future(self):
        objs = random_objects(9, 400, max_speed=5.0)
        tree = bulk_load(objs, t0=0.0, horizon=30.0)
        # Every object must be findable via a search far in the future.
        for obj in objs[::37]:
            region = obj.kbox
            hits = {oid for oid, _ in tree.search(region, 0.0, 90.0)}
            assert obj.oid in hits
