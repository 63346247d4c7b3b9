"""Tree statistics collection."""

from repro.index import (
    MTBTree,
    TPRStarTree,
    collect_forest_stats,
    collect_tree_stats,
)
from repro.workloads import uniform_workload

from ..conftest import random_objects


class TestTreeStats:
    def test_counts_consistent(self):
        tree = TPRStarTree()
        objs = random_objects(1, 400)
        for obj in objs:
            tree.insert(obj, 0.0)
        stats = collect_tree_stats(tree, 0.0)
        assert stats.object_count == 400
        assert stats.height == tree.height
        assert stats.leaf_count <= stats.node_count
        # Every entry except the root's is counted once; leaves hold
        # exactly the objects.
        assert stats.entry_count >= 400
        assert stats.entry_count > stats.node_count  # fan-out above 1

    def test_fill_bounds(self):
        tree = TPRStarTree()
        for obj in random_objects(2, 300):
            tree.insert(obj, 0.0)
        stats = collect_tree_stats(tree, 0.0)
        assert 0.0 < stats.avg_leaf_fill <= 1.0
        assert 0.0 <= stats.avg_internal_fill <= 1.0

    def test_single_leaf_tree(self):
        tree = TPRStarTree()
        for obj in random_objects(3, 5):
            tree.insert(obj, 0.0)
        stats = collect_tree_stats(tree, 0.0)
        assert stats.node_count == stats.leaf_count == 1
        assert stats.sibling_overlap_area == 0.0
        assert stats.avg_internal_fill == 0.0

    def test_area_by_level_keys(self):
        tree = TPRStarTree()
        for obj in random_objects(4, 200):
            tree.insert(obj, 0.0)
        stats = collect_tree_stats(tree, 0.0)
        assert set(stats.area_by_level) == set(range(tree.height))

    def test_forest_stats(self):
        forest = MTBTree(t_m=20.0)
        scenario = uniform_workload(100, seed=5, t_m=20.0)
        for obj in scenario.set_a[:50]:
            forest.insert(obj, 0.0)
        for obj in scenario.set_a[50:]:
            forest.insert(obj.updated(15.0), 15.0)
        per_bucket = collect_forest_stats(forest, 15.0)
        assert set(per_bucket) == {0, 1}
        assert sum(s.object_count for s in per_bucket.values()) == 100
