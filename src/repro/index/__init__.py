"""Moving-object indexes: the TPR*-tree and the MTB-tree forest."""

from .bulk import bulk_load
from .codec import ENTRY_BYTES, HEADER_BYTES, NodeCodec, max_entries_for_page
from .entry import Entry
from .mtb import DEFAULT_BUCKETS_PER_TM, MTBTree
from .node import Node
from .object_table import ObjectTable
from .stats import TreeStats, collect_forest_stats, collect_tree_stats
from .store import TreeStorage
from .tpr import DEFAULT_HORIZON, DEFAULT_NODE_CAPACITY, TPRStarTree

__all__ = [
    "Entry",
    "Node",
    "NodeCodec",
    "ENTRY_BYTES",
    "HEADER_BYTES",
    "max_entries_for_page",
    "ObjectTable",
    "TreeStorage",
    "TPRStarTree",
    "MTBTree",
    "bulk_load",
    "TreeStats",
    "collect_tree_stats",
    "collect_forest_stats",
    "DEFAULT_NODE_CAPACITY",
    "DEFAULT_HORIZON",
    "DEFAULT_BUCKETS_PER_TM",
]
