"""The MTB-tree: a forest of TPR*-trees over time buckets (paper §IV-C).

Theorem 2 says an updated object only needs joining until
``lut(otherset) + T_M``, where ``lut`` is the *latest update timestamp*
of the other set.  A single tree has one (large) ``lut``; splitting the
dataset by last-update time shrinks ``lut`` for most objects.  The
MTB-tree therefore divides the time axis into equi-length buckets
(length ``T_M / m``, with ``m = 2`` following the B^x-tree rationale)
and indexes the objects whose last update falls in bucket ``i`` in their
own TPR*-tree.  An object joining against the forest uses the horizon
``[t_c, bucket_end + T_M]`` per bucket tree — strictly tighter than the
single-tree bound for all but the current bucket.

At most ``m + 1`` buckets are ever populated: every object updates
within ``T_M``, so trees older than that drain and are dropped.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Tuple

from ..obs import tracker_span
from ..objects import MovingObject
from .object_table import ObjectTable
from .store import TreeStorage
from .tpr import DEFAULT_NODE_CAPACITY, TPRStarTree

__all__ = ["MTBTree", "DEFAULT_BUCKETS_PER_TM"]

DEFAULT_BUCKETS_PER_TM = 2


class MTBTree:
    """Multiple-time-bucket forest of TPR*-trees sharing one storage.

    Parameters
    ----------
    t_m:
        Maximum update interval ``T_M``.
    buckets_per_tm:
        ``m`` — how many buckets per ``T_M``; bucket length is ``T_M/m``.
    """

    def __init__(
        self,
        t_m: float = 60.0,
        storage: Optional[TreeStorage] = None,
        buckets_per_tm: int = DEFAULT_BUCKETS_PER_TM,
        node_capacity: int = DEFAULT_NODE_CAPACITY,
    ):
        if t_m <= 0:
            raise ValueError("t_m must be positive")
        if buckets_per_tm < 1:
            raise ValueError("buckets_per_tm must be >= 1")
        self.t_m = float(t_m)
        self.bucket_length = self.t_m / buckets_per_tm
        self.storage = storage if storage is not None else TreeStorage()
        self.node_capacity = node_capacity
        self._trees: Dict[int, TPRStarTree] = {}
        self.objects = ObjectTable()

    # ------------------------------------------------------------------
    # Bucket arithmetic
    # ------------------------------------------------------------------
    def bucket_key(self, t: float) -> int:
        """Index of the time bucket containing timestamp ``t``."""
        return int(t // self.bucket_length)

    def bucket_end(self, key: int) -> float:
        """End timestamp ``t_eb`` of bucket ``key``."""
        return (key + 1) * self.bucket_length

    # ------------------------------------------------------------------
    # Maintenance
    # ------------------------------------------------------------------
    def insert(self, obj: MovingObject, t_now: float) -> None:
        """Index a new object in the bucket of its update time."""
        if obj.oid in self.objects:
            raise ValueError(f"object {obj.oid} already present")
        with tracker_span(self.storage.tracker, "mtb.insert"):
            key = self.bucket_key(obj.t_ref)
            self._tree_for(key).insert(obj, t_now)
            self.objects.put(obj, key)

    def delete(self, oid: int, t_now: float) -> MovingObject:
        """Remove an object from whichever bucket tree holds it."""
        with tracker_span(self.storage.tracker, "mtb.delete"):
            obj, key = self.objects.pop(oid)
            assert key is not None
            tree = self._trees[key]
            tree.delete(oid, t_now)
            if not len(tree):
                self._drop_tree(key)
        return obj

    def update(self, obj: MovingObject, t_now: float) -> MovingObject:
        """Move an object from its old bucket to the current one."""
        with tracker_span(self.storage.tracker, "mtb.update"):
            old = self.delete(obj.oid, t_now)
            self.insert(obj, t_now)
        return old

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.objects)

    @property
    def num_buckets(self) -> int:
        """Number of currently populated bucket trees."""
        return len(self._trees)

    def trees(self) -> Iterator[Tuple[int, float, TPRStarTree]]:
        """``(bucket key, bucket end t_eb, tree)`` in bucket order."""
        for key in sorted(self._trees):
            yield key, self.bucket_end(key), self._trees[key]

    def all_objects(self) -> List[MovingObject]:
        return list(self.objects.objects())

    # ------------------------------------------------------------------
    def _tree_for(self, key: int) -> TPRStarTree:
        tree = self._trees.get(key)
        if tree is None:
            tree = TPRStarTree(
                storage=self.storage,
                node_capacity=self.node_capacity,
                horizon=self.t_m,
            )
            self._trees[key] = tree
        return tree

    def _drop_tree(self, key: int) -> None:
        tree = self._trees.pop(key)
        for node in list(tree.iter_nodes()):
            tree.storage.free_node(node)

    def __repr__(self) -> str:
        return (
            f"MTBTree(n={len(self)}, buckets={sorted(self._trees)}, "
            f"bucket_length={self.bucket_length:g}, t_m={self.t_m:g})"
        )
