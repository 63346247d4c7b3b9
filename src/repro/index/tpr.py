"""The TPR*-tree: the time-parameterized R-tree every join runs on.

Follows Šaltenis et al. (SIGMOD 2000): an R-tree whose node regions are
kinetic boxes (MBR + VBR at a reference time) that conservatively bound
their children at all times at or after the reference time.  Insertion
heuristics minimize *integrated* metrics over a horizon ``H`` — the area
the bound sweeps between now and ``now + H`` — instead of instantaneous
area.  Bounds are tightened to the current timestamp whenever a path is
written.

On top of that it applies the two TPR*-tree improvements of Tao,
Papadias & Sun (VLDB 2003) with the largest measured effect; the
paper's experiments use this tree as the access method (§VI-A):

* **forced reinsertion** — on the first overflow at a level, the 30% of
  entries that deviate most from the node are reinserted instead of an
  immediate split, giving entries a chance to migrate to better homes as
  the dataset's motion evolves;
* **sweep-aware split** — the split cost adds the integrated *overlap*
  of the two groups to their integrated areas, penalizing splits whose
  halves will sweep across each other during the horizon (the dominant
  cause of dead traversal in moving-object trees).
"""

from __future__ import annotations

from typing import Iterator, List, Optional, Sequence, Set, Tuple

from ..geometry import INF, KineticBox, TimeInterval, intersection_interval
from ..geometry.constants import CONTAIN_EPS as _CONTAIN_EPS
from ..obs import tracker_span
from ..objects import MovingObject
from .entry import Entry
from .node import Node
from .object_table import ObjectTable
from .store import TreeStorage

__all__ = ["TPRStarTree", "DEFAULT_NODE_CAPACITY", "DEFAULT_HORIZON"]

DEFAULT_NODE_CAPACITY = 30
DEFAULT_HORIZON = 60.0

# Underflow threshold as a fraction of the node capacity.
_MIN_FILL_RATIO = 0.4
# Share of an overflowing node's entries that forced reinsertion moves.
_REINSERT_FRACTION = 0.3
# Number of sample points used to approximate the integrated overlap of
# two candidate split groups.  The overlap of two kinetic boxes is a
# piecewise-quadratic function of time; a short Simpson-style sample is
# plenty for a split heuristic.
_OVERLAP_SAMPLES = 3


class TPRStarTree:
    """A disk-resident TPR*-tree over :class:`~repro.objects.MovingObject`.

    Parameters
    ----------
    storage:
        Shared disk/buffer/tracker binding; a private one is created when
        omitted.
    node_capacity:
        Maximum entries per node (page capacity permitting).
    horizon:
        Lookahead ``H`` for integrated-cost insertion heuristics.  The
        natural choice is the maximum update interval ``T_M``.
    """

    def __init__(
        self,
        storage: Optional[TreeStorage] = None,
        node_capacity: int = DEFAULT_NODE_CAPACITY,
        horizon: float = DEFAULT_HORIZON,
    ):
        self.storage = storage if storage is not None else TreeStorage()
        max_cap = self.storage.max_node_capacity()
        if node_capacity > max_cap:
            raise ValueError(
                f"node_capacity {node_capacity} exceeds page capacity {max_cap}"
            )
        if node_capacity < 4:
            raise ValueError("node_capacity must be at least 4")
        if horizon <= 0:
            raise ValueError("horizon must be positive")
        self.node_capacity = node_capacity
        self.horizon = float(horizon)
        self.min_fill = max(1, int(node_capacity * _MIN_FILL_RATIO))
        self.objects = ObjectTable()
        root = self.storage.new_node(level=0)
        self.root_id = root.page_id
        self.height = 1
        # Diagnostics: number of deletions where the guided search failed
        # and the exhaustive fallback ran (should stay 0).
        self.guided_delete_misses = 0

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.objects)

    def insert(self, obj: MovingObject, t_now: float) -> None:
        """Insert a new object as of timestamp ``t_now``."""
        if obj.oid in self.objects:
            raise ValueError(f"object {obj.oid} already present")
        with tracker_span(self.storage.tracker, "tpr.insert"):
            self.objects.put(obj)
            self._insert_entry(Entry(obj.kbox, obj.oid), 0, t_now, set())

    def delete(self, oid: int, t_now: float) -> MovingObject:
        """Remove an object; returns the stored version."""
        with tracker_span(self.storage.tracker, "tpr.delete"):
            obj, _tag = self.objects.pop(oid)
            self._delete_entry(obj, t_now)
        return obj

    def update(self, obj: MovingObject, t_now: float) -> MovingObject:
        """Replace an object's motion parameters (delete + insert)."""
        with tracker_span(self.storage.tracker, "tpr.update"):
            old = self.delete(obj.oid, t_now)
            self.objects.put(obj)
            self._insert_entry(Entry(obj.kbox, obj.oid), 0, t_now, set())
        return old

    def search(
        self, region: KineticBox, t0: float, t1: float = INF
    ) -> List[Tuple[int, TimeInterval]]:
        """Objects whose MBR intersects a (moving) region during ``[t0, t1]``.

        Returns ``(oid, interval)`` pairs with the exact overlap interval
        clipped to the window.
        """
        results: List[Tuple[int, TimeInterval]] = []
        stack = [self.root_id]
        tracker = self.storage.tracker
        with tracker_span(tracker, "tpr.search"):
            while stack:
                node = self.read_node(stack.pop())
                for entry in node.entries:
                    tracker.count_pair_tests()
                    interval = intersection_interval(entry.kbox, region, t0, t1)
                    if interval is None:
                        continue
                    if node.is_leaf:
                        results.append((entry.ref, interval))
                    else:
                        stack.append(entry.ref)
        return results

    def all_objects(self) -> List[MovingObject]:
        """Stored versions of every object (table order)."""
        return list(self.objects.objects())

    def root_node(self) -> Node:
        return self.read_node(self.root_id)

    def read_node(self, page_id: int) -> Node:
        """Read a node through the buffer (counts a node visit)."""
        return self.storage.read_node(page_id)

    def iter_nodes(self) -> Iterator[Node]:
        """Depth-first iteration over all nodes (diagnostics/tests)."""
        stack = [self.root_id]
        while stack:
            node = self.read_node(stack.pop())
            yield node
            if not node.is_leaf:
                stack.extend(entry.ref for entry in node.entries)

    # ------------------------------------------------------------------
    # Insertion
    # ------------------------------------------------------------------
    def _insert_entry(
        self,
        entry: Entry,
        target_level: int,
        t_now: float,
        reinserted_levels: Set[int],
    ) -> None:
        """Insert ``entry`` at ``target_level``, splitting/reinserting as
        needed.  ``reinserted_levels`` tracks the R* once-per-level rule
        within one logical insertion."""
        path: List[Tuple[Node, int]] = []
        node = self.read_node(self.root_id)
        while node.level > target_level:
            idx = self._choose_child(node, entry.kbox, t_now)
            path.append((node, idx))
            node = self.read_node(node.entries[idx].ref)
        node.entries.append(entry)
        self.storage.write_node(node)
        self._propagate_up(path, node, t_now, reinserted_levels)

    def _propagate_up(
        self,
        path: List[Tuple[Node, int]],
        node: Node,
        t_now: float,
        reinserted_levels: Set[int],
    ) -> None:
        """Handle overflow of ``node`` and tighten bounds along ``path``."""
        overflow_entry: Optional[Entry] = None
        pending_reinserts: List[Tuple[Entry, int]] = []
        if len(node.entries) > self.node_capacity:
            if node.level not in reinserted_levels and node.page_id != self.root_id:
                reinserted_levels.add(node.level)
                for evicted in self._pick_reinsert_victims(node, t_now):
                    pending_reinserts.append((evicted, node.level))
                self.storage.write_node(node)
            else:
                overflow_entry = self._split(node, t_now)

        # Tighten ancestor bounds bottom-up, inserting any split entry.
        child = node
        for parent, idx in reversed(path):
            parent.entries[idx].kbox = child.bound_at(t_now)
            if overflow_entry is not None:
                parent.entries.append(overflow_entry)
                overflow_entry = None
                if len(parent.entries) > self.node_capacity:
                    overflow_entry = self._split(parent, t_now)
            self.storage.write_node(parent)
            child = parent

        if overflow_entry is not None:
            self._grow_root(child, overflow_entry, t_now)

        for evicted, level in pending_reinserts:
            self._insert_entry(evicted, level, t_now, reinserted_levels)

    def _grow_root(self, old_root: Node, sibling_entry: Entry, t_now: float) -> None:
        """The root split: create a new root one level up."""
        new_root = self.storage.new_node(old_root.level + 1)
        new_root.entries.append(Entry(old_root.bound_at(t_now), old_root.page_id))
        new_root.entries.append(sibling_entry)
        self.storage.write_node(new_root)
        self.root_id = new_root.page_id
        self.height += 1

    def _choose_child(self, node: Node, kbox: KineticBox, t_now: float) -> int:
        """Child minimizing integrated enlargement over ``[t_now, t_now+H]``,
        ties broken by smaller integrated area."""
        t_end = t_now + self.horizon
        best_idx = 0
        best_cost: Tuple[float, float] = (float("inf"), float("inf"))
        for idx, entry in enumerate(node.entries):
            enlargement = entry.kbox.integrated_union_enlargement(kbox, t_now, t_end)
            area = entry.kbox.integrated_area(t_now, t_end)
            cost = (enlargement, area)
            if cost < best_cost:
                best_cost = cost
                best_idx = idx
        return best_idx

    def _pick_reinsert_victims(self, node: Node, t_now: float) -> List[Entry]:
        """Remove and return the R* reinsertion set: the fraction of
        entries whose centers (at mid-horizon) are farthest from the node
        center."""
        t_mid = t_now + self.horizon / 2
        center = node.bound_at(t_now).at(t_mid).center

        def distance(entry: Entry) -> float:
            cx, cy = entry.kbox.at(t_mid).center
            return (cx - center[0]) ** 2 + (cy - center[1]) ** 2

        count = max(1, int(len(node.entries) * _REINSERT_FRACTION))
        ranked = sorted(node.entries, key=distance, reverse=True)
        victims = ranked[:count]
        node.entries = ranked[count:]
        return victims

    # ------------------------------------------------------------------
    # Splitting
    # ------------------------------------------------------------------
    def _split(self, node: Node, t_now: float) -> Entry:
        """Split an overflowing node in place; returns the entry for the
        new sibling (not yet installed in the parent)."""
        group1, group2 = self._choose_split(node.entries, t_now)
        node.entries = group1
        self.storage.write_node(node)
        sibling = self.storage.new_node(node.level)
        sibling.entries = group2
        self.storage.write_node(sibling)
        return Entry(sibling.bound_at(t_now), sibling.page_id)

    def _choose_split(
        self, entries: Sequence[Entry], t_now: float
    ) -> Tuple[List[Entry], List[Entry]]:
        """Pick the split axis and index minimizing the summed integrated
        area *plus* sampled integrated overlap of the two groups (cf.
        TPR*'s sweeping-region cost), evaluated via prefix/suffix unions
        in O(n) per axis."""
        t_end = t_now + self.horizon
        n = len(entries)
        lo_fill = self.min_fill
        hi_fill = n - self.min_fill
        best_cost = float("inf")
        best: Tuple[List[Entry], List[Entry]] = ([], [])
        for dim in (0, 1):
            order = sorted(
                entries,
                key=lambda e: (e.kbox.lo(dim, t_now), e.kbox.hi(dim, t_now)),
            )
            prefix = self._running_unions(order, t_now)
            suffix = self._running_unions(list(reversed(order)), t_now)
            for k in range(lo_fill, hi_fill + 1):
                g1 = prefix[k - 1]
                g2 = suffix[n - k - 1]
                cost = g1.integrated_area(t_now, t_end)
                cost += g2.integrated_area(t_now, t_end)
                cost += _sampled_overlap(g1, g2, t_now, t_end)
                if cost < best_cost:
                    best_cost = cost
                    best = (list(order[:k]), list(order[k:]))
        assert best[0], "split produced an empty group"
        return best

    @staticmethod
    def _running_unions(order: Sequence[Entry], t_ref: float) -> List[KineticBox]:
        """``result[i]`` bounds ``order[:i+1]``, all referenced at ``t_ref``."""
        unions: List[KineticBox] = []
        current: Optional[KineticBox] = None
        for entry in order:
            if current is None:
                current = entry.kbox.with_reference(t_ref)
            else:
                current = KineticBox.union_at(t_ref, (current, entry.kbox))
            unions.append(current)
        return unions

    # ------------------------------------------------------------------
    # Deletion
    # ------------------------------------------------------------------
    def _delete_entry(self, obj: MovingObject, t_now: float) -> None:
        path = self._find_leaf_path(obj, t_now)
        if path is None:
            # Guided search lost the trail (should not happen; kept as a
            # correctness backstop against floating-point corner cases).
            self.guided_delete_misses += 1
            path = self._find_leaf_path_exhaustive(obj.oid)
            if path is None:
                raise KeyError(f"object {obj.oid} not found in tree")
        leaf = path[-1][0]
        idx = leaf.find_ref(obj.oid)
        assert idx is not None
        del leaf.entries[idx]
        self.storage.write_node(leaf)
        self._condense(path, t_now)

    def _find_leaf_path(
        self, obj: MovingObject, t_now: float
    ) -> Optional[List[Tuple[Node, Optional[int]]]]:
        """DFS guided by kinetic containment; returns the node path as
        ``(node, child_idx)`` frames ending with ``(leaf, None)``."""
        target = obj.kbox

        def descend(page_id: int) -> Optional[List[Tuple[Node, Optional[int]]]]:
            node = self.read_node(page_id)
            if node.is_leaf:
                if node.find_ref(obj.oid) is not None:
                    return [(node, None)]
                return None
            for idx, entry in enumerate(node.entries):
                if self._could_contain(entry.kbox, target, t_now):
                    sub = descend(entry.ref)
                    if sub is not None:
                        return [(node, idx)] + sub
            return None

        return descend(self.root_id)

    def _find_leaf_path_exhaustive(
        self, oid: int
    ) -> Optional[List[Tuple[Node, Optional[int]]]]:
        def descend(page_id: int) -> Optional[List[Tuple[Node, Optional[int]]]]:
            node = self.read_node(page_id)
            if node.is_leaf:
                if node.find_ref(oid) is not None:
                    return [(node, None)]
                return None
            for idx, entry in enumerate(node.entries):
                sub = descend(entry.ref)
                if sub is not None:
                    return [(node, idx)] + sub
            return None

        return descend(self.root_id)

    @staticmethod
    def _could_contain(bound: KineticBox, target: KineticBox, t_now: float) -> bool:
        """Conservative test that ``bound`` may contain ``target`` from
        ``t_now`` on: positional containment at ``t_now`` plus velocity
        containment, each with a small tolerance."""
        b = bound.at(t_now)
        o = target.at(t_now)
        eps = _CONTAIN_EPS
        if not (
            b.x_lo <= o.x_lo + eps
            and o.x_hi <= b.x_hi + eps
            and b.y_lo <= o.y_lo + eps
            and o.y_hi <= b.y_hi + eps
        ):
            return False
        bv, ov = bound.vbr, target.vbr
        return (
            bv.x_lo <= ov.x_lo + eps
            and ov.x_hi <= bv.x_hi + eps
            and bv.y_lo <= ov.y_lo + eps
            and ov.y_hi <= bv.y_hi + eps
        )

    def _condense(
        self, path: List[Tuple[Node, Optional[int]]], t_now: float
    ) -> None:
        """R-tree CondenseTree: dissolve underfull nodes bottom-up,
        reinsert orphaned entries, shrink the root."""
        orphans: List[Tuple[Entry, int]] = []
        # path[i] = (node, idx of child followed); leaf frame has idx None.
        for depth in range(len(path) - 1, 0, -1):
            node, _ = path[depth]
            parent, parent_idx = path[depth - 1]
            assert parent_idx is not None
            if len(node.entries) < self.min_fill:
                del parent.entries[parent_idx]
                orphans.extend((entry, node.level) for entry in node.entries)
                self.storage.free_node(node)
            else:
                parent.entries[parent_idx].kbox = node.bound_at(t_now)
                self.storage.write_node(node)
            self.storage.write_node(parent)
        self._shrink_root()
        for entry, level in orphans:
            self._insert_entry(entry, level, t_now, set())

    def _shrink_root(self) -> None:
        root = self.read_node(self.root_id)
        while not root.is_leaf and len(root.entries) == 1:
            child_id = root.entries[0].ref
            self.storage.free_node(root)
            self.root_id = child_id
            self.height -= 1
            root = self.read_node(self.root_id)
        if not root.is_leaf and not root.entries:
            raise AssertionError("internal root lost all entries")

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(n={len(self)}, height={self.height}, "
            f"capacity={self.node_capacity}, horizon={self.horizon:g})"
        )


def _sampled_overlap(
    g1: KineticBox, g2: KineticBox, t0: float, t1: float
) -> float:
    """Approximate ``∫ overlap_area(g1(t), g2(t)) dt`` over ``[t0, t1]``.

    Returns 0 quickly when the groups never meet during the window.
    """
    if intersection_interval(g1, g2, t0, t1) is None:
        return 0.0
    step = (t1 - t0) / (_OVERLAP_SAMPLES - 1)
    total = 0.0
    for i in range(_OVERLAP_SAMPLES):
        t = t0 + i * step
        weight = 0.5 if i in (0, _OVERLAP_SAMPLES - 1) else 1.0
        total += weight * g1.at(t).overlap_area(g2.at(t))
    return total * step
