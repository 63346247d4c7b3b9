"""TP-Join — the time-parameterized intersection join (Tao & Papadias,
SIGMOD 2002) — and the building blocks of its continuous extension
ETP-Join (paper §III).

A TP query answers a triple *(objects, expiry time, event)*: the current
join pairs, the timestamp at which that answer stops being valid, and
the pair(s) whose intersection status flips at that timestamp.  The
*influence time* of a pair is when it next changes the result:

* a currently intersecting pair influences the result when it separates
  (the end of its intersection interval, if finite);
* a currently disjoint pair influences the result when it first meets
  (the start of its future intersection interval, if any).

The synchronous traversal descends into a node pair iff (i) the node
bounds currently intersect — current results may be below — or (ii) the
node pair's earliest possible influence time does not exceed the best
(smallest) influence time found so far, which lower-bounds any event
beneath the pair.  The running minimum makes traversal order matter;
entry pairs are visited in ascending earliest-contact order to tighten
the bound early.

ETP-Join (the extension, driven by :class:`repro.core.engine.
ETPMaintenance`) re-runs this traversal at every result change and
consults :func:`influence_scan` on every object update — the costly
behaviour the paper's TC processing is designed to beat.
"""

from __future__ import annotations

from typing import List, NamedTuple, Optional, Set, Tuple

from ..geometry import INF, KineticBox, intersection_interval
from ..index import TPRTree
from ..index.node import Node
from ..metrics import CostTracker
from ..obs import tracker_span
from .types import JoinTriple

__all__ = ["TPAnswer", "tp_join", "influence_scan"]


class TPAnswer(NamedTuple):
    """The TP-join triple: current pairs, expiry, and the next events."""

    pairs: Set[Tuple[int, int]]
    expiry: float
    #: ``(a_oid, b_oid, starts)`` — pairs whose status flips at ``expiry``;
    #: ``starts`` is True when the pair begins intersecting.
    events: List[Tuple[int, int, bool]]


class _TPState:
    """Mutable traversal state: the best influence time and its events."""

    __slots__ = ("min_inf", "events")

    def __init__(self) -> None:
        self.min_inf = INF
        self.events: List[Tuple[int, int, bool]] = []

    def offer(self, time: float, event: Tuple[int, int, bool]) -> None:
        if time < self.min_inf:
            self.min_inf = time
            self.events = [event]
        # Exact tie: simultaneous events share one expiry; a tolerance
        # here would wrongly batch merely-close events together.
        elif time == self.min_inf and self.min_inf < INF:
            self.events.append(event)


def tp_join(
    tree_a: TPRTree,
    tree_b: TPRTree,
    t_now: float,
    tracker: Optional[CostTracker] = None,
) -> TPAnswer:
    """Run the TP intersection join at timestamp ``t_now``."""
    if tracker is None:
        tracker = tree_a.storage.tracker
    pairs: Set[Tuple[int, int]] = set()
    state = _TPState()
    with tracker_span(tracker, "join.tp"):
        root_a = tree_a.root_node()
        root_b = tree_b.root_node()
        if root_a.entries and root_b.entries:
            _tp_nodes(tree_a, tree_b, root_a, root_b, t_now, tracker, pairs, state)
    return TPAnswer(pairs, state.min_inf, state.events)


def _tp_nodes(
    tree_a: TPRTree,
    tree_b: TPRTree,
    node_a: Node,
    node_b: Node,
    t_now: float,
    tracker: CostTracker,
    pairs: Set[Tuple[int, int]],
    state: _TPState,
) -> None:
    if node_a.is_leaf and node_b.is_leaf:
        for ea in node_a.entries:
            for eb in node_b.entries:
                tracker.count_pair_tests()
                interval = intersection_interval(ea.kbox, eb.kbox, t_now, INF)
                if interval is None:
                    continue
                if interval.start <= t_now:
                    # The TP answer is valid *from t_now until the
                    # expiry*: a pair separating exactly at t_now is
                    # already gone for every later instant, so it is
                    # neither a current pair nor a future event.
                    if interval.end > t_now:
                        pairs.add((ea.ref, eb.ref))
                        if interval.end < INF:
                            state.offer(interval.end, (ea.ref, eb.ref, False))
                else:
                    state.offer(interval.start, (ea.ref, eb.ref, True))
        return

    if node_a.is_leaf != node_b.is_leaf:
        _tp_single_side(tree_a, tree_b, node_a, node_b, t_now, tracker, pairs, state)
        return

    candidates: List[Tuple[float, bool, int, int]] = []
    for ea_idx, ea in enumerate(node_a.entries):
        for eb_idx, eb in enumerate(node_b.entries):
            tracker.count_pair_tests()
            interval = intersection_interval(ea.kbox, eb.kbox, t_now, INF)
            if interval is None:
                continue
            intersecting_now = interval.start <= t_now
            candidates.append((interval.start, intersecting_now, ea_idx, eb_idx))
    # Ascending earliest-contact order: currently intersecting pairs
    # first, then by how soon the bounds can meet — tightens min_inf
    # before the doubtful pairs are (maybe) pruned.
    candidates.sort(key=lambda c: c[0])
    for start, intersecting_now, ea_idx, eb_idx in candidates:
        if not intersecting_now and start > state.min_inf:
            continue
        child_a = tree_a.read_node(node_a.entries[ea_idx].ref)
        child_b = tree_b.read_node(node_b.entries[eb_idx].ref)
        _tp_nodes(tree_a, tree_b, child_a, child_b, t_now, tracker, pairs, state)


def _tp_single_side(
    tree_a: TPRTree,
    tree_b: TPRTree,
    node_a: Node,
    node_b: Node,
    t_now: float,
    tracker: CostTracker,
    pairs: Set[Tuple[int, int]],
    state: _TPState,
) -> None:
    """Height-mismatch case: descend only the taller side."""
    if node_a.is_leaf:
        bound = node_a.bound_at(t_now)
        for eb in node_b.entries:
            tracker.count_pair_tests()
            interval = intersection_interval(bound, eb.kbox, t_now, INF)
            if interval is None:
                continue
            if interval.start <= t_now or interval.start <= state.min_inf:
                child_b = tree_b.read_node(eb.ref)
                _tp_nodes(
                    tree_a, tree_b, node_a, child_b, t_now, tracker, pairs, state
                )
        return
    bound = node_b.bound_at(t_now)
    for ea in node_a.entries:
        tracker.count_pair_tests()
        interval = intersection_interval(ea.kbox, bound, t_now, INF)
        if interval is None:
            continue
        if interval.start <= t_now or interval.start <= state.min_inf:
            child_a = tree_a.read_node(ea.ref)
            _tp_nodes(tree_a, tree_b, child_a, node_b, t_now, tracker, pairs, state)


def influence_scan(
    tree: TPRTree,
    kbox: KineticBox,
    t_now: float,
    tracker: Optional[CostTracker] = None,
) -> Tuple[List[JoinTriple], float]:
    """Scan one object against a tree: current partners + influence time.

    Used by ETP-Join when an object updates — the paper's "traversing
    the tree to find the object's influence time T_INF(O)".  Returns the
    object's intersection triples (as ``JoinTriple`` with the *other*
    object id in ``b_oid`` and a dummy ``-1`` in ``a_oid``) over
    ``[t_now, ∞)`` and the earliest strictly-future influence time among
    them.
    """
    if tracker is None:
        tracker = tree.storage.tracker
    triples: List[JoinTriple] = []
    min_inf = INF
    with tracker_span(tracker, "join.tp.influence"):
        stack = [tree.root_id]
        while stack:
            node = tree.read_node(stack.pop())
            for entry in node.entries:
                tracker.count_pair_tests()
                interval = intersection_interval(entry.kbox, kbox, t_now, INF)
                if interval is None:
                    continue
                if node.is_leaf:
                    triples.append(JoinTriple(-1, entry.ref, interval))
                    if interval.start > t_now:
                        min_inf = min(min_inf, interval.start)
                    elif t_now < interval.end < INF:
                        min_inf = min(min_inf, interval.end)
                else:
                    stack.append(entry.ref)
    return triples, min_inf
