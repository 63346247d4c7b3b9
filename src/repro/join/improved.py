"""ImprovedJoin: TC traversal with plane sweep, dimension selection and
intersection check (paper Figure 6).

The traversal is NaiveJoin's synchronous descent, upgraded with the
three techniques that *time-constrained processing enables* (§IV-D):

* **IC — intersection check.**  Only entries intersecting the (moving)
  overlap of the two node bounds can join.  Each node's entries are
  pre-filtered against the *other* node's bound, and — crucially — the
  window shrinks to the interval ``[t_s, t_e]`` during which the two
  node bounds actually intersect.  The constraint tightens level by
  level as the recursion descends.
* **DS — dimension selection.**  The sweep dimension is the one whose
  entries move slowest (smallest sum of absolute bound speeds), which
  minimizes sweep-range inflation and thus candidate pairs.
* **PS — plane sweep.**  Candidate pairs are enumerated in sweep order
  instead of all-pairs.

Each technique can be toggled independently — the Figure 8 ablation
runs None / IC / PS / DS+PS / IC+PS / ALL.

Every pair test is the paper's scalar primitive: the plane sweep is
:func:`~repro.geometry.plane_sweep.ps_intersection` (PSIntersection),
the "None" configuration's node-pair test
:func:`~repro.geometry.plane_sweep.all_pairs_intersection`, and the IC
filter and the single-side descent call
:func:`~repro.geometry.intersection.intersection_interval` per entry,
as NaiveJoin and the TPR*-tree search do.
"""

from __future__ import annotations

from typing import List, Optional

from ..geometry import (
    INF,
    KineticBox,
    all_pairs_intersection,
    intersection_interval,
    ps_intersection,
    select_sweep_dimension,
)
from ..geometry.interval import check_window
from ..index import TPRStarTree
from ..index.entry import Entry
from ..index.node import Node
from ..metrics import CostTracker
from ..obs import tracker_span
from .types import JoinTriple

__all__ = ["improved_join", "JoinTechniques"]


class JoinTechniques:
    """Which of the §IV-D techniques a run applies.

    >>> JoinTechniques.all()
    JoinTechniques(ps=True, ds=True, ic=True)
    >>> JoinTechniques.none()
    JoinTechniques(ps=False, ds=False, ic=False)
    """

    __slots__ = ("use_ps", "use_ds", "use_ic")

    def __init__(self, use_ps: bool = True, use_ds: bool = True, use_ic: bool = True):
        self.use_ps = use_ps
        self.use_ds = use_ds
        self.use_ic = use_ic

    @classmethod
    def all(cls) -> "JoinTechniques":
        return cls(True, True, True)

    @classmethod
    def none(cls) -> "JoinTechniques":
        return cls(False, False, False)

    def __repr__(self) -> str:
        return f"JoinTechniques(ps={self.use_ps}, ds={self.use_ds}, ic={self.use_ic})"


class _JoinContext:
    """Per-run cache shared across the recursion.

    A node joins against many partner nodes; its kinetic bound is
    computed once, keyed by (side, page id) — the two trees may live on
    separate storages whose page ids collide.  Bounds are referenced at
    the run's start time, which stays a valid (conservative) bound inside
    every descendant window, since windows only move forward in time.
    """

    __slots__ = ("t_run", "_bounds")

    def __init__(self, t_run: float):
        self.t_run = t_run
        self._bounds: dict = {}

    def bound(self, node: Node, side: str) -> KineticBox:
        key = (side, node.page_id)
        bound = self._bounds.get(key)
        if bound is None:
            bound = node.bound_at(self.t_run)
            self._bounds[key] = bound
        return bound


def improved_join(
    tree_a: TPRStarTree,
    tree_b: TPRStarTree,
    t_start: float,
    t_end: float,
    techniques: Optional[JoinTechniques] = None,
    tracker: Optional[CostTracker] = None,
) -> List[JoinTriple]:
    """All intersecting pairs during ``[t_start, t_end]`` (Figure 6).

    ``t_end`` must be finite: plane sweep and the tightening
    intersection check both *require* a constrained window — that is the
    paper's central point.  Use :func:`repro.join.naive.naive_join` for
    unconstrained runs.
    """
    check_window(t_start, t_end)
    if t_end == INF:
        raise ValueError(
            "improved_join requires a finite window; TC processing is what "
            "enables the improvement techniques"
        )
    if techniques is None:
        techniques = JoinTechniques.all()
    if tracker is None:
        tracker = tree_a.storage.tracker
    results: List[JoinTriple] = []
    with tracker_span(tracker, "join.improved"):
        root_a = tree_a.root_node()
        root_b = tree_b.root_node()
        if not root_a.entries or not root_b.entries:
            return results
        ctx = _JoinContext(t_start)
        _join_nodes(
            tree_a, tree_b, root_a, root_b, t_start, t_end,
            techniques, tracker, results, ctx,
        )
    return results


def _join_nodes(
    tree_a: TPRStarTree,
    tree_b: TPRStarTree,
    node_a: Node,
    node_b: Node,
    t0: float,
    t1: float,
    tech: JoinTechniques,
    tracker: CostTracker,
    out: List[JoinTriple],
    ctx: _JoinContext,
) -> None:
    entries_a = node_a.entries
    entries_b = node_b.entries
    if not entries_a or not entries_b:
        return

    if tech.use_ic:
        bound_a = ctx.bound(node_a, "a")
        bound_b = ctx.bound(node_b, "b")
        tracker.count_pair_tests()
        window = intersection_interval(bound_a, bound_b, t0, t1)
        if window is None:
            return
        t0, t1 = window.start, window.end
        entries_a = _filter_entries(entries_a, bound_b, t0, t1, tracker)
        if not entries_a:
            return
        entries_b = _filter_entries(entries_b, bound_a, t0, t1, tracker)
        if not entries_b:
            return

    # Height mismatch: single-side descent (window already tightened).
    if node_a.is_leaf != node_b.is_leaf:
        _descend_single_side(
            tree_a, tree_b, node_a, node_b, entries_a, entries_b,
            t0, t1, tech, tracker, out, ctx,
        )
        return

    boxes_a = [e.kbox for e in entries_a]
    boxes_b = [e.kbox for e in entries_b]
    counter = [0]
    if tech.use_ps:
        dim = select_sweep_dimension(boxes_a, boxes_b) if tech.use_ds else 0
        pairs = ps_intersection(boxes_a, boxes_b, t0, t1, dim=dim, counter=counter)
    else:
        pairs = all_pairs_intersection(boxes_a, boxes_b, t0, t1, counter=counter)
    tracker.count_pair_tests(counter[0])

    if node_a.is_leaf:
        for i, j, interval in pairs:
            out.append(JoinTriple(entries_a[i].ref, entries_b[j].ref, interval))
        return
    for i, j, interval in pairs:
        child_a = tree_a.read_node(entries_a[i].ref)
        child_b = tree_b.read_node(entries_b[j].ref)
        # The per-pair time tightening is part of the intersection-check
        # technique (§IV-D.3): "[t_s, t_e] here serves as [t, t'] to the
        # lower level".  Without IC the full window is passed down, which
        # keeps the "None"/PS-only ablation configurations faithful to
        # NaiveJoin's recursion.
        if tech.use_ic:
            child_t0, child_t1 = interval.start, interval.end
        else:
            child_t0, child_t1 = t0, t1
        _join_nodes(
            tree_a, tree_b, child_a, child_b,
            child_t0, child_t1, tech, tracker, out, ctx,
        )


def _filter_entries(
    entries: List[Entry],
    other_bound: KineticBox,
    t0: float,
    t1: float,
    tracker: CostTracker,
) -> List[Entry]:
    """IC entry filter: keep the entries touching the other node's bound."""
    tracker.count_pair_tests(len(entries))
    return [
        e for e in entries
        if intersection_interval(e.kbox, other_bound, t0, t1) is not None
    ]


def _descend_single_side(
    tree_a: TPRStarTree,
    tree_b: TPRStarTree,
    node_a: Node,
    node_b: Node,
    entries_a: List[Entry],
    entries_b: List[Entry],
    t0: float,
    t1: float,
    tech: JoinTechniques,
    tracker: CostTracker,
    out: List[JoinTriple],
    ctx: _JoinContext,
) -> None:
    if node_a.is_leaf:
        bound_a = ctx.bound(node_a, "a")
        for eb, window in _entry_windows(bound_a, entries_b, t0, t1, tracker):
            child_b = tree_b.read_node(eb.ref)
            _join_nodes(
                tree_a, tree_b, node_a, child_b,
                window.start, window.end, tech, tracker, out, ctx,
            )
        return
    bound_b = ctx.bound(node_b, "b")
    for ea, window in _entry_windows(bound_b, entries_a, t0, t1, tracker):
        child_a = tree_a.read_node(ea.ref)
        _join_nodes(
            tree_a, tree_b, child_a, node_b,
            window.start, window.end, tech, tracker, out, ctx,
        )


def _entry_windows(
    bound: KineticBox,
    entries: List[Entry],
    t0: float,
    t1: float,
    tracker: CostTracker,
):
    """``(entry, window)`` for entries intersecting a node bound."""
    tracker.count_pair_tests(len(entries))
    for entry in entries:
        window = intersection_interval(entry.kbox, bound, t0, t1)
        if window is not None:
            yield entry, window
