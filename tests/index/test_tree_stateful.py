"""Stateful property test: the TPR*-tree against a dictionary model.

Hypothesis drives random interleavings of insert / update / delete /
advance-clock / search; after every step the tree must agree with a
plain dict of objects, and structural invariants must hold.
"""

import hypothesis.strategies as st
from hypothesis import settings
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.geometry import Box, KineticBox, intersection_interval
from repro.index import TPRStarTree
from repro.objects import MovingObject

from ..check.sanitize import check_tpr_tree, raise_on_findings

coords = st.floats(min_value=0.0, max_value=500.0, allow_nan=False)
sides = st.floats(min_value=0.5, max_value=20.0, allow_nan=False)
speeds = st.floats(min_value=-4.0, max_value=4.0, allow_nan=False)


class TPRTreeMachine(RuleBasedStateMachine):
    @initialize()
    def setup(self):
        self.tree = TPRStarTree(node_capacity=8, horizon=20.0)
        self.model = {}
        self.clock = 0.0
        self.next_oid = 0

    # ------------------------------------------------------------------
    @rule(x=coords, y=coords, side=sides, vx=speeds, vy=speeds)
    def insert(self, x, y, side, vx, vy):
        obj = MovingObject(
            self.next_oid, Box(x, x + side, y, y + side), vx, vy, self.clock
        )
        self.next_oid += 1
        self.tree.insert(obj, self.clock)
        self.model[obj.oid] = obj

    @precondition(lambda self: self.model)
    @rule(pick=st.integers(min_value=0), x=coords, y=coords, vx=speeds, vy=speeds)
    def update(self, pick, x, y, vx, vy):
        oid = sorted(self.model)[pick % len(self.model)]
        side = self.model[oid].kbox.mbr.side(0)
        obj = MovingObject(oid, Box(x, x + side, y, y + side), vx, vy, self.clock)
        self.tree.update(obj, self.clock)
        self.model[oid] = obj

    @precondition(lambda self: self.model)
    @rule(pick=st.integers(min_value=0))
    def delete(self, pick):
        oid = sorted(self.model)[pick % len(self.model)]
        stored = self.tree.delete(oid, self.clock)
        assert stored == self.model.pop(oid)

    @rule(dt=st.floats(min_value=0.1, max_value=5.0, allow_nan=False))
    def advance_clock(self, dt):
        self.clock += dt

    @rule(qx=coords, qy=coords, length=st.floats(min_value=0, max_value=30,
                                                 allow_nan=False))
    def search_matches_model(self, qx, qy, length):
        region = KineticBox.rigid(Box(qx, qx + 60, qy, qy + 60), 0.5, -0.5,
                                  self.clock)
        t1 = self.clock + length
        got = {oid for oid, _ in self.tree.search(region, self.clock, t1)}
        want = {
            oid
            for oid, obj in self.model.items()
            if intersection_interval(obj.kbox, region, self.clock, t1) is not None
        }
        assert got == want

    # ------------------------------------------------------------------
    @invariant()
    def sizes_agree(self):
        if hasattr(self, "tree"):
            assert len(self.tree) == len(self.model)

    @invariant()
    def structure_valid(self):
        if hasattr(self, "tree") and len(self.model) > 0:
            raise_on_findings(check_tpr_tree(self.tree, self.clock))

    @invariant()
    def guided_deletes_never_miss(self):
        if hasattr(self, "tree"):
            assert self.tree.guided_delete_misses == 0


TPRTreeMachine.TestCase.settings = settings(
    max_examples=25, stateful_step_count=40, deadline=None
)
TestTPRTreeStateful = TPRTreeMachine.TestCase
