"""The answer at the clock, kept between reads.

:meth:`ColumnResultStore.pairs_at` keeps the answer at its engine's
clock as sorted pair keys plus the set of tuples built from them, and a
read at the clock creates or discards tuples only for the pairs that
entered or left.  Every read still masks the planes, so the kept set is
only the base of a diff: these tests drive random op sequences through
the columnar and the tree engine and hold each clock read to the plane
read, to set ownership, and to the entered/left counters.
"""

from __future__ import annotations

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from repro.core import ColumnarJoinEngine, ContinuousJoinEngine, JoinConfig
from repro.core.result import ColumnResultStore
from repro.geometry import Box
from repro.objects import MovingObject

T_M = 4.0
SPACE = 60.0
#: Past the packed key's 31 bits: these oids take the structured key.
WIDE = 2**31


def mover(oid, x, y, side, vx, vy, t):
    return MovingObject(oid, Box(x, x + side, y, y + side), vx, vy, t)


coords = st.floats(min_value=0.0, max_value=SPACE, allow_nan=False)
sides = st.floats(min_value=2.0, max_value=14.0, allow_nan=False)
speeds = st.floats(min_value=-3.0, max_value=3.0, allow_nan=False)
motions = st.tuples(coords, coords, sides, speeds, speeds)

ops = st.one_of(
    st.tuples(st.just("tick"), st.sampled_from([0.0, 0.25, 1.0, 3.0])),
    st.tuples(st.just("update"), st.lists(st.tuples(st.integers(0), motions), max_size=4)),
    st.tuples(st.just("admit"), st.sampled_from("ab"), st.booleans(), motions),
    st.tuples(st.just("evict"), st.integers(0)),
    st.tuples(st.just("prune")),
    st.tuples(st.just("clear")),
    st.tuples(st.just("read"), st.sampled_from([0.0, 0.5, 2.0])),
)


def build(kind, objects_a, objects_b):
    config = JoinConfig(t_m=T_M)
    if kind == "columnar":
        engine = ColumnarJoinEngine(objects_a, objects_b, "mtb", config)
        store = engine.store
    else:
        engine = ContinuousJoinEngine.create(objects_a, objects_b, algorithm="tc", config=config)
        store = engine._strategy.store
    engine.run_initial_join()
    return engine, store


class EngineRun:
    """One engine under a random op sequence, checked at every read."""

    def __init__(self, kind, initial, wide_b):
        objects_a = [mover(k, *m, 0.0) for k, m in enumerate(initial[0])]
        objects_b = [
            mover((WIDE if wide_b and k == 0 else 1_000) + k, *m, 0.0)
            for k, m in enumerate(initial[1])
        ]
        self.engine, self.store = build(kind, objects_a, objects_b)
        self.next_oid = {"a": 100, "b": 2_000}
        #: the previous clock answer; the store's kept set starts empty.
        self.previous = set()
        self.counts = (0, 0)

    def oids(self):
        return sorted(self.engine.objects_a) + sorted(self.engine.objects_b)

    def planes_at(self, t):
        return set(zip(*(plane.tolist() for plane in self.store.pairs_at_planes(t))))

    def counters(self):
        return self.store.pairs_entered, self.store.pairs_left

    def run(self, op):
        engine, now = self.engine, self.engine.now
        name = op[0]
        if name == "tick":
            engine.tick(now + op[1])
        elif name == "update":
            oids = self.oids()
            batch = {oids[pick % len(oids)]: motion for pick, motion in op[1]}
            engine.apply_updates([mover(oid, *m, now) for oid, m in batch.items()])
        elif name == "admit":
            _, side, wide, motion = op
            oid = self.next_oid[side] + (WIDE if wide and side == "b" else 0)
            self.next_oid[side] += 1
            engine.apply_updates([], admit=[(mover(oid, *motion, now), side)])
        elif name == "evict":
            registry = engine.objects_a if op[1] % 2 else engine.objects_b
            if len(registry) > 1:
                oids = sorted(registry)
                engine.apply_updates([], evict=[oids[op[1] % len(oids)]])
        elif name == "prune":
            engine.prune_expired()
        elif name == "clear":
            self.store.clear()
        elif op[1] == 0.0:
            self.read_at_clock()
        else:
            self.read_later(now + op[1])

    def read_at_clock(self):
        engine = self.engine
        first = engine.result_at()
        assert first == self.planes_at(engine.now)
        entered, left = self.counters()
        assert entered - self.counts[0] == len(first - self.previous)
        assert left - self.counts[1] == len(self.previous - first)
        # A second read is equal, another set, and changes nothing.
        second = engine.result_at(engine.now)
        assert second == first and second is not first
        assert self.counters() == (entered, left)
        # The caller owns what it got: mutating it reaches no later read.
        second.add((-1, -1))
        second.discard(next(iter(first), None))
        assert engine.result_at() == first
        self.previous, self.counts = first, self.counters()

    def read_later(self, t):
        kept = self.counters(), self.store.answer_rebuilds
        assert self.engine.result_at(t) == self.planes_at(t)
        assert (self.counters(), self.store.answer_rebuilds) == kept  # off the clock


@pytest.mark.parametrize("kind", ["columnar", "tree"])
@given(
    initial=st.tuples(
        st.lists(motions, min_size=2, max_size=8), st.lists(motions, min_size=2, max_size=8)
    ),
    wide_b=st.booleans(),
    script=st.lists(ops, min_size=1, max_size=30),
)
@settings(max_examples=40, deadline=None)
def test_clock_reads_under_random_ops(kind, initial, wide_b, script):
    engine_run = EngineRun(kind, initial, wide_b)
    for op in script:
        engine_run.run(op)
    engine_run.read_at_clock()


class TestKeptAnswer:
    """The store's side of the contract, on hand-made rows."""

    def store(self, rows, clock):
        store = ColumnResultStore()
        store.add_batch(*(np.array(col) for col in zip(*rows)))
        store.clock = clock
        return store

    def test_quiet_tick_counts_nothing(self):
        store = self.store([(1, 2, 0.0, 10.0), (1, 3, 0.0, 5.0), (4, 2, 2.0, 9.0)], 3.0)
        assert store.pairs_at(3.0) == {(1, 2), (1, 3), (4, 2)}
        assert (store.pairs_entered, store.pairs_left, store.answer_rebuilds) == (3, 0, 1)
        store.clock = 4.0  # no interval starts or ends in (3, 4]
        assert store.pairs_at(4.0) == {(1, 2), (1, 3), (4, 2)}
        assert (store.pairs_entered, store.pairs_left, store.answer_rebuilds) == (3, 0, 1)

    def test_boundaries_count_what_crossed(self):
        store = self.store([(1, 2, 0.0, 10.0), (1, 3, 0.0, 5.0), (4, 2, 6.0, 9.0)], 3.0)
        assert store.pairs_at(3.0) == {(1, 2), (1, 3)}
        store.clock = 7.0
        assert store.pairs_at(7.0) == {(1, 2), (4, 2)}
        # Two changes on an answer of two: the kept set is built anew.
        assert (store.pairs_entered, store.pairs_left, store.answer_rebuilds) == (3, 1, 2)
        store.clock = 12.0
        assert store.pairs_at(12.0) == set()
        assert (store.pairs_entered, store.pairs_left, store.answer_rebuilds) == (3, 3, 3)

    def test_reads_off_the_clock_leave_the_kept_answer(self):
        store = self.store([(1, 2, 0.0, 10.0), (1, 3, 0.0, 5.0)], 1.0)
        store.pairs_at(1.0)
        assert store.pairs_at(6.0) == {(1, 2)}
        assert (store.pairs_entered, store.pairs_left) == (2, 0)
        assert store.pairs_at(1.0) == {(1, 2), (1, 3)}
        assert (store.pairs_entered, store.pairs_left) == (2, 0)

    def test_mutations_between_reads_need_no_invalidation(self):
        store = self.store([(1, 2, 0.0, 10.0), (1, 3, 0.0, 5.0), (5, 6, 0.0, 8.0)], 1.0)
        store.pairs_at(1.0)
        store.remove_objects([3])
        store.add_batch([7, 8], [WIDE, 9], [0.5, 0.0], [4.0, 0.5])
        assert store.pairs_at(1.0) == {(1, 2), (5, 6), (7, WIDE)}
        assert (store.pairs_entered, store.pairs_left) == (4, 1)
        store.remove_objects([WIDE])  # back to packed keys
        assert store.pairs_at(1.0) == {(1, 2), (5, 6)}
        store.clear()
        assert store.pairs_at(1.0) == set()
        assert (store.pairs_entered, store.pairs_left) == (4, 4)
