"""The serial engines against a brute-force model, under any order of updates.

Theorems 1-2: under the ``T_M`` contract, after any sequence of ticks,
update batches, admissions and evictions, the maintained answer equals
the join over the current motions, and every engine refuses a tick or a
report that would break the contract, changing nothing.  One hypothesis state machine
drives every serial engine that keeps a result store in lockstep, and
after every rule holds each to :func:`repro.join.brute_force_pairs_at`
over the model's objects, to the engines that must store the very same
rows, to its delta ledger and the watches on it, to the reference store
and to the sanitizer.

Coordinates, sides, speeds and tick lengths are multiples of 1/4 within
small bounds, so every position the oracle computes is exact and every
comparison is ``==``; float-adversarial inputs belong to the kernel
byte-parity suites.  ETP stays out: it keeps no store, has no
admit/evict, and counts a pair at ``t`` only if ``start <= t < end``
(``tests/core/test_cross_algorithm.py`` holds it to the oracle).

Run more examples with ``pytest tests/test_model.py
--hypothesis-profile=ci`` (the profile is registered in
``tests/conftest.py``).
"""

from __future__ import annotations

import hypothesis.strategies as st
from hypothesis import settings
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, rule

import pytest

from repro.core import ColumnarJoinEngine, ContinuousJoinEngine, JoinConfig, LateObjectError
from repro.deltas import DeltaLedger, DeltaView, fold_events
from repro.geometry import Box
from repro.join import brute_force_pairs_at
from repro.objects import MovingObject

from .check.sanitize import sanitize_engine
from .reference_store import Lockstep

T_M = 4.0
#: Re-reported positions wrap into ``[0, SPACE)``, keeping objects close.
SPACE = 24.0
#: Past the packed pair key's 31 bits: these oids force the wide key.
WIDE = 2**31

#: Engine name -> (class, algorithm).  ``tc-reversed`` is fed every
#: batch reversed: same-tick order independence, which the group commit
#: rests on.
ENGINES = {
    "naive": (ContinuousJoinEngine, "naive"),
    "tc": (ContinuousJoinEngine, "tc"),
    "tc-reversed": (ContinuousJoinEngine, "tc"),
    "mtb": (ContinuousJoinEngine, "mtb"),
    "columnar-tc": (ColumnarJoinEngine, "tc"),
    "columnar-mtb": (ColumnarJoinEngine, "mtb"),
}
#: Engines whose stores must hold bit-identical rows and netted events.
GROUPS = (("tc", "tc-reversed", "columnar-tc"), ("mtb", "columnar-mtb"), ("naive",))


def quarters(lo: float, hi: float):
    return st.integers(int(lo * 4), int(hi * 4)).map(lambda k: k / 4)


#: ``(x, y, width, height, vx, vy)`` at the reporting time.
motions = st.tuples(
    quarters(0, SPACE), quarters(0, SPACE), quarters(1, 6), quarters(1, 6),
    quarters(-2, 2), quarters(-2, 2),
)


def mover(oid, motion, t):
    x, y, w, h, vx, vy = motion
    return MovingObject(oid, Box(x, x + w, y, y + h), vx, vy, t)


def re_reported(obj, t):
    """``obj`` reporting again at ``t``: same size and velocity, its
    position snapped back onto the quarter grid inside the space."""
    box = obj.kbox.at(t)
    x, y = (round(v * 4) / 4 % SPACE for v in (box.x_lo, box.y_lo))
    vx, vy = obj.velocity
    return mover(obj.oid, (x, y, box.x_hi - box.x_lo, box.y_hi - box.y_lo, vx, vy), t)


def planes_set(planes):
    return set(zip(*(plane.tolist() for plane in planes)))


class JoinModel(RuleBasedStateMachine):
    """Every store-keeping serial engine against ``A x B`` by brute force."""

    @initialize(
        initial_a=st.lists(motions, min_size=1, max_size=6),
        initial_b=st.lists(motions, min_size=1, max_size=6),
    )
    def build(self, initial_a, initial_b):
        self.model = {
            "a": {k: mover(k, m, 0.0) for k, m in enumerate(initial_a)},
            "b": {1_000 + k: mover(1_000 + k, m, 0.0) for k, m in enumerate(initial_b)},
        }
        self.next_oid = {"a": 100, "b": 2_000}
        self.now = 0.0
        config = JoinConfig(t_m=T_M, deltas=True)
        self.engines, self.stores, self.locks = {}, {}, {}
        for name, (cls, algorithm) in ENGINES.items():
            engine = cls(
                list(self.model["a"].values()), list(self.model["b"].values()),
                algorithm, config,
            )
            if cls is ContinuousJoinEngine:
                lock = engine._strategy.store = Lockstep(engine._strategy.store)
                lock.ref.attach_ledger(DeltaLedger(0.0))
                self.locks[name] = lock
            engine.run_initial_join()
            self.engines[name] = engine
            self.stores[name] = engine.store if cls is ColumnarJoinEngine else lock
        #: per engine: the previous clock answer and the store's
        #: ``(pairs_entered, pairs_left)`` after it.
        self.previous = {name: (set(), (0, 0)) for name in ENGINES}
        #: look-ahead offsets read before and since the last clock move;
        #: the clock (offset 0) is read after every rule.
        self.read_before, self.read_since = set(), set()
        #: per engine: a whole-stream watch opened at build and polled
        #: after every rule, and the view its deliveries fold into; and
        #: one polled only by its own rule, which ticks fold behind.
        self.watches, self.lagging = (
            {name: (engine.watch(), DeltaView()) for name, engine in self.engines.items()}
            for _ in range(2)
        )

    # ------------------------------------------------------------------
    # Model helpers
    # ------------------------------------------------------------------
    def truth(self, t):
        return brute_force_pairs_at(self.model["a"].values(), self.model["b"].values(), t)

    def exact_until(self):
        """Every store covers the answer up to here (Theorems 1-2)."""
        objects = [*self.model["a"].values(), *self.model["b"].values()]
        return min(obj.t_ref for obj in objects) + T_M

    def oids(self):
        return sorted(self.model["a"]) + sorted(self.model["b"])

    def state(self, name):
        """What a refused update must leave alone in one engine."""
        engine, store = self.engines[name], self.stores[name]
        return (
            dict(engine.objects_a), dict(engine.objects_b), engine.update_count,
            store.interval_rows(), engine.ledger.ticks(), engine.deltas(),
        )

    def apply(self, updates, admit, evict):
        for name, engine in self.engines.items():
            if name == "tc-reversed":
                engine.apply_updates(updates[::-1], admit=admit[::-1], evict=evict[::-1])
            else:
                engine.apply_updates(updates, admit=admit, evict=evict)
        for oid in evict:
            side = "a" if oid in self.model["a"] else "b"
            del self.model[side][oid]
        for obj in updates:
            side = "a" if obj.oid in self.model["a"] else "b"
            self.model[side][obj.oid] = obj
        for obj, side in admit:
            self.model[side][obj.oid] = obj

    # ------------------------------------------------------------------
    # Rules
    # ------------------------------------------------------------------
    @rule(dt=st.sampled_from([0.0, 0.25, 1.0, 2.0]))
    def tick(self, dt):
        t = self.now + dt
        # The T_M contract: whoever would pass its deadline reports first.
        overdue = [
            re_reported(obj, self.now)
            for side in "ab"
            for obj in self.model[side].values()
            if obj.t_ref + T_M < t
        ]
        if overdue:
            self.apply(overdue, [], [])
        for name, engine in self.engines.items():
            engine.tick(t)
            if name in self.locks:
                self.locks[name].ref._ledger.advance(t)
        if t != self.now:
            self.read_before, self.read_since = self.read_since, set()
        self.now = t

    @rule(
        changes=st.lists(st.tuples(st.integers(0), motions), max_size=4),
        admissions=st.lists(st.tuples(st.sampled_from("ab"), st.booleans(), motions), max_size=3),
        evictions=st.lists(st.integers(0), max_size=2),
    )
    def update_batch(self, changes, admissions, evictions):
        oids = self.oids()
        updated = {oids[pick % len(oids)]: motion for pick, motion in changes}
        evict = []
        for pick in evictions:
            oid = oids[pick % len(oids)]
            side = "a" if oid in self.model["a"] else "b"
            left = len(self.model[side]) - sum(o in self.model[side] for o in evict)
            if oid not in updated and oid not in evict and left > 1:
                evict.append(oid)
        admit = []
        for side, wide, motion in admissions:
            oid = self.next_oid[side] + (WIDE if wide else 0)
            self.next_oid[side] += 1
            admit.append((mover(oid, motion, self.now), side))
        updates = [mover(oid, motion, self.now) for oid, motion in updated.items()]
        self.apply(updates, admit, evict)

    @rule(dt=st.sampled_from([0.25, 1.0]))
    def late(self, dt):
        """A tick past some object's deadline is refused whole."""
        objects = [*self.model["a"].values(), *self.model["b"].values()]
        t = self.exact_until() + dt
        want = tuple(sorted(obj.oid for obj in objects if obj.t_ref + T_M < t))
        for name, engine in self.engines.items():
            store = self.stores[name]
            kept = (store.interval_rows(), engine.ledger.ticks(), engine.deltas())
            with pytest.raises(LateObjectError) as refused:
                engine.tick(t)
            assert refused.value.oids == want, name
            assert engine.now == engine.ledger.now == store.clock == self.now, name
            assert (store.interval_rows(), engine.ledger.ticks(), engine.deltas()) == kept, name

    @rule(
        dt=st.sampled_from([0.25, 1.0, 2 * T_M]),
        pick=st.integers(0),
        admit=st.booleans(),
    )
    def future(self, dt, pick, admit):
        """A report from after the clock (an update or an admission)
        is refused whole: its deadline lies past every window."""
        oids = self.oids()
        oid = oids[pick % len(oids)]
        side = "a" if oid in self.model["a"] else "b"
        if admit:
            newcomer = mover(self.next_oid[side], (0, 0, 1, 1, 0, 0), self.now + dt)
            batch = dict(batch=[], admit=[(newcomer, side)])
        else:
            batch = dict(batch=[re_reported(self.model[side][oid], self.now + dt)])
        for name, engine in self.engines.items():
            kept = self.state(name)
            with pytest.raises(ValueError):
                engine.apply_updates(**batch)
            assert self.state(name) == kept, name

    @rule(h=st.sampled_from([0.25, 1.0, 2.5, 4.0, 6.0]))
    def read_ahead(self, h):
        t = self.now + h
        exact = t <= self.exact_until()
        for group in GROUPS:
            answers = []
            for name in group:
                store = self.stores[name]
                kept = (store.pairs_entered, store.pairs_left, store.answer_rebuilds)
                got = self.engines[name].result_at(t)
                want = planes_set(store.pairs_at_planes(t))
                assert got == want, (name, t)
                # Off the clock: the clock's counters do not move.
                assert (store.pairs_entered, store.pairs_left, store.answer_rebuilds) == kept
                # The caller owns the set: spoiling it spoils no kept answer.
                spoiled = set(got)
                got.add((-1, -1))
                got.discard(next(iter(want), None))
                assert self.engines[name].result_at(t) == want, (name, t)
                answers.append(spoiled)
            self.read_since.add(h)
            assert all(got == answers[0] for got in answers), (group, t)
            # NaiveJoin's windows are unbounded: exact at any horizon.
            if exact or group == ("naive",):
                assert answers[0] == self.truth(t), (group, t)

    @rule()
    def read_deltas(self):
        for group in GROUPS:
            streams = []
            for name in group:
                engine = self.engines[name]
                first = engine.deltas()
                assert engine.deltas(self.now) == first
                if name in self.locks:
                    assert first == self.locks[name].ref._ledger.events_at(self.now), name
                streams.append(first)
            assert all(stream == streams[0] for stream in streams), group

    @rule()
    def poll_lagging_watches(self):
        for watch, view in self.lagging.values():
            for event in watch.poll():
                view.apply(event)

    @rule(bad=st.sampled_from(["nan", "inf", "-inf", "backwards"]))
    def refused_tick(self, bad):
        t = self.now - 0.25 if bad == "backwards" else float(bad)
        for name, engine in self.engines.items():
            with pytest.raises(ValueError, match="backwards"):
                engine.tick(t)
            assert engine.now == self.now and engine.ledger.now == self.now, name
            assert self.stores[name].clock == self.now, name

    # ------------------------------------------------------------------
    # Invariants
    # ------------------------------------------------------------------
    @invariant()
    def answers_equal_the_oracle(self):
        want = self.truth(self.now)
        for name, engine in self.engines.items():
            store = self.stores[name]
            first = engine.result_at()
            assert first == want, (name, self.now, first ^ want)
            assert planes_set(store.pairs_at_planes(self.now)) == want, name
            assert store.count_at(self.now) == len(want), name
            if name.startswith("columnar"):
                assert planes_set(engine.result_planes_at()) == want, name
                assert engine.count_at() == len(want), name
            # The clock-answer contract: entered/left count the change
            # since the last clock read; a second read is an equal set
            # the caller owns.
            previous, (entered, left) = self.previous[name]
            counts = (store.pairs_entered, store.pairs_left)
            assert counts == (entered + len(first - previous), left + len(previous - first))
            second = engine.result_at(self.now)
            assert second == first and second is not first
            second.add((-1, -1))
            second.discard(next(iter(first), None))
            assert engine.result_at() == first
            assert (store.pairs_entered, store.pairs_left) == counts
            self.previous[name] = (first, counts)

    @invariant()
    def kept_answers_are_the_offsets_read(self):
        """A clock move drops every kept answer not read since the
        previous move; the window ends MTB keeps are the columns' own."""
        # Offset 0: ``answers_equal_the_oracle`` (invariants run by name)
        # has read the clock after every rule.
        want = {0.0} | self.read_before | self.read_since
        for name, engine in self.engines.items():
            assert set(self.stores[name]._answers) == want, name
            if name == "columnar-mtb":
                length = engine.config.bucket_length
                for cols in (engine.columns_a, engine.columns_b):
                    fresh = (cols.bucket_keys(length) + 1) * length + T_M
                    assert engine._window_ends(cols).tobytes() == fresh.tobytes(), name

    @invariant()
    def stores_agree(self):
        oids = self.oids()
        for lock in self.locks.values():
            lock.agree(self.now, oids)
        for group in GROUPS:
            rows = [self.stores[name].interval_rows() for name in group]
            assert all(r == rows[0] for r in rows), group
            events = [self.engines[name].ledger.events_at(self.now) for name in group]
            assert all(e == events[0] for e in events), group

    @invariant()
    def ledgers_fold_onto_stores(self):
        for name, engine in self.engines.items():
            store = self.stores[name]
            store.flush()  # pending rows reach the ledger at a flush
            assert fold_events(engine.ledger).rows() == store.interval_rows(), name

    @invariant()
    def watches_fold_onto_stores(self):
        """What a watch delivered, plus every retained tick after its
        cursor, folds onto the store: retention never passed a cursor (a
        folded tick it had read would come back inside the oldest
        retained one)."""
        for name, engine in self.engines.items():
            store = self.stores[name]
            store.flush()
            watch, view = self.watches[name]
            for event in watch.poll():
                view.apply(event)
            for watch, view in (self.watches[name], self.lagging[name]):
                now = DeltaView(view.rows())
                for t in engine.ledger.ticks():
                    if t > watch.cursor:
                        for event in engine.ledger.events_at(t):
                            now.apply(event)
                assert now.rows() == store.interval_rows(), name

    @invariant()
    def sanitizer_is_clean(self):
        for name, engine in self.engines.items():
            assert sanitize_engine(engine) == [], name


#: A quarter of the active profile's example count: 25 under
#: hypothesis's default profile (the tier-1 budget), more under ``ci``.
JoinModel.TestCase.settings = settings(
    max_examples=max(1, settings.default.max_examples // 4),
    stateful_step_count=25,
    deadline=None,
)
TestJoinModel = JoinModel.TestCase
