"""Lockstep: the store traffic of every tree engine, replayed into the
reference store.

The tree engines, the self-join and the window queries feed
:class:`~repro.core.result.ColumnResultStore` shapes the columnar engine
never sends it: one-triple ``add`` calls, a triple list per updated
object, NaiveJoin's ``end = inf`` rows, and a per-object
``remove_object`` between flushes.  Each run below stands a
:class:`Lockstep` proxy in for the engine's store, so every mutation the
engine makes also lands in the dict-of-lists reference; the two must
return the same values and answer every read alike at every tick.
"""

from __future__ import annotations

from collections import Counter

import pytest

from repro.core import ContinuousJoinEngine, ContinuousSelfJoinEngine, JoinConfig
from repro.core.result import ColumnResultStore
from repro.deltas import DeltaLedger
from repro.geometry import INF, Box, KineticBox
from repro.objects import MovingObject
from repro.queries import ContinuousWindowEngine
from repro.workloads import UpdateStream, make_workload

from ..reference_store import JoinResultStore

T_M = 8.0
TICKS = 14


class Lockstep:
    """An engine's store and the reference behind one mutation surface.

    Mutations go to both and must return the same value; everything else
    (reads, the sanitizer's plane audit) reaches the engine's own store.
    """

    def __init__(self, col: ColumnResultStore):
        assert isinstance(col, ColumnResultStore)
        self.col = col
        self.ref = JoinResultStore()
        self.seen: Counter = Counter()
        self.dropped = 0

    def _both(self, op, *args):
        got, want = getattr(self.col, op)(*args), getattr(self.ref, op)(*args)
        assert got == want, (op, args, got, want)
        self.seen[op] += 1
        return got

    def add(self, triple):
        self._both("add", triple)

    def add_all(self, triples):
        self._both("add_all", list(triples))

    def remove_object(self, oid):
        dropped = self._both("remove_object", oid)
        self.dropped += dropped
        return dropped

    def prune_expired(self, t):
        return self._both("prune_expired", t)

    def clear(self):
        self._both("clear")

    def __getattr__(self, name):
        return getattr(self.col, name)

    def agree(self, t, oids):
        col, ref = self.col, self.ref
        assert col.interval_rows() == ref.interval_rows(), t
        assert col.pairs_at(t) == ref.pairs_at(t), t
        assert len(col) == len(ref), t
        for oid in oids:
            assert col.pairs_for_object(oid) == ref.pairs_for_object(oid), (t, oid)


def workload():
    """Dense enough that every tick both drops and re-adds pairs."""
    return make_workload(
        60, "uniform", max_speed=5.0, object_size_pct=3.0, t_m=T_M, seed=7
    )


def own_updates(stream, t, engine, shadow):
    """The stream's updates at ``t`` for the set ``engine`` indexes; the
    scenario's other set is only tracked in ``shadow``."""
    mine = []
    for obj in stream.updates_for(t, {**engine.objects, **shadow}):
        if obj.oid in engine.objects:
            mine.append(obj)
        else:
            shadow[obj.oid] = obj
    return mine


def finish(lock, t, oids):
    """Expiry and a full clear, then the traffic must not have been vacuous."""
    lock.prune_expired(t)
    lock.agree(t, oids)
    assert lock.dropped > 0 and len(lock.col) > 0
    lock.clear()
    lock.agree(t, oids)
    assert len(lock.col) == 0


@pytest.mark.parametrize("algorithm", ["naive", "tc", "mtb"])
def test_join_engine_store_and_delta_stream(algorithm):
    scenario = workload()
    set_a, set_b = list(scenario.set_a), list(scenario.set_b)
    if algorithm == "naive":
        # Two objects that never part (and never update): ``end = inf``.
        box = Box(10.0, 20.0, 10.0, 20.0)
        set_a.append(MovingObject(7_000_000, box, 1.0, 1.0, 0.0))
        set_b.append(MovingObject(7_000_001, box, 1.0, 1.0, 0.0))
    engine = ContinuousJoinEngine(
        set_a, set_b, algorithm, JoinConfig(t_m=T_M, deltas=True)
    )
    lock = engine._strategy.store = Lockstep(engine._strategy.store)
    ref_ledger = DeltaLedger(engine.now)
    lock.ref.attach_ledger(ref_ledger)
    engine.run_initial_join()
    oids = sorted({**engine.objects_a, **engine.objects_b})
    lock.agree(0.0, oids)
    assert engine.deltas(0.0) == ref_ledger.events_at(0.0)
    stream = UpdateStream(scenario, seed=8)
    events = 0
    for step in range(1, TICKS + 1):
        t = float(step)
        engine.tick(t)
        ref_ledger.advance(t)
        engine.apply_updates(
            stream.updates_for(t, {**engine.objects_a, **engine.objects_b})
        )
        if step % 5 == 0:
            engine.prune_expired()
        lock.agree(t, oids)
        assert engine.deltas(t) == ref_ledger.events_at(t), t
        events += len(engine.deltas(t))
    assert events > 0 and lock.seen["add_all"] > 1 and lock.seen["prune_expired"]
    if algorithm == "naive":
        assert lock.col.interval_rows()[(7_000_000, 7_000_001)] == ((0.0, INF),)
    finish(lock, float(TICKS), oids)
    assert engine.deltas(float(TICKS)) == ref_ledger.events_at(float(TICKS))


def test_selfjoin_engine_store():
    scenario = workload()
    engine = ContinuousSelfJoinEngine(scenario.set_a, JoinConfig(t_m=T_M))
    lock = engine.store = Lockstep(engine.store)
    engine.run_initial_join()
    oids = sorted(engine.objects)
    lock.agree(0.0, oids)
    stream = UpdateStream(scenario, seed=8)
    shadow = {obj.oid: obj for obj in scenario.set_b}
    for step in range(1, TICKS + 1):
        t = float(step)
        engine.tick(t)
        for obj in own_updates(stream, t, engine, shadow):
            engine.apply_update(obj)
        lock.agree(t, oids)
    assert lock.seen["add"] > 1  # one triple at a time
    finish(lock, float(TICKS), oids)


@pytest.mark.parametrize("time_constrained", [True, False])
def test_window_engine_store(time_constrained):
    scenario = workload()
    windows = {
        9_000_000 + i: KineticBox.rigid(
            Box(250 * i, 250 * i + 400, 100, 600), (-1) ** i * 0.8, 0.4, 0.0
        )
        for i in range(3)
    }
    engine = ContinuousWindowEngine(
        scenario.set_a,
        windows,
        JoinConfig(t_m=T_M),
        time_constrained=time_constrained,
    )
    lock = engine.store = Lockstep(engine.store)
    engine.evaluate_initial()
    oids = sorted(engine.objects) + sorted(windows) + [9_000_009]
    lock.agree(0.0, oids)
    stream = UpdateStream(scenario, seed=8)
    shadow = {obj.oid: obj for obj in scenario.set_b}
    for step in range(1, TICKS + 1):
        t = float(step)
        engine.tick(t)
        for obj in own_updates(stream, t, engine, shadow):
            engine.apply_update(obj)
        if step == 5:
            engine.add_window(
                9_000_009, KineticBox.rigid(Box(300, 700, 300, 700), 0.5, -0.5, t)
            )
        if step == 9:
            engine.remove_window(9_000_000)
        lock.agree(t, oids)
    assert lock.seen["add"] > 1
    if not time_constrained:  # some window outlives every Theorem-1 bound
        assert lock.col.planes()[3].max() > TICKS + T_M
    finish(lock, float(TICKS), oids)
