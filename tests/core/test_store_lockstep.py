"""Lockstep: the store traffic of the self-join and window engines,
replayed into the reference store.

Those engines feed :class:`~repro.core.result.ColumnResultStore` shapes
the columnar engine never sends it: one-triple ``add`` calls, windows
that outlive every Theorem-1 bound, and a per-object ``remove_object``
between flushes.  Each run below stands a :class:`Lockstep` proxy in for
the engine's store, so every mutation the engine makes also lands in the
dict-of-lists reference; the two must return the same values, answer
every read alike, and pass the sanitizer at every tick.  The two-set
join engines' store traffic is checked the same way by the stateful
model in ``tests/test_model.py``.
"""

from __future__ import annotations

import pytest

from repro.core import ContinuousSelfJoinEngine, JoinConfig
from repro.geometry import Box, KineticBox
from repro.queries import ContinuousWindowEngine
from repro.workloads import UpdateStream, make_workload

from ..check.sanitize import sanitize_engine
from ..reference_store import Lockstep

T_M = 8.0
TICKS = 14


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
    """A full clear, after traffic that must not have been vacuous."""
    lock.agree(t, oids)
    assert lock.dropped > 0 and len(lock.col) > 0
    lock.clear()
    lock.agree(t, oids)
    assert len(lock.col) == 0


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
        assert sanitize_engine(engine) == [], t
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
        assert sanitize_engine(engine) == [], t
    assert lock.seen["add"] > 1
    if not time_constrained:  # some window outlives every Theorem-1 bound
        assert lock.col.planes()[3].max() > TICKS + T_M
    finish(lock, float(TICKS), oids)
