"""Every engine's clock refuses NaN, ±inf, backwards and late moves,
and every engine refuses a report from after its clock.

A clock check written ``if t < now: raise`` lets NaN through (every
comparison with NaN is false), and a NaN clock lets the next tick run
backwards.  Each engine here ticks to 5, is refused a NaN, an infinite
and a backwards tick and a tick past every object's ``t_ref + T_M``
deadline, and must keep its clock, its ledger clock and its answer; a
constructor refuses a non-finite start time.  Every read refuses a time
before the clock and NaN: an update drops its object's past intervals,
so such an answer would be silently wrong.

An object whose ``t_ref`` is after the clock has its deadline ``t_ref +
T_M`` past every Theorem-1 window ``[now, now + T_M]``: no tick would
ever find it late, and TC would drop its pairs once the window it was
joined over ran out.  Every constructor and every update refuses it.
"""

from __future__ import annotations

import math
import multiprocessing

import pytest

from repro.core import (
    ALGORITHMS,
    ColumnarJoinEngine,
    ContinuousJoinEngine,
    ContinuousSelfJoinEngine,
    JoinConfig,
    LateObjectError,
)
from repro.deltas import DeltaLedger
from repro.geometry import Box, KineticBox
from repro.par import ShardedJoinEngine
from repro.queries import ContinuousKNNEngine, ContinuousWindowEngine
from repro.workloads import make_workload

T_M = 10.0
REFUSED = (math.nan, math.inf, -math.inf, 1.0)
#: A reference time after every clock these tests set.
AHEAD = 30.0


def config(deltas=True):
    return JoinConfig(t_m=T_M, deltas=deltas)


def scenario():
    return make_workload(80, "uniform", t_m=T_M, seed=1, object_size_pct=4)


def build(name, start_time=0.0, first_report=None):
    """One engine of the named kind over one 80-object scenario; with
    ``first_report``, the first A object reports at that time instead."""
    made = scenario()
    a, b, at = list(made.set_a), made.set_b, {"start_time": start_time}
    if first_report is not None:
        a[0] = a[0].updated(first_report)
    kind, _, algorithm = name.partition("-")
    if kind == "tree":
        return ContinuousJoinEngine(a, b, algorithm, config(algorithm != "etp"), **at)
    if kind == "columnar":
        return ColumnarJoinEngine(a, b, algorithm, config(), **at)
    if kind == "sharded":
        return ShardedJoinEngine(a, b, "mtb", config(False), shards=2, **at)
    if kind == "selfjoin":
        return ContinuousSelfJoinEngine(a, config(False), **at)
    if kind == "window":
        windows = {
            90_000 + i: KineticBox.rigid(Box(x, x + 400, 200, 600), 1.0, 0.5, 0.0)
            for i, x in enumerate((100, 500))
        }
        return ContinuousWindowEngine(a, windows, config(False), **at)
    query = KineticBox.rigid(Box.point(500, 500), 1.0, -1.0, 0.0)
    return ContinuousKNNEngine(a, query, k=5, config=config(False), **at)


NAMES = [
    *(f"tree-{algorithm}" for algorithm in ALGORITHMS),
    "columnar-tc", "columnar-mtb", "sharded", "selfjoin", "window", "knn",
]


def answer(engine):
    """The engine's answer at its clock."""
    return engine.knn() if isinstance(engine, ContinuousKNNEngine) else engine.result_at()


def start(name):
    engine = build(name)
    for initial in ("run_initial_join", "evaluate_initial"):
        if hasattr(engine, initial):
            getattr(engine, initial)()
    engine.tick(5.0)
    return engine


def clocks(engine):
    ledger = getattr(engine, "ledger", None)
    return engine.now, None if ledger is None else ledger.now


@pytest.mark.parametrize("name", NAMES)
def test_refused_tick_changes_nothing(name):
    engine = start(name)
    before, want = clocks(engine), answer(engine)
    assert want, "vacuous: the answer at t=5 is empty"
    for t in REFUSED:
        with pytest.raises(ValueError, match="backwards"):
            engine.tick(t)
        if isinstance(engine, ShardedJoinEngine):
            with pytest.raises(ValueError, match="backwards"):
                engine.step(t, [])
        assert clocks(engine) == before, (name, t)
        assert answer(engine) == want, (name, t)
    late = T_M + 0.5  # nobody has reported since t = 0
    ticks = [engine.tick]
    if isinstance(engine, ShardedJoinEngine):
        ticks.append(lambda t: engine.step(t, []))
    for tick in ticks:
        with pytest.raises(LateObjectError) as refused:
            tick(late)
        assert refused.value.oids, name
        assert clocks(engine) == before, name
        assert answer(engine) == want, name
    if isinstance(engine, ContinuousKNNEngine):
        for t in REFUSED:
            with pytest.raises(ValueError):
                engine.knn(t)
        assert answer(engine) == want
    if hasattr(engine, "close"):
        engine.close()


def reads(engine, t):
    """Every answer read the engine offers, at ``t``."""
    if isinstance(engine, ContinuousKNNEngine):
        return [lambda: engine.knn(t)]
    calls = [lambda: engine.result_at(t)]
    if isinstance(engine, ContinuousSelfJoinEngine):
        calls.append(lambda: engine.partners_of(0, t))
    if isinstance(engine, ContinuousWindowEngine):
        calls.append(lambda: engine.result_for(90_000, t))
    return calls


@pytest.mark.parametrize("name", NAMES)
def test_reads_before_the_clock_are_refused(name):
    engine = start(name)
    want = answer(engine)
    for t in (4.0, math.nan):
        for read in reads(engine, t):
            with pytest.raises(ValueError, match="present"):
                read()
    assert answer(engine) == want
    if hasattr(engine, "close"):
        engine.close()


@pytest.mark.parametrize("source", [DeltaLedger])
def test_delta_clocks_refuse_what_the_engines_refuse(source):
    clock = source(5.0)
    for t in REFUSED:
        with pytest.raises(ValueError, match="backwards"):
            clock.advance(t)
        assert clock.now == 5.0


@pytest.mark.parametrize("name", NAMES)
@pytest.mark.parametrize("start_time", [math.nan, math.inf, -math.inf])
def test_non_finite_start_time_is_refused(name, start_time):
    with pytest.raises(ValueError, match="not finite"):
        build(name, start_time)


def registry(engine):
    """Every object the engine holds, as ``oid -> MovingObject``."""
    if hasattr(engine, "objects_a"):
        return {**engine.objects_a, **engine.objects_b}
    return dict(engine.objects)


@pytest.mark.parametrize("name", NAMES)
def test_report_after_the_clock_is_refused_at_build(name):
    with pytest.raises(ValueError, match="after the clock"):
        build(name, first_report=AHEAD)


def test_sharded_refuses_a_report_after_the_clock_before_any_worker_starts():
    made = scenario()
    a = [made.set_a[0].updated(AHEAD), *made.set_a[1:]]
    before = multiprocessing.active_children()
    with pytest.raises(ValueError, match="after the clock"):
        ShardedJoinEngine(a, made.set_b, "mtb", config(False), shards=2, workers=1)
    assert multiprocessing.active_children() == before


@pytest.mark.parametrize("name", NAMES)
def test_report_after_the_clock_is_refused_on_update(name):
    engine = start(name)
    objects, want = registry(engine), answer(engine)
    count = getattr(engine, "update_count", None)
    first = min(objects)
    vx, vy = objects[first].velocity
    with pytest.raises(ValueError):
        engine.apply_update(objects[first].updated(engine.now + 1.0, vx=vx + 1.0))
    assert registry(engine) == objects, name
    assert answer(engine) == want, name
    assert getattr(engine, "update_count", None) == count, name
    if hasattr(engine, "close"):
        engine.close()
