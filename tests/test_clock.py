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

The same engines meet every other ingest refusal too (DESIGN §5.5):
NaN/inf or inverted motion, unknown ids, and an id named twice within a
dataset, across datasets or in one call.  A refused call changes nothing.
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
from repro.objects import MovingObject
from repro.par import ShardedJoinEngine
from repro.queries import ContinuousKNNEngine, ContinuousWindowEngine
from repro.workloads import make_workload

from .conftest import hostile_object

T_M = 10.0
REFUSED = (math.nan, math.inf, -math.inf, 1.0)
#: A reference time after every clock these tests set.
AHEAD = 30.0


def config(deltas=True):
    return JoinConfig(t_m=T_M, deltas=deltas)


def scenario():
    return make_workload(80, "uniform", t_m=T_M, seed=1, object_size_pct=4)


def build(name, start_time=0.0, edit=None):
    """One engine of the named kind over one 80-object scenario;
    ``edit(a, b, windows)`` may change the datasets and windows first."""
    made = scenario()
    a, b, at = list(made.set_a), list(made.set_b), {"start_time": start_time}
    windows = {
        90_000 + i: KineticBox.rigid(Box(x, x + 400, 200, 600), 1.0, 0.5, 0.0)
        for i, x in enumerate((100, 500))
    }
    if edit is not None:
        edit(a, b, windows)
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
        build(name, edit=lambda a, b, windows: a.__setitem__(0, a[0].updated(AHEAD)))


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


GHOST = 777_777  # in no dataset and no window


def renamed(obj, oid):
    """``obj``'s motion under another id."""
    return MovingObject(oid, obj.kbox.mbr, *obj.velocity, t_ref=obj.t_ref)


def replace(dataset, index, make):
    dataset[index] = make(dataset[index])


#: Refused builds: ``(error, edit of (a, b, windows), engines)``; an
#: engine list of ``None`` means every engine.
BUILD_REFUSALS = {
    "non-finite": (ValueError, lambda a, b, w: replace(
        a, 3, lambda obj: hostile_object(obj, "nan-position")), None),
    "inverted": (ValueError, lambda a, b, w: replace(
        a, 3, lambda obj: hostile_object(obj, "inverted-box")), None),
    "after the clock": (ValueError, lambda a, b, w: replace(
        a, 3, lambda obj: obj.updated(AHEAD)), None),
    "id twice in a dataset": (ValueError, lambda a, b, w: replace(
        a, 1, lambda obj: renamed(obj, a[0].oid)), None),
    # Two datasets: A and B, or the window engine's objects and windows.
    "id in two datasets": (
        ValueError,
        lambda a, b, w: (replace(b, 0, lambda obj: renamed(obj, a[0].oid)),
                         w.__setitem__(a[0].oid, w.pop(90_001))),
        [n for n in NAMES if n not in ("selfjoin", "knn")],
    ),
}

#: Engines whose update entry takes a batch, and those that also admit
#: and evict (ETP has no admit/evict hooks and refuses both outright).
BATCHED = [n for n in NAMES if n.startswith(("tree", "columnar", "sharded"))]
MEMBERS = [n for n in BATCHED if n not in ("tree-etp", "sharded")]

#: Refused calls on a running engine: ``(error, call(engine, x, now),
#: engines)`` where ``x`` is a stored A object reporting at the clock.
CALL_REFUSALS = {
    "non-finite": (ValueError, lambda e, x, now: e.apply_update(
        hostile_object(x, "inf-velocity")), None),
    "inverted": (ValueError, lambda e, x, now: e.apply_update(
        hostile_object(x, "inverted-box")), None),
    "after the clock": (ValueError, lambda e, x, now: e.apply_update(
        x.updated(now + 1.0)), None),
    "unknown id": (KeyError, lambda e, x, now: e.apply_update(renamed(x, GHOST)), None),
    "id updated twice": (ValueError, lambda e, x, now: e.apply_updates(
        [x, x.updated(now, vx=-2.0)]), BATCHED),
    "unknown eviction": (KeyError, lambda e, x, now: e.apply_updates(
        [], evict=[GHOST]), MEMBERS),
    "id evicted twice": (ValueError, lambda e, x, now: e.apply_updates(
        [], evict=[x.oid, x.oid]), MEMBERS),
    "id evicted and updated": (ValueError, lambda e, x, now: e.apply_updates(
        [x], evict=[x.oid]), MEMBERS),
    "stored id admitted": (ValueError, lambda e, x, now: e.apply_updates(
        [], admit=[(x, "b")]), MEMBERS),
    "id admitted twice": (ValueError, lambda e, x, now: e.apply_updates(
        [], admit=[(renamed(x, GHOST), "a")] * 2), MEMBERS),
    "id admitted to both datasets": (ValueError, lambda e, x, now: e.apply_updates(
        [], admit=[(renamed(x, GHOST), "a"), (renamed(x, GHOST), "b")]), MEMBERS),
    "object id as a window id": (ValueError, lambda e, x, now: e.add_window(
        x.oid, KineticBox.rigid(Box(0, 1, 0, 1), 0.0, 0.0, now)), ["window"]),
    "window id twice": (ValueError, lambda e, x, now: e.add_window(
        90_000, KineticBox.rigid(Box(0, 1, 0, 1), 0.0, 0.0, now)), ["window"]),
}


def cases(table):
    return [
        pytest.param(name, case, id=f"{name}:{case}")
        for case, (_error, _do, names) in table.items()
        for name in (NAMES if names is None else names)
    ]


@pytest.mark.parametrize("name, case", cases(BUILD_REFUSALS))
def test_every_engine_refuses_every_ingest_fault_at_build(name, case):
    error, edit, _names = BUILD_REFUSALS[case]
    with pytest.raises(error):
        engine = build(name, edit=edit)
        if hasattr(engine, "close"):
            engine.close()


def ingest_state(engine):
    """What a refused call must leave alone."""
    return (
        registry(engine),
        dict(getattr(engine, "windows", {})),
        answer(engine),
        getattr(engine, "update_count", None),
        clocks(engine),
    )


@pytest.mark.parametrize("name, case", cases(CALL_REFUSALS))
def test_every_engine_refuses_every_ingest_fault_on_a_call(name, case):
    error, call, _names = CALL_REFUSALS[case]
    engine = start(name)
    before = ingest_state(engine)
    assert before[2], "vacuous: the answer at t=5 is empty"
    stored = before[0][min(before[0])]
    with pytest.raises(error):
        call(engine, stored.updated(engine.now, vx=1.0, vy=-1.0), engine.now)
    assert ingest_state(engine) == before, (name, case)
    if hasattr(engine, "close"):
        engine.close()
