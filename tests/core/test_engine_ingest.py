"""The object engines' ingest boundary: a refused update, batch,
admission or dataset leaves the engine exactly as it was.

Every engine passes its input through one gate,
``repro.core.columns.check_ingest``, before the first write: no object
carries a NaN/inf/inverted motion or a ``t_ref`` after the clock, no id
is named twice in one call (a repeated update, eviction or admission, or
an id both evicted and updated), updated and evicted ids are known
(``KeyError``) and admitted ids are new.  This file holds the tree
engine and the self-join, window and kNN engines to the cases a tree
engine batch can express; ``tests/test_clock.py`` holds every engine to
every refusal.
"""

import pytest

from repro.core import ContinuousJoinEngine, ContinuousSelfJoinEngine, JoinConfig
from repro.geometry import Box, KineticBox
from repro.objects import MovingObject
from repro.queries import ContinuousKNNEngine, ContinuousWindowEngine
from repro.workloads import UpdateStream, make_workload

from ..conftest import HOSTILE_COLUMN_EDITS, hostile_object

T_M = 8.0
ALGOS = ["naive", "etp", "tc", "mtb"]
GHOST_OID = 777_777  # in neither dataset (B ids start at 1_000_000)


def warmed_engine(algorithm):
    """An engine two ticks into a dense run (non-empty answer)."""
    scenario = make_workload(
        40, "uniform", max_speed=3.0, object_size_pct=3.0, t_m=T_M, seed=31
    )
    engine = ContinuousJoinEngine(
        scenario.set_a, scenario.set_b, algorithm, JoinConfig(t_m=T_M)
    )
    engine.run_initial_join()
    for t, batch in UpdateStream(scenario, seed=7).by_timestamp(1.0, 2.0):
        engine.tick(t)
        engine.apply_updates(batch)
    return scenario, engine


def indexes(engine):
    strategy = engine._strategy
    if engine.algorithm == "mtb":
        return strategy.forest_a, strategy.forest_b
    return strategy.tree_a, strategy.tree_b


def state(engine):
    """Everything a refused call must leave alone, in comparable form."""
    strategy = engine._strategy
    if engine.algorithm == "etp":
        answer = (sorted(strategy.current), strategy.expiry)
    else:
        answer = sorted(strategy.store.interval_rows().items())
    return (
        dict(engine.objects_a),
        dict(engine.objects_b),
        [sorted(index.all_objects(), key=lambda o: o.oid) for index in indexes(engine)],
        answer,
        engine.update_count,
        engine.tracker.snapshot().page_writes,
    )


@pytest.mark.parametrize("algorithm", ALGOS)
def test_rejected_batch_changes_nothing(algorithm):
    scenario, engine = warmed_engine(algorithm)
    t = engine.now
    good = scenario.set_a[0].updated(t, vx=1.0, vy=-1.0)
    other = scenario.set_b[0].updated(t, vx=-1.0, vy=1.0)
    ghost = MovingObject(GHOST_OID, Box(0, 1, 0, 1), 0.0, 0.0, t)
    before = state(engine)
    assert before[3], "vacuous: the answer is empty"

    with pytest.raises(KeyError):
        engine.apply_updates([good, ghost])
    assert state(engine) == before
    with pytest.raises(ValueError):
        engine.apply_updates([good, hostile_object(other, "nan-position")])
    assert state(engine) == before
    if algorithm == "etp":
        # No admit/evict hooks: refused, again before the update lands.
        with pytest.raises(ValueError):
            engine.apply_updates([good], admit=[(ghost, "a")])
        with pytest.raises(ValueError):
            engine.apply_updates([good], evict=[other.oid])
        assert state(engine) == before
        return
    refusals = [
        (KeyError, dict(evict=[ghost.oid])),
        (ValueError, dict(evict=[other.oid, other.oid])),
        (ValueError, dict(evict=[good.oid])),  # evicted and updated
        (ValueError, dict(admit=[(other, "b")])),  # already present
        (ValueError, dict(admit=[(ghost, "a"), (ghost, "a")])),
        (ValueError, dict(admit=[(ghost, "c")])),
        (ValueError, dict(admit=[(hostile_object(ghost, "inf-velocity"), "a")])),
    ]
    for error, extra in refusals:
        with pytest.raises(error):
            engine.apply_updates([good], **extra)
        assert state(engine) == before, extra


@pytest.mark.parametrize("algorithm", ALGOS)
def test_repeated_oid_in_one_batch_is_refused(algorithm):
    """An id updated twice in one batch is named twice: refused whole,
    where two ``apply_update`` calls apply both motions in order."""
    scenario, engine = warmed_engine(algorithm)
    t = engine.now
    first = scenario.set_a[0].updated(t, vx=1.0, vy=-1.0)
    second = scenario.set_a[0].updated(t, vx=-2.0, vy=0.5)
    before = state(engine)
    with pytest.raises(ValueError, match=rf"object ids named twice in one batch: \[{first.oid}\]"):
        engine.apply_updates([first, second])
    assert state(engine) == before
    engine.apply_update(first)
    engine.apply_update(second)
    assert engine.objects_a[first.oid] is second


@pytest.mark.parametrize("case", sorted(HOSTILE_COLUMN_EDITS))
def test_hostile_object_rejected_state_unchanged(case):
    """NaN / inf / inverted motion is refused at all three ingest points
    of the tree engine, before anything is written."""
    scenario, engine = warmed_engine("tc")
    t = engine.now
    before = state(engine)
    update = hostile_object(scenario.set_a[3].updated(t, vx=1.0, vy=-1.0), case)
    newcomer = hostile_object(MovingObject(GHOST_OID, Box(0, 1, 0, 1), 0.0, 0.0, t), case)
    with pytest.raises(ValueError):
        engine.apply_update(update)
    assert state(engine) == before
    with pytest.raises(ValueError):
        engine.apply_updates((), admit=[(newcomer, "a")])
    assert state(engine) == before
    for side in ("set_a", "set_b"):
        datasets = {"set_a": list(scenario.set_a), "set_b": list(scenario.set_b)}
        datasets[side][5] = hostile_object(datasets[side][5], case)
        with pytest.raises(ValueError, match="non-finite|inverted"):
            ContinuousJoinEngine(
                datasets["set_a"], datasets["set_b"], "tc", JoinConfig(t_m=T_M)
            )


def extension_engine(name, objects):
    """A self-join, window or kNN engine over ``objects``."""
    config = JoinConfig(t_m=T_M)
    if name == "selfjoin":
        return ContinuousSelfJoinEngine(objects, config)
    if name == "window":
        windows = {90_000: KineticBox.rigid(Box(100, 600, 100, 600), 1.0, 0.5, 0.0)}
        return ContinuousWindowEngine(objects, windows, config)
    query = KineticBox.rigid(Box.point(500, 500), 1.0, -1.0, 0.0)
    return ContinuousKNNEngine(objects, query, k=5, config=config)


def extension_state(engine):
    answer = engine.knn() if isinstance(engine, ContinuousKNNEngine) else engine.result_at()
    stored = sorted(engine.forest.all_objects(), key=lambda o: o.oid)
    return dict(engine.objects), stored, answer


@pytest.mark.parametrize("case", sorted(HOSTILE_COLUMN_EDITS))
@pytest.mark.parametrize("name", ["selfjoin", "window", "knn"])
def test_extension_engines_refuse_hostile_objects(name, case):
    """The tree engine's gate, at build and on update: a NaN position
    would otherwise join as if it were somewhere."""
    scenario = make_workload(
        40, "uniform", max_speed=3.0, object_size_pct=3.0, t_m=T_M, seed=31
    )
    objects = list(scenario.set_a)
    dataset = list(objects)
    dataset[5] = hostile_object(dataset[5], case)
    with pytest.raises(ValueError, match="non-finite|inverted"):
        extension_engine(name, dataset)
    engine = extension_engine(name, objects)
    for initial in ("run_initial_join", "evaluate_initial"):
        if hasattr(engine, initial):
            getattr(engine, initial)()
    engine.tick(1.0)
    before = extension_state(engine)
    assert before[2], "vacuous: the answer is empty"
    update = hostile_object(objects[3].updated(1.0, vx=1.0, vy=-1.0), case)
    with pytest.raises(ValueError, match="non-finite|inverted"):
        engine.apply_update(update)
    assert extension_state(engine) == before


@pytest.mark.parametrize("case", sorted(HOSTILE_COLUMN_EDITS))
def test_query_boxes_pass_the_plane_rule(case):
    """A NaN/inf or inverted query window or kNN query is refused: a
    NaN window would otherwise answer as if it met nothing."""
    scenario = make_workload(
        40, "uniform", max_speed=3.0, object_size_pct=3.0, t_m=T_M, seed=31
    )
    objects, config = list(scenario.set_a), JoinConfig(t_m=T_M)
    query = MovingObject(90_000, Box.point(500, 500), 1.0, -1.0, 0.0)
    bad = hostile_object(query, case).kbox
    with pytest.raises(ValueError, match="non-finite|inverted"):
        ContinuousWindowEngine(objects, {90_000: bad}, config)
    with pytest.raises(ValueError, match="non-finite|inverted"):
        ContinuousKNNEngine(objects, bad, k=1, config=config)
    engine = extension_engine("window", objects)
    engine.evaluate_initial()
    before = dict(engine.windows), extension_state(engine)
    assert before[1][2], "vacuous: the answer is empty"
    with pytest.raises(ValueError, match="non-finite|inverted"):
        engine.add_window(90_001, bad)
    assert (dict(engine.windows), extension_state(engine)) == before
