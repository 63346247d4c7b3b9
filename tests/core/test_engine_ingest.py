"""The tree engine's ingest boundary: a refused update, batch, admission
or dataset leaves the engine exactly as it was.

Two rules, both checked before the first write: every oid of a batch
resolves (known / not already present / no evict-vs-update clash), and
no object carries a NaN/inf/inverted motion — the same gate the
columnar engine applies through ``check_planes``.
"""

import pytest

from repro.core import ContinuousJoinEngine, JoinConfig
from repro.core.columns import columns_from_objects
from repro.geometry import Box, KineticBox
from repro.objects import MovingObject
from repro.workloads import UpdateStream, make_workload

from ..conftest import HOSTILE_COLUMN_EDITS

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


def raw_box(x_lo, x_hi, y_lo, y_hi):
    """A Box built around its constructor's ``lo <= hi`` check."""
    box = Box(0, 0, 0, 0)
    object.__setattr__(box, "_b", (x_lo, x_hi, y_lo, y_hi))
    return box


def hostile(obj, case):
    """``obj`` with one ``HOSTILE_COLUMN_EDITS`` edit applied."""
    cols = columns_from_objects([obj])
    HOSTILE_COLUMN_EDITS[case](cols, 0)
    bad = MovingObject(obj.oid, Box(0, 0, 0, 0), 0.0, 0.0, 0.0)
    bad.kbox = KineticBox(
        raw_box(cols.mlo[0, 0], cols.mhi[0, 0], cols.mlo[1, 0], cols.mhi[1, 0]),
        raw_box(cols.vlo[0, 0], cols.vhi[0, 0], cols.vlo[1, 0], cols.vhi[1, 0]),
        cols.tref[0],
    )
    return bad


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
        engine.apply_updates([good, hostile(other, "nan-position")])
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
        (KeyError, dict(evict=[other.oid, other.oid])),
        (ValueError, dict(evict=[good.oid])),  # evicted and updated
        (ValueError, dict(admit=[(other, "b")])),  # already present
        (ValueError, dict(admit=[(ghost, "a"), (ghost, "a")])),
        (ValueError, dict(admit=[(ghost, "c")])),
        (ValueError, dict(admit=[(hostile(ghost, "inf-velocity"), "a")])),
    ]
    for error, extra in refusals:
        with pytest.raises(error):
            engine.apply_updates([good], **extra)
        assert state(engine) == before, extra


def test_repeated_oid_applies_in_order():
    scenario, engine = warmed_engine("mtb")
    _scenario, twin = warmed_engine("mtb")
    t = engine.now
    first = scenario.set_a[0].updated(t, vx=1.0, vy=-1.0)
    second = scenario.set_a[0].updated(t, vx=-2.0, vy=0.5)
    engine.apply_updates([first, second])
    twin.apply_update(first)
    twin.apply_update(second)
    assert engine.objects_a[first.oid] is second
    assert state(engine)[2:5] == state(twin)[2:5]


@pytest.mark.parametrize("case", sorted(HOSTILE_COLUMN_EDITS))
def test_hostile_object_rejected_state_unchanged(case):
    """NaN / inf / inverted motion is refused at all three ingest points
    of the tree engine, before anything is written."""
    scenario, engine = warmed_engine("tc")
    t = engine.now
    before = state(engine)
    update = hostile(scenario.set_a[3].updated(t, vx=1.0, vy=-1.0), case)
    newcomer = hostile(MovingObject(GHOST_OID, Box(0, 1, 0, 1), 0.0, 0.0, t), case)
    with pytest.raises(ValueError):
        engine.apply_update(update)
    assert state(engine) == before
    with pytest.raises(ValueError):
        engine.apply_updates((), admit=[(newcomer, "a")])
    assert state(engine) == before
    for side in ("set_a", "set_b"):
        datasets = {"set_a": list(scenario.set_a), "set_b": list(scenario.set_b)}
        datasets[side][5] = hostile(datasets[side][5], case)
        with pytest.raises(ValueError, match="non-finite|inverted"):
            ContinuousJoinEngine(
                datasets["set_a"], datasets["set_b"], "tc", JoinConfig(t_m=T_M)
            )
