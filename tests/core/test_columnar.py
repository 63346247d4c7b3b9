"""Differential suite: the columnar engine is store-identical to the seed.

The tentpole claim of the columnar tick loop is not "close" but
*bit-identical*: same pair keys, same interval endpoints, across the
whole maintenance matrix — both algorithms, sanitizers on and off, and
against the K-way sharded engine's merged store.  Every comparison
below is exact equality on interval endpoints, never tolerance-based.
"""

from __future__ import annotations

import hashlib
import re

import numpy as np
import pytest

from repro.core import (
    COLUMNAR_ALGORITHMS,
    ColumnarJoinEngine,
    ContinuousJoinEngine,
    JoinConfig,
    LateObjectError,
)
from repro.core.columns import ColumnStore, UpdateColumns, columns_from_objects
from repro.join import brute_force_pairs_at
from repro.objects import MovingObject
from repro.workloads import UpdateStream, make_workload

from ..conftest import HOSTILE_COLUMN_EDITS, assert_sanitized

T_M = 12.0
N = 60
STEPS = 14


def dump(store):
    """Exact store contents: sorted (key, interval endpoints) rows."""
    return sorted(
        (key, tuple((iv.start, iv.end) for iv in intervals))
        for key, intervals in store._pairs.items()
    )


def scenario_pair(seed=31, n=N, distribution="uniform"):
    scenario = make_workload(
        n, distribution, max_speed=3.0, object_size_pct=1.5, t_m=T_M, seed=seed
    )
    return scenario


def drive_both(algorithm, config, distribution="uniform", seed=31, sanitize=False):
    """Run seed and columnar engines in lockstep off one update stream."""
    scenario = scenario_pair(seed=seed, distribution=distribution)
    seed_engine = ContinuousJoinEngine.create(
        scenario.set_a, scenario.set_b, algorithm=algorithm, config=config
    )
    col_engine = ColumnarJoinEngine(
        scenario.set_a, scenario.set_b, algorithm=algorithm, config=config
    )
    seed_engine.run_initial_join()
    col_engine.run_initial_join()
    for t, batch in UpdateStream(scenario, seed=seed + 5).by_timestamp(1.0, float(STEPS)):
        seed_engine.tick(t)
        seed_engine.apply_updates(batch)
        col_engine.tick(t)
        col_engine.apply_updates(batch)
        assert seed_engine.result_at(t) == col_engine.result_at(t), f"t={t}"
        a, b = col_engine.result_planes_at(t)
        assert list(zip(a.tolist(), b.tolist())) == sorted(seed_engine.result_at(t))
        assert col_engine.count_at(t) == a.shape[0]
        if sanitize:
            assert_sanitized(seed_engine, col_engine)
    return seed_engine, col_engine


@pytest.mark.parametrize("algorithm", COLUMNAR_ALGORITHMS)
@pytest.mark.parametrize("sanitize", [False, True])
def test_store_identical_to_seed_engine(algorithm, sanitize):
    seed_engine, col_engine = drive_both(
        algorithm, JoinConfig(t_m=T_M), sanitize=sanitize
    )
    assert dump(seed_engine._strategy.store) == dump(col_engine.store)
    assert len(col_engine.store) > 0  # the identity is not vacuous


@pytest.mark.parametrize("algorithm", COLUMNAR_ALGORITHMS)
@pytest.mark.parametrize("distribution", ["gaussian", "battlefield"])
def test_store_identical_across_distributions(algorithm, distribution):
    seed_engine, col_engine = drive_both(
        algorithm, JoinConfig(t_m=T_M), distribution=distribution
    )
    assert dump(seed_engine._strategy.store) == dump(col_engine.store)


@pytest.mark.parametrize("shards", [1, 4])
def test_merged_sharded_store_equals_columnar(shards):
    from repro.par import ShardedJoinEngine

    scenario = make_workload(
        N, "uniform", max_speed=3.0, object_size_pct=1.5, t_m=T_M, seed=31
    )
    config = JoinConfig(t_m=T_M)
    sharded = ShardedJoinEngine(
        scenario.set_a, scenario.set_b, algorithm="mtb", config=config,
        shards=shards,
    )
    columnar = ColumnarJoinEngine(
        scenario.columns_a(), scenario.columns_b(), algorithm="mtb", config=config
    )
    sharded.run_initial_join()
    columnar.run_initial_join()
    stream_s = UpdateStream(scenario, seed=36)
    stream_c = UpdateStream(scenario, seed=36)
    for step in range(1, STEPS + 1):
        t = float(step)
        sharded.tick(t)
        upd_a, upd_b = stream_s.updates_at(t)
        sharded.apply_update_columns(upd_a, upd_b)
        columnar.tick(t)
        upd_a, upd_b = stream_c.updates_at(t)
        columnar.apply_update_columns(upd_a, upd_b)
    assert dump(sharded.merged_store()) == dump(columnar.store)
    sharded.close()


def test_admissions_and_evictions_match_seed():
    scenario = scenario_pair()
    config = JoinConfig(t_m=T_M)
    seed_engine = ContinuousJoinEngine.create(
        scenario.set_a[:40], scenario.set_b, algorithm="mtb", config=config
    )
    col_engine = ColumnarJoinEngine(
        scenario.set_a[:40], scenario.set_b, algorithm="mtb", config=config
    )
    seed_engine.run_initial_join()
    col_engine.run_initial_join()
    latecomers = scenario.set_a[40:50]
    victims = [o.oid for o in scenario.set_b[:5]]
    for step, obj in enumerate(latecomers, start=1):
        t = float(step)
        seed_engine.tick(t)
        col_engine.tick(t)
        arrival = obj.updated(t)
        seed_engine.apply_updates([], admit=[(arrival, "a")], evict=victims[:1])
        col_engine.apply_updates([], admit=[(arrival, "a")], evict=victims[:1])
        victims = victims[1:]
        assert seed_engine.result_at(t) == col_engine.result_at(t)
    assert dump(seed_engine._strategy.store) == dump(col_engine.store)


def engine_state(engine):
    """Everything a refused batch must leave alone, plane for plane."""
    return (
        [
            getattr(cols.columns(), plane).tobytes()
            for cols in (engine.columns_a, engine.columns_b)
            for plane in ("oid", "mlo", "mhi", "vlo", "vhi", "tref")
        ],
        [plane.tobytes() for plane in engine.store.planes()],
        engine.update_count,
        None if engine.ledger is None else (engine.ledger.ticks(), engine.deltas()),
    )


@pytest.mark.parametrize("algorithm", COLUMNAR_ALGORITHMS)
def test_refused_batch_changes_nothing(algorithm):
    """Known ids, no id twice across the five arguments, ``t_ref == t``:
    all checked before the first write, as the sharded parent does."""
    scenario = make_workload(N, "uniform", max_speed=3.0, object_size_pct=5.0, t_m=T_M, seed=31)
    engine = ColumnarJoinEngine(
        scenario.set_a[:50], scenario.set_b, algorithm, JoinConfig(t_m=T_M, deltas=True)
    )
    engine.run_initial_join()
    t = 3.0
    engine.tick(t)

    def cols(objs, t_ref=t):
        return columns_from_objects([obj.updated(t_ref, vx=1.0, vy=-1.0) for obj in objs])

    def with_oid(batch, index, oid):
        batch.oid[index] = oid
        return batch

    upd_a, upd_b = cols(scenario.set_a[:6]), cols(scenario.set_b[:6])
    oid_a, oid_b = scenario.set_a[10].oid, scenario.set_b[10].oid
    none = UpdateColumns.empty()
    late = scenario.set_a[50:53]
    refused = {
        "unknown id in upd_b after a good upd_a":
            (KeyError, (upd_a, with_oid(cols(scenario.set_b[:6]), 4, 987_654_321))),
        "an a-side id in upd_b": (KeyError, (upd_a, with_oid(cols(scenario.set_b[:6]), 0, oid_a))),
        "unknown id in evict after good evictions":
            (KeyError, (upd_a, upd_b, None, None, [oid_a, oid_b, 987_654_321])),
        "evicted and updated": (ValueError, (upd_a, upd_b, None, None, [upd_b.oid[2]])),
        "evicted twice": (ValueError, (none, none, None, None, [oid_a, oid_b, oid_a])),
        "updated on both sides' batches":
            (ValueError, (upd_a, none, with_oid(cols(late), 1, upd_a.oid[0]), None)),
        "admitted twice": (ValueError, (upd_a, upd_b, cols(late), cols(late[:1]))),
        "admitted but stored on the other side":
            (ValueError, (upd_a, upd_b, None, with_oid(cols(late), 2, oid_a))),
        "admitted and evicted": (ValueError, (none, none, with_oid(cols(late), 0, oid_b), None, [oid_b])),
        "stale admission": (ValueError, (upd_a, upd_b, cols(late, t_ref=2.0))),
    }
    # Something of this tick in the store and the ledger to leave alone.
    engine.apply_update_columns(cols(scenario.set_a[20:24]), cols(scenario.set_b[20:24]))
    before = engine_state(engine)
    assert len(engine.store) > 20 and engine.deltas()
    for why, (error, args) in refused.items():
        with pytest.raises(error):
            engine.apply_update_columns(*args)
        assert engine_state(engine) == before, why
    # ... and the same ids, arranged legally, go through in one call.
    engine.apply_update_columns(upd_a, upd_b, cols(late), None, [oid_a, oid_b])
    assert engine.update_count == 8 + 12
    assert oid_a not in engine.columns_a and oid_b not in engine.columns_b
    assert all(obj.oid in engine.columns_a for obj in late)
    survivors = set(engine.columns_a.oids.tolist()) | set(engine.columns_b.oids.tolist())
    assert all(a in survivors and b in survivors for a, b in engine.store.pair_keys())


def test_many_evictions_in_one_call_match_the_seed_engine():
    scenario = make_workload(N, "uniform", max_speed=3.0, object_size_pct=5.0, t_m=T_M, seed=31)
    config = JoinConfig(t_m=T_M)
    seed_engine = ContinuousJoinEngine.create(scenario.set_a, scenario.set_b, "mtb", config)
    col_engine = ColumnarJoinEngine(scenario.set_a, scenario.set_b, "mtb", config)
    for engine in (seed_engine, col_engine):
        engine.run_initial_join()
        engine.tick(2.0)
    # Victims from both sides, head and tail rows, with updates of rows
    # the evictions move in the same call.
    victims = [o.oid for o in scenario.set_a[:4] + scenario.set_a[-3:] + scenario.set_b[5:9]]
    batch = [o.updated(2.0, vx=0.5, vy=0.5) for o in scenario.set_a[-8:-3] + scenario.set_b[-4:]]
    for engine in (seed_engine, col_engine):
        engine.apply_updates(batch, evict=victims)
    assert dump(seed_engine._strategy.store) == dump(col_engine.store)
    assert len(col_engine.columns_a) == N - 7 and len(col_engine.columns_b) == N - 4
    assert len(col_engine.store) > 10


def test_lockstep_mtb_with_three_live_buckets():
    """One sweep per probe, a window end per row: the store equals the
    tree engine's after every tick, with three buckets live for most of
    the 19 ticks after the first 11 (which cannot hold three)."""
    scenario = make_workload(N, "uniform", max_speed=3.0, object_size_pct=5.0, t_m=T_M, seed=31)
    config = JoinConfig(t_m=T_M)
    seed_engine = ContinuousJoinEngine.create(scenario.set_a, scenario.set_b, "mtb", config)
    col_engine = ColumnarJoinEngine(scenario.set_a, scenario.set_b, "mtb", config)
    seed_engine.run_initial_join()
    col_engine.run_initial_join()
    assert dump(seed_engine._strategy.store) == dump(col_engine.store)
    live_buckets = []
    for t, batch in UpdateStream(scenario, seed=36).by_timestamp(1.0, 30.0):
        for engine in (seed_engine, col_engine):
            engine.tick(t)
            engine.apply_updates(batch)
        assert dump(seed_engine._strategy.store) == dump(col_engine.store), t
        ends = col_engine._window_ends(col_engine.columns_b)
        assert ends.min() > t  # nobody overdue: every row is probed
        live_buckets.append(np.unique(ends).shape[0])
    assert live_buckets.count(3) >= 14 and len(col_engine.store) > 30


def test_overdue_row_refuses_the_tick_past_its_deadline():
    """A row that misses its ``T_M`` deadline refuses the tick past it,
    naming the row and leaving clock, columns, store and ledger as they
    were; re-reported at the clock, it lets the tick go ahead."""
    scenario = make_workload(N, "uniform", max_speed=3.0, object_size_pct=5.0, t_m=T_M, seed=31)
    engine = ColumnarJoinEngine(
        scenario.set_a, scenario.set_b, "mtb", JoinConfig(t_m=T_M, deltas=True)
    )
    engine.run_initial_join()
    silent = scenario.set_b[2].oid
    for t, batch in UpdateStream(scenario, seed=36).by_timestamp(1.0, T_M):
        engine.tick(t)  # every other object reports within T_M
        engine.apply_updates([obj for obj in batch if obj.oid != silent])
    t += 1.0

    def state():
        digest = hashlib.sha256()
        for plane in (*engine.store.planes(), engine.columns_a.tref, engine.columns_b.tref):
            digest.update(plane.tobytes())
        return engine.now, engine.ledger.now, engine.ledger.ticks(), digest.hexdigest()

    kept = state()
    with pytest.raises(LateObjectError, match="deadline") as refused:
        engine.tick(t)
    assert refused.value.oids == (silent,)
    assert state() == kept
    late = engine.objects_b[silent]
    vx, vy = late.velocity
    engine.apply_updates(
        [MovingObject(silent, late.mbr_at(engine.now), vx, vy, t_ref=engine.now)]
    )
    engine.tick(t)
    want = brute_force_pairs_at(engine.objects_a.values(), engine.objects_b.values(), t)
    assert engine.result_at() == want


def test_historical_batch_rejected():
    scenario = scenario_pair()
    engine = ColumnarJoinEngine(
        scenario.set_a, scenario.set_b, algorithm="tc", config=JoinConfig(t_m=T_M)
    )
    engine.run_initial_join()
    engine.tick(5.0)
    stale = scenario.set_a[0]  # t_ref == 0.0 != engine.now
    with pytest.raises(ValueError, match="t_ref"):
        engine.apply_updates([stale])


@pytest.mark.parametrize("case", sorted(HOSTILE_COLUMN_EDITS))
def test_hostile_columns_rejected_state_unchanged(case):
    """NaN / inf / inverted input is refused at the ingest gate, before
    anything is written — never joined into an arbitrary answer."""
    scenario = scenario_pair()
    engine = ColumnarJoinEngine(
        scenario.set_a, scenario.set_b, algorithm="tc", config=JoinConfig(t_m=T_M)
    )
    engine.run_initial_join()
    engine.tick(1.0)

    def state():
        return (
            [
                getattr(cols.columns(), plane).tolist()
                for cols in (engine.columns_a, engine.columns_b)
                for plane in ("oid", "mlo", "mhi", "vlo", "vhi", "tref")
            ],
            engine.update_count,
            engine.store.interval_rows(),
        )

    before = state()
    assert before[2], "vacuous: the store is empty"
    bad = columns_from_objects(
        [obj.updated(1.0, vx=1.0, vy=-1.0) for obj in scenario.set_a[:3]]
    )
    HOSTILE_COLUMN_EDITS[case](bad, 1)
    with pytest.raises(ValueError):
        engine.apply_update_columns(bad, UpdateColumns.empty())
    assert state() == before


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
@pytest.mark.parametrize("case", sorted(HOSTILE_COLUMN_EDITS))
def test_constructor_rejects_hostile_dataset(case):
    scenario = scenario_pair()
    bad = columns_from_objects(scenario.set_a)
    HOSTILE_COLUMN_EDITS[case](bad, 5)
    adopted = ColumnStore()
    adopted.add(bad)  # the raw append path does not validate
    for dataset in (bad, adopted):
        with pytest.raises(ValueError):
            ColumnarJoinEngine(dataset, scenario.set_b, "tc", JoinConfig(t_m=T_M))


def shared_id_datasets():
    """Two datasets sharing seven ids, and the five a refusal names.

    Side a is shuffled and side b holds the shared ids in descending
    order, so neither side's row order lists them ascending, and side
    a's first row is not shared.
    """
    scenario = scenario_pair()
    a = columns_from_objects(scenario.set_a)
    a = a.take(np.random.default_rng(5).permutation(len(a)))
    b = columns_from_objects(scenario.set_b)
    shared = a.oid[[41, 3, 50, 17, 29, 8, 33]]
    b.oid[10 : 10 + shared.shape[0]] = np.sort(shared)[::-1]
    assert a.oid[0] not in shared
    assert [s for s in a.oid.tolist() if s in shared][:5] != sorted(shared.tolist())[:5]
    return a, b, sorted(shared.tolist())[:5]


@pytest.mark.parametrize("form", ["columns", "store", "objects", "tree"])
def test_shared_ids_refused_naming_the_first_five(form):
    a, b, first_five = shared_id_datasets()
    message = re.escape(f"object ids shared across datasets: {first_five}")
    with pytest.raises(ValueError, match=f"^{message}$"):
        if form == "tree":
            ContinuousJoinEngine(a.objects(), b.objects(), "tc", JoinConfig(t_m=T_M))
        else:
            convert = {
                "columns": lambda cols: cols,
                "store": ColumnStore.from_columns,
                "objects": UpdateColumns.objects,
            }[form]
            ColumnarJoinEngine(convert(a), convert(b), "tc", JoinConfig(t_m=T_M))


def test_id_repeated_within_one_side_refused():
    scenario = scenario_pair()
    a = columns_from_objects(scenario.set_a)
    a.oid[7] = a.oid[3]
    with pytest.raises(ValueError, match=f"^object {int(a.oid[3])} already stored$"):
        ColumnarJoinEngine(a, scenario.set_b, "tc", JoinConfig(t_m=T_M))


def test_plane_reads_answer_what_result_at_answers():
    """Same clock rule, same default, same pairs at a look-ahead."""
    _, engine = drive_both("mtb", JoinConfig(t_m=T_M))
    for t in (None, engine.now, engine.now + 2.5):
        a, b = engine.result_planes_at(t)
        assert set(zip(a.tolist(), b.tolist())) == engine.result_at(t)
        assert engine.count_at(t) == len(engine.result_at(t)) > 0
    for read in (engine.result_at, engine.result_planes_at, engine.count_at):
        with pytest.raises(ValueError, match="present"):
            read(engine.now - 1.0)

