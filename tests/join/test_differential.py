"""Differential equivalence across every join implementation.

One seeded workload grid (three sizes x two distributions) pushed
through all the window-join implementations and the brute-force oracle.
Three layers of agreement are required:

* **Store level** — brute force, NaiveJoin and the improved TC join
  must populate bit-identical :class:`JoinResultStore` contents for the
  same window ``[0, T_M]``.
* **Triple level** — the improved join equals the
  scalar brute-force oracle triple for triple (floats compared with
  ``==``, no rounding), with every technique on and with none.
* **Answer level** — all five algorithms (naive, improved, PBSM,
  MTB-join, TP-join) report the oracle's exact pair set at sampled
  timestamps, each over the window it guarantees.

The sharded engine's merged store must equal the serial engine's.  The
serial engines under updates (oracle agreement, same-tick order
independence) are held by the stateful model in ``tests/test_model.py``.
"""

from __future__ import annotations

import pytest

from repro.core import ContinuousJoinEngine, JoinConfig
from repro.index import MTBTree, TPRStarTree, TreeStorage
from repro.par import ShardedJoinEngine
from repro.join import (
    JoinTechniques,
    brute_force_join,
    brute_force_pairs_at,
    improved_join,
    mtb_join,
    naive_join,
    pbsm_join,
    tp_join,
)
from repro.workloads import UpdateStream, make_workload

from ..reference_store import JoinResultStore

T_M = 30.0
SIZES = (30, 60, 120)
DISTRIBUTIONS = ("uniform", "gaussian")
SAMPLE_TIMES = (0.0, 4.5, 11.0, 19.5, 29.0)
GRID = [
    pytest.param(n, dist, id=f"{dist}-{n}")
    for n in SIZES
    for dist in DISTRIBUTIONS
]


@pytest.fixture(scope="module")
def workloads():
    """Scenario plus freshly built TPR trees and MTB forests per cell."""
    cells = {}
    for n in SIZES:
        for dist in DISTRIBUTIONS:
            scenario = make_workload(
                n, dist, max_speed=3.0, object_size_pct=0.8,
                t_m=T_M, seed=100 + n,
            )
            storage = TreeStorage()
            tree_a = TPRStarTree(storage=storage, horizon=T_M)
            tree_b = TPRStarTree(storage=storage, horizon=T_M)
            forest_a = MTBTree(t_m=T_M, storage=storage)
            forest_b = MTBTree(t_m=T_M, storage=storage)
            for obj in scenario.set_a:
                tree_a.insert(obj, 0.0)
                forest_a.insert(obj, 0.0)
            for obj in scenario.set_b:
                tree_b.insert(obj, 0.0)
                forest_b.insert(obj, 0.0)
            cells[(n, dist)] = (scenario, tree_a, tree_b, forest_a, forest_b)
    return cells


def store_of(triples) -> JoinResultStore:
    store = JoinResultStore()
    store.add_all(iter(triples))
    return store


def snapshot(store: JoinResultStore):
    """Exact (unrounded) contents of a store, order-normalized."""
    return sorted(
        (key, tuple((iv.start, iv.end) for iv in store.intervals_for(key)))
        for key in store._pairs
    )


def exact(triples):
    return sorted((a, b, iv.start, iv.end) for a, b, iv in triples)


@pytest.mark.parametrize("n,dist", GRID)
def test_store_contents_identical_across_interval_joins(workloads, n, dist):
    scenario, tree_a, tree_b, _fa, _fb = workloads[(n, dist)]
    oracle = snapshot(store_of(
        brute_force_join(scenario.set_a, scenario.set_b, 0.0, T_M)
    ))
    assert snapshot(store_of(naive_join(tree_a, tree_b, 0.0, T_M))) == oracle
    assert snapshot(store_of(
        improved_join(tree_a, tree_b, 0.0, T_M, JoinTechniques.all())
    )) == oracle
    assert snapshot(store_of(
        improved_join(tree_a, tree_b, 0.0, T_M, JoinTechniques.none())
    )) == oracle
    assert len(oracle) > 0, "vacuous workload: no intersecting pairs"


@pytest.mark.parametrize("n,dist", GRID)
def test_kernels_ablation_is_bit_exact(workloads, n, dist):
    """The improved traversal with and without its techniques against the
    scalar oracle, triple by triple: the brute-force join tests every
    pair with the scalar ``intersection_interval``."""
    scenario, tree_a, tree_b, _fa, _fb = workloads[(n, dist)]
    oracle = exact(brute_force_join(scenario.set_a, scenario.set_b, 0.0, T_M))
    assert oracle, "vacuous workload: no intersecting pairs"
    for techniques in (JoinTechniques.all(), JoinTechniques.none()):
        assert exact(improved_join(tree_a, tree_b, 0.0, T_M, techniques)) == oracle


@pytest.mark.parametrize("n,dist", GRID)
def test_all_five_algorithms_agree_at_sampled_times(workloads, n, dist):
    scenario, tree_a, tree_b, forest_a, forest_b = workloads[(n, dist)]
    stores = {
        "naive": store_of(naive_join(tree_a, tree_b, 0.0, T_M)),
        "improved": store_of(
            improved_join(tree_a, tree_b, 0.0, T_M, JoinTechniques.all())
        ),
        "pbsm": store_of(pbsm_join(scenario.set_a, scenario.set_b, 0.0, T_M)),
        # MTB windows run to bucket-end + T_M >= T_M, a superset window.
        "mtb": store_of(mtb_join(forest_a, forest_b, 0.0, JoinTechniques.all())),
    }
    for t in SAMPLE_TIMES:
        want = brute_force_pairs_at(scenario.set_a, scenario.set_b, t)
        for name, store in stores.items():
            got = store.pairs_at(t)
            assert got == want, (name, t, got ^ want)
        # TP-join answers one timestamp at a time, straight off the trees.
        assert tp_join(tree_a, tree_b, t).pairs == want, ("tp", t)


# ----------------------------------------------------------------------
# Sharding is bit-exact
# ----------------------------------------------------------------------
@pytest.mark.parametrize("shards,workers", [(1, 0), (2, 0), (4, 0), (4, 2)])
def test_sharded_engine_matches_serial(shards, workers):
    """Merged shard stores equal the unsharded engine's store at every
    sampled timestamp, including objects that cross stripe boundaries."""
    scenario = make_workload(
        40, "uniform", max_speed=3.0, object_size_pct=2.0, t_m=8.0, seed=37
    )
    config = JoinConfig(t_m=8.0, node_capacity=8)
    serial = ContinuousJoinEngine(
        scenario.set_a, scenario.set_b, "mtb", config
    )
    serial.run_initial_join()
    crossings = 0
    nonempty = 0
    with ShardedJoinEngine(
        scenario.set_a, scenario.set_b, "mtb", config,
        shards=shards, workers=workers,
    ) as sharded:
        sharded.run_initial_join()
        stream = UpdateStream(scenario, seed=38)
        for t, batch in stream.by_timestamp(t_start=1.0, t_end=5.0):
            serial.tick(t)
            sharded.tick(t)
            before = {o.oid: sharded.members_of(o.oid) for o in batch}
            for obj in batch:
                serial.apply_update(obj)
            sharded.apply_updates(batch)
            crossings += sum(
                1 for o in batch if sharded.members_of(o.oid) != before[o.oid]
            )
            assert sharded.result_at(t) == serial.result_at(t), (shards, t)
            assert snapshot(sharded.merged_store()) == \
                snapshot(serial._strategy.store), (shards, workers, t)
            nonempty += bool(serial.result_at(t))
    assert nonempty > 0, "vacuous run: the answer was always empty"
    if shards > 1:
        assert crossings > 0, "no object ever crossed a stripe boundary"
