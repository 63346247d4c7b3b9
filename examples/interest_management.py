#!/usr/bin/env python
"""Interest management for a large-scale distributed simulation.

The paper's introduction cites military simulations and massively
multiplayer games where each of up to 100,000 entities has an *interest
range*, and the primitive data-management operation is an intersection
join of those ranges — every entity must know which other entities it
can currently perceive.

This example compares the algorithms the paper compares: how much does
it cost to keep the interest graph current under a realistic update
stream?  (Sizes are scaled down so the example runs in seconds; raise
``N_ENTITIES`` to approach paper scale.)

It also exercises the §V extension: a continuous *window query* watches
one sector of the arena, and a continuous *kNN query* tracks the five
entities nearest a commander unit.

Run:  python examples/interest_management.py
"""

from repro.core import ContinuousJoinEngine, JoinConfig, SimulationDriver
from repro.geometry import Box, KineticBox
from repro.queries import ContinuousKNNEngine, ContinuousWindowEngine
from repro.workloads import UpdateStream, uniform_workload

N_ENTITIES = 300     # per faction
T_M = 30.0
SIM_STEPS = 25


def main() -> None:
    scenario = uniform_workload(
        N_ENTITIES, seed=21, max_speed=2.0, object_size_pct=1.0, t_m=T_M
    )
    config = JoinConfig(t_m=T_M)

    print(f"interest join: {N_ENTITIES} vs {N_ENTITIES} entities, "
          f"T_M={T_M:g}\n")
    print(f"{'algorithm':10s} {'init io':>8s} {'init tests':>11s} "
          f"{'maint io/upd':>13s} {'maint tests/upd':>16s} {'cpu ms/upd':>11s}")
    for algo in ("etp", "tc", "mtb"):
        engine = ContinuousJoinEngine.create(
            scenario.set_a, scenario.set_b, algorithm=algo, config=config
        )
        init = engine.run_initial_join()
        driver = SimulationDriver(engine, UpdateStream(scenario, seed=4))
        driver.run(SIM_STEPS)
        amortized = driver.amortized_cost()
        print(f"{algo:10s} {init.io_total:8d} {init.pair_tests:11d} "
              f"{amortized.io_total:13d} {amortized.pair_tests:16d} "
              f"{amortized.cpu_seconds * 1e3:11.3f}")

    # §V extensions on faction A.
    print("\ncontinuous window query: arena sector [200,400]×[200,400]")
    window = {9_000_000: KineticBox.rigid(Box(200, 400, 200, 400), 0, 0, 0.0)}
    weng = ContinuousWindowEngine(scenario.set_a, window, config)
    weng.evaluate_initial()
    print(f"  t=0: {len(weng.result_for(9_000_000))} entities in sector")

    print("continuous 5-NN of the commander unit at (500, 500):")
    keng = ContinuousKNNEngine(
        scenario.set_a,
        KineticBox.moving_point(500, 500, 0.5, 0.5, 0.0),
        k=5,
        config=config,
        max_speed=scenario.max_speed,
    )
    faction_a = set(scenario.oid_a.tolist())
    for t, batch in UpdateStream(scenario, seed=4).by_timestamp(1.0, 10.0):
        keng.tick(t)
        weng.tick(t)
        for obj in batch:
            if obj.oid in faction_a:
                keng.apply_update(obj)
                weng.apply_update(obj)
        if t % 5 == 0:
            nn = ", ".join(f"{oid}@{d:.1f}" for d, oid in keng.knn())
            print(f"  t={t:2g}: 5-NN = [{nn}]  "
                  f"(candidates tracked: {keng.candidate_count}); "
                  f"sector holds {len(weng.result_for(9_000_000))} entities")


if __name__ == "__main__":
    main()
