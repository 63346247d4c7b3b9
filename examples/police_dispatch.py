#!/usr/bin/env python
"""Police dispatch: which communities does each patrol car cover?

The paper's Figure 1(a): police cars drive around a city, each covering
a circular emergency-response region; the dispatcher must continuously
know which (rectangular) communities every car covers.

This example runs the full two-step pipeline:

1. **Filter step** — a continuous intersection join between the cars'
   coverage MBRs (set A) and the static communities (set B), maintained
   by the MTB-Join engine as cars report position/velocity updates.
2. **Refinement step** — the exact circle-vs-rectangle test from
   :mod:`repro.refine`, applied to the filter survivors.

Run:  python examples/police_dispatch.py
"""

import numpy as np

from repro.core import ContinuousJoinEngine, JoinConfig
from repro.geometry import Box
from repro.objects import MovingObject
from repro.refine import Circle, refine_pairs

CITY = 500.0            # city side length
N_CARS = 25
N_COMMUNITIES = 40
COVERAGE_RADIUS = 18.0  # emergency response radius per car
T_M = 20.0              # cars report at least every 20 ticks
SIM_STEPS = 30


def make_cars(rng: np.random.Generator) -> list:
    cars = []
    for i in range(N_CARS):
        x, y = rng.uniform(0, CITY, size=2)
        angle = rng.uniform(0, 2 * np.pi)
        speed = rng.uniform(0.5, 3.0)
        # The car's *coverage disk* is what joins against communities;
        # its MBR is the disk's bounding square.
        r = COVERAGE_RADIUS
        cars.append(
            MovingObject(
                i,
                Box(x - r, x + r, y - r, y + r),
                speed * np.cos(angle),
                speed * np.sin(angle),
                t_ref=0.0,
            )
        )
    return cars


def make_communities(rng: np.random.Generator) -> list:
    communities = []
    for i in range(N_COMMUNITIES):
        x, y = rng.uniform(0, CITY - 60, size=2)
        w, h = rng.uniform(20, 60, size=2)
        # Communities do not move: velocity (0, 0).
        communities.append(
            MovingObject(10_000 + i, Box(x, x + w, y, y + h), 0.0, 0.0, t_ref=0.0)
        )
    return communities


def main() -> None:
    rng = np.random.default_rng(5)
    cars = make_cars(rng)
    communities = make_communities(rng)
    coverage_shapes = {car.oid: Circle(0.0, 0.0, COVERAGE_RADIUS) for car in cars}

    engine = ContinuousJoinEngine.create(
        cars, communities, algorithm="mtb", config=JoinConfig(t_m=T_M)
    )
    engine.run_initial_join()

    for t in range(1, SIM_STEPS + 1):
        engine.tick(float(t))
        # A few cars report new headings each tick; everyone reports at
        # least every T_M ticks (here: random ~25% per tick).
        for car in list(engine.objects_a.values()):
            if rng.random() < 0.25 or t - car.t_ref >= T_M:
                pos = car.mbr_at(float(t))
                angle = rng.uniform(0, 2 * np.pi)
                speed = rng.uniform(0.5, 3.0)
                engine.apply_update(
                    MovingObject(
                        car.oid, pos,
                        speed * np.cos(angle), speed * np.sin(angle),
                        t_ref=float(t),
                    )
                )
        # Communities stand still, but the T_M contract binds them too:
        # each re-reports its unchanged box once T_M has passed.
        for community in list(engine.objects_b.values()):
            if t - community.t_ref >= T_M:
                engine.apply_update(
                    MovingObject(community.oid, community.mbr_at(float(t)), 0.0, 0.0, t_ref=float(t))
                )

        mbr_pairs = engine.result_at()
        exact_pairs = refine_pairs(
            mbr_pairs,
            engine.objects_a,
            engine.objects_b,
            coverage_shapes,
            {},  # communities use their MBR rectangles
            float(t),
        )
        if t % 5 == 0:
            dropped = len(mbr_pairs) - len(exact_pairs)
            print(f"t={t:3d}: {len(exact_pairs):3d} car→community coverages "
                  f"(filter step: {len(mbr_pairs)}, refinement dropped {dropped})")

    # Final dispatch table for a few cars.
    print("\ncoverage at end of simulation:")
    final = refine_pairs(
        engine.result_at(), engine.objects_a, engine.objects_b,
        coverage_shapes, {}, engine.now,
    )
    by_car: dict = {}
    for car_id, community_id in final:
        by_car.setdefault(car_id, []).append(community_id - 10_000)
    for car_id in sorted(by_car)[:8]:
        print(f"  car {car_id:2d} covers communities {sorted(by_car[car_id])}")


if __name__ == "__main__":
    main()
