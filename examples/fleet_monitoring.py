#!/usr/bin/env python
"""Fleet collision monitoring: a continuous *self*-join with alerting.

A delivery fleet of autonomous vehicles shares one airspace/roadspace.
The operations center needs, at every timestamp, which pairs of
vehicles' safety envelopes intersect — a continuous self-join of one
moving-object set — and wants a log entry the moment a conflict starts
or clears, not a nightly dump of the full answer.

Demonstrates:

* :class:`repro.core.ContinuousSelfJoinEngine` (interest management on
  a single dataset);
* delta-based alerting: two set differences between consecutive
  answers give the pairs that entered and left;
* per-bucket statistics of the MTB forest behind the self-join
  (:func:`repro.index.collect_forest_stats`).

Run:  python examples/fleet_monitoring.py
"""

import numpy as np

from repro.core import ContinuousSelfJoinEngine, JoinConfig
from repro.geometry import Box
from repro.index import collect_forest_stats
from repro.objects import MovingObject

N_VEHICLES = 200
AREA = 400.0
ENVELOPE = 6.0       # safety envelope half-side
T_M = 15.0
SIM_STEPS = 40


def make_fleet(rng: np.random.Generator) -> list:
    fleet = []
    for i in range(N_VEHICLES):
        x, y = rng.uniform(0, AREA, size=2)
        angle = rng.uniform(0, 2 * np.pi)
        speed = rng.uniform(0.5, 2.5)
        fleet.append(
            MovingObject(
                i,
                Box(x - ENVELOPE, x + ENVELOPE, y - ENVELOPE, y + ENVELOPE),
                speed * np.cos(angle),
                speed * np.sin(angle),
                t_ref=0.0,
            )
        )
    return fleet


def main() -> None:
    rng = np.random.default_rng(99)
    engine = ContinuousSelfJoinEngine(make_fleet(rng), JoinConfig(t_m=T_M))
    engine.run_initial_join()
    last = engine.result_at()
    print(f"t=0: {len(last)} conflicting pairs at start\n")

    conflict_log = []
    for t in range(1, SIM_STEPS + 1):
        engine.tick(float(t))
        for vehicle in list(engine.objects.values()):
            if rng.random() < 0.2 or t - vehicle.t_ref >= T_M:
                pos = vehicle.mbr_at(float(t))
                angle = rng.uniform(0, 2 * np.pi)
                speed = rng.uniform(0.5, 2.5)
                engine.apply_update(
                    MovingObject(
                        vehicle.oid, pos,
                        speed * np.cos(angle), speed * np.sin(angle),
                        t_ref=float(t),
                    )
                )
        current = engine.result_at()
        entered, left = current - last, last - current
        last = current
        for pair in sorted(entered):
            conflict_log.append((t, "CONFLICT", pair))
        for pair in sorted(left):
            conflict_log.append((t, "clear", pair))

    print(f"{len(conflict_log)} alert events over {SIM_STEPS} timestamps; last 8:")
    for t, kind, (a, b) in conflict_log[-8:]:
        print(f"  t={t:3d}  {kind:8s}  vehicles {a} and {b}")

    busiest = max(
        engine.objects,
        key=lambda oid: len(engine.partners_of(oid)),
        default=None,
    )
    print(f"\nbusiest vehicle: {busiest} "
          f"(conflicts with {sorted(engine.partners_of(busiest))})")

    print()
    stats = collect_forest_stats(engine.forest, engine.now)
    for bucket, s in stats.items():
        print(f"bucket {bucket}: {s.object_count} vehicles, height {s.height}, "
              f"leaf fill {s.avg_leaf_fill:.0%}")


if __name__ == "__main__":
    main()
