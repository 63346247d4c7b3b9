"""Maintenance-tick throughput: serial tree engine vs sharded.

Standalone script (not a pytest-benchmark figure): drives the same
Figure-13-style maintenance workload — N objects per side, one
same-timestamp update batch per tick — through three engine
configurations and writes the measurements to ``BENCH_parallel.json``
at the repo root:

- ``serial``        one :meth:`apply_update` call per object, the tree
  engine's (only) maintenance path;
- ``sharded K/0``   :class:`~repro.par.ShardedJoinEngine`, K shards
  executed in-process;
- ``sharded K/W``   the same, fanned out to W pipe-connected worker
  processes via the fused :meth:`~repro.par.ShardedJoinEngine.step`.

All three produce bit-exact answers (enforced by the differential suite
in ``tests/join/test_differential.py`` and ``tests/par``); this script
measures only throughput.  Configurations are timed in interleaved
rounds (every mode once per round, best-of across rounds) so drift in
machine load biases no single mode.

Run with::

    PYTHONPATH=src python benchmarks/bench_parallel.py

Acceptance floor (the parallel-engine PR criterion): the sharded engine
at 4 workers / 4 shards must reach >= 2x the serial per-update
throughput.  The script exits non-zero if the floor is missed.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from repro.core import ContinuousJoinEngine, JoinConfig
from repro.metrics import monotonic_clock
from repro.par import ShardedJoinEngine
from repro.workloads import UpdateStream, make_workload

N_PER_SIDE = 1000
STEPS = 8
T_M = 60.0
MAX_SPEED = 2.0
OBJECT_SIZE_PCT = 0.1
SEED = 20080407  # ICDE 2008
ALGORITHM = "tc"
SHARDS = 4
WORKERS = 4
ROUNDS = 4

SHARDED_FLOOR = 2.0


def make_ticks(scenario):
    """The pre-materialized ``(t, batch)`` feed every mode replays."""
    stream = UpdateStream(scenario, seed=SEED + 1)
    return list(stream.by_timestamp(t_start=1.0, t_end=float(STEPS)))


def run_serial(scenario, ticks) -> float:
    config = JoinConfig(t_m=T_M)
    engine = ContinuousJoinEngine.create(
        scenario.set_a, scenario.set_b, algorithm=ALGORITHM, config=config
    )
    engine.run_initial_join()
    start = monotonic_clock()
    for t, batch in ticks:
        engine.tick(t)
        for obj in batch:
            engine.apply_update(obj)
        engine.result_at(t)
    return monotonic_clock() - start


def run_sharded(scenario, ticks, workers: int) -> float:
    config = JoinConfig(t_m=T_M)
    with ShardedJoinEngine(
        scenario.set_a,
        scenario.set_b,
        algorithm=ALGORITHM,
        config=config,
        shards=SHARDS,
        workers=workers,
    ) as engine:
        engine.run_initial_join()
        start = monotonic_clock()
        for t, batch in ticks:
            engine.step(t, batch)
        return monotonic_clock() - start


def main() -> int:
    scenario = make_workload(
        N_PER_SIDE,
        "uniform",
        max_speed=MAX_SPEED,
        object_size_pct=OBJECT_SIZE_PCT,
        t_m=T_M,
        seed=SEED,
    )
    ticks = make_ticks(scenario)
    n_updates = sum(len(batch) for _t, batch in ticks)
    print(
        f"workload: {N_PER_SIDE}/side, {STEPS} ticks, "
        f"{n_updates} updates, algorithm={ALGORITHM}"
    )

    modes = {
        "serial": lambda: run_serial(scenario, ticks),
        f"sharded {SHARDS}/0": lambda: run_sharded(scenario, ticks, 0),
        f"sharded {SHARDS}/{WORKERS}": lambda: run_sharded(
            scenario, ticks, WORKERS
        ),
    }
    best = {name: float("inf") for name in modes}
    for rnd in range(ROUNDS):
        for name, fn in modes.items():
            elapsed = fn()
            best[name] = min(best[name], elapsed)
            print(f"  round {rnd}: {name:12s} {elapsed:7.3f} s")

    serial_s = best["serial"]
    rows = []
    for name, elapsed in best.items():
        speedup = serial_s / elapsed
        rows.append(
            {
                "mode": name,
                "best_s": round(elapsed, 4),
                "speedup_vs_serial": round(speedup, 3),
                "ticks_per_s": round(STEPS / elapsed, 2),
                "updates_per_s": round(n_updates / elapsed, 1),
            }
        )
        print(f"{name:12s} best {elapsed:7.3f} s  speedup {speedup:5.2f}x")

    by_mode = {row["mode"]: row for row in rows}
    failures = []
    sharded_key = f"sharded {SHARDS}/{WORKERS}"
    sharded_speedup = by_mode[sharded_key]["speedup_vs_serial"]
    if sharded_speedup < SHARDED_FLOOR:
        failures.append(f"{sharded_key} {sharded_speedup:.2f}x < {SHARDED_FLOOR}x")

    out = Path(__file__).resolve().parent.parent / "BENCH_parallel.json"
    out.write_text(
        json.dumps(
            {
                "description": "maintenance-tick throughput, serial vs sharded",
                "workload": {
                    "n_per_side": N_PER_SIDE,
                    "steps": STEPS,
                    "updates": n_updates,
                    "algorithm": ALGORITHM,
                    "t_m": T_M,
                    "max_speed": MAX_SPEED,
                    "object_size_pct": OBJECT_SIZE_PCT,
                    "seed": SEED,
                },
                "shards": SHARDS,
                "workers": WORKERS,
                "rounds": ROUNDS,
                "floors": {"sharded": SHARDED_FLOOR},
                "results": rows,
                "passed": not failures,
            },
            indent=2,
        )
        + "\n"
    )
    print(f"\nwrote {out}")
    if failures:
        for failure in failures:
            print(f"FAIL: {failure}")
        return 1
    print(f"floor met: sharded {SHARDS}/{WORKERS} >= {SHARDED_FLOOR}x")
    return 0


if __name__ == "__main__":
    sys.exit(main())
