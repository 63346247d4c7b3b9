"""Crash-recovery cost: checkpoint-interval sweep on the sharded engine.

Standalone script (not a pytest-benchmark figure): drives a 4-shard /
4-worker join over a 2k-object workload with a deterministic kill fault
(every worker dies at its Nth tick command), so the supervisor performs
one full respawn + checkpoint/replay recovery per slot.  Sweeping the
checkpoint interval shows the tradeoff the fault-tolerance design
makes: short intervals mean frequent checkpoint traffic but short
replay logs; long intervals the reverse.  Results go to
``BENCH_recovery.json`` at the repo root.

The baseline is a *cold shard build*: constructing the same sharded
engine from scratch, worker processes included, and dividing by the
shard count (one shard per slot).  That is what recovery would cost
with no checkpoint/replay machinery at all (start a process, rebuild
from the original objects, losing all accumulated state).  The process
start belongs in the baseline: a columnar shard of this size builds in
milliseconds, so starting its worker is most of either path.

Acceptance floor (the fault-tolerance PR criterion): mean recovery of
one worker slot must stay within ``RECOVERY_FLOOR`` x one cold shard
build at the default checkpoint interval.  The script exits non-zero
when the floor is missed.

``REPRO_RECOVERY_SMOKE=1`` runs only the default-interval cell (the CI
``chaos`` job).

Run with::

    PYTHONPATH=src python benchmarks/bench_recovery.py
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

from repro.core import JoinConfig
from repro.metrics import monotonic_clock
from repro.par import ShardedJoinEngine
from repro.workloads import UpdateStream, make_workload

N_PER_SIDE = 1000  # 2k moving objects in the join
STEPS = 8
T_M = 60.0
MAX_SPEED = 2.0
OBJECT_SIZE_PCT = 0.1
SEED = 20080407  # ICDE 2008
ALGORITHM = "tc"
SHARDS = 4
WORKERS = 4
KILL_NTH = 4  # each worker dies at its 4th tick command
INTERVALS = [2, 4, 8, 16]
DEFAULT_INTERVAL = 8

RECOVERY_FLOOR = 2.0  # x one cold shard build


def make_ticks(scenario):
    stream = UpdateStream(scenario, seed=SEED + 1)
    return list(stream.by_timestamp(t_start=1.0, t_end=float(STEPS)))


def base_config(**overrides) -> JoinConfig:
    return JoinConfig(
        t_m=T_M,
        shard_timeout=60.0,
        shard_heartbeat=0.01,
        **overrides,
    )


def cold_shard_build_s(scenario) -> float:
    """Seconds to bring one slot (process + shard) up from nothing."""
    start = monotonic_clock()
    engine = ShardedJoinEngine(
        scenario.set_a, scenario.set_b, ALGORITHM, base_config(),
        shards=SHARDS, workers=WORKERS,
    )
    engine.run_initial_join()
    elapsed = monotonic_clock() - start
    engine.close()
    return elapsed / SHARDS


def run_case(scenario, ticks, interval: int) -> dict:
    config = base_config(
        checkpoint_interval=interval,
        faults=f"kill:op=tick,nth={KILL_NTH}",
    )
    engine = ShardedJoinEngine(
        scenario.set_a, scenario.set_b, ALGORITHM, config,
        shards=SHARDS, workers=WORKERS,
    )
    engine.run_initial_join()
    start = monotonic_clock()
    for t, batch in ticks:
        engine.step(t, batch)
    run_s = monotonic_clock() - start
    stats = engine.fault_stats()
    engine.close()
    recoveries = max(1, stats.recoveries)
    return {
        "checkpoint_interval": interval,
        "run_s": round(run_s, 3),
        "worker_deaths": stats.worker_deaths,
        "recoveries": stats.recoveries,
        "respawns": stats.respawns,
        "checkpoints": stats.checkpoints,
        "replayed_commands": stats.replayed_commands,
        "recovery_total_s": round(stats.recovery_seconds, 4),
        "recovery_mean_s": round(stats.recovery_seconds / recoveries, 4),
    }


def main() -> int:
    smoke = os.environ.get("REPRO_RECOVERY_SMOKE", "") not in ("", "0")
    intervals = [DEFAULT_INTERVAL] if smoke else INTERVALS

    scenario = make_workload(
        N_PER_SIDE,
        "uniform",
        max_speed=MAX_SPEED,
        object_size_pct=OBJECT_SIZE_PCT,
        t_m=T_M,
        seed=SEED,
    )
    ticks = make_ticks(scenario)

    cold_s = cold_shard_build_s(scenario)
    print(f"cold shard build: {cold_s:.3f}s (one of {SHARDS} shards)")

    rows = []
    for interval in intervals:
        row = run_case(scenario, ticks, interval)
        rows.append(row)
        print(
            f"interval {interval:3d}: {row['recoveries']} recoveries, "
            f"mean {row['recovery_mean_s']:.3f}s, "
            f"{row['replayed_commands']} cmds replayed, "
            f"{row['checkpoints']} checkpoints"
        )

    failures = []
    gate = next(
        (r for r in rows if r["checkpoint_interval"] == DEFAULT_INTERVAL),
        rows[-1],
    )
    if gate["recoveries"] < 1:
        failures.append("the kill fault never fired: nothing was measured")
    elif gate["recovery_mean_s"] > RECOVERY_FLOOR * cold_s:
        failures.append(
            f"mean recovery {gate['recovery_mean_s']:.3f}s at interval "
            f"{gate['checkpoint_interval']} > {RECOVERY_FLOOR}x cold shard "
            f"build ({cold_s:.3f}s)"
        )

    out = Path(__file__).resolve().parent.parent / "BENCH_recovery.json"
    out.write_text(
        json.dumps(
            {
                "description": (
                    "shard crash-recovery cost vs checkpoint interval"
                ),
                "workload": {
                    "n_per_side": N_PER_SIDE,
                    "distribution": "uniform",
                    "algorithm": ALGORITHM,
                    "t_m": T_M,
                    "max_speed": MAX_SPEED,
                    "object_size_pct": OBJECT_SIZE_PCT,
                    "steps": STEPS,
                    "seed": SEED,
                },
                "topology": {"shards": SHARDS, "workers": WORKERS},
                "fault": f"kill:op=tick,nth={KILL_NTH}",
                "smoke": smoke,
                "cold_shard_build_s": round(cold_s, 4),
                "floors": {"recovery_vs_cold_build": RECOVERY_FLOOR},
                "results": rows,
                "passed": not failures,
            },
            indent=2,
        )
        + "\n"
    )
    print(f"\nwrote {out}")
    for failure in failures:
        print(f"FLOOR MISSED: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
