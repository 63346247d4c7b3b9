"""Delta-ledger cost: maintenance overhead and enumeration rate.

Standalone script (not a pytest-benchmark figure): drives the serial
and columnar engines over the same workload with ``deltas`` off and on
and reports

* **overhead** — wall-clock ratio of the deltas-on run over the
  deltas-off run.  The write path is one plain-scalar append per store
  transition under the serial engine and one handed-over plane set per
  store mutation under the columnar one, so the ratio must stay under
  ``OVERHEAD_FLOOR``;
* **enumeration rate** — events per second when re-enumerating every
  tick's netted stream ``REREAD_ROUNDS`` times.  Events are netted and
  materialized once per tick, on first read, and memoized, so
  re-enumeration is constant-delay tuple iteration and must clear
  ``ENUM_FLOOR_EVS``;
* a fold-throughput figure (events applied per second rebuilding the
  store via :func:`repro.deltas.fold_events`) for context, unfloored.

This is the small cell (n=400 per side, ~240 events per tick): it
cannot see a cost that grows with the store.  ``bench_scale.py`` runs
the same on/off comparison at 100k per side.

Results go to ``BENCH_deltas.json`` at the repo root; the script exits
non-zero when a floor is missed.  ``REPRO_DELTAS_SMOKE=1`` runs the
serial engine only (the CI ``deltas`` job).

Run with::

    PYTHONPATH=src python benchmarks/bench_deltas.py
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

from repro.core import ColumnarJoinEngine, ContinuousJoinEngine, JoinConfig
from repro.deltas import fold_events
from repro.metrics import monotonic_clock
from repro.workloads import UpdateStream, make_workload

N_PER_SIDE = 400  # 800 moving objects in the join
STEPS = 8
T_M = 10.0
MAX_SPEED = 4.0
OBJECT_SIZE_PCT = 1.5
SEED = 20080407  # ICDE 2008
ALGORITHM = "mtb"
REREAD_ROUNDS = 50
REPEATS = 3  # best-of, to shave scheduler noise off the ratio

OVERHEAD_FLOOR = 2.0  # deltas-on wall clock <= 2.0x deltas-off
ENUM_FLOOR_EVS = 50_000.0  # re-enumeration events/s


def make_ticks(scenario):
    stream = UpdateStream(scenario, seed=SEED + 1)
    return list(stream.by_timestamp(t_start=1.0, t_end=float(STEPS)))


def build(kind: str, deltas: bool):
    scenario = make_workload(
        N_PER_SIDE,
        "uniform",
        max_speed=MAX_SPEED,
        object_size_pct=OBJECT_SIZE_PCT,
        t_m=T_M,
        seed=SEED,
    )
    config = JoinConfig(t_m=T_M, node_capacity=8, deltas=deltas)
    cls = ContinuousJoinEngine if kind == "serial" else ColumnarJoinEngine
    return scenario, cls(scenario.set_a, scenario.set_b, ALGORITHM, config)


def run_once(kind: str, deltas: bool) -> float:
    """Wall-clock seconds for one full maintenance run."""
    scenario, engine = build(kind, deltas)
    ticks = make_ticks(scenario)
    start = monotonic_clock()
    engine.run_initial_join()
    for t, batch in ticks:
        if kind == "serial":
            engine.tick(t)
            for obj in batch:
                engine.apply_update(obj)
        else:
            engine.tick(t)
            engine.apply_updates(batch)
    engine.prune_expired()
    return monotonic_clock() - start


def measure_enumeration(kind: str) -> dict:
    """Event count, re-enumeration rate, and fold throughput."""
    scenario, engine = build(kind, deltas=True)
    engine.run_initial_join()
    for t, batch in make_ticks(scenario):
        engine.tick(t)
        if kind == "serial":
            for obj in batch:
                engine.apply_update(obj)
        else:
            engine.apply_updates(batch)
    ledger = engine.ledger
    n_events = sum(len(ledger.events_at(t)) for t in ledger.ticks())
    start = monotonic_clock()
    seen = 0
    for _ in range(REREAD_ROUNDS):
        for t in ledger.ticks():
            for event in ledger.events_at(t):
                seen += event.sign  # touch the event, keep the loop honest
    enum_s = monotonic_clock() - start
    start = monotonic_clock()
    view = fold_events(ledger)
    fold_s = monotonic_clock() - start
    store = engine._strategy.store if kind == "serial" else engine.store
    assert view.rows() == store.interval_rows(), "fold drifted from the store"
    return {
        "events": n_events,
        "net_balance": seen // REREAD_ROUNDS,
        "enum_events_per_s": round(REREAD_ROUNDS * n_events / max(enum_s, 1e-9)),
        "fold_events_per_s": round(n_events / max(fold_s, 1e-9)),
    }


def run_engine(kind: str) -> dict:
    off_s = min(run_once(kind, deltas=False) for _ in range(REPEATS))
    on_s = min(run_once(kind, deltas=True) for _ in range(REPEATS))
    row = {
        "engine": kind,
        "off_s": round(off_s, 4),
        "on_s": round(on_s, 4),
        "overhead": round(on_s / off_s, 3),
    }
    row.update(measure_enumeration(kind))
    print(
        f"{kind:>8}: {row['events']} events, overhead {row['overhead']:.2f}x, "
        f"enum {row['enum_events_per_s']:,} ev/s, "
        f"fold {row['fold_events_per_s']:,} ev/s"
    )
    return row


def main() -> int:
    smoke = os.environ.get("REPRO_DELTAS_SMOKE", "") not in ("", "0")
    kinds = ["serial"] if smoke else ["serial", "columnar"]
    rows = [run_engine(kind) for kind in kinds]

    out = {
        "n_per_side": N_PER_SIDE,
        "steps": STEPS,
        "algorithm": ALGORITHM,
        "overhead_floor": OVERHEAD_FLOOR,
        "enum_floor_events_per_s": ENUM_FLOOR_EVS,
        "rows": rows,
    }
    path = Path(__file__).resolve().parent.parent / "BENCH_deltas.json"
    path.write_text(json.dumps(out, indent=2))
    print(f"wrote {path}")

    failed = False
    for row in rows:
        if row["overhead"] > OVERHEAD_FLOOR:
            print(
                f"FLOOR MISSED: {row['engine']} ledger overhead "
                f"{row['overhead']:.2f}x > {OVERHEAD_FLOOR}x"
            )
            failed = True
        if row["enum_events_per_s"] < ENUM_FLOOR_EVS:
            print(
                f"FLOOR MISSED: {row['engine']} enumeration "
                f"{row['enum_events_per_s']:,} ev/s < {ENUM_FLOOR_EVS:,.0f}"
            )
            failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
