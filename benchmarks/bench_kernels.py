"""Scalar vs. compiled pair-test throughput: the one vectorized join left.

Standalone script: times the columnar engine's pair test, the compiled
``batch_sweep_join``, against the scalar plane sweep it reproduces,
``ps_intersection`` (the tree engines' PSIntersection), on seeded
random box batches of growing size, and writes the measurements to
``BENCH_kernels.json`` at the repo root.  Both sweep axis 0, as the
columnar engine does.  The compiled side packs its input with
``KineticBatch.from_boxes`` inside the timed call, as a caller holding
kinetic boxes must.

Run with::

    PYTHONPATH=src python benchmarks/bench_kernels.py

The acceptance bar is a >= 3x speedup for the compiled join on batches
of 64 boxes a side and up; the script exits non-zero if any such
configuration misses it.  CI's ``scale`` job runs it.
"""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path

from repro.geometry import Box, KineticBatch, KineticBox, ps_intersection
from repro.geometry.kernels import batch_sweep_join
from repro.metrics import monotonic_clock

SIZES = [16, 64, 128, 256, 512]
WINDOW = (0.0, 20.0)
SPEEDUP_FLOOR = 3.0
FLOOR_FROM = 64


def make_boxes(rng: random.Random, n: int):
    """Random rigid movers; density scales so selectivity stays sane."""
    space = 60.0 * (n / 64.0) ** 0.5
    boxes = []
    for _ in range(n):
        x, y = rng.uniform(0, space), rng.uniform(0, space)
        w, h = rng.uniform(0.1, 5.0), rng.uniform(0.1, 5.0)
        vx, vy = rng.uniform(-3, 3), rng.uniform(-3, 3)
        boxes.append(KineticBox.rigid(Box(x, x + w, y, y + h), vx, vy, rng.uniform(0, 2)))
    return boxes


def timed(fn, min_repeat: int = 3, min_time: float = 0.15) -> float:
    """Best-of wall time per call, repeated until the clock is trustworthy."""
    best = float("inf")
    repeats = 0
    start_all = monotonic_clock()
    while repeats < min_repeat or monotonic_clock() - start_all < min_time:
        start = monotonic_clock()
        fn()
        best = min(best, monotonic_clock() - start)
        repeats += 1
    return best


def compiled(boxes_a, boxes_b, t0, t1):
    """The compiled join on kinetic boxes, packing both sides per call."""
    return batch_sweep_join(
        KineticBatch.from_boxes(boxes_a), KineticBatch.from_boxes(boxes_b), t0, t1, dim=0
    )


def scalar(boxes_a, boxes_b, t0, t1):
    return ps_intersection(boxes_a, boxes_b, t0, t1, dim=0)


def main() -> int:
    rng = random.Random(20080405)
    rows = []
    failures = []
    for n in SIZES:
        boxes_a = make_boxes(rng, n)
        boxes_b = make_boxes(rng, n)
        scalar_s = timed(lambda: scalar(boxes_a, boxes_b, *WINDOW))
        compiled_s = timed(lambda: compiled(boxes_a, boxes_b, *WINDOW))
        speedup = scalar_s / compiled_s if compiled_s > 0 else float("inf")
        rows.append(
            {
                "kernel": "sweep_join",
                "batch_size": n,
                "scalar_s": scalar_s,
                "compiled_s": compiled_s,
                "speedup": round(speedup, 2),
                "scalar_pairs_per_s": round(n * n / scalar_s),
                "compiled_pairs_per_s": round(n * n / compiled_s),
            }
        )
        print(
            f"sweep_join n={n:4d}  scalar {scalar_s * 1e3:8.3f} ms  "
            f"compiled {compiled_s * 1e3:8.3f} ms  speedup {speedup:6.1f}x"
        )
        if n >= FLOOR_FROM and speedup < SPEEDUP_FLOOR:
            failures.append((n, speedup))

    out = Path(__file__).resolve().parent.parent / "BENCH_kernels.json"
    out.write_text(
        json.dumps(
            {
                "description": "scalar ps_intersection vs compiled batch_sweep_join",
                "window": list(WINDOW),
                "speedup_floor": SPEEDUP_FLOOR,
                "floor_applies_from_batch_size": FLOOR_FROM,
                "results": rows,
            },
            indent=2,
        )
        + "\n"
    )
    print(f"\nwrote {out}")
    if failures:
        for n, speedup in failures:
            print(f"FAIL: sweep_join n={n} speedup {speedup:.1f}x < {SPEEDUP_FLOOR}x")
        return 1
    print(f"all batches >= {FLOOR_FROM} boxes beat the {SPEEDUP_FLOOR}x floor")
    return 0


if __name__ == "__main__":
    sys.exit(main())
