"""Scalar vs. vectorized pair-test throughput (the kernels PR criterion).

Standalone script: times the three kernelized call sites — all-pairs
constraint grid, plane sweep, and the IC entry filter — on seeded
random box batches of growing size, and writes the measurements to
``BENCH_kernels.json`` at the repo root.
The scalar side is the reference in :mod:`repro.geometry.plane_sweep`;
the vectorized side packs its input with ``KineticBatch.from_boxes``
inside the timed call, as a caller holding kinetic boxes must.

Run with::

    PYTHONPATH=src python benchmarks/bench_kernels.py

The acceptance bar is a >= 3x speedup for the vectorized path on
batches of 64 boxes and up; the script exits non-zero if any such
configuration misses it.  CI's ``scale`` job runs it.
"""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path

from repro.metrics import monotonic_clock

from repro.geometry import (
    Box,
    KineticBatch,
    KineticBox,
    all_pairs_intersection,
    batch_all_pairs_intersection,
    batch_filter_against,
    batch_ps_intersection,
    intersection_interval,
    ps_intersection,
)

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


def packed(kernel):
    """``kernel`` called on kinetic boxes, packing both sides per call."""
    return lambda boxes_a, boxes_b, t0, t1: kernel(
        KineticBatch.from_boxes(boxes_a), KineticBatch.from_boxes(boxes_b), t0, t1
    )


def bench_pair(scalar_fn, vector_fn, boxes_a, boxes_b):
    t0, t1 = WINDOW
    scalar = timed(lambda: scalar_fn(boxes_a, boxes_b, t0, t1))
    vector = timed(lambda: vector_fn(boxes_a, boxes_b, t0, t1))
    return scalar, vector


def bench_filter(boxes, probe):
    t0, t1 = WINDOW

    def scalar_filter():
        return [kb for kb in boxes if intersection_interval(kb, probe, t0, t1) is not None]

    batch = KineticBatch.from_boxes(boxes)

    def vector_filter():
        return batch_filter_against(batch, probe, t0, t1)

    return timed(scalar_filter), timed(vector_filter)


def main() -> int:
    rng = random.Random(20080405)
    rows = []
    failures = []
    for n in SIZES:
        boxes_a = make_boxes(rng, n)
        boxes_b = make_boxes(rng, n)
        for name, (scalar_s, vector_s) in {
            "all_pairs": bench_pair(
                all_pairs_intersection, packed(batch_all_pairs_intersection),
                boxes_a, boxes_b,
            ),
            "plane_sweep": bench_pair(
                ps_intersection, packed(batch_ps_intersection), boxes_a, boxes_b
            ),
            "ic_filter": bench_filter(boxes_a, boxes_b[0]),
        }.items():
            speedup = scalar_s / vector_s if vector_s > 0 else float("inf")
            rows.append(
                {
                    "kernel": name,
                    "batch_size": n,
                    "scalar_s": scalar_s,
                    "vectorized_s": vector_s,
                    "speedup": round(speedup, 2),
                    "scalar_pairs_per_s": round(n * n / scalar_s)
                    if name != "ic_filter"
                    else round(n / scalar_s),
                    "vectorized_pairs_per_s": round(n * n / vector_s)
                    if name != "ic_filter"
                    else round(n / vector_s),
                }
            )
            print(
                f"{name:12s} n={n:4d}  scalar {scalar_s * 1e3:8.3f} ms  "
                f"vector {vector_s * 1e3:8.3f} ms  speedup {speedup:6.1f}x"
            )
            if n >= FLOOR_FROM and speedup < SPEEDUP_FLOOR:
                failures.append((name, n, speedup))

    out = Path(__file__).resolve().parent.parent / "BENCH_kernels.json"
    out.write_text(
        json.dumps(
            {
                "description": "scalar vs vectorized pair-test throughput",
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
        for name, n, speedup in failures:
            print(f"FAIL: {name} n={n} speedup {speedup:.1f}x < {SPEEDUP_FLOOR}x")
        return 1
    print(f"all batches >= {FLOOR_FROM} boxes beat the {SPEEDUP_FLOOR}x floor")
    return 0


if __name__ == "__main__":
    sys.exit(main())
