"""Scaling study: the columnar engine from 1k to 100k objects per side.

Standalone script.  For each dataset size ``n`` it builds a uniform
workload with a constant number of objects per unit area (space side
``S = 1000 * sqrt(n/1000)``), runs the columnar engine through a fixed
number of maintenance ticks fed by the vectorized update stream, and
records build / initial-join / tick throughput to ``BENCH_scale.json``
at the repo root.

What it measures: objects are ``OBJECT_SIZE_PCT`` percent of ``S`` on a
side, so they grow with the space and the *coverage* — the summed
object area over the space's, ``n * (pct/100)**2`` — grows linearly
with ``n``: 0.001 / 0.01 / 0.1 / 1.0 at 1k / 10k / 100k / 1M per side.
The partners an object meets grow with it, so a cell 10x larger holds
more than 10x the result: every join row reports ``rows_per_object``
(stored result rows over ``n``: 0.23 / 0.72 / 2.6 / 11 at those sizes)
beside its times, and a tick that costs 13x at 10x the objects is the
workload's doing before it is the engine's.

Every cell runs in its own forked child process, so ``peak_rss_mb`` is
a *per-cell* measurement (``ru_maxrss`` is monotone within a process;
in one process the largest cell would mask all the others).  Cells also
report ``store_mb``, the result store's own resident bytes via
``approx_bytes()``.  Every engine keeps a ``ColumnResultStore``, the
seed (tree) engine included, so the seed row's ``store_mb`` measures
planes like every other row's (the dict-of-lists store that engine
kept until it moved to the tests read 5.4 MiB at 10k per side, where
the planes read 0.3).

The serial columnar cells read each tick's answer as arrays
(``result_planes_at``: two oid planes, ~1 ms at 100k per side); the
``set`` of tuples ``result_at`` builds from them is read once after the
loop and reported as ``read_set_s``, so the tick is the engine's and
the cost of the Python set is its own column.  The ``tc`` cells at 10k
and 100k also read ``result_at(t)`` after the planes every tick, timed
apart from the tick: ``plane_read_ms_p50`` and ``set_read_ms_p50`` are
the two reads' medians (not gated).  The store keeps the answer at the
clock between set reads and builds tuples only for the pairs that
entered or left (``pairs_entered_per_tick`` / ``pairs_left_per_tick``,
over the ticks after the first), so there the first read builds the
whole set and later ones the change, and ``read_set_s`` — a read of an
unchanged answer — is a copy of the kept set; where no set was read per
tick it is the whole build (10-28 ms at 100k).  Every join row carries
``answer_pairs`` and ``answer_digest`` — size and SHA-256 of the last
tick's ``(a, b)``-sorted answer, computed from the planes (from the
sorted set where an engine has only the set) — and rows at the same
``n`` must agree on them.

Beside the ``tc`` row every size has a serial columnar ``mtb`` row
(``columnar/mtb``).  With ``T_M = 60`` a bucket is 30 ticks long, so
over ``STEPS`` ticks every row would sit in bucket 0 and every window
would end together; the row therefore runs ``MTB_STEPS`` ticks, which
leaves two buckets live and hands the sweep join two window ends per
probe (``live_buckets``).  The answer at ``t`` does not depend on the
windows, so its ``answer_pairs`` / ``answer_digest`` must equal those
of a ``tc`` engine fed the same ``MTB_STEPS`` ticks — an extra cell
whose tick is reported as ``tick_mean_tc_s`` on the ``mtb`` row and
that is otherwise not recorded; the stored rows do depend on the
windows, so the row's ``initial_pairs`` / ``final_pairs`` are reported
and not compared.

At n=100k (and at n=10k under ``REPRO_SCALE_SMOKE``) a *deltas-on*
cell repeats the columnar cell with ``JoinConfig(deltas=True)`` and
reads ``deltas(t)`` every tick, so the delta ledger's cost and the
per-event delay are measured at a result size of ~260k rows, ~18k
events a tick (the dense e2e workloads cover 30k rows and 3.8k).
Before reporting it asserts that folding the ledger reproduces the
store and that it ends on the deltas-off cell's ``final_pairs``.  The
smoke cell also reads the answer 1, 5 and 30 ticks ahead and polls 32
oid watches every tick, timed apart from the tick, and reports their
per-tick medians (``lookahead_read_ms_per_tick``,
``oid_polls_ms_per_tick``; not gated): the store keeps each offset's
answer between ticks and the ledger one oid index per closed tick, so
these are the repeated reads' cost of their change.  Its
``deltas_overhead_s`` is the deltas-on mean tick minus the deltas-off
one (``deltas_overhead``, their ratio, is reported beside it); at
n=100k, where that difference is gated, both cells are run
``DELTAS_REPEATS`` times, alternating, and each side enters with its
best run — a cell's mean tick moves ±15% with the neighbours on a
shared host, which only ever adds time.

At the sizes where the serial seed engine is still practical (1k, 10k)
the same pre-materialized update batches are replayed through the
tree engine (:class:`~repro.core.engine.ContinuousJoinEngine`, one
object at a time), so the speedup column compares identical work.  At n=100k a
4-shard cell (every shard a columnar engine) runs beside the serial
columnar engine for the sharded speedup column.

Acceptance floors (the script exits non-zero when missed):

- at n=10k the columnar engine sustains >= ``COLUMNAR_FLOOR``x the
  seed engine's tick throughput;
- at n=100k the mean maintenance tick stays under
  ``TICK_FLOOR_100K_S`` seconds and the initial join under
  ``INITIAL_JOIN_FLOOR_100K_S``;
- at n=10k the initial join runs at most ``EXACT_TESTS_PER_PAIR_CEIL``
  exact pair tests per result pair (``exact_tests_per_pair``: the sweep
  join's filter survivors over ``initial_pairs``) and enumerates at most
  ``STAGE_ONE_PER_PAIR_CEIL`` grid candidates per result pair
  (``stage_one_candidates_per_pair``: the engine's ``pair_tests``) —
  counts, so they repeat exactly and gate CI where a clock on a shared
  runner cannot;
- a serial columnar row and a sharded row at the same ``n`` agree on
  ``initial_pairs``, ``final_pairs`` and the answer's size and digest
  (so do the seed and the deltas-on rows on those they report);
- the ``mtb`` row's answer has the size and digest of the ``tc``
  engine's after the same ticks, and at n=100k it ends with at least
  two buckets live;
- at n=100k the deltas-on tick costs at most
  ``DELTAS_OVERHEAD_CEIL_100K_S`` seconds more than the deltas-off tick,
  and the first ``deltas()`` after the initial join (flush + netting +
  materializing every initial row) returns within
  ``FIRST_DELTAS_CEIL_100K_S`` seconds;
- wherever the deltas-on cell runs, the store flush merges at most
  ``ROWS_MERGED_PER_EVENT_CEIL`` rows per netted event
  (``rows_merged_per_tick`` over ``events_per_tick``): flush work
  tracks the change, not the store — a count, so it repeats exactly
  and gates the CI smoke cell;
- wherever the deltas-on cell runs, the ledger retains at most
  ``LEDGER_BYTES_PER_EVENT_CEIL`` bytes per netted event it holds
  (``ledger_bytes_per_event``: ``DeltaLedger.approx_bytes()`` over the
  events of its retained ticks, read once the clock has moved past the
  last tick, so every tick is closed and packed) — a byte count, so it
  repeats exactly and gates the CI smoke cell too;
- wherever the deltas-on cell runs, the ledger stays flat: after
  ``LEDGER_TICKS`` ticks (the timed ones, then untimed ones with the
  same reads) it holds at most ``LEDGER_BYTES_PER_ROW_CEIL`` bytes per
  store row plus the newest closed and the open tick at 24 B per event
  (``ledger_flat_ceiling_bytes``).  The ledger folds the ticks every
  watch has passed into its oldest retained tick once they hold twice
  its events, so it keeps at most three times the store's rows plus
  those two ticks; a ledger that kept every tick would pass the ceiling
  after about 30 ticks at either size.  The cell also
  reports ``ledger_mb`` and ``gen2_collections``, the full garbage
  collections over its timed ticks (from ``gc.get_stats()``), and
  beside them what a ``gc.callbacks`` probe counts over the same ticks:
  ``gc_gen0_per_tick`` / ``gc_gen1_per_tick`` / ``gc_gen2_per_tick``,
  the collector's passes per tick by generation, and
  ``gc_ms_per_tick``, its time per tick (none of them gated);
- at n=100k the columnar cell's peak RSS stays under
  ``RSS_FLOOR_100K_MB`` MiB;
- at n=100k the 4-shard in-process engine's tick costs at most
  ``SHARDED_OVERHEAD_CEIL_100K_S`` seconds more than the serial
  columnar tick with the set read added (``tick_mean_s + read_set_s``:
  the sharded engine has no plane read, and the gate bounds routing and
  merging, not the Python set both would build; since the stores keep
  the answer at the clock, that read is the serial cell's copy of its
  kept set, as each shard's per-tick read is of its own).  With
  ``workers=0`` there is no CPU parallelism, and
  the sweep join's grid already spares the serial engine the candidates
  spatial tiling would cut, so this bounds routing + merge overhead
  rather than promising a speedup (``speedup_vs_serial`` is reported,
  not gated).

Both overheads are absolute on purpose.  They were ratios (sharded >=
0.6x serial, deltas-on <= 1.5x deltas-off) until the grid halved the
serial tick they divide by: the shards and the ledger got faster too,
yet the ratios read worse.  The sharded ceiling is the slack its ratio
granted at the denominator it was written against (serial tick
0.126 s: 0.126 / 0.6 - 0.126 = 0.084 s); the deltas ceilings started
the same way (0.5 x 0.116 = 0.06 s; 2 s for the first read) and were
tightened to the measurements once the ledger kept planes instead of
tuples: 1.7 x an overhead of 0.021-0.029 s and 2 x a first read of
0.42-0.51 s (two runs, the slower host state taken).

Every serial columnar row records time to first answer in three
parts: ``build_s`` (the engine's constructor over the generated
columns), ``initial_join_s`` and ``first_read_s``, the first
``result_planes_at`` after the initial join, which flushes its rows
into the store (so tick 1 no longer pays that flush).

``REPRO_SCALE_1M=1`` adds the 1M-per-side cell, forked like every
other.  Its objects shrink to ``fixed_coverage_pct(n)`` = 0.1 *
sqrt(100k / n) percent of the side, so coverage and rows per object
stay at the 100k cell's (~2.6), and its last answer is checked against
a sampled brute-force oracle (:func:`sampled_oracle`: seeded random A
objects against all of B) once its peak RSS is read; a disagreement is
a failure, its times are recorded and not gated.
``REPRO_SCALE_SMOKE=1`` runs the n=10k cells (columnar, deltas-on,
seed baseline, and a 2-shard columnar-worker cell with ``workers=2``)
plus a smoke RSS floor.  The CI ``scale`` job sets both.

Run with::

    PYTHONPATH=src python benchmarks/bench_scale.py
"""

from __future__ import annotations

import gc
import hashlib
import json
import math
import multiprocessing
import os
import resource
import sys
from pathlib import Path

import numpy as np

from repro.core import ColumnarJoinEngine, ContinuousJoinEngine, JoinConfig
from repro.deltas import fold_events
from repro.metrics import monotonic_clock
from repro.obs import ObsRecorder
from repro.workloads import VectorUpdateStream, make_workload_arrays

SIZES = [1_000, 10_000, 100_000]
SEED_BASELINE_SIZES = {1_000, 10_000}
STEPS = 6
STEPS_1M = 3
MTB_STEPS = 36  # past one bucket (T_M / 2 = 30 ticks): two window ends per probe
T_M = 60.0
MAX_SPEED = 2.0
OBJECT_SIZE_PCT = 0.1
SEED = 20080407  # ICDE 2008
ALGORITHM = "tc"
N_1M = 1_000_000

COLUMNAR_FLOOR = 3.0  # x seed tick throughput at n=10k
TICK_FLOOR_100K_S = 0.15  # mean maintenance tick ceiling at n=100k
INITIAL_JOIN_FLOOR_100K_S = 1.5  # initial-join ceiling at n=100k
EXACT_TESTS_PER_PAIR_CEIL = 15.0  # exact tests per initial pair at n=10k
STAGE_ONE_PER_PAIR_CEIL = 95.0  # grid candidates per initial pair at n=10k (1.5 x 63.37)
RSS_FLOOR_100K_MB = 450.0  # per-cell peak RSS ceiling at n=100k
RSS_FLOOR_SMOKE_MB = 300.0  # per-cell peak RSS ceiling at n=10k (CI smoke)
SHARDED_OVERHEAD_CEIL_100K_S = 0.084  # sharded tick - serial columnar tick at n=100k
DELTAS_OVERHEAD_CEIL_100K_S = 0.05  # deltas-on tick - deltas-off tick at n=100k
FIRST_DELTAS_CEIL_100K_S = 1.0  # first deltas() after the initial join at n=100k
ROWS_MERGED_PER_EVENT_CEIL = 2.0  # flush rows merged per netted event (a count)
LOOKAHEAD_OFFSETS = (1.0, 5.0, 30.0)  # smoke deltas-on cell: set reads ahead of the clock
OID_WATCHES = 32  # smoke deltas-on cell: oid watches polled every tick
LEDGER_BYTES_PER_EVENT_CEIL = 26.0  # ledger bytes retained per netted event it holds
LEDGER_BYTES_PER_ROW_CEIL = 3 * 24.0  # ledger bytes per store row, beyond its two newest ticks
LEDGER_TICKS = 40  # ticks the deltas-on cell runs before the ledger is weighed
DELTAS_REPEATS = 3  # best-of runs per side behind the gated overhead ratio
ORACLE_SAMPLE = 256  # 1M cell: A objects re-joined by brute force against all of B
TOUCH_MARGIN = 1e-6  # overlap depth within which the oracle accepts either answer


class CollectorProbe:
    """Automatic garbage-collector passes by generation and their time,
    counted from ``gc.callbacks`` while the probe is entered."""

    def __init__(self) -> None:
        self.passes = [0, 0, 0]
        self.seconds = 0.0
        self._start = 0.0

    def __call__(self, phase: str, info: dict) -> None:
        if phase == "start":
            self.passes[info["generation"]] += 1
            self._start = monotonic_clock()
        else:
            self.seconds += monotonic_clock() - self._start

    def __enter__(self) -> "CollectorProbe":
        gc.callbacks.append(self)
        return self

    def __exit__(self, *exc) -> None:
        gc.callbacks.remove(self)

    def per_tick(self, ticks: int) -> dict:
        return {
            **{f"gc_gen{g}_per_tick": round(n / ticks, 2) for g, n in enumerate(self.passes)},
            "gc_ms_per_tick": round(self.seconds * 1e3 / ticks, 3),
        }


def space_for(n: int) -> float:
    """Constant-density space side: 1000 at n=1k, growing with sqrt(n)."""
    return 1000.0 * math.sqrt(n / 1000.0)


def fixed_coverage_pct(n: int) -> float:
    """Object size (percent of the side) that keeps coverage at 100k's."""
    return OBJECT_SIZE_PCT * math.sqrt(100_000 / n)


def workload(n: int, object_size_pct: float = OBJECT_SIZE_PCT):
    return make_workload_arrays(
        n,
        "uniform",
        space_size=space_for(n),
        max_speed=MAX_SPEED,
        object_size_pct=object_size_pct,
        t_m=T_M,
        seed=SEED,
    )


def peak_rss_mb() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return usage / 1024.0  # linux reports KiB


def _cell_child(fn, args, conn):
    try:
        result = fn(*args)
        result.setdefault("peak_rss_mb", round(peak_rss_mb(), 1))
        conn.send(("ok", result))
    except BaseException as exc:  # report, don't hang the parent
        conn.send(("err", f"{type(exc).__name__}: {exc}"))
    finally:
        conn.close()


def run_cell(fn, *args) -> dict:
    """Run one benchmark cell in a forked child for isolated RSS.

    The parent only orchestrates (its resident set is the interpreter
    plus imports), so the child's ``ru_maxrss`` is dominated by the
    cell's own allocations.
    """
    ctx = multiprocessing.get_context("fork")
    parent_conn, child_conn = ctx.Pipe(duplex=False)
    proc = ctx.Process(target=_cell_child, args=(fn, args, child_conn))
    proc.start()
    child_conn.close()
    try:
        status, payload = parent_conn.recv()
    except EOFError:
        proc.join()
        raise RuntimeError(f"benchmark cell died (exit {proc.exitcode})")
    proc.join()
    if status != "ok":
        raise RuntimeError(f"benchmark cell failed: {payload}")
    return payload


def store_mb(store) -> float:
    return round(store.approx_bytes() / (1024.0 * 1024.0), 1)


def answer_fields(a, b) -> dict:
    """Size and digest of one tick's answer, given as ``(a, b)``-sorted planes."""
    digest = hashlib.sha256(a.astype("<i8").tobytes() + b.astype("<i8").tobytes())
    return {"answer_pairs": int(a.shape[0]), "answer_digest": digest.hexdigest()[:16]}


def answer_fields_of_set(pairs) -> dict:
    """:func:`answer_fields` for an engine that answers with a set of tuples."""
    planes = np.array(sorted(pairs), dtype=np.int64).reshape(-1, 2)
    return answer_fields(planes[:, 0], planes[:, 1])


def rows_per_object(rows: int, n: int) -> float:
    """Stored result rows over objects per side (what coverage does to a cell)."""
    return round(rows / n, 2)


def sampled_oracle(arrays, batches, t: float, a: np.ndarray, b: np.ndarray) -> tuple:
    """Problems with the answer planes ``(a, b)`` at ``t`` (empty: agrees),
    and how many pairs the oracle required.

    Brute force for ``ORACLE_SAMPLE`` seeded random A objects against
    every B object, one A object at a time over the whole B side, on
    positions mirrored from the generated arrays and the update
    ``batches`` the cell applied — never read from the engine.  Equal
    squares overlap by ``side - max |lo_a - lo_b|``; a pair within
    ``TOUCH_MARGIN`` of touching may go either way.
    """
    state = {}
    for name, oids, pos, vel in (
        ("a", arrays.oid_a, arrays.pos_a, arrays.vel_a),
        ("b", arrays.oid_b, arrays.pos_b, arrays.vel_b),
    ):
        state[name] = (oids, pos.copy(), vel.copy(), np.zeros(oids.shape[0]))
    for batch in batches:
        for (oids, pos, vel, tref), upd in zip(state.values(), batch):
            rows = np.searchsorted(oids, upd.oid)
            pos[:, rows] = upd.mlo
            vel[:, rows] = upd.vlo
            tref[rows] = upd.tref

    def lo_at(name, rows=slice(None)):
        _, pos, vel, tref = state[name]
        return pos[:, rows] + vel[:, rows] * (t - tref[rows])

    lo_b, oid_b = lo_at("b"), arrays.oid_b
    rng = np.random.default_rng(SEED + 2)
    n = arrays.oid_a.shape[0]
    problems, pairs = [], 0
    for row in np.sort(rng.choice(n, size=min(ORACLE_SAMPLE, n), replace=False)).tolist():
        oid = int(arrays.oid_a[row])
        depth = arrays.object_side - np.abs(lo_at("a", [row]) - lo_b).max(axis=0)
        got = b[a.searchsorted(oid) : a.searchsorted(oid, side="right")]
        must = oid_b[depth > TOUCH_MARGIN]
        pairs += must.shape[0]
        missing = np.setdiff1d(must, got)
        spurious = np.setdiff1d(got, oid_b[depth >= -TOUCH_MARGIN])
        if missing.shape[0] or spurious.shape[0]:
            problems.append(
                f"object {oid}: {missing.shape[0]} missing, {spurious.shape[0]} spurious"
            )
    return problems, pairs


def run_columnar(
    n: int,
    steps: int,
    algorithm: str = ALGORITHM,
    set_reads: bool = False,
    object_size_pct: float = OBJECT_SIZE_PCT,
    oracle: bool = False,
) -> dict:
    """One serial columnar cell; with ``oracle`` its last answer is
    checked by :func:`sampled_oracle` once its peak RSS is read."""
    arrays = workload(n, object_size_pct)
    config = JoinConfig(t_m=T_M)
    t0 = monotonic_clock()
    engine = ColumnarJoinEngine(
        arrays.columns_a(),
        arrays.columns_b(),
        algorithm=algorithm,
        config=config,
    )
    build_s = monotonic_clock() - t0
    t0 = monotonic_clock()
    engine.run_initial_join()
    initial_s = monotonic_clock() - t0
    t0 = monotonic_clock()
    engine.result_planes_at()  # the first answer: flushes the initial join's rows
    first_read_s = monotonic_clock() - t0
    initial_pairs = len(engine.store)
    stream = VectorUpdateStream(arrays, seed=SEED + 1)
    plane_reads, set_reads_s, batches = [], [], []
    t0 = monotonic_clock()
    for step in range(1, steps + 1):
        t = float(step)
        engine.tick(t)
        upd_a, upd_b = stream.updates_at(t)
        engine.apply_update_columns(upd_a, upd_b)
        if oracle:
            batches.append((upd_a, upd_b))
        read = monotonic_clock()
        answer = engine.result_planes_at(t)
        plane_reads.append(monotonic_clock() - read)
        if set_reads:
            read = monotonic_clock()
            engine.result_at(t)
            set_reads_s.append(monotonic_clock() - read)
            if step == 1:
                # The first read enters the whole answer; count from here.
                changed_from = (engine.store.pairs_entered, engine.store.pairs_left)
    # The set reads are reported, not part of the tick.
    tick_s = monotonic_clock() - t0 - sum(set_reads_s)
    t0 = monotonic_clock()
    answer_set = engine.result_at(t)
    read_set_s = monotonic_clock() - t0
    if answer_fields_of_set(answer_set) != answer_fields(*answer):
        raise AssertionError("result_at and result_planes_at disagree")
    buckets = np.concatenate(
        [cols.bucket_keys(config.bucket_length) for cols in (engine.columns_a, engine.columns_b)]
    )
    reads = {}
    if set_reads:
        reads = {
            "plane_read_ms_p50": round(float(np.median(plane_reads)) * 1e3, 3),
            "set_read_ms_p50": round(float(np.median(set_reads_s)) * 1e3, 3),
            "pairs_entered_per_tick": round(
                (engine.store.pairs_entered - changed_from[0]) / (steps - 1), 1
            ),
            "pairs_left_per_tick": round(
                (engine.store.pairs_left - changed_from[1]) / (steps - 1), 1
            ),
        }
    if oracle:
        rss_mb = round(peak_rss_mb(), 1)  # before the oracle's copies
        problems, pairs = sampled_oracle(arrays, batches, t, *answer)
        checked = {
            "peak_rss_mb": rss_mb,
            "object_size_pct": round(object_size_pct, 5),
            "oracle_sample": ORACLE_SAMPLE,
            "oracle_pairs": pairs,
            "oracle_problems": problems,
        }
    return {
        "n_per_side": n,
        "engine": "columnar" if algorithm == ALGORITHM else f"columnar/{algorithm}",
        "steps": steps,
        "updates": engine.update_count,
        "build_s": round(build_s, 4),
        "initial_join_s": round(initial_s, 4),
        "first_read_s": round(first_read_s, 4),
        "initial_pairs": initial_pairs,
        "final_pairs": len(engine.store),
        "rows_per_object": rows_per_object(engine.store.planes()[0].shape[0], n),
        "live_buckets": int(np.unique(buckets).shape[0]),
        **answer_fields(*answer),
        "tick_loop_s": round(tick_s, 4),
        "tick_mean_s": round(tick_s / steps, 4),
        "read_set_s": round(read_set_s, 4),
        **reads,
        "ticks_per_s": round(steps / tick_s, 3),
        "updates_per_s": round(engine.update_count / tick_s, 1),
        "store_mb": store_mb(engine.store),
        **(checked if oracle else {}),
    }


def run_columnar_deltas(n: int, steps: int, fan_reads: bool = False) -> dict:
    """The columnar cell with the delta ledger armed and read every tick.

    With ``fan_reads`` every tick also reads the answer at
    ``LOOKAHEAD_OFFSETS`` ticks ahead and polls ``OID_WATCHES`` oid
    watches — repeated reads, each kept by the store or the ledger
    between ticks — timed apart from the tick and reported per tick.
    """
    arrays = workload(n)
    engine = ColumnarJoinEngine(
        arrays.columns_a(),
        arrays.columns_b(),
        algorithm=ALGORITHM,
        config=JoinConfig(t_m=T_M, deltas=True),
    )
    engine.run_initial_join()
    t0 = monotonic_clock()
    engine.deltas()  # flushes the initial join and nets every row of it
    first_deltas_s = monotonic_clock() - t0
    merged_before = engine.store.rows_merged
    stream = VectorUpdateStream(arrays, seed=SEED + 1)
    watches = []
    if fan_reads:
        oids = np.concatenate([arrays.oid_a, arrays.oid_b])
        watches = [
            engine.watch(oid=int(oid))
            for oid in np.random.default_rng(SEED).choice(oids, OID_WATCHES, replace=False)
        ]
    events, us_per_event, lookahead_ms, polls_ms = [], [], [], []
    fan_s = 0.0  # the fan reads' time, kept out of the tick's
    gen2_before = gc.get_stats()[2]["collections"]
    with CollectorProbe() as collector:  # the timed ticks only
        t0 = monotonic_clock()
        for step in range(1, steps + 1):
            t = float(step)
            engine.tick(t)
            upd_a, upd_b = stream.updates_at(t)
            engine.apply_update_columns(upd_a, upd_b)
            read0 = monotonic_clock()
            tick_events = engine.deltas(t)  # this tick's flush, netting and tuples
            read_s = monotonic_clock() - read0
            answer = engine.result_planes_at(t)
            events.append(len(tick_events))
            us_per_event.append(read_s * 1e6 / max(len(tick_events), 1))
            if fan_reads:
                fan0 = monotonic_clock()
                for h in LOOKAHEAD_OFFSETS:
                    engine.result_at(t + h)
                fan1 = monotonic_clock()
                for watch in watches:
                    watch.poll()
                fan2 = monotonic_clock()
                lookahead_ms.append((fan1 - fan0) * 1e3)
                polls_ms.append((fan2 - fan1) * 1e3)
                fan_s += fan2 - fan0
        tick_s = monotonic_clock() - t0 - fan_s
    gen2 = gc.get_stats()[2]["collections"] - gen2_before
    rss_mb = round(peak_rss_mb(), 1)  # before the check below builds its view
    timed = {
        "updates": engine.update_count,
        "final_pairs": len(engine.store),
        "rows_per_object": rows_per_object(engine.store.planes()[0].shape[0], n),
        "rows_merged_per_tick": round(
            (engine.store.rows_merged - merged_before) / steps, 1
        ),
        "store_mb": store_mb(engine.store),
    }
    # Untimed ticks with the same reads, until the ledger has run long
    # enough that keeping every tick would show.
    for step in range(steps + 1, LEDGER_TICKS + 1):
        t = float(step)
        engine.tick(t)
        engine.apply_update_columns(*stream.updates_at(t))
        engine.deltas(t)
        for watch in watches:
            watch.poll()
    ledger = engine.ledger
    engine.tick(float(max(steps, LEDGER_TICKS) + 1))  # closes the last tick
    ledger_bytes = ledger.approx_bytes()
    held = {t: ledger.planes_at(t)[0].shape[0] for t in ledger.ticks()}
    ledger_events = sum(held.values())
    newest_closed = max(t for t in held if t < ledger.now)
    edge_events = sum(count for t, count in held.items() if t >= newest_closed)
    store_rows = engine.store.planes()[0].shape[0]
    if fold_events(ledger).rows() != engine.store.interval_rows():
        raise AssertionError("folded delta ledger diverges from the store")
    row = {
        "n_per_side": n,
        "engine": "columnar+deltas",
        "steps": steps,
        "updates": timed["updates"],
        "final_pairs": timed["final_pairs"],
        "rows_per_object": timed["rows_per_object"],
        **answer_fields(*answer),
        "first_deltas_s": round(first_deltas_s, 4),
        "tick_loop_s": round(tick_s, 4),
        "tick_mean_s": round(tick_s / steps, 4),
        "us_per_event_p50": round(sorted(us_per_event)[steps // 2], 2),
        "events_per_tick": round(sum(events) / steps, 1),
        "rows_merged_per_tick": timed["rows_merged_per_tick"],
        "store_mb": timed["store_mb"],
        "ledger_mb": round(ledger_bytes / (1024.0 * 1024.0), 1),
        "ledger_bytes_per_event": round(ledger_bytes / max(ledger_events, 1), 2),
        "ledger_ticks": max(steps, LEDGER_TICKS),
        "ledger_bytes": ledger_bytes,
        "ledger_retained_ticks": len(held),
        "ledger_retained_events": ledger_events,
        "ledger_store_rows": int(store_rows),
        "ledger_flat_ceiling_bytes": int(
            LEDGER_BYTES_PER_ROW_CEIL * store_rows + 24 * edge_events
        ),
        "gen2_collections": gen2,
        **collector.per_tick(steps),
        "peak_rss_mb": rss_mb,
    }
    if fan_reads:
        row["lookahead_read_ms_per_tick"] = round(float(np.median(lookahead_ms)), 3)
        row["oid_polls_ms_per_tick"] = round(float(np.median(polls_ms)), 3)
    return row


def sweep_selectivity(n: int) -> dict:
    """Stage-one candidates and exact pair tests per result pair of the
    initial join, off its obs span.

    Its own cell: recording stays out of the timed engine, and a second
    engine stays out of the timed cell's peak RSS.
    """
    arrays = workload(n)
    engine = ColumnarJoinEngine(
        arrays.columns_a(),
        arrays.columns_b(),
        algorithm=ALGORITHM,
        config=JoinConfig(t_m=T_M),
    )
    recorder = ObsRecorder()
    recorder.attach(engine.tracker)
    engine.run_initial_join()
    (span,) = recorder.find("engine.initial_join")
    pairs = max(len(engine.store), 1)
    return {
        "stage_one_candidates_per_pair": round(span.counts["pair_tests"] / pairs, 2),
        "exact_tests_per_pair": round(span.counts["exact_tests"] / pairs, 2),
    }


def run_seed_baseline(n: int, steps: int) -> dict:
    """The tree engine's per-update loop replaying the *same* update batches."""
    arrays = workload(n)
    scenario = arrays.to_scenario()
    stream = VectorUpdateStream(arrays, seed=SEED + 1)
    ticks = []
    for step in range(1, steps + 1):
        upd_a, upd_b = stream.updates_at(float(step))
        ticks.append((float(step), upd_a.objects() + upd_b.objects()))
    t0 = monotonic_clock()
    engine = ContinuousJoinEngine.create(
        scenario.set_a,
        scenario.set_b,
        algorithm=ALGORITHM,
        config=JoinConfig(t_m=T_M),
    )
    build_s = monotonic_clock() - t0
    t0 = monotonic_clock()
    engine.run_initial_join()
    initial_s = monotonic_clock() - t0
    initial_pairs = len(engine._strategy.store)
    t0 = monotonic_clock()
    for t, batch in ticks:
        engine.tick(t)
        engine.apply_updates(batch)
        answer_set = engine.result_at(t)
    tick_s = monotonic_clock() - t0
    stored_rows = sum(map(len, engine._strategy.store.interval_rows().values()))
    return {
        "n_per_side": n,
        "engine": "seed",
        "steps": steps,
        "updates": engine.update_count,
        "build_s": round(build_s, 4),
        "initial_join_s": round(initial_s, 4),
        "initial_pairs": initial_pairs,
        "final_pairs": len(engine._strategy.store),
        "rows_per_object": rows_per_object(stored_rows, n),
        **answer_fields_of_set(answer_set),
        "tick_loop_s": round(tick_s, 4),
        "tick_mean_s": round(tick_s / steps, 4),
        "ticks_per_s": round(steps / tick_s, 3),
        "updates_per_s": round(engine.update_count / tick_s, 1),
        "store_mb": store_mb(engine._strategy.store),
    }


def run_sharded_columnar(n: int, steps: int, shards: int, workers: int) -> dict:
    """K-way sharded engine with columnar per-shard workers."""
    from repro.par import ShardedJoinEngine

    arrays = workload(n)
    scenario = arrays.to_scenario()
    config = JoinConfig(t_m=T_M)
    t0 = monotonic_clock()
    engine = ShardedJoinEngine(
        scenario.set_a,
        scenario.set_b,
        algorithm=ALGORITHM,
        config=config,
        shards=shards,
        workers=workers,
    )
    build_s = monotonic_clock() - t0
    t0 = monotonic_clock()
    engine.run_initial_join()
    initial_s = monotonic_clock() - t0
    initial_pairs = len(engine.merged_store())
    stream = VectorUpdateStream(arrays, seed=SEED + 1)
    t0 = monotonic_clock()
    updates = 0
    for step in range(1, steps + 1):
        t = float(step)
        engine.tick(t)
        upd_a, upd_b = stream.updates_at(t)
        updates += len(upd_a) + len(upd_b)
        engine.apply_update_columns(upd_a, upd_b)
        answer_set = engine.result_at(t)
    tick_s = monotonic_clock() - t0
    merged = engine.merged_store()
    row = {
        "n_per_side": n,
        "engine": f"sharded-columnar/{shards}x{workers}",
        "shards": shards,
        "workers": workers,
        "steps": steps,
        "updates": updates,
        "build_s": round(build_s, 4),
        "initial_join_s": round(initial_s, 4),
        "initial_pairs": initial_pairs,
        "final_pairs": len(merged),
        "rows_per_object": rows_per_object(merged.planes()[0].shape[0], n),
        **answer_fields_of_set(answer_set),
        "tick_loop_s": round(tick_s, 4),
        "tick_mean_s": round(tick_s / steps, 4),
        "ticks_per_s": round(steps / tick_s, 3),
        "updates_per_s": round(updates / tick_s, 1),
        "store_mb": store_mb(merged),
    }
    engine.close()
    return row


def main() -> int:
    smoke = os.environ.get("REPRO_SCALE_SMOKE") == "1"
    with_1m = os.environ.get("REPRO_SCALE_1M") == "1"
    sizes = [10_000] if smoke else list(SIZES)

    rows, failures = [], []
    for n in sizes:
        print(f"== n = {n:,} per side (space {space_for(n):.0f}) ==")
        row = run_cell(run_columnar, n, STEPS, ALGORITHM, n >= 10_000)
        rows.append(row)
        row.update(run_cell(sweep_selectivity, n))
        print(
            f"  columnar: build {row['build_s']:.2f}s, "
            f"initial {row['initial_join_s']:.2f}s ({row['initial_pairs']} pairs, "
            f"{row['rows_per_object']:.2f} rows/object, "
            f"{row['stage_one_candidates_per_pair']:.1f} candidates and "
            f"{row['exact_tests_per_pair']:.1f} exact tests each), "
            f"first read {row['first_read_s']:.3f}s, "
            f"tick {row['tick_mean_s']:.3f}s ({row['updates_per_s']:.0f} upd/s; "
            f"{row['answer_pairs']} pairs as a set {row['read_set_s'] * 1e3:.1f} ms"
            + (
                f", per tick: planes {row['plane_read_ms_p50']:.2f} ms, "
                f"set {row['set_read_ms_p50']:.2f} ms"
                if "set_read_ms_p50" in row else ""
            )
            + "), "
            f"rss {row['peak_rss_mb']:.0f} MiB, store {row['store_mb']:.1f} MiB"
        )
        mtb = run_cell(run_columnar, n, MTB_STEPS, "mtb")
        rows.append(mtb)
        same_ticks_tc = run_cell(run_columnar, n, MTB_STEPS)
        mtb["tick_mean_tc_s"] = same_ticks_tc["tick_mean_s"]
        mtb["answer_is_tc"] = all(
            mtb[key] == same_ticks_tc[key] for key in ("answer_pairs", "answer_digest")
        )
        print(
            f"  mtb:      {MTB_STEPS} ticks, {mtb['live_buckets']} buckets live, "
            f"initial {mtb['initial_join_s']:.2f}s ({mtb['initial_pairs']} pairs), "
            f"tick {mtb['tick_mean_s']:.3f}s (tc over the same ticks "
            f"{mtb['tick_mean_tc_s']:.3f}s; {mtb['answer_pairs']} pairs, "
            f"{'the same' if mtb['answer_is_tc'] else 'NOT the same'} answer), "
            f"{mtb['final_pairs']} pairs stored, rss {mtb['peak_rss_mb']:.0f} MiB"
        )
        if n in SEED_BASELINE_SIZES:
            base = run_cell(run_seed_baseline, n, STEPS)
            rows.append(base)
            speedup = base["tick_mean_s"] / row["tick_mean_s"]
            row["speedup_vs_seed"] = round(speedup, 2)
            print(
                f"  seed:     build {base['build_s']:.2f}s, "
                f"initial {base['initial_join_s']:.2f}s, "
                f"tick {base['tick_mean_s']:.3f}s "
                f"(rss {base['peak_rss_mb']:.0f} MiB, "
                f"store {base['store_mb']:.1f} MiB) "
                f"-> columnar {speedup:.1f}x"
            )
        if n == 100_000 or smoke:
            off_ticks, ons = [row["tick_mean_s"]], []
            for repeat in range(1 if smoke else DELTAS_REPEATS):
                if repeat:
                    off_ticks.append(run_cell(run_columnar, n, STEPS)["tick_mean_s"])
                ons.append(run_cell(run_columnar_deltas, n, STEPS, smoke))
            on = min(ons, key=lambda cell: cell["tick_mean_s"])
            rows.append(on)
            on["first_deltas_s"] = min(cell["first_deltas_s"] for cell in ons)
            on["tick_mean_off_s"] = min(off_ticks)
            on["deltas_overhead"] = round(on["tick_mean_s"] / min(off_ticks), 2)
            on["deltas_overhead_s"] = round(on["tick_mean_s"] - min(off_ticks), 4)
            print(
                f"  deltas:   first read {on['first_deltas_s']:.2f}s, "
                f"tick {on['tick_mean_s']:.3f}s (+{on['deltas_overhead_s']:.3f}s, "
                f"{on['deltas_overhead']:.2f}x off), "
                f"{on['events_per_tick']:.0f} events/tick at "
                f"{on['us_per_event_p50']:.2f} us each, "
                f"{on['rows_merged_per_tick']:.0f} rows merged/tick, "
                f"ledger {on['ledger_mb']:.1f} MiB "
                f"({on['ledger_bytes_per_event']:.1f} B/event, "
                f"{on['ledger_retained_ticks']} ticks held after {on['ledger_ticks']}, "
                f"ceiling {on['ledger_flat_ceiling_bytes'] / 2**20:.1f} MiB), "
                f"{on['gen2_collections']} gen-2 collections, "
                f"collector {on['gc_gen0_per_tick']:.1f}/{on['gc_gen1_per_tick']:.1f}/"
                f"{on['gc_gen2_per_tick']:.1f} passes (gen 0/1/2) and "
                f"{on['gc_ms_per_tick']:.2f} ms per tick, "
                f"rss {on['peak_rss_mb']:.0f} MiB"
            )
            if "lookahead_read_ms_per_tick" in on:
                print(
                    f"  reads:    {on['lookahead_read_ms_per_tick']:.2f} ms/tick at "
                    f"offsets {', '.join(f'{h:g}' for h in LOOKAHEAD_OFFSETS)}, "
                    f"{on['oid_polls_ms_per_tick']:.2f} ms/tick for {OID_WATCHES} oid polls"
                )
        if n == 100_000 and not smoke:
            sharded = run_cell(run_sharded_columnar, n, STEPS, 4, 0)
            rows.append(sharded)
            # The sharded engine answers with a set of tuples: it is held
            # against the serial tick with the same read, planes + set.
            serial_tick = row["tick_mean_s"] + row["read_set_s"]
            sharded_speedup = serial_tick / sharded["tick_mean_s"]
            sharded["speedup_vs_serial"] = round(sharded_speedup, 2)
            sharded["overhead_vs_serial_s"] = round(
                sharded["tick_mean_s"] - serial_tick, 4
            )
            print(
                f"  sharded:  4 shards, tick {sharded['tick_mean_s']:.3f}s "
                f"(rss {sharded['peak_rss_mb']:.0f} MiB) "
                f"-> {sharded['overhead_vs_serial_s']:+.3f}s, "
                f"{sharded_speedup:.1f}x serial columnar"
            )
        if n == 10_000 and smoke:
            sharded = run_cell(run_sharded_columnar, n, STEPS, 2, 2)
            rows.append(sharded)
            print(
                f"  sharded:  2 shards x 2 workers, "
                f"tick {sharded['tick_mean_s']:.3f}s "
                f"(rss {sharded['peak_rss_mb']:.0f} MiB)"
            )

    if with_1m:
        pct = fixed_coverage_pct(N_1M)
        print(f"== n = {N_1M:,} per side, objects {pct:.4f}% (100k's coverage) ==")
        row = run_cell(run_columnar, N_1M, STEPS_1M, ALGORITHM, False, pct, True)
        rows.append(row)
        print(
            f"  columnar: build {row['build_s']:.2f}s, initial {row['initial_join_s']:.2f}s "
            f"({row['initial_pairs']} pairs, {row['rows_per_object']:.2f} rows/object), "
            f"first read {row['first_read_s']:.2f}s, tick {row['tick_mean_s']:.3f}s, "
            f"rss {row['peak_rss_mb']:.0f} MiB, oracle on {row['oracle_sample']} "
            f"A objects ({row['oracle_pairs']} pairs): {len(row['oracle_problems'])} problems"
        )
        for problem in row["oracle_problems"]:
            failures.append(f"1M answer disagrees with brute force: {problem}")
        if not row["oracle_pairs"]:
            failures.append("1M oracle sample holds no pair: the check is vacuous")

    by_cell = {(r.get("n_per_side"), r["engine"]): r for r in rows}
    cell_10k = by_cell.get((10_000, "columnar"))
    if cell_10k is not None and "speedup_vs_seed" in cell_10k:
        if cell_10k["speedup_vs_seed"] < COLUMNAR_FLOOR:
            failures.append(
                f"columnar {cell_10k['speedup_vs_seed']:.2f}x seed at n=10k "
                f"< {COLUMNAR_FLOOR}x floor"
            )
    if cell_10k is not None:
        if cell_10k["exact_tests_per_pair"] > EXACT_TESTS_PER_PAIR_CEIL:
            failures.append(
                f"{cell_10k['exact_tests_per_pair']:.1f} exact tests per initial "
                f"pair at n=10k > {EXACT_TESTS_PER_PAIR_CEIL} ceiling"
            )
        if cell_10k["stage_one_candidates_per_pair"] > STAGE_ONE_PER_PAIR_CEIL:
            failures.append(
                f"{cell_10k['stage_one_candidates_per_pair']:.1f} stage-one candidates "
                f"per initial pair at n=10k > {STAGE_ONE_PER_PAIR_CEIL} ceiling"
            )
    if smoke and cell_10k is not None:
        if cell_10k["peak_rss_mb"] > RSS_FLOOR_SMOKE_MB:
            failures.append(
                f"peak RSS {cell_10k['peak_rss_mb']:.0f} MiB at n=10k "
                f"> {RSS_FLOOR_SMOKE_MB:.0f} MiB smoke floor"
            )
    cell_100k = by_cell.get((100_000, "columnar"))
    if cell_100k is not None:
        if cell_100k["tick_mean_s"] > TICK_FLOOR_100K_S:
            failures.append(
                f"mean tick {cell_100k['tick_mean_s']:.2f}s at n=100k "
                f"> {TICK_FLOOR_100K_S}s floor"
            )
        if cell_100k["initial_join_s"] > INITIAL_JOIN_FLOOR_100K_S:
            failures.append(
                f"initial join {cell_100k['initial_join_s']:.2f}s at n=100k "
                f"> {INITIAL_JOIN_FLOOR_100K_S}s floor"
            )
        if cell_100k["peak_rss_mb"] > RSS_FLOOR_100K_MB:
            failures.append(
                f"peak RSS {cell_100k['peak_rss_mb']:.0f} MiB at n=100k "
                f"> {RSS_FLOOR_100K_MB:.0f} MiB floor"
            )
    cell_deltas = by_cell.get((100_000, "columnar+deltas"))
    if cell_deltas is not None:
        if cell_deltas["deltas_overhead_s"] > DELTAS_OVERHEAD_CEIL_100K_S:
            failures.append(
                f"deltas-on tick {cell_deltas['deltas_overhead_s']:.3f}s over deltas-off "
                f"at n=100k > {DELTAS_OVERHEAD_CEIL_100K_S}s ceiling"
            )
        if cell_deltas["first_deltas_s"] > FIRST_DELTAS_CEIL_100K_S:
            failures.append(
                f"first deltas() {cell_deltas['first_deltas_s']:.2f}s at n=100k "
                f"> {FIRST_DELTAS_CEIL_100K_S}s ceiling"
            )
    for on in rows:
        if on["engine"] != "columnar+deltas":
            continue
        ceiling = ROWS_MERGED_PER_EVENT_CEIL * on["events_per_tick"]
        if on["rows_merged_per_tick"] > ceiling:
            failures.append(
                f"{on['rows_merged_per_tick']:.0f} rows merged per tick at "
                f"n={on['n_per_side']} > {ROWS_MERGED_PER_EVENT_CEIL} x "
                f"{on['events_per_tick']:.0f} events"
            )
        if on["ledger_bytes_per_event"] > LEDGER_BYTES_PER_EVENT_CEIL:
            failures.append(
                f"ledger keeps {on['ledger_bytes_per_event']:.1f} B per event at "
                f"n={on['n_per_side']} > {LEDGER_BYTES_PER_EVENT_CEIL} B ceiling"
            )
        if on["ledger_bytes"] > on["ledger_flat_ceiling_bytes"]:
            failures.append(
                f"ledger holds {on['ledger_bytes']} B after {on['ledger_ticks']} ticks "
                f"at n={on['n_per_side']} > {on['ledger_flat_ceiling_bytes']} B "
                f"({LEDGER_BYTES_PER_ROW_CEIL:g} B x {on['ledger_store_rows']} store rows "
                f"+ its two newest ticks)"
            )
    cell_sharded = by_cell.get((100_000, "sharded-columnar/4x0"))
    if cell_sharded is not None:
        if cell_sharded["overhead_vs_serial_s"] > SHARDED_OVERHEAD_CEIL_100K_S:
            failures.append(
                f"sharded columnar tick {cell_sharded['overhead_vs_serial_s']:.3f}s over "
                f"serial at n=100k > {SHARDED_OVERHEAD_CEIL_100K_S}s ceiling"
            )

    for mtb in rows:
        if mtb["engine"] != "columnar/mtb":
            continue
        if not mtb["answer_is_tc"]:
            failures.append(
                f"mtb answer after {MTB_STEPS} ticks at n={mtb['n_per_side']} "
                f"is not the tc engine's"
            )
        if mtb["n_per_side"] == 100_000 and mtb["live_buckets"] < 2:
            failures.append(f"mtb row at n=100k ends with {mtb['live_buckets']} live bucket")

    # Every join row agrees with the serial columnar row of its size on
    # the pair counts and the answer it reports — where it ran the same
    # ticks under the same windows (the mtb row did neither).
    for other in rows:
        serial = by_cell.get((other.get("n_per_side"), "columnar"))
        if serial is None or other["engine"] == "columnar/mtb":
            continue
        for key in ("initial_pairs", "final_pairs", "answer_pairs", "answer_digest"):
            if key in other and other[key] != serial[key]:
                failures.append(
                    f"{other['engine']} {key} {other[key]} != serial columnar "
                    f"{serial[key]} at n={other['n_per_side']}"
                )

    out = Path(__file__).resolve().parent.parent / "BENCH_scale.json"
    out.write_text(
        json.dumps(
            {
                "description": "columnar engine scaling, constant density",
                "workload": {
                    "distribution": "uniform",
                    "algorithm": ALGORITHM,
                    "t_m": T_M,
                    "max_speed": MAX_SPEED,
                    "object_size_pct": OBJECT_SIZE_PCT,
                    "space_rule": "1000 * sqrt(n / 1000)",
                    "seed": SEED,
                },
                "smoke": smoke,
                "floors": {
                    "columnar_vs_seed_10k": COLUMNAR_FLOOR,
                    "tick_mean_s_100k": TICK_FLOOR_100K_S,
                    "initial_join_s_100k": INITIAL_JOIN_FLOOR_100K_S,
                    "exact_tests_per_pair_10k": EXACT_TESTS_PER_PAIR_CEIL,
                    "stage_one_candidates_per_pair_10k": STAGE_ONE_PER_PAIR_CEIL,
                    "peak_rss_mb_100k": RSS_FLOOR_100K_MB,
                    "peak_rss_mb_smoke": RSS_FLOOR_SMOKE_MB,
                    "sharded_overhead_s_100k": SHARDED_OVERHEAD_CEIL_100K_S,
                    "deltas_overhead_s_100k": DELTAS_OVERHEAD_CEIL_100K_S,
                    "first_deltas_s_100k": FIRST_DELTAS_CEIL_100K_S,
                    "rows_merged_per_event": ROWS_MERGED_PER_EVENT_CEIL,
                    "ledger_bytes_per_event": LEDGER_BYTES_PER_EVENT_CEIL,
                    "ledger_bytes_per_store_row": LEDGER_BYTES_PER_ROW_CEIL,
                },
                "peak_rss_mb_100k": (
                    None if cell_100k is None else cell_100k["peak_rss_mb"]
                ),
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
