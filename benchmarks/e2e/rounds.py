"""One (workload, round) cell: set up, step, check — run in a child process.

``run_round`` is the only place the benchmark touches the program.  It
builds the engine through the public constructors, drives the closed
loop (the next update batch is generated and sent only after the
previous step returned) and returns plain JSON-able numbers.  Engine
construction passes only ``t_m`` and ``deltas`` to ``JoinConfig`` — plus
the columnar shard-worker selector while that field still exists — so a
PR deleting the "identical either way" knobs need not edit this file.
"""

from __future__ import annotations

import dataclasses
import math
import multiprocessing
import os
import traceback
from contextlib import nullcontext
from time import perf_counter
from typing import Callable, Dict, List, Set, Tuple

import numpy as np

# The program, through its public entry points (imported here, in the
# child only, so no timed section pays for an import).
from repro.core import ColumnarJoinEngine, JoinConfig
from repro.geometry import Box
from repro.par import ShardedJoinEngine
from repro.workloads import VectorUpdateStream, make_workload_arrays

from . import checks
from .spec import (
    INTENT, MAX_SPEED, OID_WATCHES, ORACLE_EVERY, ORACLE_SAMPLE, POINT_LOOKUPS, READ_HORIZONS,
    REGION_FRACTION, SCENARIO_SEED, SHARDS, T_M, WARMUP, WORKERS, WORKLOADS, Workload,
)

PairKey = Tuple[int, int]


def calibrate() -> float:
    """Milliseconds for a fixed NumPy kernel: sort + gather over 1M doubles.

    Reported next to every round so host drift is visible beside the numbers.
    """
    x = np.random.default_rng(0).random(1_000_000)
    t0 = perf_counter()
    order = np.argsort(x)
    x[order].sum()
    return (perf_counter() - t0) * 1e3


class HostProbe:
    """A fixed piece of work of the program's two kinds, timed between steps.

    NumPy kernels (sort, binary search, gather, compare) and interpreter
    work (a dict of tuples, a set, a sort).  This host speeds up and slows
    down by tens of percent for minutes at a time, alike for both kinds;
    dividing a latency by the probe's slowdown against ``PROBE_REF_MS``
    takes that out (README, *Host drift*).
    """

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self._x = rng.random(20_000)
        keys = rng.integers(0, 1 << 40, 16_000).tolist()
        self._pairs = list(zip(keys[::2], keys[1::2]))

    def __call__(self) -> float:
        """Milliseconds the probe took now, on its second pass: the first
        refills the caches the step before it emptied, so the reading does
        not depend on what ran last."""
        self._work()
        t0 = perf_counter()
        self._work()
        return (perf_counter() - t0) * 1e3

    def _work(self) -> None:
        x = self._x
        y = x[np.argsort(x, kind="stable")]
        np.searchsorted(y, x)
        (y[1:] > y[:-1]).sum()
        rows = {pair: (pair, pair) for pair in self._pairs}
        sorted(set(rows))

    def several(self) -> List[float]:
        return [self() for _ in range(3)]


def make_scenario(wl: Workload, n: int):
    # Constant density: the space grows with n so selectivity per object does not.
    return make_workload_arrays(
        n, "uniform", space_size=1000.0 * math.sqrt(n / 1000.0), max_speed=MAX_SPEED,
        object_size_pct=wl.object_size_pct, t_m=T_M, seed=SCENARIO_SEED,
    )


def build_engine(wl: Workload, scenario):
    options = {"t_m": T_M, "deltas": wl.deltas}
    if not wl.sharded:
        return ColumnarJoinEngine(
            scenario.columns_a(), scenario.columns_b(), wl.algorithm, JoinConfig(**options)
        )
    if any(f.name == "shard_engine" for f in dataclasses.fields(JoinConfig)):
        options["shard_engine"] = "columnar"
    objects = scenario.to_scenario()
    return ShardedJoinEngine(
        objects.set_a, objects.set_b, wl.algorithm, JoinConfig(**options),
        shards=SHARDS, workers=WORKERS,
    )


def make_reads(wl: Workload, engine, scenario, seed: int, total_ticks: int, span) -> Callable:
    """The workload's read bundle: ``reads(k, t) -> result_at(t)`` pair set."""
    if wl.reads == "result":
        return lambda k, t: engine.result_at(t)
    if wl.reads == "result+deltas":
        def reads(k, t):
            pairs = engine.result_at(t)
            engine.deltas(t)
            return pairs

        return reads

    rng = np.random.default_rng(seed + 2)
    oids = np.concatenate([scenario.oid_a, scenario.oid_b])
    lookups = rng.choice(oids, size=(total_ticks + 1, POINT_LOOKUPS)).tolist()
    oid_watches = [engine.watch(oid=int(oid)) for oid in rng.choice(oids, OID_WATCHES, replace=False)]
    mid, half = scenario.space_size / 2.0, scenario.space_size * REGION_FRACTION / 2.0
    region_watch = engine.watch(region=Box(mid - half, mid + half, mid - half, mid + half))
    store = engine.store

    def fan(k, t):
        with span("result_at"):
            answers = [engine.result_at(t + h) for h in READ_HORIZONS]
        engine.deltas(t)
        with span("point_lookups"):
            for oid in lookups[k]:
                store.pairs_for_object(oid)
        with span("oid_polls"):
            for watch in oid_watches:
                watch.poll()
        with span("region_poll"):
            region_watch.poll()
        return answers[0]

    return fan


def _hwm_mb(pid) -> float:
    with open(f"/proc/{pid}/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def peak_rss_mb() -> float:
    """This process's high-water mark plus that of every live child
    (the shard workers), read before they are closed."""
    pids = ["self"] + [proc.pid for proc in multiprocessing.active_children()]
    return sum(_hwm_mb(pid) for pid in pids)


def run_round(cell: dict) -> dict:
    """Execute one cell; see ``run.py`` for the keys of ``cell``.

    ``cell["setups"] > 0`` makes it a set-up cell: that many timed set-ups
    in a row after an untimed one, no steps, so a run can report set-up
    time as a median of several without paying for an interpreter each.
    """
    wl = WORKLOADS[cell["workload"]]
    seed, n = cell["seed"], cell["n"]
    total_ticks = WARMUP + cell["ticks"]
    out: dict = {"workload": wl.name, "round": cell["round"], "calib_ms": calibrate(),
                 "failures": [], "setup_s": [], "initial_join_s": [], "setup_probe_ms": []}
    tracer = None
    if cell["traced"]:
        tracer = _install_tracer(wl, cell)
        out["warnings"] = tracer.warnings
    span = tracer.span if tracer else (lambda name: nullcontext())

    # The first set-up of a process pays for imports and a cold allocator:
    # it leads into the steps or, in a set-up cell, warms up; it is never a
    # sample, so all samples come from one population.
    probe = HostProbe()
    probes = probe.several()
    for i in range(cell["setups"] + 1):
        # ---- set-up: everything before the first step can be answered ----
        t0 = perf_counter()
        scenario = make_scenario(wl, n)
        engine = build_engine(wl, scenario)
        try:
            t1 = perf_counter()
            engine.run_initial_join()
            t2 = perf_counter()
            reads = make_reads(wl, engine, scenario, seed, total_ticks, span)
            t3 = perf_counter()
            if cell["setups"]:
                before, probes = probes, probe.several()
            if i:
                out["setup_s"].append(t3 - t0)
                out["initial_join_s"].append(t2 - t1)
                out["setup_probe_ms"].append(float(np.median(before + probes)))
            elif not cell["setups"]:
                _steps(wl, cell, engine, scenario, reads, tracer, span, out,
                       VectorUpdateStream(scenario, seed=seed + 1), probe)
        finally:
            if wl.sharded:
                engine.close()
    if tracer:
        tracer.uninstall()
    return out


def _install_tracer(wl: Workload, cell: dict):
    from .trace import Tracer

    tracer = Tracer(wl.name, cell["round"])
    # Resolve the wrap targets from live objects of a throw-away engine.
    probe_scenario = make_scenario(wl, 16)
    probe = build_engine(wl, probe_scenario)
    try:
        subscription = probe.watch(oid=0) if wl.reads == "fan" else None
        tracer.install(probe, VectorUpdateStream(probe_scenario, seed=1), subscription, wl.sharded)
    finally:
        if wl.sharded:
            probe.close()
    return tracer


def _steps(wl, cell, engine, scenario, reads, tracer, span, out, stream, probe) -> None:
    seed, ticks = cell["seed"], cell["ticks"]
    total_ticks = WARMUP + ticks
    failures = out["failures"]
    mirror = checks.MotionMirror(scenario, ORACLE_SAMPLE, seed + 3)
    serial = not wl.sharded

    def interval_rows():
        store = engine.store if serial else engine.merged_store()
        return store, store.interval_rows()

    out["result_rows_initial"] = _stored_rows(engine, serial)
    initial_candidates = engine.tracker.snapshot().pair_tests if serial else None
    candidates = [initial_candidates] if serial else None
    checkpoints = [engine.fault_stats().checkpoints] if wl.sharded else None
    shard_costs = [engine.shard_costs()] if tracer and wl.sharded else None

    step_ms: List[float] = []
    probe_ms: List[float] = []
    updates: List[int] = []
    digests: List[str] = []
    oracle_ticks = 0
    aborted = False
    for k in range(1, total_ticks + 1):
        t = float(k)
        if tracer:
            tracer.tick = k
        upd_a, upd_b = stream.updates_at(t)
        updates.append(len(upd_a) + len(upd_b))
        probe_ms.append(probe())
        t0 = perf_counter()
        try:
            with span("step"):
                engine.tick(t)
                engine.apply_update_columns(upd_a, upd_b)
                pairs = reads(k, t)
            step_ms.append((perf_counter() - t0) * 1e3)
        except Exception as exc:  # a step that raises is a failed step
            traceback.print_exc()
            step_ms.append((perf_counter() - t0) * 1e3)
            failures.append({"tick": k, "check": "step", "detail": repr(exc)})
            aborted = True
            break
        # ---- untimed: bookkeeping and checks ----
        mirror.apply("a", upd_a)
        mirror.apply("b", upd_b)
        if serial:
            candidates.append(engine.tracker.snapshot().pair_tests)
        if wl.sharded:
            checkpoints.append(engine.fault_stats().checkpoints)
            if tracer:
                shard_costs.append(engine.shard_costs())
        if k % ORACLE_EVERY == 0:
            oracle_ticks += 1
            if cell["corrupt"]:
                pairs = _drop_one_expected(pairs, mirror, t)
            for problem in mirror.check(t, pairs):
                failures.append({"tick": k, "check": "oracle", "detail": problem})
        digests.append(checks.pair_digest(pairs))

    # Peak memory is read before the end-of-round checks allocate theirs.
    out["peak_rss_mb"] = peak_rss_mb()
    out.update(step_ms=step_ms, probe_ms=probe_ms, updates=updates, tick_digests=digests,
               oracle_ticks=oracle_ticks)
    if aborted:
        return

    def end_check(name: str, problems: List[str]) -> None:
        out.setdefault("end_checks", []).append(name)
        failures.extend({"tick": None, "check": name, "detail": p} for p in problems)

    store, rows = interval_rows()
    out["end_digest"], out["result_rows_final"] = checks.rows_digest(rows)
    emitted = sum(updates)
    end_check("update_count", [] if engine.update_count == emitted else [
        f"emitted {emitted} updates, engine.update_count == {engine.update_count}"])
    if wl.deltas:
        end_check("delta_fold", checks.fold_problems(engine.ledger, rows))
    if wl.sharded:
        stats = engine.fault_stats()
        bad = {k: getattr(stats, k) for k in ("worker_deaths", "respawns", "degraded_slots")
               if getattr(stats, k)}
        end_check("faults", [f"supervisor reported {bad}"] if bad else [])
        out["checkpoints"] = checkpoints
    if serial:
        out["candidates"] = np.diff(candidates)[WARMUP:].tolist()

    if tracer:
        out["layers"], out["intent"] = _layer_numbers(
            wl, cell, engine, store, tracer, out, initial_candidates, shard_costs)


def _stored_rows(engine, serial: bool) -> int:
    """Interval rows currently stored, without building a merged store
    (which would set the sharded parent's peak RSS before any tick)."""
    if serial:
        return sum(len(ivs) for ivs in engine.store.interval_rows().values())
    per_pair = {}
    for rows in engine.store_dumps().values():
        per_pair.update((key, len(ivs)) for key, ivs in rows)
    return sum(per_pair.values())


def _drop_one_expected(pairs: Set[PairKey], mirror, t: float) -> Set[PairKey]:
    """Corrupt the compared answer by one pair the oracle insists on."""
    must, _ = mirror.expected(t)
    hit = sorted(must & pairs)
    return pairs - {hit[0]} if hit else pairs


def _layer_numbers(wl, cell, engine, store, tracer, out, initial_candidates, shard_costs):
    from . import trace

    timed_ticks = range(WARMUP + 1, WARMUP + cell["ticks"] + 1)
    info: Dict[str, object] = {
        "updates": out["updates"][WARMUP:], "step_ms": out["step_ms"],
    }
    if wl.sharded:
        stats = engine.fault_stats()
        cpu = np.array([[c.cpu_seconds for _, c in sorted(costs.items())] for costs in shard_costs])
        tests = np.array([[c.pair_tests for _, c in sorted(costs.items())] for costs in shard_costs])
        state = engine.export_state()
        residents = np.array([len(s["objects_a"]) + len(s["objects_b"]) for s in state["shards"]])
        n_objects = len(state["objects"])
        info.update(
            checkpoints=out["checkpoints"], respawns=stats.respawns,
            shard_cpu_ms=np.diff(cpu, axis=0) * 1e3,
            ghost_fraction=float((residents.sum() - n_objects) / n_objects),
            shard_skew=float(residents.max() / residents.mean()),
            merged_store_mb=store.approx_bytes() / 2**20,
        )
        out["candidates"] = np.diff(tests.sum(axis=1))[WARMUP:].tolist()
    else:
        info.update(
            candidates=out["candidates"], initial_candidates=initial_candidates,
            live_rows=float(out["result_rows_final"]), store_mb=store.approx_bytes() / 2**20,
        )
        if wl.deltas:
            info["total_events"] = float(sum(1 for _ in engine.ledger.events()))
    table = trace.SpanTable(tracer.spans, timed_ticks)
    layers = trace.layer_metrics(table, info, WARMUP)
    # The test's invariant: per tick, self times add up to the step latency.
    self_ms = table.per_tick(table.self_ms, table.timed)
    out["self_sum_ms"] = self_ms.tolist()
    os.makedirs(cell["out"], exist_ok=True)
    tracer.write_jsonl(os.path.join(cell["out"], f"trace-{wl.name}.jsonl"))
    intent = None
    if wl.name in INTENT:
        intent_layers, floor = INTENT[wl.name]
        share = trace.intent_share(table, intent_layers)
        intent = {"layers": list(intent_layers), "share": share, "floor": floor,
                  "intent_ok": share >= floor}
    return layers, intent
