"""Layered end-to-end benchmark: one command, four workloads (see README.md).

Two ways in:

* **Report** (default) — ``python benchmarks/e2e/run.py [--seed N] [--rounds 3]
  [--ticks 100] [--workload NAME] [--no-trace] [--aa] [--smoke] [--write]``
  runs every workload with its rounds interleaved, cross-checks the
  paired workloads, adds one traced round each and prints all metrics.
* **Single run** — ``--workload NAME --seed N --seconds S --trace 0|1`` is
  the form ``BENCHMARK.json`` names: one workload, as many whole rounds as
  time ``S`` seconds of steps on the baseline host, one JSON object on the
  last line.

Every (workload, round) cell runs in its own child process, so peak
memory is per cell and no cache survives a round.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Optional, Sequence

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
if not (ROOT / "src" / "repro").is_dir():
    sys.exit(f"{ROOT / 'src' / 'repro'} not found: the benchmark measures the program "
             "in this checkout and has none to measure")
# Import the siblings as the package `e2e` (the script directory itself must
# not lead sys.path: trace.py would shadow the standard library's `trace`),
# and the program from this checkout's source tree, nowhere else.
sys.path[:] = [p for p in sys.path if Path(p or ".").resolve() != HERE]
sys.path[:0] = [str(ROOT / "src"), str(HERE.parent)]

import numpy as np  # noqa: E402

from e2e import checks  # noqa: E402
from e2e.spec import (  # noqa: E402
    DEFAULT_SEED, END_TO_END, FULL, PER_LAYER, PROBE_REF_MS, SHARDS, SMOKE, WARMUP, WORKLOADS, Sizes,
    Workload,
)

BASELINE = HERE / "baseline.json"
BENCHMARK_JSON = ROOT / "BENCHMARK.json"
RUN_SECONDS = 8
#: Timed set-ups in the one set-up cell per workload (after its untimed
#: first), so the two set-up timings are medians of several.
SETUP_REPEATS = 5
MAX_TICK_ROUNDS = 5


# ----------------------------------------------------------------------
# Cells
# ----------------------------------------------------------------------
def run_cell(wl: Workload, sizes: Sizes, seed: int, round_id: int, out_dir: Path, *,
             traced: bool = False, setups: int = 0, corrupt: bool = False) -> dict:
    """Run one (workload, round) cell in a fresh interpreter.

    ``setups=k`` asks for a set-up cell: ``k`` set-ups and no steps.
    """
    cell = {
        "workload": wl.name, "seed": seed, "n": wl.n(sizes), "ticks": sizes.ticks,
        "round": round_id, "traced": traced, "setups": setups, "corrupt": corrupt,
        "out": str(out_dir),
    }
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--child", json.dumps(cell)],
        stdout=subprocess.PIPE, text=True,
    )
    if proc.returncode != 0 or not proc.stdout.strip():
        return {"workload": wl.name, "round": round_id, "failures": [
            {"tick": None, "check": "child", "detail": f"exit code {proc.returncode}"}]}
    return json.loads(proc.stdout.splitlines()[-1])


def child_main(cell_json: str) -> None:
    from e2e.rounds import run_round

    print(json.dumps(run_round(json.loads(cell_json))))


# ----------------------------------------------------------------------
# Aggregation
# ----------------------------------------------------------------------
class Tally:
    """Attempted and failed operations: steps plus the checks around them."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []

    def check(self, label: str, problems: Sequence[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(f"{label}: {p}" for p in problems)

    def merge(self, other: "Tally") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.problems.extend(other.problems)

    def add_round(self, rnd: dict) -> None:
        label = f"{rnd['workload']}#{rnd['round']}"
        steps = len(rnd.get("step_ms", ()))
        failures = rnd["failures"]
        self.attempted += steps + len(rnd.get("end_checks", ()))
        bad_ticks = {f["tick"] for f in failures if f["tick"] is not None}
        bad_ends = {f["check"] for f in failures if f["tick"] is None}
        self.failed += len(bad_ticks) + len(bad_ends)
        if "child" in bad_ends:
            self.attempted += 1
        self.problems.extend(f"{label} tick {f['tick']} {f['check']}: {f['detail']}" for f in failures)

    @property
    def failed_share(self) -> float:
        return self.failed / self.attempted if self.attempted else 1.0


def tick_rounds(rounds: Sequence[dict]) -> List[dict]:
    return [r for r in rounds if "end_digest" in r]


def host_slowdown(probe_ms: Sequence[float]) -> np.ndarray:
    """The host's slowdown against the reference host at each probe: the
    median of the eleven probes around it over ``PROBE_REF_MS``.  One probe
    jitters by a tenth; the regimes it is there to follow last far longer."""
    padded = np.pad(np.asarray(probe_ms, dtype=np.float64), 5, mode="edge")
    return np.median(np.lib.stride_tricks.sliding_window_view(padded, 11), axis=1) / PROBE_REF_MS


def step_latency(rounds: Sequence[dict], calibrated: bool = True) -> np.ndarray:
    """Latency of each timed tick in ms.

    Tick *k* does identical work in every round, so its latency is the
    median over rounds (the lower middle value of an even number: host
    noise only ever adds time).
    """
    per_round = [np.asarray(r["step_ms"]) / (host_slowdown(r["probe_ms"]) if calibrated else 1.0)
                 for r in rounds]
    return np.quantile([x[WARMUP:] for x in per_round], 0.5, axis=0, method="lower")


def summarize(rounds: Sequence[dict]) -> Optional[Dict[str, dict]]:
    """End-to-end metrics of one workload from its rounds.

    Percentiles are taken over the per-tick latencies; one-shot timings
    are the median over the set-up cells' samples.  ``value`` is
    calibrated to the reference host, ``wall`` is as the clock read.
    """
    ticked = tick_rounds(rounds)
    slowdown = np.array([p for r in rounds for p in r.get("setup_probe_ms", ())]) / PROBE_REF_MS
    set_ups = np.array([t for r in rounds for t in r.get("setup_s", ())])
    joins = np.array([t for r in rounds for t in r.get("initial_join_s", ())])
    if not ticked or not len(set_ups):
        return None
    updates = sum(ticked[0]["updates"][WARMUP:])
    rss = statistics.median(r["peak_rss_mb"] for r in ticked)

    def measures(latency, slowdown) -> Dict[str, float]:
        return {
            "setup_s": float(np.median(set_ups / slowdown)),
            "initial_join_s": float(np.median(joins / slowdown)),
            "step_p50_ms": float(np.percentile(latency, 50)),
            "step_p90_ms": float(np.percentile(latency, 90)),
            "updates_per_s": updates / (latency.sum() / 1e3),
            "peak_rss_mb": rss,
        }

    value = measures(step_latency(ticked), slowdown)
    wall = measures(step_latency(ticked, calibrated=False), 1.0)
    steps = f"{len(ticked[0]['step_ms']) - WARMUP} ticks x {len(ticked)} rounds"
    samples = {"setup_s": f"{len(set_ups)} set-ups", "initial_join_s": f"{len(set_ups)} set-ups",
               "peak_rss_mb": f"{len(ticked)} rounds"}
    return {m.name: {"value": value[m.name], "wall": wall[m.name], "unit": m.unit, "bound": m.bound,
                     "samples": samples.get(m.name, steps)} for m in END_TO_END}


def digests_differ(a: dict, b: dict) -> List[str]:
    """Why two rounds over the same inputs did not give the same answers."""
    if "end_digest" not in a or "end_digest" not in b:
        return ["a round did not finish"]
    problems = []
    for k, (da, db) in enumerate(zip(a["tick_digests"], b["tick_digests"]), start=1):
        if da != db:
            problems.append(f"result_at digests first differ at tick {k}")
            break
    if a["end_digest"] != b["end_digest"]:
        problems.append("end-state digests differ")
    return problems


def check_rounds(wl: Workload, rounds: Sequence[dict], tally: Tally) -> None:
    for rnd in rounds:
        tally.add_round(rnd)
    ticked = tick_rounds(rounds)
    for other in ticked[1:]:
        tally.check(f"{wl.name} rounds agree", digests_differ(ticked[0], other))


def check_pair(wl: Workload, rounds: Sequence[dict], reference: Sequence[dict], tally: Tally) -> None:
    mine, theirs = tick_rounds(rounds), tick_rounds(reference)
    if mine and theirs:
        tally.check(f"{wl.name} == {wl.reference}", digests_differ(mine[0], theirs[0]))
    else:
        tally.check(f"{wl.name} == {wl.reference}", ["nothing to compare"])


def pin_of(rnd: dict) -> dict:
    return {"end": rnd["end_digest"], "ticks": checks.chain_digest(rnd["tick_digests"]),
            "result_rows_initial": rnd["result_rows_initial"],
            "result_rows_final": rnd["result_rows_final"]}


def check_pin(wl: Workload, rounds: Sequence[dict], sizes: Sizes, seed: int, tally: Tally) -> None:
    """Compare with the digest pinned for these inputs, where one exists
    and this host computes cos/sin like the host that pinned it."""
    baseline = load_baseline()
    pin = baseline.get("pins", {}).get(sizes.key(seed), {}).get(wl.name)
    ticked = tick_rounds(rounds)
    if pin is None or not ticked:
        return
    if baseline.get("host", {}).get("math_fingerprint") != checks.math_fingerprint():
        print(f"warning: {wl.name}: pinned digest skipped, this host's libm differs", file=sys.stderr)
        return
    got = pin_of(ticked[0])
    tally.check(f"{wl.name} pinned digest", [] if got == pin else [f"{got} != pinned {pin}"])


def load_baseline() -> dict:
    return json.loads(BASELINE.read_text()) if BASELINE.exists() else {}


# ----------------------------------------------------------------------
# Traced round
# ----------------------------------------------------------------------
def per_layer(wl: Workload, traced: dict, untraced: Sequence[dict],
              serial_traced: Optional[dict]) -> Dict[str, Optional[float]]:
    """All per-layer metrics of one workload; ``None`` where not measured."""
    values: Dict[str, Optional[float]] = {m.name: None for m in PER_LAYER}
    values.update(traced.get("layers", {}))
    values["host.calib_ms"] = traced["calib_ms"]
    ticked = tick_rounds(untraced)
    if ticked and "step_ms" in traced:
        plain = statistics.median(step_latency([r]).sum() for r in ticked)
        values["trace.overhead_pct"] = (step_latency([traced]).sum() / plain - 1.0) * 100.0
        values["host.probe_ms"] = statistics.median(traced["probe_ms"])
    if wl.sharded and serial_traced and "layers" in serial_traced and "layers" in traced:
        serial = serial_traced["layers"]
        values["par.sharded.halo_candidate_ratio"] = (
            sum(traced["candidates"]) / sum(serial_traced["candidates"]))
        slowest = values["par.worker.cpu_ms_per_tick_max"]
        values["par.worker.parallel_efficiency"] = (
            serial["geometry.kernels.sweep_ms_per_tick"] / (SHARDS * slowest))
    return values


def intent_line(intent: dict) -> str:
    return (f"intent_ok={intent['intent_ok']} ({'+'.join(intent['layers'])} = {intent['share']:.0%} "
            f"of step time, built for {intent['floor']:.0%})")


# ----------------------------------------------------------------------
# Single run: the BENCHMARK.json command
# ----------------------------------------------------------------------
def single_run(args) -> int:
    wl = WORKLOADS[args.workload]
    sizes, out_dir, tally = SMOKE if args.smoke else FULL, Path(args.out), Tally()
    wanted = 1 if args.trace else min(MAX_TICK_ROUNDS, math.ceil(args.seconds / wl.round_s))
    rounds = [run_cell(wl, sizes, args.seed, i, out_dir) for i in range(wanted)]
    if not args.trace:
        rounds.append(run_cell(wl, sizes, args.seed, wanted, out_dir, setups=SETUP_REPEATS))
    check_rounds(wl, rounds, tally)
    check_pin(wl, rounds, sizes, args.seed, tally)

    if args.trace:
        # The traced run also pays for what one workload alone cannot show:
        # the paired workload over the same inputs, for the cross-engine
        # digests and the ratios against the serial kernels.
        traced = run_cell(wl, sizes, args.seed, len(rounds), out_dir, traced=True)
        tally.add_round(traced)
        reference = None
        if wl.reference:
            ref_wl = WORKLOADS[wl.reference]
            reference = run_cell(ref_wl, sizes, args.seed, 0, out_dir, traced=wl.sharded)
            tally.add_round(reference)
            check_pair(wl, rounds, [reference], tally)
        values = per_layer(wl, traced, rounds, reference)
        for note in traced.get("warnings", ()):
            print(f"warning: {wl.name}: {note}", file=sys.stderr)
        if traced.get("intent"):
            print(f"{wl.name}: {intent_line(traced['intent'])}", file=sys.stderr)
        # A layer this workload does not execute reports 0 in the result line.
        metrics = {m.name: {"value": values[m.name] or 0.0, "unit": m.unit} for m in PER_LAYER}
    else:
        summary = summarize(rounds)
        metrics = None if summary is None else {
            name: {"value": entry["value"], "unit": entry["unit"]} for name, entry in summary.items()}
        if summary:
            print("wall: " + json.dumps({name: entry["wall"] for name, entry in summary.items()}),
                  file=sys.stderr)
    for problem in tally.problems:
        print(f"FAILED {problem}", file=sys.stderr)
    if metrics is None:
        return 1
    print(json.dumps({"correct": tally.failed == 0, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0 if tally.failed == 0 else 1


# ----------------------------------------------------------------------
# Report
# ----------------------------------------------------------------------
def measure_sets(names: Sequence[str], sizes: Sizes, seed: int, rounds: int, sets: Sequence[str],
                 out_dir: Path, corrupt: bool) -> Dict[str, Dict[str, List[dict]]]:
    """``sets`` x ``rounds`` x workloads, interleaved so host drift hits all alike."""
    cells: Dict[str, Dict[str, List[dict]]] = {s: {n: [] for n in names} for s in sets}
    for round_id in range(rounds):
        for label in sets:
            for name in names:
                print(f"  set {label} round {round_id} {name}", file=sys.stderr)
                cells[label][name].append(
                    run_cell(WORKLOADS[name], sizes, seed, round_id, out_dir, corrupt=corrupt))
    for label in sets:
        for name in names:
            cells[label][name].append(
                run_cell(WORKLOADS[name], sizes, seed, rounds, out_dir, setups=SETUP_REPEATS))
    return cells


def with_references(names: Sequence[str]) -> List[str]:
    wanted = set(names) | {WORKLOADS[n].reference for n in names if WORKLOADS[n].reference}
    return [n for n in WORKLOADS if n in wanted]


def report(args) -> int:
    sizes = SMOKE if args.smoke else FULL
    if args.ticks:
        sizes = Sizes(sizes.n_sparse, sizes.n_dense, args.ticks)
    rounds = 1 if args.smoke and args.rounds is None else (args.rounds or 3)
    names = with_references([args.workload] if args.workload else list(WORKLOADS))
    out_dir = Path(args.out)
    sets = ["A", "B"] if args.aa else ["A"]
    cells = measure_sets(names, sizes, args.seed, rounds, sets, out_dir, args.corrupt)

    tallies = {name: Tally() for name in names}
    result: Dict[str, dict] = {}
    for label in sets:
        for name in names:
            wl = WORKLOADS[name]
            check_rounds(wl, cells[label][name], tallies[name])
            if wl.reference:
                check_pair(wl, cells[label][name], cells[label][wl.reference], tallies[name])
    for name in names:
        wl, mine = WORKLOADS[name], cells["A"][name]
        check_pin(wl, mine, sizes, args.seed, tallies[name])
        ticked = tick_rounds(mine)
        result[name] = {
            "end_to_end": summarize(mine),
            "calib_ms": [r["calib_ms"] for r in mine if "calib_ms" in r],
            "oracle_ticks": sum(r.get("oracle_ticks", 0) for r in mine),
            "end_checks": sorted({c for r in mine for c in r.get("end_checks", ())}),
            "pin": pin_of(ticked[0]) if ticked else None,
        }

    if not args.no_trace:
        traced = {}
        for name in names:
            print(f"  traced round {name}", file=sys.stderr)
            traced[name] = run_cell(WORKLOADS[name], sizes, args.seed, rounds + 1, out_dir, traced=True)
            tallies[name].add_round(traced[name])
        for name in names:
            wl = WORKLOADS[name]
            values = per_layer(wl, traced[name], cells["A"][name], traced.get("sparse-serial"))
            result[name]["per_layer"] = values
            result[name]["intent"] = traced[name].get("intent")
            result[name]["warnings"] = traced[name].get("warnings", [])
            result[name]["self_sum_ms"] = traced[name].get("self_sum_ms")
            result[name]["traced_step_ms"] = traced[name].get("step_ms", [])[WARMUP:]

    aa = None
    if args.aa:
        aa = {}
        for name in names:
            a, b = summarize(cells["A"][name]), summarize(cells["B"][name])
            if a and b:
                aa[name] = {m.name: b[m.name]["value"] / a[m.name]["value"] - 1.0 for m in END_TO_END}

    tally = Tally()
    for name in names:
        tally.merge(tallies[name])
        result[name]["attempted"] = tallies[name].attempted
        result[name]["failed"] = tallies[name].failed
        result[name]["failed_share"] = tallies[name].failed_share
    document = {
        "host": host_facts([c for name in names for c in result[name]["calib_ms"]]),
        "config": {"seed": args.seed, "sizes": sizes.key(args.seed), "rounds": rounds,
                   "warmup_ticks": WARMUP, "smoke": args.smoke},
        "attempted": tally.attempted, "failed": tally.failed, "failed_share": tally.failed_share,
        "problems": tally.problems, "workloads": result, "aa": aa,
    }
    print_report(document)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "report.json").write_text(json.dumps(document, indent=1))
    if args.write and tally.failed == 0:
        write_baseline(document, sizes, args.seed)
    return 0 if tally.failed == 0 else 1


def host_facts(calib_ms: Sequence[float]) -> dict:
    return {
        "nproc": os.cpu_count(), "python": platform.python_version(), "numpy": np.__version__,
        "machine": platform.machine(), "math_fingerprint": checks.math_fingerprint(),
        "calib_ms": statistics.median(calib_ms) if calib_ms else None,
    }


def print_report(doc: dict) -> None:
    fmt = lambda v: "n/a" if v is None else f"{v:,.4g}"  # noqa: E731
    for name, entry in doc["workloads"].items():
        print(f"\n== {name}: {WORKLOADS[name].why}")
        if entry["end_to_end"] is None:
            print("  no round finished")
            continue
        for metric, e in entry["end_to_end"].items():
            print(f"  {metric:<16} {fmt(e['value']):>10} {e['unit']:<4} "
                  f"bound {e['bound']:.0%}  (wall {fmt(e['wall'])}; {e['samples']})")
        print(f"  {'failed_share':<16} {fmt(entry['failed_share']):>10} ratio bound 0 (absolute; "
              f"{entry['failed']} of {entry['attempted']} steps and checks)")
        print(f"  checks: oracle on {entry['oracle_ticks']} ticks; {', '.join(entry['end_checks'])}; "
              f"rows {entry['pin'] and entry['pin']['result_rows_initial']} -> "
              f"{entry['pin'] and entry['pin']['result_rows_final']}")
        if "per_layer" in entry:
            width = max(len(m) for m in entry["per_layer"])
            units = {m.name: m.unit for m in PER_LAYER}
            for metric, value in entry["per_layer"].items():
                print(f"    {metric:<{width}} {fmt(value):>10} {units[metric]}")
            if entry["intent"]:
                print(f"    {intent_line(entry['intent'])}")
            for note in entry["warnings"]:
                print(f"    warning: {note}")
    if doc["aa"]:
        print("\n== A/A: relative difference of set B against set A")
        for name, diffs in doc["aa"].items():
            print(f"  {name:<15} " + "  ".join(f"{m} {d:+.1%}" for m, d in diffs.items()))
    for problem in doc["problems"]:
        print(f"FAILED {problem}")
    print(f"\nfailed_share = {doc['failed_share']:.6g} ({doc['failed']} of {doc['attempted']})")


def benchmark_json() -> dict:
    """The contract file, generated from the tables in ``spec.py``."""
    return {
        "command": ["python3", "benchmarks/e2e/run.py"],
        "paths": ["benchmarks/e2e"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS.values()],
        "end_to_end": [{"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
                       for m in END_TO_END],
        "per_layer": [{"name": m.name, "unit": m.unit, "better": m.better} for m in PER_LAYER],
    }


def write_baseline(doc: dict, sizes: Sizes, seed: int) -> None:
    """Record this run as the baseline; keys it does not own are kept."""
    BENCHMARK_JSON.write_text(json.dumps(benchmark_json(), indent=2) + "\n")
    baseline = load_baseline()
    pins = baseline.setdefault("pins", {})
    pins.setdefault(sizes.key(seed), {}).update(
        {name: entry["pin"] for name, entry in doc["workloads"].items()})
    if not doc["config"]["smoke"]:
        baseline["host"] = doc["host"]
        baseline["config"] = doc["config"]
        baseline["workloads"] = {
            name: {
                # Bounds are BENCHMARK.json's to state, once.
                "end_to_end": {m: {k: v for k, v in e.items() if k != "bound"}
                               for m, e in entry["end_to_end"].items()},
                "per_layer": entry.get("per_layer"), "intent": entry.get("intent"),
            }
            for name, entry in doc["workloads"].items()
        }
        if doc["aa"]:
            baseline["aa"] = doc["aa"]
    elif "host" not in baseline:
        baseline["host"] = doc["host"]
    BASELINE.write_text(json.dumps(baseline, indent=1) + "\n")


# ----------------------------------------------------------------------
def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--workload", choices=list(WORKLOADS))
    parser.add_argument("--rounds", type=int, help="untraced rounds per workload (default 3)")
    parser.add_argument("--ticks", type=int, help="timed ticks per round (default 100)")
    parser.add_argument("--no-trace", action="store_true", help="skip the traced rounds")
    parser.add_argument("--aa", action="store_true", help="two interleaved sets of the same code")
    parser.add_argument("--smoke", action="store_true", help="small cell: all checks, seconds not minutes")
    parser.add_argument("--write", action="store_true", help="record BENCHMARK.json and baseline.json")
    parser.add_argument("--out", default=str(HERE / "out"), help="where traces and report.json go")
    parser.add_argument("--seconds", type=float, help="single run: seconds of steps to time")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="single run: 1 prints the per-layer metrics of a traced round")
    parser.add_argument("--corrupt", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--child", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        child_main(args.child)
        return 0
    if args.seconds is not None:
        if not args.workload:
            parser.error("--seconds needs --workload")
        return single_run(args)
    return report(args)


if __name__ == "__main__":
    sys.exit(main())
