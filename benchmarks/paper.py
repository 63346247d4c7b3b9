"""The paper's §VI as one table of cells, one runner and one stored result.

Each cell is one measured section of Figs. 7–13, the §VI-D.2 sweeps, the
ablations or the extensions, keyed ``(figure, series, x)``.  The runner
starts the section from the same state every time (cold buffer, zeroed
tracker) and records ``COUNTS``, which repeat exactly (``pages``: tree
pages allocated when the section ends; ``answer_pairs``: the size of the
join's answer, or of the engine's at its clock), and ``cpu_s``, which is
never compared (Figs. 7 and 8 keep the least of three runs, whose counts
must agree).  Maintenance cells record the cost per update, as Fig. 13
does.  Cells that repeat a section, workload and arguments share one run.

    PYTHONPATH=src python benchmarks/paper.py            # re-run, compare, check
    PYTHONPATH=src python benchmarks/paper.py --write    # record, regenerate tables
    PYTHONPATH=src python benchmarks/paper.py --profile medium --only fig07,fig13

The default mode exits 1 when a count differs from ``BENCH_paper.json``,
when a table of EXPERIMENTS.md (between ``<!-- paper:ID -->`` markers)
differs from its render of the JSON, or when a claim fails; a known
deviation must keep failing.  With ``--obs``, Fig. 7's cells are recorded
span by span and Fig. 13 exports its engines' timelines into
``benchmarks/out/obs`` (``python -m repro.obs report benchmarks/out/obs``).
"""

from __future__ import annotations

import argparse
import inspect
import json
import os
import platform
import re
import sys
from contextlib import contextmanager
from functools import lru_cache
from pathlib import Path
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple

from repro.core import (ContinuousJoinEngine, ContinuousSelfJoinEngine, JoinConfig,
                        SimulationDriver)
from repro.geometry import INF, Box, KineticBox
from repro.index import TPRStarTree, TreeStorage, bulk_load
from repro.join import JoinTechniques, naive_join, pbsm_join, tc_join
from repro.metrics import CostTracker, monotonic_clock
from repro.obs import ObsRecorder
from repro.queries import ContinuousWindowEngine
from repro.workloads import DISTRIBUTIONS, UpdateStream, make_workload

ROOT = Path(__file__).resolve().parent.parent
BENCH_JSON = ROOT / "BENCH_paper.json"
EXPERIMENTS = ROOT / "EXPERIMENTS.md"
OBS_DIR = Path(__file__).resolve().parent / "out" / "obs"

#: The paper runs 1K–100K objects in C++; these sizes keep every
#: relative comparison at pure-Python cost.  ``small`` is the pinned one.
PROFILES = {
    "small": {"sizes": [200, 500, 1000], "naive_sizes": [200, 500, 1000],
              "default_n": 1000, "maintenance_steps": 8},
    "medium": {"sizes": [500, 1000, 2000, 4000], "naive_sizes": [500, 1000, 2000],
               "default_n": 2000, "maintenance_steps": 12},
    "large": {"sizes": [1000, 2000, 5000, 10000], "naive_sizes": [1000, 2000],
              "default_n": 5000, "maintenance_steps": 20},
}

#: The paper's default parameters (Table I).
T_M = 60.0
MAX_SPEED = 2.0
OBJECT_SIZE_PCT = 0.1
SEED = 20080407  # ICDE 2008

COUNTS = ("page_reads", "page_writes", "pair_tests", "node_visits", "pages",
          "answer_pairs")
FIGURES = ("fig07", "fig08", "fig09", "fig10", "fig11", "fig12", "fig13",
           "sweep-tm", "sweep-dist", "sweep-speed", "sweep-size",
           "buckets", "buffer", "bulkload", "pbsm", "selfjoin", "window")

ETP, MTB, NON_TC, TC = "ETP-Join", "MTB-Join", "Non Time-Constrained", "Time-Constrained"
SERIES = {"naive": "NaiveJoin", "etp": ETP, "mtb": MTB}
TECHNIQUES = {  # Fig. 8's sets, by the paper's labels
    label: JoinTechniques(**{f"use_{t.lower()}": label == "ALL" or t in label
                             for t in ("PS", "DS", "IC")})
    for label in ("None", "IC", "PS", "DS+PS", "IC+PS", "ALL")
}

Key = Tuple[str, str, object]
Counts = Dict[str, float]


@lru_cache(maxsize=32)
def scenario(n, distribution="uniform", max_speed=MAX_SPEED,
             object_size_pct=OBJECT_SIZE_PCT, t_m=T_M):
    return make_workload(n, distribution, max_speed=max_speed,
                         object_size_pct=object_size_pct, t_m=t_m, seed=SEED)


def _counts(cost, storage: Optional[TreeStorage], answer_pairs: int) -> Counts:
    """``cost``: a tracker or a snapshot, read before the answer; 0 pages without a tree."""
    return {"page_reads": cost.page_reads, "page_writes": cost.page_writes,
            "pair_tests": cost.pair_tests, "node_visits": cost.node_visits,
            "pages": storage.disk.num_pages if storage is not None else 0,
            "answer_pairs": answer_pairs, "cpu_s": round(cost.cpu_seconds, 4)}


def _engine(sc, algorithm, **config) -> ContinuousJoinEngine:
    return ContinuousJoinEngine.create(sc.set_a, sc.set_b, algorithm=algorithm,
                                       config=JoinConfig(t_m=sc.t_m, **config))


def _cold(storage: TreeStorage) -> CostTracker:
    """Write back and empty the buffer, then zero the counters."""
    storage.buffer.clear()
    storage.tracker.reset()
    return storage.tracker


#: A section's recording under ``--obs``: its file name under ``OBS_DIR``
#: and the metadata the file carries.
Recording = Optional[Tuple[str, dict]]


@contextmanager
def _obs_recording(tracker: CostTracker, recording: Recording, label: str = "bench"):
    """Record the enclosed section into one JSON file, given a
    ``recording``.  The recorder is attached for the section alone, so
    the exported totals are exactly the section's counters."""
    if recording is None:
        yield
        return
    name, meta = recording
    recorder = ObsRecorder(label, meta=meta)
    recorder.attach(tracker)
    try:
        yield
    finally:
        recorder.detach()
        recorder.export_json(OBS_DIR / name)


# -- the measured sections ---------------------------------------------
_HELD: list = []  # one (scenario, key, value) entry
_MEASURED: Dict[tuple, Counts] = {}  # Cell.run's, by section, workload and arguments


def _once(sc, key, make):
    """``make()``, kept while the same scenario object asks for ``key`` again."""
    if not (_HELD and _HELD[0] is sc and _HELD[1] == key):
        _HELD[:] = [sc, key, make()]
    return _HELD[2]


#: Figs. 7 and 8 rank their series by CPU as well: each cell keeps the
#: least ``cpu_s`` of this many runs of its section.
TREE_JOIN_RUNS = 3


def tree_join(sc, algorithm, t_m=None, techniques=None, recording: Recording = None) -> Counts:
    """Figs. 7 and 8: one join of the engine's trees from a cold buffer,
    TC-Join over the Theorem-1 window ``[0, t_m]`` (ImprovedJoin with
    ``techniques``), or NaiveJoin over ``[0, ∞)`` with ``t_m=None``.  The
    build is not measured; the cells of one workload and algorithm share it.
    The join runs ``TREE_JOIN_RUNS`` times, each from a cold buffer: every
    count must repeat, and the least ``cpu_s`` is kept (the first run is
    the recorded one under ``--obs``)."""
    engine = _once(sc, algorithm, lambda: _engine(sc, algorithm))
    tree_a, tree_b = engine._strategy.tree_a, engine._strategy.tree_b
    runs = []
    for _ in range(TREE_JOIN_RUNS):
        tracker = _cold(engine.storage)
        with _obs_recording(tracker, None if runs else recording), tracker.timed():
            result = (naive_join(tree_a, tree_b, 0.0, INF, tracker) if t_m is None
                      else tc_join(tree_a, tree_b, 0.0, t_m, techniques, tracker))
        runs.append(_counts(tracker, engine.storage, len(result)))
    counts = [{k: run[k] for k in COUNTS} for run in runs]
    if any(c != counts[0] for c in counts):
        raise AssertionError(f"tree_join counts differ between runs: {counts}")
    return {**runs[0], "cpu_s": min(run["cpu_s"] for run in runs)}


def initial_join(sc, algorithm) -> Counts:
    """Figs. 9–12: the engine's whole initial join from a cold buffer."""
    engine = _engine(sc, algorithm)
    _cold(engine.storage)
    engine.run_initial_join()
    return _counts(engine.tracker.snapshot(), engine.storage, len(engine.result_at(engine.now)))


def maintenance(sc, algorithm, steps, recording: Recording = None,
                buckets_per_tm=JoinConfig.buckets_per_tm,
                buffer_pages=JoinConfig.buffer_pages) -> Counts:
    """Fig. 13, the sweeps, the bucket and buffer ablations: the initial
    join, then ``steps`` timestamps of per-object updates, per update.
    The ``recording`` is the engine's timeline from its initial join on."""
    engine = _engine(sc, algorithm, buckets_per_tm=buckets_per_tm, buffer_pages=buffer_pages)
    with _obs_recording(engine.tracker, recording, label="engine"):
        engine.run_initial_join()
        engine.tracker.reset()
        driver = SimulationDriver(engine, UpdateStream(sc, seed=SEED + 1))
        driver.run(steps)
    return _counts(driver.amortized_cost(), engine.storage, len(engine.result_at(engine.now)))


def _drive(engine, sc, seed, steps) -> int:
    """Feed set A's updates to a one-set engine; B's only advance."""
    stream = UpdateStream(sc, seed=seed)
    shadow_b = {o.oid: o for o in sc.set_b}
    updates = 0
    for step in range(1, steps + 1):
        t = float(step)
        engine.tick(t)
        for obj in stream.updates_for(t, {**engine.objects, **shadow_b}):
            if obj.oid in engine.objects:
                engine.apply_update(obj)
                updates += 1
            else:
                shadow_b[obj.oid] = obj
    return updates


def window_queries(sc, steps, time_constrained) -> Counts:
    """§V: ten moving windows over set A, initial evaluation included
    (the horizon difference shows in its tree probes); totals."""
    windows = {9_000_000 + i: KineticBox.rigid(Box(90.0 * i, 90.0 * i + 150.0, 100.0, 400.0),
                                               (-1) ** i * 0.7, 0.5, 0.0) for i in range(10)}
    engine = ContinuousWindowEngine(sc.set_a, windows, JoinConfig(t_m=T_M),
                                    time_constrained=time_constrained)
    engine.tracker.reset()
    with engine.tracker.timed():
        engine.evaluate_initial()
        _drive(engine, sc, SEED + 2, steps)
    return _counts(engine.tracker.snapshot(), engine.storage, len(engine.result_at(engine.now)))


def self_join(sc, steps) -> Counts:
    """The introduction's interest management: set A joined with itself."""
    engine = ContinuousSelfJoinEngine(sc.set_a, JoinConfig(t_m=T_M))
    engine.run_initial_join()
    engine.tracker.reset()
    with engine.tracker.timed():
        updates = _drive(engine, sc, SEED + 3, steps)
    cost = engine.tracker.snapshot().scaled(max(1, updates))
    return _counts(cost, engine.storage, len(engine.result_at(engine.now)))


def pbsm(sc) -> Counts:
    """§VII: Patel & DeWitt's index-free join over ``[0, T_M]``."""
    tracker = CostTracker()
    with tracker.timed():
        result = pbsm_join(sc.set_a, sc.set_b, 0.0, T_M, sc.space_size, tracker=tracker)
    return _counts(tracker, None, len(result))


def build(sc, bulk, phase) -> Counts:
    """Both trees by STR bulk load or by insertion (``phase="build"``), or
    ALL-technique join of the built trees from a cold buffer; one
    construction serves both phases."""
    def both():
        storage, trees = TreeStorage(), []
        with storage.tracker.timed():
            for dataset in (sc.set_a, sc.set_b):
                if bulk:
                    trees.append(bulk_load(dataset, t0=0.0, storage=storage, horizon=T_M))
                    continue
                trees.append(TPRStarTree(storage=storage, horizon=T_M))
                for obj in dataset:
                    trees[-1].insert(obj, 0.0)
        built, tracker = _counts(storage.tracker, storage, 0), _cold(storage)
        with tracker.timed():
            result = tc_join(trees[0], trees[1], 0.0, T_M, JoinTechniques.all(), tracker)
        return {"build": built, "join": _counts(tracker, storage, len(result))}
    return _once(sc, ("build", bulk), both)[phase]


# -- the table of cells --------------------------------------------------
class Cell(NamedTuple):
    figure: str
    series: str
    x: object
    section: Callable[..., Counts]
    workload: dict  # scenario() parameters
    args: dict  # section parameters

    @property
    def key(self) -> Key:
        return (self.figure, self.series, self.x)

    def run(self) -> Counts:
        key = (self.section, _bound(scenario, self.workload), _bound(self.section, self.args))
        if key not in _MEASURED:
            _MEASURED[key] = self.section(scenario(**dict(key[1])), **self.args)
        return _MEASURED[key]


def _bound(fn, kwargs) -> tuple:
    """``kwargs`` bound to ``fn``, defaults filled in, less the recording."""
    bound = inspect.signature(fn).bind_partial(**kwargs)
    bound.apply_defaults()
    return tuple((k, v) for k, v in bound.arguments.items() if k != "recording")


def cells(profile: str = "small", record: bool = False) -> List[Cell]:
    """The profile's cells; with ``record``, Figs. 7 and 13 carry recordings."""
    p = PROFILES[profile]
    n0, steps = p["default_n"], p["maintenance_steps"]
    table: List[Cell] = []

    def add(figure, series, x, section, workload, **args):
        table.append(Cell(figure, series, x, section, workload, args))

    def recording(name, figure, series, x) -> Recording:
        return (f"{name}.json", {"figure": figure, "series": series, "x": x}) if record else None

    fig07 = "Figure 7: TC vs non-TC initial join (no improvement techniques)"
    for n in p["naive_sizes"]:
        for t_m, series, name in ((None, NON_TC, "nontc"), (T_M, TC, "tc")):
            add("fig07", series, n, tree_join, {"n": n}, algorithm="naive", t_m=t_m,
                recording=recording(f"fig07_{name}_{n}", fig07, series, n))
    for label, techniques in TECHNIQUES.items():
        add("fig08", label, n0, tree_join, {"n": n0}, algorithm="tc", t_m=T_M,
            techniques=techniques)
    for algorithm in ("naive", "etp", "mtb"):
        for n in p["naive_sizes" if algorithm == "naive" else "sizes"]:
            add("fig09", SERIES[algorithm], n, initial_join, {"n": n}, algorithm=algorithm)
    fig13 = "Figure 13: maintenance cost per update vs dataset size"
    for algorithm in ("etp", "mtb"):
        for n in p["sizes"]:
            add("fig13", SERIES[algorithm], n, maintenance, {"n": n}, algorithm=algorithm,
                steps=steps, recording=recording(f"fig13_timeline_{algorithm}_{n}", fig13,
                                                 SERIES[algorithm], n))
    n_sweep = max(200, n0 // 2)
    speeds, sizes = (1.0, 2.0, 3.0, 4.0, 5.0), (0.05, 0.1, 0.2, 0.4, 0.8)
    grids = {  # figure: (section, n, [(x, scenario parameters)])
        "fig10": (initial_join, n0, [(d, {"distribution": d}) for d in DISTRIBUTIONS]),
        "fig11": (initial_join, n0, [(s, {"max_speed": s}) for s in speeds]),
        "fig12": (initial_join, n0, [(f"{s}%", {"object_size_pct": s}) for s in sizes]),
        "sweep-tm": (maintenance, n_sweep, [(t, {"t_m": t}) for t in (60.0, 120.0, 240.0)]),
        "sweep-dist": (maintenance, n_sweep, [(d, {"distribution": d}) for d in DISTRIBUTIONS]),
        "sweep-speed": (maintenance, n_sweep, [(s, {"max_speed": s}) for s in speeds[::2]]),
        "sweep-size": (maintenance, n_sweep,
                       [(f"{s}%", {"object_size_pct": s}) for s in sizes[::2]]),
    }
    for figure, (section, n, points) in grids.items():
        extra = {"steps": steps} if section is maintenance else {}
        for algorithm in ("etp", "mtb"):
            for x, workload in points:
                road = " (road ext.)" if (figure, x) == ("fig10", "road") else ""  # not in §VI
                add(figure, SERIES[algorithm] + road, x, section, {"n": n, **workload},
                    algorithm=algorithm, **extra)
    for m in (1, 2, 4, 8):
        add("buckets", f"m={m}", n0, maintenance, {"n": n0}, algorithm="mtb", steps=steps,
            buckets_per_tm=m)
    for pages in (5, 10, 25, 50, 100, 200):
        add("buffer", f"{pages} pages", n0, maintenance, {"n": n0}, algorithm="mtb",
            steps=steps, buffer_pages=pages)
    for bulk, how in ((False, "insert"), (True, "bulk")):
        for phase in ("build", "join"):
            add("bulkload", f"{how}: {phase}", n0, build, {"n": n0}, bulk=bulk, phase=phase)
    for n in p["sizes"]:
        add("pbsm", "PBSM", n, pbsm, {"n": n})
        add("pbsm", MTB, n, initial_join, {"n": n}, algorithm="mtb")
        add("selfjoin", "self-join (MTB)", n, self_join, {"n": n}, steps=steps)
    for time_constrained, series in ((True, "TC horizons"), (False, "naive [t, inf)")):
        add("window", series, n0, window_queries, {"n": n0}, steps=steps,
            time_constrained=time_constrained)
    return sorted(table, key=lambda c: FIGURES.index(c.figure))


# -- each figure's claim, as a predicate on counts ------------------------
def col(counts: Dict[Key, Counts], figure, series=None, field="pair_tests") -> list:
    """A series' values (every series' with ``series=None``) in table
    order; ``field="io"`` is reads + writes, ``field="x"`` the cell's x."""
    return [x if field == "x" else c["page_reads"] + c["page_writes"] if field == "io"
            else c[field]
            for (f, s, x), c in counts.items() if f == figure and series in (None, s)]


def below(low, high, strict=True) -> bool:
    return len(low) == len(high) > 0 and all(
        a < b or (a == b and not strict) for a, b in zip(low, high))


def rising(values) -> bool:
    return len(values) > 1 and all(a < b for a, b in zip(values, values[1:]))


def fewer(figure, low, high, field="pair_tests", strict=True):
    """``low``'s series is below ``high``'s at every x (not above, unless strict)."""
    return lambda c: below(col(c, figure, low, field), col(c, figure, high, field), strict)


def widening(figure, high, low):
    """The ratio of ``high``'s series to ``low``'s grows with x."""
    return lambda c: rising([a / b for a, b in zip(col(c, figure, high), col(c, figure, low))])


class Claim(NamedTuple):
    figure: str
    text: str
    holds: Callable[[Dict[Key, Counts]], bool]
    deviation: Optional[str] = None  # why the measurement contradicts it


CLAIMS = [
    Claim("fig07", "TC does fewer pair tests than non-TC at every n", fewer("fig07", TC, NON_TC)),
    Claim("fig07", "the non-TC/TC pair-test ratio grows with n", widening("fig07", NON_TC, TC)),
    Claim("fig07", "TC never costs more I/O than non-TC",
          fewer("fig07", TC, NON_TC, "io", strict=False)),
    Claim("fig08", "every technique set cuts None's pair tests",
          lambda c: all(fewer("fig08", s, "None")(c) for s in list(TECHNIQUES)[1:])),
    Claim("fig08", "IC+PS does fewer pair tests than DS+PS", fewer("fig08", "IC+PS", "DS+PS")),
    Claim("fig08", "PS cuts None's I/O", fewer("fig08", "PS", "None", "io"),
          deviation="PS raises I/O from 116 to 128: the sweep visits node pairs in another "
                    "order than the depth-first scan and misses the 50-page buffer more"),
    Claim("fig09", "NaiveJoin does more pair tests than ETP", fewer("fig09", ETP, "NaiveJoin")),
    Claim("fig09", "the NaiveJoin/ETP ratio grows with n", widening("fig09", "NaiveJoin", ETP)),
    Claim("fig09", "MTB does fewer pair tests than ETP at every n", fewer("fig09", MTB, ETP)),
    Claim("fig09", "MTB costs no more I/O than ETP at every n",
          fewer("fig09", MTB, ETP, "io", strict=False),
          deviation="MTB's I/O at n=1000 is 135 against ETP's 100: past the 50-page buffer, "
                    "the MTB forest's bucket trees hold more pages"),
    Claim("fig10", "MTB does fewer pair tests than ETP on uniform and battlefield",
          lambda c: all(c["fig10", MTB, x]["pair_tests"] < c["fig10", ETP, x]["pair_tests"]
                        for x in ("uniform", "battlefield"))),
    Claim("fig10", "MTB does fewer pair tests than ETP on the road network",
          fewer("fig10", MTB + " (road ext.)", ETP + " (road ext.)")),
    Claim("fig10", "MTB does fewer pair tests than ETP on gaussian",
          lambda c: c["fig10", MTB, "gaussian"]["pair_tests"]
          < c["fig10", ETP, "gaussian"]["pair_tests"],
          deviation="on gaussian MTB makes 173 012 tests against ETP's 96 700: the dense "
                    "centre puts many truly meeting pairs inside MTB's longer horizon"),
    Claim("fig10", "MTB costs less I/O than ETP on every paper distribution",
          fewer("fig10", MTB, ETP, "io"),
          deviation="only on battlefield (2 against 42); on uniform and gaussian the MTB "
                    "forest reads more pages than ETP's two trees (135 vs 100, 174 vs 110)"),
    Claim("fig11", "both series' pair tests grow with speed",
          lambda c: rising(col(c, "fig11", ETP)) and rising(col(c, "fig11", MTB))),
    Claim("fig11", "MTB does fewer pair tests than ETP at every speed", fewer("fig11", MTB, ETP),
          deviation="MTB crosses above ETP at speed 3 (99 981 vs 72 558): faster objects "
                    "stretch the swept boxes of MTB's longer horizon"),
    Claim("fig12", "MTB does fewer pair tests than ETP at every size", fewer("fig12", MTB, ETP)),
    Claim("fig12", "both series' pair tests grow with object size",
          lambda c: rising(col(c, "fig12", ETP)) and rising(col(c, "fig12", MTB))),
    Claim("fig13", "MTB's per-update pair tests are below ETP's", fewer("fig13", MTB, ETP)),
    Claim("fig13", "the ETP/MTB per-update ratio grows with n", widening("fig13", ETP, MTB)),
    Claim("fig13", "MTB's per-update I/O never exceeds ETP's",
          fewer("fig13", MTB, ETP, "io", strict=False)),
    *(Claim(sweep, "MTB's per-update pair tests are below ETP's in every cell",
            fewer(sweep, MTB, ETP))
      for sweep in ("sweep-tm", "sweep-dist", "sweep-speed", "sweep-size")),
    Claim("sweep-tm", "the ETP/MTB ratio grows with T_M", widening("sweep-tm", ETP, MTB)),
    Claim("buckets", "per-update pair tests fall as the bucket count m grows",
          lambda c: rising(col(c, "buckets")[::-1])),
    Claim("buffer", "per-update I/O never rises as the buffer grows",
          lambda c: (io := col(c, "buffer", field="io")) == sorted(io, reverse=True)),
    Claim("buffer", "the buffer moves no pair test", lambda c: len(set(col(c, "buffer"))) == 1),
    Claim("bulkload", "STR packing builds with less I/O than insertion",
          fewer("bulkload", "bulk: build", "insert: build", "io")),
    Claim("pbsm", "the index-free one-shot join does fewer pair tests than MTB's",
          fewer("pbsm", "PBSM", MTB)),
    Claim("selfjoin", "per-update pair tests grow more slowly than n",
          lambda c: rising([n / t for n, t in zip(col(c, "selfjoin", field="x"),
                                                  col(c, "selfjoin"))])),
    Claim("window", "naive horizons do more pair tests than TC horizons",
          fewer("window", "TC horizons", "naive [t, inf)")),
]


def check_claims(counts: Dict[Key, Counts], figures) -> List[Tuple[Claim, bool, str]]:
    """Evaluate the claims of ``figures``: ``(claim, ok, verdict)`` each."""
    report = []
    for claim in (c for c in CLAIMS if c.figure in figures):
        held = bool(claim.holds(counts))
        verdict = (("holds" if held else "FAILS") if claim.deviation is None
                   else "DEVIATION NOW HOLDS" if held else "known deviation")
        report.append((claim, held == (claim.deviation is None), verdict))
    return report


# -- the stored result and the generated tables ---------------------------
def load() -> dict:
    return json.loads(BENCH_JSON.read_text()) if BENCH_JSON.exists() else {"profiles": {}}


def recorded(data: dict, profile: str = "small") -> Dict[Key, Counts]:
    return {(r["figure"], r["series"], r["x"]): {k: r.get(k) for k in COUNTS + ("cpu_s",)}
            for r in data["profiles"].get(profile, {}).get("cells", [])}


def render(counts: Dict[Key, Counts], figure: str) -> str:
    lines = ["| series | x | I/O | pair tests | node visits | tree pages (buffer 50) "
             "| answer pairs | CPU s |", "|---|---|--:|--:|--:|--:|--:|--:|"]
    for (f, series, x), c in counts.items():
        if f == figure:
            lines.append(f"| {series} | {x} | {c['page_reads'] + c['page_writes']:,} | "
                         f"{c['pair_tests']:,} | {c['node_visits']:,} | {c['pages']:,} | "
                         f"{c['answer_pairs']:,} | {c['cpu_s']:.3f} |")
    return "\n".join(lines)


def _marked(figure: str) -> "re.Pattern[str]":
    return re.compile(rf"(<!-- paper:{figure} -->\n)(.*?)(<!-- /paper:{figure} -->)", re.S)


def table_drift(text: str, counts: Dict[Key, Counts]) -> List[str]:
    """Figures whose EXPERIMENTS table is missing or differs from its render."""
    return [f for f in FIGURES
            if (m := _marked(f).search(text)) is None or m.group(2) != render(counts, f) + "\n"]


def regenerate(text: str, counts: Dict[Key, Counts]) -> str:
    for figure in FIGURES:
        text = _marked(figure).sub(
            lambda m, f=figure: m.group(1) + render(counts, f) + "\n" + m.group(3), text)
    return text


# -- the command line ----------------------------------------------------
def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--write", action="store_true", help="record, regenerate tables")
    parser.add_argument("--profile", choices=sorted(PROFILES), default="small")
    parser.add_argument("--only", default="", help="comma-separated: " + ",".join(FIGURES))
    parser.add_argument("--obs", action="store_true",
                        help=f"record Fig. 7's cells and Fig. 13's timelines into {OBS_DIR}")
    args = parser.parse_args(argv)
    figures = [f for f in args.only.split(",") if f] or list(FIGURES)
    if set(figures) - set(FIGURES):
        parser.error(f"unknown figure(s) {sorted(set(figures) - set(FIGURES))}")
    data = load()
    pinned = recorded(data, args.profile)
    if not args.write and not pinned:
        print(f"BENCH_paper.json records no {args.profile!r} profile; run with --write")
        return 1

    failures = 0
    fresh: Dict[Key, Counts] = {}
    start = monotonic_clock()
    for cell in (c for c in cells(args.profile, record=args.obs) if c.figure in figures):
        fresh[cell.key] = counts = cell.run()
        old = pinned.get(cell.key)
        diff = [k for k in COUNTS if old is None or old[k] != counts[k]]
        failures += bool(diff) and not args.write
        tag = "moved" if diff and args.write else "DIFF" if diff else "ok"
        print(f"{tag:<5} {cell.figure:<11} {cell.series:<22} "
              f"{str(cell.x):<12} " + " ".join(f"{k}={counts[k]}" for k in COUNTS + ("cpu_s",)))
        if diff and old is not None:
            print(f"{'':<5} recorded: " + " ".join(f"{k}={old[k]}" for k in COUNTS))
    wall = monotonic_clock() - start

    merged = {**pinned, **fresh}
    for claim, ok, verdict in check_claims(merged, figures):
        failures += not ok
        print(f"{'ok' if ok else 'FAIL':<5} {claim.figure:<11} {verdict}: {claim.text}"
              + (f" [{claim.deviation}]" if claim.deviation else ""))

    if args.write:
        order = [c.key for c in cells(args.profile) if c.key in merged]
        data["profiles"][args.profile] = {
            "host": f"{platform.machine()}, {os.cpu_count()} CPUs, "
                    f"Python {platform.python_version()}",
            "cells": [dict(zip(("figure", "series", "x"), key), **merged[key])
                      for key in order],
        }
        BENCH_JSON.write_text(json.dumps(data, indent=1) + "\n")
        EXPERIMENTS.write_text(regenerate(EXPERIMENTS.read_text(), recorded(data)))
        print(f"wrote {len(order)} {args.profile} cells and EXPERIMENTS.md's tables")
    drift = table_drift(EXPERIMENTS.read_text(), recorded(data))
    for figure in drift:
        print(f"DRIFT {figure:<11} EXPERIMENTS.md's table differs from BENCH_paper.json")
    print(f"{len(fresh)} cells in {wall:.1f} s; {failures + len(drift)} failure(s)")
    return 1 if failures or drift else 0


if __name__ == "__main__":
    sys.exit(main())
