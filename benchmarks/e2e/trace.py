"""Outside-in layer tracing: timing wrappers around public callables.

The traced round installs class-level (or module-level) wrappers around
each layer's public entry points *before* the engine is built, resolving
the targets from live objects of a throw-away probe engine rather than
from import paths, so a later file split does not break the trace.  A
target that no longer exists is reported as a warning and its metrics
come out ``None``; nothing here is imported by an untraced round.

Every call records one span; spans of one step share its tick and hang
off the step's root span through ``parent``.  Self time is a span's
duration minus its children's.
"""

from __future__ import annotations

import inspect
import json
import pickle
import sys
from contextlib import contextmanager
from time import perf_counter_ns
from typing import Callable, Dict, Iterable, List, Optional, Sequence

import numpy as np

#: Layer of the spans the benchmark itself opens (step root, read groups).
BENCH = "bench"

_LAYER, _NAME, _TICK, _PARENT, _START, _END, _N_IN, _N_OUT = range(8)


def _size(value) -> Optional[int]:
    """``len`` of a sized value, or an integer result taken as a count."""
    try:
        return len(value)
    except TypeError:
        return value if isinstance(value, int) and not isinstance(value, bool) else None


def _args_size(args, kwargs) -> Optional[int]:
    """Total length of the sized positional arguments after ``self``."""
    sizes = [len(arg) for arg in args[1:] if hasattr(arg, "__len__")]
    return sum(sizes) if sizes else None


def _sweep_in(args, kwargs) -> Optional[int]:
    # (batch_p, batch_o, ...): probe rows x other rows is the search space.
    try:
        return int(args[0].n) * int(args[1].n)
    except (AttributeError, IndexError):
        return None


def _sweep_out(result) -> Optional[int]:
    return _size(result[0])


def _updates_out(result) -> Optional[int]:
    return sum(len(batch) for batch in result)


def _pickled_in(args, kwargs) -> int:
    return len(pickle.dumps(args[1:], pickle.HIGHEST_PROTOCOL))


def _pickled_out(result) -> int:
    return len(pickle.dumps(result, pickle.HIGHEST_PROTOCOL))


class Tracer:
    """In-memory span recorder plus the wrappers that feed it."""

    def __init__(self, workload: str, round_id: int):
        self.workload = workload
        self.round_id = round_id
        self.tick = 0
        self.spans: List[list] = []
        self.warnings: List[str] = []
        self._stack: List[int] = []
        self._installed: List[tuple] = []

    # -- recording -----------------------------------------------------
    def _open(self, layer: str, name: str) -> list:
        rec = [layer, name, self.tick, self._stack[-1] if self._stack else -1, 0, 0, None, None]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        return rec

    @contextmanager
    def span(self, name: str):
        """A span the benchmark opens itself (layer ``bench``)."""
        rec = self._open(BENCH, name)
        rec[_START] = perf_counter_ns()
        try:
            yield rec
        finally:
            rec[_END] = perf_counter_ns()
            self._stack.pop()

    def _wrapper(self, fn, layer, name, n_in, n_out, costly):
        tracer = self

        def traced(*args, **kwargs):
            rec = tracer._open(layer, name)
            rec[_START] = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[_END] = perf_counter_ns()
                tracer._stack.pop()
            if costly:
                # Sizing by pickling is work the program does not do:
                # book it as its own span so no layer's self time pays.
                with tracer.span("trace.sizing"):
                    rec[_N_IN], rec[_N_OUT] = n_in(args, kwargs), n_out(result)
            else:
                rec[_N_IN], rec[_N_OUT] = n_in(args, kwargs), n_out(result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def wrap(
        self,
        owner,
        attr: str,
        layer: str,
        n_in: Callable = _args_size,
        n_out: Callable = _size,
        costly: bool = False,
    ) -> None:
        """Replace ``owner.attr`` by a recording wrapper, if it exists."""
        static = inspect.getattr_static(owner, attr, None) if owner is not None else None
        if not inspect.isfunction(static):
            self.warnings.append(f"{layer}: no wrappable '{attr}' on {owner!r}")
            return
        setattr(owner, attr, self._wrapper(static, layer, attr, n_in, n_out, costly))
        self._installed.append((owner, attr, static))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._installed):
            setattr(owner, attr, original)
        self._installed.clear()

    # -- installation --------------------------------------------------
    def install(self, engine, stream, subscription, sharded: bool) -> None:
        """Wrap every layer reachable from these live probe objects."""
        engine_cls = type(engine)
        self.wrap(type(stream), "updates_at", "workloads", n_out=_updates_out)
        if sharded:
            for attr in ("apply_update_columns", "tick", "result_at", "merged_store"):
                self.wrap(engine_cls, attr, "par.sharded")
            supervisor = getattr(engine, "supervisor", None)
            self.wrap(
                type(supervisor) if supervisor is not None else None,
                "run", "par.supervisor", n_in=_pickled_in, n_out=_pickled_out, costly=True,
            )
            return
        for attr in ("tick", "apply_update_columns", "result_at", "deltas", "run_initial_join"):
            self.wrap(engine_cls, attr, "core.columnar")
        columns = getattr(engine, "columns_a", None)
        for attr in ("apply", "add", "remove", "gather", "batch"):
            self.wrap(type(columns) if columns is not None else None, attr, "core.columns")
        self.wrap(
            sys.modules.get(engine_cls.__module__), "batch_sweep_join", "geometry.kernels",
            n_in=_sweep_in, n_out=_sweep_out,
        )
        store = getattr(engine, "store", None)
        for attr in (
            "add_batch", "remove_objects", "remove_object", "flush",
            "pairs_at", "pairs_for_object", "approx_bytes", "__len__",
        ):
            self.wrap(type(store) if store is not None else None, attr, "core.result")
        ledger = getattr(engine, "ledger", None)
        if ledger is not None:
            for attr in ("advance", "events_at"):
                self.wrap(type(ledger), attr, "deltas.ledger")
        if subscription is not None:
            self.wrap(type(subscription), "poll", "deltas.watch")

    # -- output --------------------------------------------------------
    def write_jsonl(self, path) -> None:
        with open(path, "w") as out:
            for rec in self.spans:
                out.write(json.dumps({
                    "workload": self.workload, "round": self.round_id, "tick": rec[_TICK],
                    "layer": rec[_LAYER], "name": rec[_NAME],
                    "start_ns": rec[_START], "end_ns": rec[_END], "parent": rec[_PARENT],
                    "n_in": rec[_N_IN], "n_out": rec[_N_OUT],
                }) + "\n")


class SpanTable:
    """Column view over recorded spans for the per-layer arithmetic."""

    def __init__(self, spans: Sequence[list], timed_ticks: Iterable[int]):
        self.layer = np.array([s[_LAYER] for s in spans], dtype=object)
        self.name = np.array([s[_NAME] for s in spans], dtype=object)
        self.tick = np.array([s[_TICK] for s in spans], dtype=np.int64)
        self.parent = np.array([s[_PARENT] for s in spans], dtype=np.int64)
        self.dur_ms = np.array([s[_END] - s[_START] for s in spans], dtype=np.float64) / 1e6
        self.n_in = np.array([np.nan if s[_N_IN] is None else s[_N_IN] for s in spans], dtype=np.float64)
        self.n_out = np.array([np.nan if s[_N_OUT] is None else s[_N_OUT] for s in spans], dtype=np.float64)
        children = np.zeros(len(spans))
        has_parent = self.parent >= 0
        np.add.at(children, self.parent[has_parent], self.dur_ms[has_parent])
        self.self_ms = self.dur_ms - children
        # Spans are appended in open order, so a parent precedes its children.
        self.root = np.arange(len(spans))
        for i in np.nonzero(has_parent)[0]:
            self.root[i] = self.root[self.parent[i]]
        self.timed_ticks = sorted(timed_ticks)
        in_step = (self.layer[self.root] == BENCH) & (self.name[self.root] == "step")
        self.timed = in_step & np.isin(self.tick, self.timed_ticks)

    def mask(self, layer=None, names=None, parent_name=None, timed=True) -> np.ndarray:
        m = self.timed.copy() if timed else np.ones(len(self.layer), dtype=bool)
        if layer is not None:
            m &= self.layer == layer
        if names is not None:
            m &= np.isin(self.name, names)
        if parent_name is not None:
            has = self.parent >= 0
            pname = np.full(len(self.name), None, dtype=object)
            pname[has] = self.name[self.parent[has]]
            m &= pname == parent_name
        return m

    def per_tick(self, values: np.ndarray, mask: np.ndarray) -> np.ndarray:
        """Sum of ``values`` under ``mask`` for each timed tick, in tick order."""
        index = {tick: i for i, tick in enumerate(self.timed_ticks)}
        out = np.zeros(len(self.timed_ticks))
        rows = np.nonzero(mask)[0]
        np.add.at(out, [index[t] for t in self.tick[rows].tolist()], np.nan_to_num(values[rows]))
        return out


def pct(values, q: float) -> Optional[float]:
    values = np.asarray(values, dtype=np.float64)
    return float(np.percentile(values, q)) if values.size else None


def layer_metrics(table: SpanTable, info: dict, warmup: int) -> Dict[str, Optional[float]]:
    """Every per-layer metric this round can supply (``None`` = not measured).

    ``info`` carries what wrappers cannot see: tracker and supervisor
    counters sampled between steps, worker-side costs pulled through the
    public ``shard_costs()``, sizes read at the end of the round.
    """
    ticks = len(table.timed_ticks)
    wrapped = set(zip(table.layer.tolist(), table.name.tolist()))
    out: Dict[str, Optional[float]] = {}

    def total(layer, names, values=None, parent_name=None):
        """Per-tick mean of summed durations (or ``values``); None if never wrapped."""
        if not any((layer, n) in wrapped for n in names):
            return None
        m = table.mask(layer, names, parent_name)
        return float(table.per_tick(table.dur_ms if values is None else values, m).sum() / ticks)

    def durations(layer, names, parent_name=None, scale=1.0):
        m = table.mask(layer, names, parent_name)
        return table.dur_ms[m] * scale if m.any() else np.empty(0)

    ones = np.ones(len(table.layer))

    # workloads: generation happens between steps, so it is never `timed`.
    gen = table.mask("workloads", ["updates_at"], timed=False) & np.isin(table.tick, table.timed_ticks)
    out["workloads.generate_ms_per_tick"] = float(table.dur_ms[gen].sum() / ticks) if gen.any() else None
    out["workloads.updates_per_tick"] = float(np.mean(info["updates"]))

    # core.columnar
    col = "core.columnar"
    if (col, "tick") in wrapped:
        update = table.per_tick(table.dur_ms, table.mask(col, ["tick", "apply_update_columns"]))
        step = table.per_tick(table.dur_ms, table.mask(BENCH, ["step"]))
        read = step - update
        out[f"{col}.update_ms_p50"], out[f"{col}.update_ms_p90"] = pct(update, 50), pct(update, 90)
        out[f"{col}.read_ms_p50"], out[f"{col}.read_ms_p90"] = pct(read, 50), pct(read, 90)
        out[f"{col}.self_ms_per_tick"] = float(table.per_tick(table.self_ms, table.mask(col)).sum() / ticks)
        out[f"{col}.warmup_s"] = float(sum(info["step_ms"][:warmup]) / 1e3)

    # core.columns
    cs = "core.columns"
    out[f"{cs}.commit_ms_per_tick"] = total(cs, ["apply", "add", "remove"])
    out[f"{cs}.gather_ms_per_tick"] = total(cs, ["gather", "batch"])
    out[f"{cs}.gather_calls_per_tick"] = total(cs, ["gather", "batch"], ones)
    out[f"{cs}.rows_written_per_tick"] = total(cs, ["apply", "add"], table.n_in)

    # geometry.kernels
    gk = "geometry.kernels"
    sweep_ms = total(gk, ["batch_sweep_join"])
    out[f"{gk}.sweep_ms_per_tick"] = sweep_ms
    out[f"{gk}.sweep_calls_per_tick"] = total(gk, ["batch_sweep_join"], ones)
    pairs_out = total(gk, ["batch_sweep_join"], table.n_out)
    out[f"{gk}.pairs_out_per_tick"] = pairs_out
    candidates = info.get("candidates")
    if candidates is not None and sweep_ms is not None:
        per_tick = float(np.mean(candidates))
        out[f"{gk}.candidates_per_tick"] = per_tick
        out[f"{gk}.hit_ratio"] = pairs_out / per_tick if per_tick else None
        out[f"{gk}.ns_per_candidate"] = sweep_ms * 1e6 / per_tick if per_tick else None
        out[f"{gk}.initial_candidates"] = float(info["initial_candidates"])
        initial = table.mask(gk, ["batch_sweep_join"], timed=False) & (table.tick == 0)
        if info["initial_candidates"]:
            out[f"{gk}.initial_hit_ratio"] = float(
                np.nansum(table.n_out[initial]) / info["initial_candidates"]
            )

    # core.result
    cr = "core.result"
    out[f"{cr}.add_batch_ms_per_tick"] = total(cr, ["add_batch"])
    out[f"{cr}.invalidate_ms_per_tick"] = total(cr, ["remove_objects", "remove_object"])
    out[f"{cr}.rows_killed_per_tick"] = total(cr, ["remove_objects", "remove_object"], table.n_out)
    out[f"{cr}.flush_ms_per_tick"] = total(cr, ["flush"])
    out[f"{cr}.flush_calls_per_tick"] = total(cr, ["flush"], ones)
    out[f"{cr}.pairs_at_ms_p50"] = pct(durations(cr, ["pairs_at"]), 50)
    out[f"{cr}.point_lookup_us_p50"] = pct(durations(cr, ["pairs_for_object"], "point_lookups", 1e3), 50)
    out[f"{cr}.live_rows"] = info.get("live_rows")
    out[f"{cr}.store_mb"] = info.get("store_mb")

    # deltas.ledger: the netting call is the one engine.deltas() makes.
    dl = "deltas.ledger"
    netting = table.mask(dl, ["events_at"], "deltas")
    if netting.any():
        events = table.n_out[netting]
        out[f"{dl}.events_at_ms_p50"] = pct(table.dur_ms[netting], 50)
        out[f"{dl}.events_per_tick"] = float(events.sum() / ticks)
        per_event = table.dur_ms[netting][events > 0] * 1e3 / events[events > 0]
        out[f"{dl}.us_per_event_p50"], out[f"{dl}.us_per_event_p90"] = pct(per_event, 50), pct(per_event, 90)
        out[f"{dl}.advance_ms_per_tick"] = total(dl, ["advance"])
        out[f"{dl}.total_events"] = info.get("total_events")

    # deltas.watch
    dw = "deltas.watch"
    out[f"{dw}.oid_poll_us_p50"] = pct(durations(dw, ["poll"], "oid_polls", 1e3), 50)
    out[f"{dw}.region_poll_ms_p50"] = pct(durations(dw, ["poll"], "region_poll"), 50)
    out[f"{dw}.events_matched_per_tick"] = total(dw, ["poll"], table.n_out)

    # par.*
    ps, pv, pw = "par.sharded", "par.supervisor", "par.worker"
    if (ps, "tick") in wrapped:
        step_ms = np.asarray(info["step_ms"][warmup:])
        out[f"{ps}.apply_ms_per_tick"] = total(ps, ["apply_update_columns"])
        out[f"{ps}.route_merge_self_ms_per_tick"] = float(
            table.per_tick(table.self_ms, table.mask(ps)).sum() / ticks
        )
        out[f"{ps}.result_merge_ms_p50"] = pct(durations(ps, ["result_at"]), 50)
        for key in ("ghost_fraction", "shard_skew", "merged_store_mb"):
            out[f"{ps}.{key}"] = info.get(key)
        run_ms = table.per_tick(table.dur_ms, table.mask(pv, ["run"]))
        out[f"{pv}.run_ms_per_tick"] = total(pv, ["run"])
        out[f"{pv}.run_calls_per_tick"] = total(pv, ["run"], ones)
        out[f"{pv}.bytes_out_per_tick"] = total(pv, ["run"], table.n_in)
        out[f"{pv}.bytes_in_per_tick"] = total(pv, ["run"], table.n_out)
        checkpointed = np.diff(np.asarray(info["checkpoints"])) > 0
        checkpointed = checkpointed[warmup:]
        out[f"{pv}.checkpoints"] = float(info["checkpoints"][-1])
        out[f"{pv}.checkpoint_tick_ms_p50"] = pct(step_ms[checkpointed], 50)
        out[f"{pv}.plain_tick_ms_p50"] = pct(step_ms[~checkpointed], 50)
        out[f"{pv}.respawns"] = float(info["respawns"])
        cpu = np.asarray(info["shard_cpu_ms"])[warmup:]  # (ticks, shards)
        out[f"{pv}.wait_ms_per_tick"] = float((run_ms - cpu.max(axis=1)).sum() / ticks)
        out[f"{pw}.cpu_ms_per_tick_max"] = float(cpu.max(axis=1).mean())
        out[f"{pw}.cpu_ms_per_tick_sum"] = float(cpu.sum(axis=1).mean())
    return out


def intent_share(table: SpanTable, layers: Sequence[str]) -> float:
    """Share of timed step time spent in ``layers`` (self time); the
    pseudo-layer ``read`` is everything outside the engine's update calls."""
    step = table.dur_ms[table.mask(BENCH, ["step"])].sum()
    if layers == ("read",):
        update = table.dur_ms[table.mask(names=["tick", "apply_update_columns"]) & (
            (table.layer == "core.columnar") | (table.layer == "par.sharded"))].sum()
        return float((step - update) / step)
    return float(sum(table.self_ms[table.mask(layer)].sum() for layer in layers) / step)
