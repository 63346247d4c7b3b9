"""Render recorded observability runs as paper-style tables.

Works on the JSON files written by :meth:`~repro.obs.ObsRecorder.
export_json`.  Three views, each per recording (the figure tables
across recordings are ``benchmarks/paper.py``'s):

* **phases** — the root span's direct children aggregated by name
  (``engine.initial_join`` / ``engine.tick`` / ``engine.update``), plus
  an amortized per-update maintenance row — the paper's Figure 13
  metric;
* **components** — every span name aggregated over the whole tree using
  *exclusive* counters and seconds (additive under nesting): where
  inside a tick the cost went — TPR descent vs. exact pair tests vs.
  MTB bucket scans vs. buffer traffic;
* **timeline** — per-tick rows from the phase spans tagged with their
  timestamp ``t``.
"""

from __future__ import annotations

import json
from collections import OrderedDict
from pathlib import Path
from typing import Any, Callable, Dict, Iterable, List, Sequence, Tuple

from ..metrics import COUNTER_KEYS
from .recorder import FORMAT

__all__ = [
    "load_recording",
    "iter_recordings",
    "phase_rows",
    "component_rows",
    "timeline_rows",
    "render_report",
]

#: The report's sections, in print order.
SECTIONS = ("phases", "components", "timeline")

Write = Callable[[str], Any]


def load_recording(path: "str | Path") -> Dict[str, Any]:
    """Load and validate one exported recording."""
    path = Path(path)
    data = json.loads(path.read_text())
    if not isinstance(data, dict) or data.get("format") != FORMAT:
        raise ValueError(
            f"{path} is not a repro.obs recording (expected format {FORMAT!r})"
        )
    return data


def iter_recordings(paths: Iterable["str | Path"]) -> List[Tuple[Path, Dict[str, Any]]]:
    """Expand files/directories into loaded recordings (sorted by path)."""
    files: List[Path] = []
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            files.extend(sorted(path.glob("*.json")))
        else:
            files.append(path)
    return [(path, load_recording(path)) for path in files]


def _io(counts: Dict[str, Any]) -> int:
    return int(counts.get("page_reads", 0)) + int(counts.get("page_writes", 0))


def _children_of_root(data: Dict[str, Any]) -> List[Dict[str, Any]]:
    spans = data["spans"]
    root_id = spans[0]["id"] if spans else None
    return [span for span in spans if span["parent"] == root_id]


def _self_seconds(data: Dict[str, Any]) -> Dict[int, float]:
    """Exclusive seconds per span id (inclusive minus children)."""
    child_seconds: Dict[int, float] = {}
    for span in data["spans"]:
        if span["parent"] is not None:
            child_seconds[span["parent"]] = (
                child_seconds.get(span["parent"], 0.0) + span["seconds"]
            )
    return {
        span["id"]: span["seconds"] - child_seconds.get(span["id"], 0.0)
        for span in data["spans"]
    }


# ----------------------------------------------------------------------
# Aggregations
# ----------------------------------------------------------------------
def phase_rows(data: Dict[str, Any]) -> List[Dict[str, Any]]:
    """Top-level phases aggregated by name, in first-seen order.

    Appends a synthetic ``maintenance (per update)`` row amortizing the
    tick and update phases over the number of update calls, when any
    updates were recorded.
    """
    groups: "OrderedDict[str, Dict[str, Any]]" = OrderedDict()
    for span in _children_of_root(data):
        row = groups.setdefault(
            span["name"],
            {"phase": span["name"], "calls": 0, "seconds": 0.0,
             **{key: 0 for key in COUNTER_KEYS}},
        )
        row["calls"] += span["calls"]
        row["seconds"] += span["seconds"]
        for key in COUNTER_KEYS:
            row[key] += int(span["total"].get(key, 0))
    rows = list(groups.values())
    for row in rows:
        row["io"] = row["page_reads"] + row["page_writes"]

    update_calls = sum(
        row["calls"] for row in rows if row["phase"].endswith(".update")
    )
    if update_calls:
        maintenance = {
            "phase": "maintenance (per update)", "calls": update_calls,
            "seconds": 0.0, **{key: 0 for key in COUNTER_KEYS},
        }
        for row in rows:
            if row["phase"].rsplit(".", 1)[-1] in ("tick", "update"):
                maintenance["seconds"] += row["seconds"]
                for key in COUNTER_KEYS:
                    maintenance[key] += row[key]
        for key in COUNTER_KEYS:
            maintenance[key] = int(maintenance[key] / update_calls)
        maintenance["seconds"] /= update_calls
        maintenance["io"] = maintenance["page_reads"] + maintenance["page_writes"]
        rows.append(maintenance)
    return rows


def component_rows(data: Dict[str, Any]) -> List[Dict[str, Any]]:
    """Every span name aggregated with exclusive counters and seconds."""
    self_seconds = _self_seconds(data)
    groups: Dict[str, Dict[str, Any]] = {}
    for span in data["spans"]:
        row = groups.setdefault(
            span["name"],
            {"component": span["name"], "calls": 0, "seconds": 0.0,
             "extra": {}, **{key: 0 for key in COUNTER_KEYS}},
        )
        row["calls"] += span["calls"]
        row["seconds"] += self_seconds[span["id"]]
        for key, value in span["self"].items():
            if key in COUNTER_KEYS:
                row[key] += int(value)
            else:
                row["extra"][key] = row["extra"].get(key, 0) + value
    rows = sorted(
        groups.values(),
        key=lambda row: (row["pair_tests"], row["seconds"]),
        reverse=True,
    )
    for row in rows:
        row["io"] = row["page_reads"] + row["page_writes"]
    return rows


def timeline_rows(data: Dict[str, Any]) -> List[Dict[str, Any]]:
    """Per-tick rows: phase spans grouped by their ``t`` tag."""
    groups: "OrderedDict[Any, Dict[str, Any]]" = OrderedDict()
    for span in _children_of_root(data):
        t = span["tags"].get("t")
        if t is None:
            continue
        row = groups.setdefault(
            t,
            {"t": t, "updates": 0, "seconds": 0.0,
             **{key: 0 for key in COUNTER_KEYS}},
        )
        if span["name"].endswith(".update"):
            row["updates"] += span["calls"]
        row["seconds"] += span["seconds"]
        for key in COUNTER_KEYS:
            row[key] += int(span["total"].get(key, 0))
    rows = sorted(groups.values(), key=lambda row: row["t"])
    for row in rows:
        row["io"] = row["page_reads"] + row["page_writes"]
    return rows


# ----------------------------------------------------------------------
# Rendering
# ----------------------------------------------------------------------
def _fmt_row(cells: Sequence[object], widths: Sequence[int]) -> str:
    return " ".join(f"{str(cell):>{width}s}" for cell, width in zip(cells, widths))


def _render_table(
    write: Write, title: str, header: Sequence[str],
    rows: Iterable[Sequence[object]], widths: Sequence[int],
) -> None:
    write("")
    write(f"--- {title} ---")
    write(_fmt_row(header, widths))
    for row in rows:
        write(_fmt_row(row, widths))


def render_report(
    recordings: Sequence[Tuple[Path, Dict[str, Any]]],
    write: Write,
    sections: Sequence[str] = SECTIONS,
) -> None:
    """Print the selected sections for the loaded recordings."""
    for path, data in recordings:
        write("")
        write(f"=== {path} ===")
        meta = data.get("meta", {})
        if meta:
            write("meta: " + json.dumps(meta, sort_keys=True))
        totals = data.get("totals", {})
        write(
            f"totals: io={_io(totals)} "
            f"pair_tests={int(totals.get('pair_tests', 0))} "
            f"node_visits={int(totals.get('node_visits', 0))} "
            f"seconds={float(data.get('seconds', 0.0)):.3f}"
        )
        if "phases" in sections:
            _render_table(
                write, "phases",
                ["phase", "calls", "I/O", "pair tests", "node visits", "CPU (s)"],
                [
                    [r["phase"], r["calls"], r["io"], r["pair_tests"],
                     r["node_visits"], f"{r['seconds']:.3f}"]
                    for r in phase_rows(data)
                ],
                [26, 8, 10, 12, 12, 10],
            )
        if "components" in sections:
            _render_table(
                write, "components (exclusive)",
                ["component", "calls", "I/O", "pair tests", "node visits",
                 "self CPU (s)"],
                [
                    [r["component"], r["calls"], r["io"], r["pair_tests"],
                     r["node_visits"], f"{r['seconds']:.3f}"]
                    for r in component_rows(data)
                ],
                [26, 8, 10, 12, 12, 12],
            )
        if "timeline" in sections:
            rows = timeline_rows(data)
            if rows:
                _render_table(
                    write, "timeline",
                    ["t", "updates", "I/O", "pair tests", "node visits",
                     "CPU (s)"],
                    [
                        [f"{r['t']:g}", r["updates"], r["io"], r["pair_tests"],
                         r["node_visits"], f"{r['seconds']:.3f}"]
                        for r in rows
                    ],
                    [10, 8, 10, 12, 12, 10],
                )

