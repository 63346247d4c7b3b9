"""Smoke cell of the end-to-end benchmark (small sizes, all checks on).

Run with ``PYTHONPATH=src python -m pytest benchmarks/e2e -q``.  Not part
of the tier-1 suite (``testpaths = ["tests"]``); wiring it into CI is left
to the next issue because the workflow file is outside this directory.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from e2e import run
from e2e.spec import END_TO_END, PER_LAYER, WORKLOADS

HERE = Path(__file__).resolve().parent
RUN = [sys.executable, str(HERE / "run.py")]


def _run(*args, cwd=None):
    return subprocess.run(RUN + list(args), capture_output=True, text=True, timeout=600, cwd=cwd)


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    out = tmp_path_factory.mktemp("e2e-smoke")
    proc = _run("--smoke", "--out", str(out))
    assert (out / "report.json").exists(), proc.stderr
    return proc, json.loads((out / "report.json").read_text()), out


def test_benchmark_json_is_generated_from_the_spec():
    assert json.loads(run.BENCHMARK_JSON.read_text()) == run.benchmark_json()


def test_every_metric_is_printed_with_its_unit(smoke):
    proc, _, _ = smoke
    declared = json.loads(run.BENCHMARK_JSON.read_text())
    sections = re.split(r"^== ", proc.stdout, flags=re.M)[1:]
    assert [s.split(":")[0] for s in sections[: len(WORKLOADS)]] == [w["name"] for w in declared["workloads"]]
    for section in sections[: len(WORKLOADS)]:
        for metric in declared["end_to_end"] + declared["per_layer"]:
            line = re.search(rf"^\s+{re.escape(metric['name'])}\s+\S+\s+(\S+)", section, flags=re.M)
            assert line, f"{metric['name']} not printed for {section.splitlines()[0]}"
            assert line.group(1) == metric["unit"]
        assert re.search(r"^\s+failed_share\s+0\s+ratio", section, flags=re.M)


def test_all_checks_ran_and_passed(smoke):
    proc, report, _ = smoke
    assert proc.returncode == 0, proc.stdout[-2000:]
    assert report["failed"] == 0 and report["attempted"] > 0
    for name, wl in WORKLOADS.items():
        entry = report["workloads"][name]
        assert entry["oracle_ticks"] > 0
        assert "update_count" in entry["end_checks"]
        assert ("delta_fold" in entry["end_checks"]) == wl.deltas
        assert ("faults" in entry["end_checks"]) == wl.sharded
        if wl.reference:
            theirs = report["workloads"][wl.reference]["pin"]
            assert entry["pin"]["end"] == theirs["end"] and entry["pin"]["ticks"] == theirs["ticks"]
        assert entry["warnings"] == []  # every wrap target exists


def test_traced_self_times_sum_to_the_step_time(smoke):
    _, report, out = smoke
    for name in WORKLOADS:
        entry = report["workloads"][name]
        assert sum(entry["self_sum_ms"]) == pytest.approx(sum(entry["traced_step_ms"]), rel=0.02)
        spans = [json.loads(line) for line in (out / f"trace-{name}.jsonl").read_text().splitlines()]
        assert {"workload", "round", "tick", "layer", "name", "start_ns", "end_ns",
                "parent", "n_in", "n_out"} == set(spans[0])
        assert {s["layer"] for s in spans} >= set(WORKLOADS[name].layers) - {"par.worker"}


def test_a_corrupted_answer_is_caught(tmp_path):
    proc = _run("--smoke", "--no-trace", "--workload", "sparse-serial", "--corrupt", "--out", str(tmp_path))
    report = json.loads((tmp_path / "report.json").read_text())
    assert proc.returncode != 0
    assert report["failed_share"] > 0
    assert any("oracle" in problem for problem in report["problems"])


@pytest.mark.parametrize("trace,metrics", [(0, END_TO_END), (1, PER_LAYER)])
def test_single_run_prints_the_contract_line(tmp_path, trace, metrics):
    proc = _run("--smoke", "--workload", "sparse-sharded", "--seed", "11", "--seconds", "1",
                "--trace", str(trace), "--out", str(tmp_path))
    assert proc.returncode == 0, proc.stderr[-2000:]
    line = json.loads(proc.stdout.splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0 and line["attempted"] >= 1
    assert list(line["metrics"]) == [m.name for m in metrics]
    for metric in metrics:
        value = line["metrics"][metric.name]
        assert value["unit"] == metric.unit and isinstance(value["value"], (int, float))
        if trace == 0:
            assert value["value"] > 0


def test_without_the_program_it_fails_and_prints_no_result(tmp_path):
    shutil.copy(run.BENCHMARK_JSON, tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "benchmarks" / "e2e", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", "sparse-serial", "--seed", "1",
         "--seconds", "1", "--trace", "0"], capture_output=True, text=True, timeout=180, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
