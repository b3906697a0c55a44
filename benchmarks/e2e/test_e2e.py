"""Checks of the end-to-end benchmark itself, at smoke size.

Run with ``python -m pytest benchmarks/e2e -q`` (about a minute).
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
METRIC_LINE = re.compile(r"^  metric (\S+) = \S+ (\S+)$")


def _run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "benchmarks/e2e/run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


def _result_path(proc: subprocess.CompletedProcess) -> Path:
    line = next(line for line in proc.stdout.splitlines() if line.startswith("result: "))
    return Path(line.split(" ", 1)[1])


def _result(proc: subprocess.CompletedProcess) -> dict:
    return json.loads(_result_path(proc).read_text())


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    """All workloads at smoke size: one untraced and one traced pass each."""
    proc = _run("--smoke", "--trace", "--out", str(tmp_path_factory.mktemp("traced")))
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return proc


@pytest.fixture(scope="module")
def untraced(tmp_path_factory):
    proc = _run("--smoke", "--out", str(tmp_path_factory.mktemp("untraced")))
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return proc


def test_printed_names_and_units_match_spec(traced):
    units = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}
    printed: dict[str, set] = {}
    workload = None
    for line in traced.stdout.splitlines():
        if line.startswith("workload "):
            workload = line.split()[1]
        match = METRIC_LINE.match(line)
        if match:
            name, unit = match.groups()
            assert units.get(name) == unit, line
            printed.setdefault(workload, set()).add(name)
    assert sorted(printed) == sorted(w["name"] for w in SPEC["workloads"])
    for names in printed.values():
        assert names == set(units)


def test_summary_line_has_exactly_the_spec_metrics(tmp_path):
    for trace, section in (("0", "end_to_end"), ("1", "per_layer")):
        proc = _run("--workload", "fleet_overload", "--seed", "7", "--seconds", "1",
                    "--trace", trace, "--smoke", "--out", str(tmp_path))
        assert proc.returncode == 0, proc.stderr
        summary = json.loads(proc.stdout.strip().splitlines()[-1])
        assert set(summary) == {"correct", "attempted", "failed", "metrics"}
        assert summary["correct"] and summary["failed"] == 0 and summary["attempted"] >= 1
        assert set(summary["metrics"]) == {m["name"] for m in SPEC[section]}


def test_traced_digests_equal_untraced(traced):
    for res in _result(traced)["workloads"].values():
        digests = {p["traced"]: p["digest"] for p in res["passes"]}
        assert digests[True] == digests[False], res["workload"]
        assert res["failed"] == 0, res["failures"]


def test_self_times_and_remainder_add_up_to_traced_wall(traced):
    for res in _result(traced)["workloads"].values():
        (rec,) = [p for p in res["passes"] if p["traced"]]
        layers = rec["layers"]
        self_s = [v for k, v in layers.items() if k.endswith(".self_s")]
        assert min(self_s) >= 0.0
        assert layers["trace.unattributed_s"] >= 0.0
        total = sum(self_s) + layers["trace.unattributed_s"]
        assert total == pytest.approx(rec["wall_s"], rel=0.05), res["workload"]


def test_spans_nest(traced):
    files = sorted(_result_path(traced).parent.glob("*-spans*.npz"))
    assert len(files) == len(SPEC["workloads"])
    for path in files:
        spans = np.load(path)
        parent, start, end = spans["parent"], spans["start_ns"], spans["end_ns"]
        assert len(start) > 0, path.name
        assert np.all(end >= start)
        child = np.flatnonzero(parent >= 0)
        p = parent[child]
        assert np.all(p < child)
        assert np.all(start[p] <= start[child]) and np.all(end[child] <= end[p])
        # A span's run is its parent's unless it opens a run of its own.
        names = spans["names"][spans["callable"]]
        roots = np.isin(names, ["SimulationEngine.run", "FleetSim.run", "WorkerPool.map"])
        inherit = child[~roots[child]]
        assert np.all(spans["run_id"][inherit] == spans["run_id"][parent[inherit]])


def test_two_smoke_runs_give_identical_digests(traced, untraced):
    first, second = _result(traced)["workloads"], _result(untraced)["workloads"]
    for name, res in second.items():
        assert res["digest"] == first[name]["digest"], name
    assert first["splash_pooled"]["digest"] == first["splash_suite"]["digest"]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks/e2e",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = _run("--workload", "fleet_overload", "--seed", "1", "--seconds", "1",
                "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
