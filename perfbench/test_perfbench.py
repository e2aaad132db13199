"""Self-test of the benchmark: every workload at tiny size, untraced and traced.

    python3 -m pytest perfbench

Each run must check out (no failed item), print every metric that
BENCHMARK.json names with its unit, and, when traced, have layer self times
that add up to no more than the traced pass's wall time.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
SEED = 7


def run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, *SPEC["command"][1:], *args],
        cwd=cwd, capture_output=True, text=True, timeout=120,
    )


def result(workload: str, trace: int) -> dict:
    out = run("--workload", workload, "--seed", str(SEED), "--seconds", "0.2",
              "--trace", str(trace), "--tiny")
    assert out.returncode == 0, out.stderr
    line = json.loads(out.stdout.splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 1
    return line


def assert_metrics(line: dict, spec: list[dict]) -> None:
    assert set(line["metrics"]) == {m["name"] for m in spec}
    for m in spec:
        assert line["metrics"][m["name"]]["unit"] == m["unit"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end(workload):
    line = result(workload, 0)
    assert_metrics(line, SPEC["end_to_end"])
    assert all(m["value"] > 0 for m in line["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced(workload):
    line = result(workload, 1)
    assert_metrics(line, SPEC["per_layer"])
    record = json.loads((HERE / "out" / f"{workload}-seed{SEED}-trace.json").read_text())
    table = record["layer_table"]
    assert not any(v for k, v in table.items() if k.endswith(".errors"))
    self_time = sum(v for k, v in table.items() if k.endswith(".self_s"))
    assert 0 < self_time <= table["trace.wall_s"]


def test_same_seed_same_corpus(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    monkeypatch.syspath_prepend(str(HERE))
    import workloads

    for name, (corpus, _) in workloads.WORKLOADS.items():
        assert corpus(SEED, True) == corpus(SEED, True), name
    for name in ("conjugacy", "census"):
        corpus = workloads.WORKLOADS[name][0]
        assert corpus(SEED, True) != corpus(SEED + 1, True), name


def test_refuses_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path, ignore=shutil.ignore_patterns("out", "__pycache__"))
    out = run("--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert out.returncode != 0
    assert out.stdout == ""
