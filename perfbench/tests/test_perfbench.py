"""The benchmark's own tests: smoke runs, oracle sensitivity, metric names.

Run from the root of a checkout::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
BENCH = ROOT / "perfbench"
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import common  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
PREDICTIONS = json.loads((BENCH / "predictions.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _run(workload: str, trace: int, cwd: Path = ROOT, seed: int = 5):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", "0.5", "--trace", str(trace),
         "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def _results_snapshot() -> dict:
    """Name and modification time of every file where full results go."""
    results = ROOT / ".perfbench" / "results"
    return {p.name: p.stat().st_mtime_ns for p in results.glob("*")}


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_prints_every_declared_metric(workload, trace):
    before = _results_snapshot()
    proc = _run(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    stem = f"{workload}-seed5-trace{trace}"
    assert (ROOT / ".perfbench" / "smoke" / f"{stem}.json").is_file()
    assert _results_snapshot() == before, "a smoke run wrote a full result"
    if trace:
        spans = (ROOT / ".perfbench" / "smoke" / f"{stem}.spans.jsonl").read_text()
        names = {json.loads(line)["name"] for line in spans.splitlines()}
        assert names <= set(PREDICTIONS["per_layer"])


def test_predictions_cover_exactly_the_declared_layers():
    assert list(PREDICTIONS["per_layer"]) == [m["name"] for m in SPEC["per_layer"]]
    assert list(PREDICTIONS["workloads"]) == WORKLOADS
    for w in SPEC["workloads"]:
        assert PREDICTIONS["workloads"][w["name"]]["why"] == w["why"]
    e2e = {m["name"] for m in SPEC["end_to_end"]}
    for p in PREDICTIONS["per_layer"].values():
        assert set(p["workloads"]) <= set(WORKLOADS)
        for metric, workload in p["moves"]:
            assert metric in e2e and workload in WORKLOADS


def _smoke_cfg(workload: str, tmp_path: Path) -> common.Config:
    return common.Config(workload, 5, 0.2, False, True, tmp_path)


def test_perturbed_serve_answer_counts_as_failed(tmp_path, monkeypatch):
    import serve

    real = serve._oracle

    def perturbed(service, ops):
        expected = real(service, ops)
        op = ops[0]
        value, mask = expected[op]
        expected[op] = (value + 1.0, mask)
        return expected

    monkeypatch.setattr(serve, "_oracle", perturbed)
    out = serve.run(_smoke_cfg("serve_hot", tmp_path), common.Tracer(False))
    assert out.failed >= 1 and out.attempted > out.failed


def test_perturbed_mining_answer_counts_as_failed(tmp_path, monkeypatch):
    import mine

    real = mine._oracle

    def perturbed(steps):
        oracles = real(steps)
        value, spatial = oracles[0]
        oracles[0] = (value, spatial | {(-1, -1, -1)})
        return oracles

    monkeypatch.setattr(mine, "_oracle", perturbed)
    out = mine.run(_smoke_cfg("mine", tmp_path), common.Tracer(False))
    assert out.failed >= 1 and out.attempted > out.failed


def test_wrong_reloaded_index_counts_as_failed(tmp_path, monkeypatch):
    import insitu

    real = insitu.load_index

    def reversed_bins(path):
        index = real(path)
        return dataclasses.replace(index, bitvectors=index.bitvectors[::-1])

    monkeypatch.setattr(insitu, "load_index", reversed_bins)
    out = insitu.run(_smoke_cfg("insitu", tmp_path), common.Tracer(False))
    assert out.failed == out.attempted >= 1


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("insitu", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
