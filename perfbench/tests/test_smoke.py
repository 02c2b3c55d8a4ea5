"""Tiny-scale smoke test of the benchmark: every workload, untraced and traced.

    python3 -m pytest perfbench/tests -q
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(*args, cwd=ROOT):
    return subprocess.run([sys.executable, str(BENCH.relative_to(ROOT) / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_run_reports_every_metric(workload, trace):
    proc = run("--workload", workload, "--seed", "11", "--seconds", "1", "--trace", str(trace),
               "--tiny")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0 and line["attempted"] >= 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert set(line["metrics"]) == {m["name"] for m in spec}
    for m in spec:
        got = line["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))
    if trace:
        spans = [json.loads(s) for s in
                 (BENCH / "_work" / f"{workload}-tiny" / "spans.jsonl").read_text().splitlines()]
        passes = [s for s in spans if s["name"] == "pass"]
        assert passes
        for root in passes:
            # a pass's spans: the root and everything below it
            ids = {root["id"]}
            for s in spans[root["id"] + 1:]:
                if s["parent"] in ids:
                    ids.add(s["id"])
            self_sum = sum(s["self"] for s in spans if s["id"] in ids)
            assert self_sum == pytest.approx(root["busy"], rel=1e-9)
    else:
        assert all(v["value"] > 0 for v in line["metrics"].values())


def test_same_seed_same_inputs():
    hashes = []
    for _ in range(2):
        assert run("--workload", "batch_small", "--seed", "5", "--seconds", "1",
                   "--tiny").returncode == 0
        rec = json.loads((BENCH / "_work" / "batch_small-tiny" / "result.json").read_text())
        hashes.append({k: v["sha256"] for k, v in rec["identity"]["logs"].items()})
    assert hashes[0] == hashes[1]


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns("_work", "__pycache__"))
    proc = run("--workload", SPEC["workloads"][0]["name"], "--seed", "1", "--seconds", "1",
               "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
    assert "no uncross sources" in proc.stderr
