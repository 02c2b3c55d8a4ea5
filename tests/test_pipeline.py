"""Smoke test of the end-to-end demo script, and of the benchmark's calls into
the package."""
import ast
import csv
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner

import uncross
from uncross.cli import main
from uncross.events import read_events

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "run_pipeline.py"
PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def run_script(out: Path, days: str) -> subprocess.CompletedProcess:
    src = str(Path(uncross.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    return subprocess.run([sys.executable, str(SCRIPT), "--days", days, "--seed", "7",
                           "--out-dir", str(out)],
                          env=env, capture_output=True, text=True, timeout=120)


def cli(*args) -> None:
    res = CliRunner().invoke(main, [str(a) for a in args])
    assert res.exit_code == 0, res.output


def test_run_pipeline_writes_its_four_outputs(tmp_path):
    res = run_script(tmp_path, "3")
    assert res.returncode == 0, res.stderr

    logs = sorted((tmp_path / "days").iterdir())
    assert [p.name for p in logs] == ["day_0.csv", "day_1.csv", "day_2.csv"]
    assert all(sum(1 for _ in read_events(p)) > 1000 for p in logs)

    with open(tmp_path / "metrics.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [(r["date"], r["side"]) for r in rows] == [
        (f"day_{i}", s) for i in range(3) for s in "BS"]

    report = json.loads((tmp_path / "report.json").read_text())
    assert report["n_days_paired"] == 3
    assert 0 <= report["p_zero_impact"]["fraction"] <= 1

    with open(tmp_path / "density_profile.csv", newline="") as fh:
        profile = list(csv.DictReader(fh))
    assert len(profile) > 100
    assert {r["n_days"] for r in profile} == {"3"}

    # the script's tables are the CLI's: regime --full-metrics rows, and the stats report
    cli_rows = []
    for log in logs:
        cli("regime", log, "--tick", "0.01", "--ref", "100.0", "--full-metrics",
            "--out-dir", tmp_path / "cli")
        lines = (tmp_path / "cli" / f"{log.stem}_metrics.csv").read_text().splitlines(True)
        cli_rows += lines if not cli_rows else lines[1:]
    assert (tmp_path / "metrics.csv").read_text() == "".join(cli_rows)
    cli("stats", tmp_path / "metrics.csv", "--out-dir", tmp_path / "cli")
    assert (tmp_path / "report.json").read_bytes() == \
        (tmp_path / "cli" / "stats_report.json").read_bytes()


@pytest.mark.parametrize("days", ["1", "2"])
def test_run_pipeline_reports_fewer_than_three_days_without_rank_statistics(tmp_path, days):
    res = run_script(tmp_path, days)
    assert res.returncode == 0, res.stderr
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["n_rows"] == 2 * int(days) and report["n_days_paired"] == int(days)
    assert "spearman_omega0" not in report and "ks_omega0" not in report


@pytest.mark.parametrize("days", ["0", "-1"])
def test_run_pipeline_refuses_a_day_count_below_one(tmp_path, days):
    res = run_script(tmp_path, days)
    assert res.returncode == 2, res.stderr
    assert "--days" in res.stderr and "Traceback" not in res.stderr
    assert not (tmp_path / "report.json").exists()


def test_every_benchmark_call_names_what_the_package_has(monkeypatch):
    """Each ``<x>_mod.<name>`` that ``perfbench/workloads.py`` reads is on
    ``uncross.<x>``, each traced method is on its class, and each literal command
    and ``--option`` of an ``ops.cli(...)`` call is registered on ``uncross``'s CLI.
    The benchmark's files are read, not changed, so a rename that would fail the
    benchmark's operations fails here."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave perfbench/ as it is
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracing = importlib.import_module("tracing")
    for layer in tracing.LAYERS:
        importlib.import_module(f"uncross.{layer}")
    for layer, cls_name, meth in tracing.METHODS:
        assert meth in vars(getattr(importlib.import_module(f"uncross.{layer}"), cls_name))
    attrs, calls = set(), []
    for node in ast.walk(ast.parse((PERFBENCH / "workloads.py").read_text(encoding="utf-8"))):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id.endswith("_mod")):
            attrs.add((node.value.id.removesuffix("_mod"), node.attr))
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
              and isinstance(node.func.value, ast.Name)
              and (node.func.value.id, node.func.attr) == ("ops", "cli")):
            calls.append([a.value for a in node.args if isinstance(a, ast.Constant)])
    assert attrs and calls
    missing = [f"uncross.{m}.{name}" for m, name in sorted(attrs)
               if not hasattr(importlib.import_module(f"uncross.{m}"), name)]
    assert missing == []
    for command, *args in calls:
        assert command in main.commands, command
        options = {opt for param in main.commands[command].params for opt in param.opts}
        flags = {a for a in args if isinstance(a, str) and a.startswith("--")}
        assert flags <= options, (command, flags - options)
