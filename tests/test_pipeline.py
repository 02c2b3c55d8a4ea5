"""Smoke test of the end-to-end demo script."""
import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import uncross
from uncross.events import read_events

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "run_pipeline.py"


def test_run_pipeline_writes_its_four_outputs(tmp_path):
    src = str(Path(uncross.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    res = subprocess.run([sys.executable, str(SCRIPT), "--days", "3", "--seed", "7",
                          "--out-dir", str(tmp_path)],
                         env=env, capture_output=True, text=True, timeout=120)
    assert res.returncode == 0, res.stderr

    logs = sorted((tmp_path / "days").iterdir())
    assert [p.name for p in logs] == ["day_0.csv", "day_1.csv", "day_2.csv"]
    assert all(sum(1 for _ in read_events(p)) > 1000 for p in logs)

    with open(tmp_path / "metrics.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [(r["date"], r["side"]) for r in rows] == [
        (f"day_{i}", s) for i in range(3) for s in "BS"]

    report = json.loads((tmp_path / "report.json").read_text())
    assert report["days"] == 3
    assert 0 <= report["p_zero_impact_1pct"] <= 1

    with open(tmp_path / "density_profile.csv", newline="") as fh:
        profile = list(csv.DictReader(fh))
    assert len(profile) > 100
    assert {r["n_days"] for r in profile} == {"3"}
