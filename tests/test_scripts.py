"""Smoke tests: the study scripts still run end to end at small sizes."""

import csv
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _run(script: str, *args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300,
    )


def test_refinement_study_runs():
    proc = _run("refinement_study.py", "--coarse", "16", "--fine", "32")
    assert proc.returncode == 0, proc.stderr
    assert "worst drift:" in proc.stdout


def test_decay_study_reports_too_few_fit_points(tmp_path):
    out = tmp_path / "decay.csv"
    proc = _run("decay_study.py", "--n", "32", "--alphas", "0.3", "--seeds", "0", "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["alpha", "seed", "slope", "floor", "ok", "points"]
    assert len(rows) == 2
    assert rows[1][:2] == ["0.3", "0"]
    assert "needs >= 4 usable points" in rows[1][-1]
