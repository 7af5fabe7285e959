"""Smoke tests: the study scripts still run end to end at small sizes."""

import csv
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _python(*args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args], cwd=ROOT, env=env, capture_output=True, text=True, timeout=300,
    )


def _run(script: str, *args: str) -> subprocess.CompletedProcess:
    return _python(str(ROOT / "scripts" / script), *args)


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


def test_report_diff_on_two_runs_of_one_suite(tmp_path):
    for run in "ab":
        proc = _python("-m", "lpverify.cli", "run", "--suite", "diagnostics", "--n", "32", "--seed", "3",
                       "--out", str(tmp_path / run))
        assert proc.returncode == 0, proc.stderr
    proc = _run("report_diff.py", str(tmp_path / "a"), str(tmp_path / "b"))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "diagnostics", "  byte-identical without timings: yes", "  largest relative move: 0",
    ]
    # a flipped check is named and fails the comparison; a moved value is located
    path = tmp_path / "b" / "report.json"
    report = json.loads(path.read_text())
    i, check = next((i, c) for i, c in enumerate(report["checks"]) if c["passed"] and c["value"] > 1e-12)
    check["passed"], check["value"] = False, 1.5 * check["value"]
    path.write_text(json.dumps(report))
    proc = _run("report_diff.py", str(tmp_path / "a"), str(tmp_path / "b"))
    assert proc.returncode == 1, proc.stderr
    assert "  byte-identical without timings: no" in proc.stdout
    assert f"  check {check['name']}: passed True -> False" in proc.stdout
    assert f"  largest relative move: 0.333 at /checks[{i}]/value" in proc.stdout
