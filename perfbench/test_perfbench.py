"""Smoke tests of the benchmark itself, at a tiny size.

    python3 -m pytest perfbench -q
"""

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracer  # noqa: E402
import worker  # noqa: E402

TINY = [
    {"kind": "pair", "n": 32, "seed": 3, "band": [2, 2]},
    run._cli("core", 16, "--seed", "3"),
]
FAILING = run._cli("no-such-suite", 16)


def test_untraced_run_emits_every_end_to_end_metric_and_counts_a_failure():
    result, facts = run.measure(ROOT, TINY + [FAILING], seconds=0, trace=False)
    assert set(result["metrics"]) == set(run.END_TO_END)
    assert result["attempted"] == 3 and result["failed"] == 1
    assert result["correct"] is False
    assert facts["fail_ratio"] == 1 / 3
    assert facts["passes"] == 1  # no time left after set-up: exactly one pass
    assert result["metrics"]["pass_ratio"] == 2 / 3
    assert all(value > 0 for value in result["metrics"].values())
    assert not (ROOT / ".perfbench_work").exists()


def test_traced_run_emits_every_per_layer_metric_and_matches_untraced_outputs():
    result, _ = run.measure(ROOT, TINY, seconds=0, trace=True)
    assert list(result["metrics"]) == list(tracer.METRICS)
    assert result["correct"] is True
    assert result["attempted"] == 4 and result["failed"] == 0
    m = result["metrics"]
    assert m["cli.calls"] > 0 and m["forge.calls"] > 0 and m["snapshot.calls"] == 2
    assert m["spectral.points"] > 0 and m["suites.report_mib"] > 0
    # the pair paints 6 of 32^3 modes per field
    assert 0 < m["forge.support_ratio"] < 1


def test_reference_ratios_match_the_program():
    worker._import_program(ROOT)
    from lpverify.spectral import TWO_PI, TorusGrid

    grid = TorusGrid(32, TWO_PI)
    for seed in (0, 1, 1234567):
        out = worker.run_pair(grid, seed, (2, 2))
        assert worker.check_pair({"seed": seed, "band": [2, 2]}, out)[0] is None


def test_benchmark_json_names_every_workload_and_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == tracer.METRICS


def test_run_outside_a_checkout_fails_without_a_result(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "ledger", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
