import json
import math
import os
import struct
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from lpverify import cli, forge, ledger, products, snapshot, spectral, suites
from lpverify.errors import AliasingGuardError, ConfigError, FieldError, GridError, ResourceBudgetError


def test_config_validation():
    with pytest.raises(ConfigError):
        suites.SuiteConfig(suite="nope")
    with pytest.raises(ConfigError):
        suites.SuiteConfig(suite="fractional-low", s_values=("0.7",))
    with pytest.raises(ConfigError):
        suites.SuiteConfig(suite="fractional-high", s_values=("5/6",))
    with pytest.raises(ConfigError):
        suites.SuiteConfig(suite="s-half", s_values=("0.6",))
    with pytest.raises(ConfigError):
        suites.SuiteConfig(suite="core", theta=Fraction(2, 1))
    with pytest.raises(ConfigError):
        suites.SuiteConfig(suite="core", tolerances={"bogus": 1.0})


def test_default_s_values():
    cfg = suites.SuiteConfig(suite="energy-balance")
    assert cfg.s_values == ("1", "5/6", "1/2")


def test_budget_guard(monkeypatch):
    monkeypatch.setenv("LPVERIFY_BUDGET_BYTES", str(10**6))
    cfg = suites.SuiteConfig(suite="core", n=256)
    with pytest.raises(ResourceBudgetError):
        suites.run_suite(cfg)


def test_core_suite_passes_and_writes_report(tmp_path):
    import time

    t0 = time.perf_counter()
    cfg = suites.SuiteConfig(suite="core", n=16, seed=5, out_dir=str(tmp_path), svg=True)
    rep = suites.run_suite(cfg)
    assert time.perf_counter() - t0 < 5.0
    assert rep.passed
    data = json.loads((tmp_path / "report.json").read_text())
    assert data["passed"] is True
    assert data["dyadic"]["k_min"] == 0
    assert data["dyadic"]["profile_sharpness"] == 1.0
    assert data["profile"]["fingerprint"]
    assert all("anchor" in c and c["anchor"] for c in data["checks"])
    assert (tmp_path / "checks.csv").exists()


def test_classical_suite_exports_ledger_rows(tmp_path):
    cfg = suites.SuiteConfig(suite="classical-identity", n=32, seed=1, out_dir=str(tmp_path))
    rep = suites.run_suite(cfg)
    assert rep.ledger_rows
    text = (tmp_path / "ledger.csv").read_text().splitlines()
    assert text[0].startswith("k,term,value,scale,tolerance,passed")
    terms = {line.split(",")[1] for line in text[1:]}
    assert {"I1", "I12", "I232", "recon_residual", "snc_rhs_3"} <= terms


def test_paraproduct_suite_exports_interaction_table(tmp_path):
    cfg = suites.SuiteConfig(suite="paraproduct", n=64, seed=1, out_dir=str(tmp_path))
    rep = suites.run_suite(cfg)
    files = list(tmp_path.glob("scale-interaction-series-*.csv"))
    assert files
    assert files[0].read_text().startswith("k,low_high,high_low,resonant")


def test_diagnostics_suite_exports_norm_reports(tmp_path):
    cfg = suites.SuiteConfig(suite="diagnostics", n=32, seed=1, out_dir=str(tmp_path))
    suites.run_suite(cfg)
    text = (tmp_path / "norm-reports.csv").read_text().splitlines()
    assert text[0] == "name,s_or_p,method,value"
    assert any(line.startswith("sobolev") for line in text[1:])


def test_report_determinism(tmp_path):
    cfg = suites.SuiteConfig(suite="dyadic", n=32, seed=9)
    a = suites.run_suite(cfg)
    b = suites.run_suite(cfg)
    assert [c.row() for c in a.checks] == [c.row() for c in b.checks]


def test_thread_count_does_not_change_report():
    before = spectral.set_fft_workers(3)
    try:
        two, one = (
            suites.run_suite(suites.SuiteConfig(suite="classical-identity", n=32, k_range=(1, 1), threads=t))
            for t in (2, 1)
        )
        # a run leaves the caller's FFT worker count as it found it
        assert spectral.set_fft_workers(before) == 3
    finally:
        spectral.set_fft_workers(before)
    assert [c.row() for c in one.checks] == [c.row() for c in two.checks]
    assert one.ledger_rows == two.ledger_rows
    assert one.series == two.series


def test_report_does_not_depend_on_blas_threads(tmp_path):
    """Sums of squares and pairings call no BLAS routine, so the number of
    threads BLAS may split a sum over cannot change a report."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    checks = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        out = tmp_path / threads
        argv = ["run", "--suite", "energy-balance", "--n", "32", "--seed", "3", "--out", str(out)]
        code = f"import sys; from lpverify.cli import main; sys.exit(main({argv!r}))"
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        checks.append(json.loads((out / "report.json").read_text())["checks"])
    assert checks[0] == checks[1]


def test_decay_series_artifacts(tmp_path):
    cfg = suites.SuiteConfig(suite="fractional-high", n=32, seed=2, out_dir=str(tmp_path), svg=True)
    rep = suites.run_suite(cfg)
    assert rep.passed
    csvs = sorted(tmp_path.glob("series-*.csv"))
    svgs = sorted(tmp_path.glob("series-*.svg"))
    assert csvs and len(csvs) == len(svgs)
    assert csvs[0].read_text().startswith("k,value")
    assert svgs[0].read_text().startswith("<svg")


# -- CLI -----------------------------------------------------------------------


def test_cli_window_too_small_exit_code(capsys):
    rc = cli.main(["run", "--suite", "all", "--n", "8"])
    assert rc == cli.EXIT_CONFIG
    assert "window" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["--n", "12"], ["--n", "4"], ["--n", "16", "--box", "-1"], ["--theta", "x"],
    # an empty level range, and ranges outside the window [0, 3] of n=32
    ["--k-range", "3:1"], ["--k-range", "10:12"], ["--k-range=-9:-8"],
])
def test_cli_bad_arguments_exit_config_before_the_suite_runs(argv, monkeypatch, capsys):
    def body(cfg, grid, win):
        raise AssertionError("the suite body ran")

    monkeypatch.setitem(suites._SUITE_BODIES, "core", body)
    assert cli.main(["run", "--suite", "core", *argv]) == cli.EXIT_CONFIG
    assert "configuration error" in capsys.readouterr().err


def test_suite_all_hands_its_k_range_to_every_suite(monkeypatch):
    seen = {}

    def body(cfg, grid, win):
        seen[cfg.suite] = cfg.k_range, cfg.s_values
        return suites.SuiteResult([])

    for name in suites._SUITE_BODIES:
        monkeypatch.setitem(suites._SUITE_BODIES, name, body)
    rep = suites.run_suite(suites.SuiteConfig(suite="all", n=64, k_range=(2, 2)))
    assert rep.config["k_range"] == [2, 2]
    assert set(seen) == set(suites._SUITE_BODIES)
    for name, (k_range, s_values) in seen.items():
        assert k_range == (2, 2) and s_values == suites._S_DEFAULTS.get(name, ())


def test_suite_all_rejects_s_values(monkeypatch, capsys):
    def body(cfg, grid, win):
        raise AssertionError("a suite body ran")

    for name in suites._SUITE_BODIES:
        monkeypatch.setitem(suites._SUITE_BODIES, name, body)
    with pytest.raises(ConfigError):
        suites.SuiteConfig(suite="all", n=64, s_values=("3/5",))
    assert cli.main(["run", "--suite", "all", "--n", "64", "--s", "3/5"]) == cli.EXIT_CONFIG
    assert "configuration error" in capsys.readouterr().err


def test_energy_balance_samples_on_no_grid_above_its_own(monkeypatch):
    # Picard iterates keep the band 8 their products reach, so the last
    # advective term and the trilinear sweep stay on 32^3
    inverse, forward = spectral._inverse_real, products.transform_forward
    seen = {"inverse": [], "forward": []}

    def spy_inverse(u, dst):
        seen["inverse"].append(dst.n)
        return inverse(u, dst)

    def spy_forward(grid, samples):
        seen["forward"].append(grid.n)
        return forward(grid, samples)

    monkeypatch.setattr(spectral, "_inverse_real", spy_inverse)
    monkeypatch.setattr(products, "_inverse_real", spy_inverse)
    monkeypatch.setattr(products, "transform_forward", spy_forward)
    rep = suites.run_suite(suites.SuiteConfig(suite="energy-balance", n=32, seed=3))
    assert rep.passed
    # transforms per grid n for one s, and the suite runs its three default s values
    for key, want in (("inverse", {8: 8, 16: 12, 32: 48}), ("forward", {8: 3, 16: 3, 32: 6})):
        got = seen[key]
        assert {n: got.count(n) for n in set(got)} == {n: 3 * c for n, c in want.items()}, key


def test_classical_sweep_reads_each_ledger_scale(monkeypatch):
    calls = []
    scale = ledger.ledger_scale

    def spy(u):
        calls.append(u)
        return scale(u)

    monkeypatch.setattr(ledger, "ledger_scale", spy)
    rep = suites.run_suite(suites.SuiteConfig(suite="classical-identity", n=32, seed=3, k_range=(1, 1)))
    assert rep.passed
    assert len(calls) == suites._CLASSICAL_FIELDS  # one per ledger, none for the sweep


def test_cli_generate_bad_grid_exit_config(tmp_path, capsys):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(forge.SpectrumSpec("white-band", seed=4, band=(1, 2)).to_json())
    rc = cli.main(["generate", "--spec", str(spec_path), "--n", "12", "--out", str(tmp_path / "f.lpf")])
    assert rc == cli.EXIT_CONFIG
    assert not (tmp_path / "f.lpf").exists()


@pytest.mark.parametrize("error", [FieldError, GridError, AliasingGuardError])
def test_cli_numerical_failure_in_a_suite_exits_one(error, monkeypatch, capsys):
    def body(cfg, grid, win):
        raise error("numerical failure inside the suite")

    monkeypatch.setitem(suites._SUITE_BODIES, "core", body)
    assert cli.main(["run", "--suite", "core", "--n", "16"]) == cli.EXIT_CHECK_FAILED
    err = capsys.readouterr().err
    assert "numerical failure" in err and "configuration error" not in err


def test_cli_run_core(capsys, tmp_path):
    rc = cli.main(["run", "--suite", "core", "--n", "16", "--out", str(tmp_path)])
    out = capsys.readouterr().out
    assert rc == cli.EXIT_PASS
    assert "suite core: PASS" in out
    assert (tmp_path / "report.json").exists()


def test_cli_generate_and_inspect(tmp_path, capsys):
    spec = forge.SpectrumSpec("white-band", seed=4, band=(1, 2))
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(spec.to_json())
    snap = tmp_path / "field.lpf"
    rc = cli.main(["generate", "--spec", str(spec_path), "--n", "16", "--out", str(snap)])
    assert rc == cli.EXIT_PASS
    u = snapshot.snapshot_read(snap)
    assert u.div_free and u.grid.n == 16

    capsys.readouterr()
    rc = cli.main(["inspect", "--in", str(snap)])
    assert rc == cli.EXIT_PASS
    payload = json.loads(capsys.readouterr().out)
    assert payload["magic"] == "LPF1" and payload["n"] == 16
    assert payload["components"] == 3 and payload["div_free"] is True

    # inspect validates the header as snapshot_read does
    raw = snap.read_bytes()
    v9 = tmp_path / "v9.lpf"
    v9.write_bytes(raw[:4] + struct.pack("<I", 9) + raw[8:])
    assert cli.main(["inspect", "--in", str(v9)]) == cli.EXIT_CONFIG
    short = tmp_path / "short.lpf"
    short.write_bytes(raw[:-7])
    assert cli.main(["inspect", "--in", str(short)]) == cli.EXIT_CONFIG


def test_cli_bad_snapshot_exit(tmp_path, capsys):
    bad = tmp_path / "junk.lpf"
    bad.write_bytes(b"garbage-header-that-is-long-enough" + b"\x00" * 64)
    rc = cli.main(["inspect", "--in", str(bad)])
    assert rc == cli.EXIT_CONFIG


def test_cli_missing_file_exit(tmp_path, capsys):
    missing = tmp_path / "absent"
    assert cli.main(["inspect", "--in", str(missing)]) == cli.EXIT_CONFIG
    assert "configuration error" in capsys.readouterr().err
    rc = cli.main(["generate", "--spec", str(missing), "--n", "16", "--out", str(tmp_path / "f.lpf")])
    assert rc == cli.EXIT_CONFIG
    assert "configuration error" in capsys.readouterr().err


def test_cli_resource_exit(monkeypatch, capsys):
    monkeypatch.setenv("LPVERIFY_BUDGET_BYTES", "1000")
    rc = cli.main(["run", "--suite", "core", "--n", "32"])
    assert rc == cli.EXIT_RESOURCE


def _judged(ser, scale=None, **tolerances):
    got = suites.SuiteResult([])
    cfg = suites.SuiteConfig(suite="fractional-high", tolerances=tolerances)
    suites._judge_series(cfg, got, ser, "probe", "probe-anchor", scale)
    (block,), (check,) = got.series, got.checks
    return block, check


def test_removed_series_is_judged_by_the_run_tolerance():
    ser = ledger.DecaySeries("J1_low", 0.6, ((2, 1e-3), (3, -2e-9)), None, (2, 3), None, top_value=2e-9)
    block, check = _judged(ser, scale=8.0)
    assert check.passed and block["top_ok"]
    assert (check.value, check.scale, check.tolerance) == (2e-9, 8.0, 1e-6)
    assert block["top_threshold"] == 1e-6 * 8.0
    block, check = _judged(ser, scale=8.0, **{"removed-top": 1e-30})
    assert check.passed is False and block["top_ok"] is False
    assert (check.scale, check.tolerance, block["top_threshold"]) == (8.0, 1e-30, 1e-30 * 8.0)


def test_slope_series_block_reports_the_run_slack():
    pts = tuple((k, 2.0**k) for k in range(-4, 0))
    ser = ledger.DecaySeries("I232", 0.25, pts, ledger.fit_decay(pts), (-4, -1), 1.4)
    block, check = _judged(ser)
    assert block["slack"] == 0.25 and block["slope_ok"] is check.passed is False
    block, check = _judged(ser, **{"decay-slack": 0.5})
    assert block["slack"] == 0.5 and block["slope_ok"] is check.passed is True
    assert check.tolerance == 1.4 - 0.5 and check.detail == "floor +0.900"


def test_tolerance_overrides_reach_every_series_verdict():
    tols = {"removed-top": 1e-9, "decay-slack": 0.5}
    rep = suites.run_suite(suites.SuiteConfig(suite="fractional-high", n=32, seed=3, tolerances=tols))
    scales = {row["scale"] for row in rep.ledger_rows}
    assert len(scales) == 1
    removed = [c for c in rep.checks if c.name.startswith("removed-")]
    assert len(removed) == len(rep.series) == 6
    for check, block in zip(removed, rep.series):
        assert check.name.startswith(f"removed-{block['term']}-top-")
        assert (check.scale, check.tolerance) == (*scales, 1e-9)
        assert block["slack"] == 0.5
        assert block["top_ok"] is check.passed
        assert block["top_threshold"] == 1e-9 * check.scale


def test_fit_decay_reexported():
    fit = suites.fit_decay([(k, 2.0**k) for k in range(4)])
    assert abs(fit.slope - 1.0) < 1e-12
