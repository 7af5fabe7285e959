import json
import math
import struct
from fractions import Fraction

import pytest

from lpverify import cli, forge, snapshot, suites
from lpverify.errors import ConfigError, ResourceBudgetError


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


def test_budget_guard():
    cfg = suites.SuiteConfig(suite="core", n=256, budget_bytes=10**6)
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


def test_cli_resource_exit(monkeypatch, capsys):
    monkeypatch.setenv("LPVERIFY_BUDGET_BYTES", "1000")
    rc = cli.main(["run", "--suite", "core", "--n", "32"])
    assert rc == cli.EXIT_RESOURCE


def test_fit_decay_reexported():
    fit = suites.fit_decay([(k, 2.0**k) for k in range(4)])
    assert abs(fit.slope - 1.0) < 1e-12
