"""Acceptance gate: every numbered criterion at its stated tolerance.

Each test prints one pass/fail line; run with `pytest tests/test_acceptance.py -v -s`.
The heavy criteria (4, 6) operate at n = 128 and take a few minutes each on
a single core.
"""

import math
import time
from fractions import Fraction

import numpy as np
import pytest

from lpverify import TorusGrid, VectorField
from lpverify.dyadic import DEFAULT_PROFILE, DyadicWindow
from lpverify.spectral import TWO_PI
from lpverify import dyadic, forge, ledger, norms, paraproduct, products, suites


def _line(num: int, ok: bool, detail: str) -> None:
    print(f"criterion-{num:02d} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, detail


def test_criterion_01_spectral_foundation():
    t0 = time.perf_counter()
    rep = suites.run_suite(suites.SuiteConfig(suite="core", n=32, seed=0))
    elapsed = time.perf_counter() - t0
    ok = rep.passed and elapsed < 10.0
    _line(1, ok, f"core checks at n=32 in {elapsed:.2f}s (< 10 s)")


def test_criterion_02_dyadic_exactness():
    t0 = time.perf_counter()
    rep = suites.run_suite(suites.SuiteConfig(suite="dyadic", n=64, seed=0))
    elapsed = time.perf_counter() - t0
    ok = rep.passed and elapsed < 30.0
    _line(2, ok, f"dyadic exactness at n=64 in {elapsed:.2f}s (< 30 s)")


def test_criterion_03_bony_reconstruction():
    t0 = time.perf_counter()
    rep = suites.run_suite(suites.SuiteConfig(suite="paraproduct", n=64, seed=0))
    elapsed = time.perf_counter() - t0
    recon = next(c for c in rep.checks if c.name == "bony-reconstruction")
    ok = rep.passed and recon.value <= 1e-11 and elapsed < 60.0
    _line(3, ok, f"20 guarded pairs, worst rel {recon.value:.2e} in {elapsed:.1f}s (< 60 s)")


def test_criterion_04_bilinear_bound_stability():
    t0 = time.perf_counter()
    band = (2, 2)  # guarded on both grids
    maxima = {}
    for n in (64, 128):
        g = TorusGrid(n, TWO_PI)
        ratios = []
        for i in range(200):
            f = forge.scalar_band(g, 1000 + i, band, salt=1)
            h = forge.scalar_band(g, 1000 + i, band, salt=2)
            fg = products.product(f, h)
            rhs = 1.0  # fields are normalised below
            for s in (0.55, 5.0 / 6.0):
                num = norms.sobolev_norm(fg, 2.0 * s - 1.5)
                den = norms.sobolev_norm(f, s) * norms.sobolev_norm(h, s)
                ratios.append(num / den)
        maxima[n] = max(ratios)
        assert all(map(math.isfinite, ratios))
    elapsed = time.perf_counter() - t0
    drift = abs(maxima[128] - maxima[64]) / maxima[64]
    ok = drift <= 0.10 and elapsed < 600.0
    _line(4, ok, f"max ratio {maxima[64]:.4f} -> {maxima[128]:.4f}, drift {drift:.2e} (<= 10%), {elapsed:.0f}s (< 10 min)")


def test_criterion_05_classical_ledger():
    t0 = time.perf_counter()
    rep = suites.run_suite(suites.SuiteConfig(suite="classical-identity", n=64, seed=0))
    elapsed = time.perf_counter() - t0
    names = {c.name: c for c in rep.checks}
    ok = (
        all(names[k].passed for k in ("vanishing-I11", "vanishing-I21", "vanishing-I22",
                                      "advective-skew-I3", "trilinear-reconstruction",
                                      "theta-partition-invariance", "support-audit"))
        and elapsed < 300.0
    )
    _line(5, ok, f"10 fields, guarded sweep at n=64 in {elapsed:.0f}s (< 5 min); "
                 f"worst recon {names['trilinear-reconstruction'].value:.2e}")


def test_criterion_06_remainder_decay():
    t0 = time.perf_counter()
    n = 128
    u, ks = suites._decay_sweep(n, seed=0)

    ser = ledger.remainder_decay(u, "I232", ks, Fraction(1, 2))
    floor = ser.predicted_exponent - suites.TOLERANCES["decay-slack"]
    ok1 = ser.fit.slope >= floor
    print(f"  resonant remainder slope {ser.fit.slope:+.3f} vs floor {floor:+.3f}")

    s = Fraction(5, 6)
    ser2 = ledger.remainder_decay(u, "fractional-remainder", ks, s)
    floor2 = ser2.predicted_exponent - suites.TOLERANCES["decay-slack"]
    ok2 = ser2.fit.slope >= floor2
    print(f"  fractional remainder slope {ser2.fit.slope:+.3f} vs floor {floor2:+.3f}")

    # removed low parts of the high-frequency path fall below 1e-6 scale at the top
    g = TorusGrid(n, TWO_PI)
    win = DyadicWindow.for_grid(g)
    uh = forge.generate(g, forge.SpectrumSpec(
        "power-law", seed=0, band=(win.k_min, win.k_max), alpha=0.85))
    scale = ledger.ledger_scale(uh)
    tops = {}
    for k in (win.k_max, win.k_max + 1):
        led = ledger.ledger_fractional_high(uh, k, "0.6")
        for term in ("J1_low", "J2_low", "J3_low"):
            tops.setdefault(term, []).append(abs(led.terms[term]))
    ok3 = all(vals[-1] <= 1e-6 * scale and vals[-1] <= vals[0] + 1e-30 for vals in tops.values())
    print("  removed-term top values:", {t: f"{v[-1]:.1e}" for t, v in tops.items()},
          f"(threshold {1e-6*scale:.1e})")
    elapsed = time.perf_counter() - t0
    ok = ok1 and ok2 and ok3 and elapsed < 600.0
    _line(6, ok, f"decay regressions at n=128 in {elapsed:.0f}s (< 10 min)")


def test_criterion_07_fractional_coherence():
    g = TorusGrid(64, TWO_PI)
    win = DyadicWindow.for_grid(g)
    u = forge.generate(g, forge.SpectrumSpec("white-band", seed=3, band=(win.k_min, win.k_max)))
    worst = 0.0
    for k in (1, 2, 3):
        base = ledger.ledger_classical(u, k, Fraction(1, 2))
        frac = ledger.ledger_fractional_low(u, k, "5/6")
        worst = max(worst, max(abs(frac.terms[t] - base.terms[t]) for t in base.terms) / base.scale)
    theta_ok = ledger.theta_for("7/10") == Fraction(1, 2)
    ok = worst <= 1e-12 and theta_ok
    _line(7, ok, f"term-by-term coherence {worst:.2e} (<= 1e-12 scale); theta(7/10) == 1/2: {theta_ok}")


def test_criterion_08_diagnostics_chains_stable():
    t0 = time.perf_counter()
    chains = {}
    band = (0, 4)
    for n in (64, 128):
        g = TorusGrid(n, TWO_PI)
        u = forge.generate(g, forge.SpectrumSpec("power-law", seed=5, band=band, alpha=1.0))
        win = DyadicWindow(band[0], band[1])
        # es-style chains live at the critical exponent; the banded-tail
        # chains belong to the high-frequency regime s < 5/6
        merged = {}
        for s in ("5/6", "3/5"):
            rep = ledger.diagnostics(u, s, window=win)
            for name, chain in rep.chains.items():
                merged.setdefault(name, chain.c_emp)
        for name, value in merged.items():
            chains.setdefault(name, []).append(value)
    wanted = (
        "lowpass-linf-vs-besov",
        "lowpass-linf-vs-fourier-l32",
        "fractional-linf-vs-besov",
        "fractional-linf-vs-fourier-lr",
        "fractional-linf-vs-hs",
        "critical-linf-vs-hs",
        "high-band-theta-vs-tail-besov",
        "high-band-half-vs-tail-besov",
    )
    drifts = {}
    ok = True
    for name in wanted:
        pair = chains.get(name)
        ok &= pair is not None and all(map(math.isfinite, pair)) and pair[0] > 0
        if ok:
            drifts[name] = abs(pair[1] - pair[0]) / pair[0]
            ok &= drifts[name] <= 0.15
    elapsed = time.perf_counter() - t0
    worst = max(drifts.values()) if drifts else math.inf
    _line(8, ok, f"{len(wanted)} chains, worst refinement drift {worst:.2e} (<= 15%), {elapsed:.0f}s")


def test_criterion_09_energy_balance():
    worst_time = 0.0
    details = []
    ok = True
    for s in ("1", "5/6", "1/2"):
        t0 = time.perf_counter()
        rep = suites.run_suite(suites.SuiteConfig(suite="energy-balance", n=64, seed=0, s_values=(s,)))
        dt = time.perf_counter() - t0
        worst_time = max(worst_time, dt)
        ok &= rep.passed and dt < 300.0
        row = next(c for c in rep.checks if c.name.startswith("energy-balance"))
        details.append(f"s={s}: {row.value:.2e}")
    _line(9, ok, f"balance residuals {'; '.join(details)}; worst wall {worst_time:.0f}s (< 5 min each)")


def test_criterion_10_trivial_liouville_sanity():
    g = TorusGrid(32, TWO_PI)
    z = VectorField.zeros(g)
    led = ledger.ledger_classical(z, 2)
    ok = all(v == 0.0 for v in led.terms.values())
    lh = ledger.ledger_fractional_high(z, 2, "0.6")
    ok &= all(v == 0.0 for v in lh.terms.values())
    rep = ledger.diagnostics(z, "5/6")
    ok &= rep.u0_linf == 0.0 and all(v == 0.0 for row in rep.per_k.values() for v in row.values())
    row = ledger.energy_balance_residual(z, z, "5/6", 2)
    ok &= row.residual == 0.0
    ok &= norms.lp_norm(z, math.inf) == 0.0 and z.l2() == 0.0
    _line(10, ok, "zero field: every ledger term, diagnostic, and balance residual identically zero")
