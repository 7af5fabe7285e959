import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lpverify import TorusGrid, VectorField
from lpverify.dyadic import DyadicWindow
from lpverify.errors import FieldError
from lpverify.spectral import TWO_PI
from lpverify import dyadic, forge, ledger, norms, products


@pytest.fixture(scope="module")
def field64():
    g = TorusGrid(64, TWO_PI)
    win = DyadicWindow.for_grid(g)
    return forge.generate(
        g, forge.SpectrumSpec("white-band", seed=11, band=(win.k_min, win.k_max))
    )


# -- exponent bookkeeping -----------------------------------------------------


def test_theta_formula_exact():
    assert ledger.theta_for("7/10") == Fraction(1, 2)
    assert ledger.theta_for(0.7) == Fraction(1, 2)
    assert ledger.theta_for(Fraction(1, 2)) == 0
    assert ledger.theta_for("0.6") == Fraction(2, 9)
    with pytest.raises(FieldError):
        ledger.theta_for("5/6")


@settings(max_examples=60, deadline=None)
@given(
    num=st.integers(1, 99),
    den=st.integers(1, 100),
    k=st.integers(-60, 60),
)
def test_split_index_floor_toward_minus_infinity(num, den, k):
    theta = Fraction(num, max(num + 1, den))
    got = ledger.split_index(theta, k)
    exact = theta * k
    assert got <= exact < got + 1


# -- classical ledger -----------------------------------------------------------


def test_ledger_zero_field(grid32):
    led = ledger.ledger_classical(VectorField.zeros(grid32), 2)
    assert all(v == 0.0 for v in led.terms.values())


def test_ledger_single_mode_shear(grid32):
    u = forge.generate(grid32, forge.SpectrumSpec("single-mode"))
    led = ledger.ledger_classical(u, 1)
    assert all(abs(v) < 1e-14 for v in led.terms.values())


def test_ledger_identities(field64):
    S = None
    for k in (1, 2, 3):
        led = ledger.ledger_classical(field64, k)
        S = led.scale
        T = led.terms
        assert abs(T["I1"] - (T["I11"] + T["I12"] + T["I13"])) <= 1e-11 * S
        assert abs(T["I2"] - (T["I21"] + T["I22"] + T["I23"])) <= 1e-11 * S
        assert abs(T["I23"] - (T["I231"] + T["I232"])) <= 1e-12 * S
        assert abs(T["I11"]) <= 1e-12 * S
        assert abs(T["I21"]) <= 1e-12 * S
        assert abs(T["I22"]) <= 1e-12 * S
        assert abs(T["I3"]) <= 1e-11 * S
        assert T["recon_residual"] <= 1e-10 * S


def test_ledger_matches_explicit_trilinear(field64):
    led = ledger.ledger_classical(field64, 2)
    tl = dyadic.tail_vector(field64, 2)
    su = dyadic.lowpass_vector(field64, 2)
    # the compact pieces agree with direct trilinear evaluations
    assert abs(led.terms["I1"] - products.trilinear(su, su, tl)) <= 1e-12 * led.scale
    assert abs(led.terms["I2"] - products.trilinear(tl, su, tl)) <= 1e-12 * led.scale
    total = products.trilinear(field64, field64, tl)
    split_sum = sum(led.terms[t] for t in ("I12", "I13", "I231", "I232"))
    assert abs(total - split_sum) <= 1e-10 * led.scale


def test_theta_partition_invariance(field64):
    sums = []
    for theta in (Fraction(1, 4), Fraction(1, 2), Fraction(3, 4)):
        led = ledger.ledger_classical(field64, 2, theta)
        sums.append(led.terms["I231"] + led.terms["I232"])
    assert max(sums) - min(sums) <= 1e-12 * ledger.ledger_scale(field64)


def test_ledger_rejects_uncertified_field(field64):
    bad = VectorField(field64.components, div_free=False)
    with pytest.raises(FieldError):
        ledger.ledger_classical(bad, 2)
    with pytest.raises(FieldError):
        ledger.ledger_classical(field64, 2, theta=Fraction(3, 2))


# -- fractional paths -------------------------------------------------------------


def test_fractional_low_coherence(field64):
    base = ledger.ledger_classical(field64, 2, Fraction(1, 2))
    for s in ("5/6", "0.9"):
        led = ledger.ledger_fractional_low(field64, 2, s)
        for key, val in base.terms.items():
            assert abs(led.terms[key] - val) <= 1e-12 * base.scale
        assert set(led.certificates) >= {
            "stress_sobolev_max",
            "tail_grad_negative_order",
            "pressure_sobolev",
            "hs_norm",
        }
        assert all(math.isfinite(v) for v in led.certificates.values())
    with pytest.raises(FieldError):
        ledger.ledger_fractional_low(field64, 2, "0.7")


def test_fractional_high_reconstruction(field64):
    for s in ("0.6", "0.7", "1/2"):
        led = ledger.ledger_fractional_high(field64, 2, s)
        T = led.terms
        S = led.scale
        assert T["recon_residual"] <= 1e-10 * S
        assert abs(T["J1"] - (T["J1_low"] + T["J1_high"])) <= 1e-11 * S
        assert abs(T["J2"] - (T["J2_low"] + T["J2_high"])) <= 1e-11 * S
        assert abs(T["J3"] - (T["J3_low"] + T["J3_high"])) <= 1e-11 * S
    with pytest.raises(FieldError):
        ledger.ledger_fractional_high(field64, 2, "5/6")


def test_fractional_high_matches_classical_pieces(field64):
    lc = ledger.ledger_classical(field64, 2, Fraction(1, 2))
    lh = ledger.ledger_fractional_high(field64, 2, "0.6")
    S = lc.scale
    assert abs(lh.terms["J1"] - lc.terms["I12"]) <= 1e-12 * S
    assert abs(lh.terms["J2"] - lc.terms["I13"]) <= 1e-12 * S
    assert abs(lh.terms["J3"] - lc.terms["I23"]) <= 1e-12 * S


def test_s_half_uses_level_zero_split(field64):
    led = ledger.ledger_fractional_high(field64, 3, "1/2")
    assert led.theta == 0.0
    # [theta k] = 0 for every k, so the removed part keeps S_0 only
    ws = ledger._Workspace(field64, 3, dyadic.DEFAULT_PROFILE)
    expect = 0.0
    for l in range(2, 6):
        for lp in range(l - 2, 3):
            expect += ws.tri(ledger._low(l - 2) + ledger._low(0), ledger._block(lp), ledger._block(l) + ws.tail)
    assert abs(led.terms["J1_low"] - expect) <= 1e-13 * max(abs(expect), 1e-300)


# -- workspace filters -------------------------------------------------------------


def _literal_filters(u, k):
    """Each filter the ledger uses, built by chaining the public dyadic operators."""
    D = dyadic
    tail = D.tail_vector(u, k)
    su = D.lowpass_vector(u, k)

    def block_sum(f, a, b):
        out = D.block_vector(f, a)
        for l in range(a + 1, b + 1):
            out = out + D.block_vector(f, l)
        return out

    low, band, block = ledger._low, ledger._band, ledger._block
    t = band(k, math.inf)
    for m in range(k - 4, k + 2):
        yield f"Su({m})", low(m), D.lowpass_vector(u, m)
        yield f"SS({m})", low(m) + low(k), D.lowpass_vector(su, m)
        yield f"Stail({m})", low(m) + t, D.lowpass_vector(tail, m)
        for m1 in range(0, k + 1):
            yield f"SSm({m},{m1})", low(m) + low(m1), D.lowpass_vector(D.lowpass_vector(u, m1), m)
            if m1 <= k - 1:
                yield (
                    f"SsumB({m},{m1},{k - 1})",
                    low(m) + band(m1, k),
                    D.lowpass_vector(block_sum(u, m1, k - 1), m),
                )
    yield "tail", t, tail
    for l in range(k - 3, k + 5):
        yield f"B({l})", block(l), D.block_vector(u, l)
        yield f"D({l})", block(l) + t, D.block_vector(tail, l)
        yield f"T({l})", band(l - 2, l + 3) + t, block_sum(tail, l - 2, l + 2)
        yield f"DS({l})", block(l) + low(k), D.block_vector(su, l)
    for a in range(0, k):
        yield f"sumB({a},{k - 1})", band(a, k), block_sum(u, a, k - 1)


@pytest.mark.parametrize("k", list(DyadicWindow.for_grid(TorusGrid(32, TWO_PI)).indices()))
def test_band_filters_match_literal_composition(grid32, k):
    win = DyadicWindow.for_grid(grid32)
    u = forge.generate(grid32, forge.SpectrumSpec("white-band", seed=5, band=(win.k_min, win.k_max)))
    ws = ledger._Workspace(u, k, dyadic.DEFAULT_PROFILE)
    top = max(c.max_abs_coeff() for c in u.components)
    for name, filt, expect in _literal_filters(u, k):
        got = ws.field(filt)
        for c_got, c_exp in zip(got.components, expect.components):
            assert np.array_equal(c_got.coeffs == 0, c_exp.coeffs == 0), name
            assert np.max(np.abs(c_got.coeffs - c_exp.coeffs)) <= 1e-15 * top, name


# -- support audit ------------------------------------------------------------------


def test_support_audit_clean(field64):
    rep = ledger.support_audit(field64, 2)
    assert rep.violations == 0
    assert rep.lowpass_grad_support_exact
    assert rep.max_relative_leak <= 1e-13


# -- decay fits -----------------------------------------------------------------------


def test_fit_decay_exact_geometric():
    pts = [(k, 2.0 ** (0.5 * k)) for k in range(-8, -2)]
    fit = ledger.fit_decay(pts)
    assert abs(fit.slope - 0.5) <= 1e-12
    assert fit.rms_residual <= 1e-12


def test_fit_decay_constant_series():
    fit = ledger.fit_decay([(k, 3.25) for k in range(1, 7)])
    assert abs(fit.slope) <= 1e-12


def test_fit_decay_confidence_band():
    fit = ledger.fit_decay([(k, 2.0 ** (0.5 * k) * (1 + 0.02 * (-1) ** k)) for k in range(6)])
    lo, hi = fit.slope_band()
    assert lo <= 0.5 <= hi
    assert 0.0 < fit.slope_stderr < 0.05


def test_fit_decay_needs_four_points():
    with pytest.raises(FieldError):
        ledger.fit_decay([(0, 1.0), (1, 0.5), (2, 0.0), (3, 0.0)])


def test_remainder_decay_insufficient_points():
    # a 5-octave window admits only three levels with a live split
    g = TorusGrid(64, TWO_PI * 2**4)
    win = DyadicWindow.for_grid(g)
    assert (win.k_min, win.k_max) == (-4, 0)
    u = forge.generate(
        g, forge.SpectrumSpec("power-law", seed=0, band=(win.k_min, win.k_max), alpha=0.3)
    )
    with pytest.raises(FieldError, match="4 usable points"):
        ledger.remainder_decay(u, "I232", range(win.k_min + 1, 1), Fraction(1, 2))


def test_remainder_decay_matches_ledger_terms(field64):
    ser = ledger.remainder_decay(field64, "I232", range(1, 5), Fraction(1, 2))
    assert ser.predicted_exponent == 0.5
    assert len(ser.points) == 4
    for k, v in ser.points:
        led = ledger.ledger_classical(field64, k, Fraction(1, 2))
        assert abs(v - led.terms["I232"]) <= 1e-13 * max(abs(v), 1e-300)
    ser2 = ledger.remainder_decay(field64, "fractional-remainder", range(1, 5), "5/6")
    assert abs(ser2.predicted_exponent - (2.5 - 2.0 * 5.0 / 6.0)) < 1e-12
    # at theta = 1/2 the two series are the same integral family
    for (k1, v1), (k2, v2) in zip(ser.points, ser2.points):
        assert k1 == k2 and v1 == v2


def test_removed_terms_vanish_at_window_top(grid64):
    win = DyadicWindow.for_grid(grid64)
    u = forge.generate(
        grid64, forge.SpectrumSpec("power-law", seed=2, band=(win.k_min, win.k_max), alpha=0.85)
    )
    for term in ("J1_low", "J2_low", "J3_low"):
        ser = ledger.remainder_decay(
            u, term, range(win.k_max - 2, win.k_max + 2), "0.6"
        )
        assert ser.top_ok
        assert abs(ser.points[-1][1]) <= ser.top_threshold


# -- diagnostics -----------------------------------------------------------------------


def test_diagnostics_zero_field(grid32):
    rep = ledger.diagnostics(VectorField.zeros(grid32), "5/6")
    assert rep.u0_linf == 0.0
    assert all(v == 0.0 for row in rep.per_k.values() for v in row.values())


def test_diagnostics_single_mode_values(grid32):
    u = forge.generate(grid32, forge.SpectrumSpec("single-mode"))
    rep = ledger.diagnostics(u, "5/6")
    # low-pass at level 3 is the identity on the |xi| = 1 mode
    assert abs(rep.per_k[3]["classical_smallness"] - 1.0 / 8.0) <= 1e-12


def test_diagnostics_chains(field64):
    rep = ledger.diagnostics(field64, "5/6")
    assert rep.chains["lowpass-linf-vs-besov"].c_emp <= 4.0
    assert rep.chains["critical-linf-vs-hs"].c_emp > 0
    for chain in rep.chains.values():
        assert math.isfinite(chain.c_emp)
    assert set(rep.windowed_min) == {"classical_smallness", "fractional_smallness"}


def test_snc_chains(field64):
    led = ledger.ledger_classical(field64, 2)
    rows = ledger.snc_chains(field64, led)
    assert set(rows) == {"retained-12", "retained-3"}
    for lhs, rhs, ratio in rows.values():
        assert math.isfinite(ratio)


# -- energy balance ----------------------------------------------------------------------


def test_energy_balance_zero(grid32):
    z = VectorField.zeros(grid32)
    row = ledger.energy_balance_residual(z, z, 1.0, 2)
    assert row.residual == 0.0


def test_energy_balance_linear_shear(grid32):
    from lpverify.spectral import fractional_laplacian

    shear = forge.generate(grid32, forge.SpectrumSpec("single-mode", amplitude=0.5))
    f = VectorField(shear.map(lambda c: fractional_laplacian(c, 1.0)).components)
    for k in (0, 1, 2):
        row = ledger.energy_balance_residual(shear, f, 1.0, k)
        assert row.residual <= 1e-12 * row.scale


@pytest.mark.parametrize("s", ["1", "5/6", "1/2"])
def test_energy_balance_picard_pair(grid32, s):
    sv = float(Fraction(s))
    f = forge.taylor_green(grid32, amplitude=1e-2)
    res = forge.picard_solve(f, sv, tol=1e-11, max_iter=40)
    win = DyadicWindow.for_grid(grid32)
    for k in win.indices():
        row = ledger.energy_balance_residual(res.u, forge.leray_project(f), s, k)
        assert row.residual <= max(10.0 * res.residual, 1e-9) * row.scale
