import math
import weakref
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lpverify import TorusGrid, VectorField
from lpverify.dyadic import DyadicWindow
from lpverify.errors import FieldError, GridError
from lpverify.spectral import TWO_PI
from lpverify import dyadic, forge, ledger, norms, products, suites


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
    tl = dyadic.tail(field64, 2)
    su = dyadic.lowpass(field64, 2)
    # the compact pieces agree with direct trilinear evaluations
    assert abs(led.terms["I1"] - products.trilinear(su, su, tl)) <= 1e-12 * led.scale
    assert abs(led.terms["I2"] - products.trilinear(tl, su, tl)) <= 1e-12 * led.scale
    total = products.trilinear(field64, field64, tl)
    split_sum = sum(led.terms[t] for t in ("I12", "I13", "I231", "I232"))
    assert abs(total - split_sum) <= 1e-10 * led.scale


def test_theta_partition_invariance(field64):
    base = ledger.ledger_classical(field64, 2, Fraction(1, 2))
    sums = []
    for theta in (Fraction(1, 4), Fraction(1, 2), Fraction(3, 4)):
        led = ledger.ledger_classical(field64, 2, theta)
        sums.append(led.terms["I231"] + led.terms["I232"])
        # another split of the same resonant integrals is a view, not a recomputation
        assert base.split(theta) == (led.terms["I231"], led.terms["I232"])
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


def test_fractional_low_sweep_matches_per_level_ledgers(grid32):
    u = suites._window_field(grid32, 1)
    leds = ledger._fractional_low_sweep(u, (1, 2), "5/6")
    assert leds == {k: ledger.ledger_fractional_low(u, k, "5/6") for k in (1, 2)}
    sigma = 2.0 * (5 / 6) - 1.5
    stress = [products.product(u.components[i], u.components[j]) for i in range(3) for j in range(i, 3)]
    for k, led in leds.items():
        assert led.terms == ledger.ledger_classical(u, k).terms
        assert led.certificates == {
            "stress_sobolev_max": max(norms.sobolev_norm(t, sigma) for t in stress),
            "tail_grad_negative_order": ledger._tail_grad_norm(u, k, 1.5 - 2.0 * (5 / 6)),
            "pressure_sobolev": norms.sobolev_norm(products.pressure_from_velocity(u), sigma),
            "hs_norm": norms.sobolev_norm(u, 5 / 6),
        }
    with pytest.raises(FieldError):
        ledger._fractional_low_sweep(u, (1, 2), "0.7")


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
    ws = ledger._Workspace(field64, 3)
    triples = [
        (ledger._low(l - 2) + ledger._low(0), ledger._block(lp), ledger._block(l) + ws.tail)
        for l in range(2, 6)
        for lp in range(l - 2, 3)
    ]
    expect = 0.0
    for value in ledger._Plan(ws, {"J1_low": triples}).run()["J1_low"]:
        expect += value
    assert abs(led.terms["J1_low"] - expect) <= 1e-13 * max(abs(expect), 1e-300)


# -- workspace filters -------------------------------------------------------------


def _literal_filters(u, k):
    """Each filter the ledger uses, built by chaining the public dyadic operators."""
    D = dyadic
    tail = u - D.lowpass(u, k)
    su = D.lowpass(u, k)

    def block_sum(f, a, b):
        out = D.block(f, a)
        for l in range(a + 1, b + 1):
            out = out + D.block(f, l)
        return out

    low, band, block = ledger._low, ledger._band, ledger._block
    t = band(k, math.inf)
    for m in range(k - 4, k + 2):
        yield f"Su({m})", low(m), D.lowpass(u, m)
        yield f"SS({m})", low(m) + low(k), D.lowpass(su, m)
        yield f"Stail({m})", low(m) + t, D.lowpass(tail, m)
        for m1 in range(0, k + 1):
            yield f"SSm({m},{m1})", low(m) + low(m1), D.lowpass(D.lowpass(u, m1), m)
            if m1 <= k - 1:
                yield (
                    f"SsumB({m},{m1},{k - 1})",
                    low(m) + band(m1, k),
                    D.lowpass(block_sum(u, m1, k - 1), m),
                )
    yield "tail", t, tail
    for l in range(k - 3, k + 5):
        yield f"B({l})", block(l), D.block(u, l)
        yield f"D({l})", block(l) + t, D.block(tail, l)
        yield f"T({l})", band(l - 2, l + 3) + t, block_sum(tail, l - 2, l + 2)
        yield f"DS({l})", block(l) + low(k), D.block(su, l)
    for a in range(0, k):
        yield f"sumB({a},{k - 1})", band(a, k), block_sum(u, a, k - 1)


@pytest.mark.parametrize("k", list(DyadicWindow.for_grid(TorusGrid(32, TWO_PI)).indices()))
def test_band_filters_match_literal_composition(grid32, k):
    win = DyadicWindow.for_grid(grid32)
    u = forge.generate(grid32, forge.SpectrumSpec("white-band", seed=5, band=(win.k_min, win.k_max)))
    ws = ledger._Workspace(u, k)
    top = max(c.max_abs_coeff() for c in u.components)
    for name, filt, expect in _literal_filters(u, k):
        got = ledger._filtrate(u, ws.key(filt))
        for c_got, c_exp in zip(got.components, expect.components):
            assert np.array_equal(c_got.coeffs == 0, c_exp.coeffs == 0), name
            assert np.max(np.abs(c_got.coeffs - c_exp.coeffs)) <= 1e-15 * top, name


@pytest.mark.parametrize("box", [TWO_PI, math.pi * 32 / 2])
def test_filters_sharing_a_key_filter_u_bit_for_bit(box):
    grid = TorusGrid(32, box)
    win = DyadicWindow.for_grid(grid)
    u = forge.generate(grid, forge.SpectrumSpec("white-band", seed=5, band=(win.k_min, win.k_max)))
    for k in win.indices():
        ws = ledger._Workspace(u, k)
        classes: dict = {}
        for name, filt, _ in _literal_filters(u, k):
            classes.setdefault(ws.key(filt), []).append((name, dyadic.band(u, filt)))
        assert len(classes) < sum(len(v) for v in classes.values())  # some spellings share a key
        for key, spelled in classes.items():
            want = ledger._filtrate(u, key)
            for name, got in spelled:
                for c, w in zip(got.components, want.components):
                    assert np.array_equal(c.coeffs, w.coeffs), (k, name, key)
                    assert np.array_equal(c.support, w.support), (k, name, key)


def _spy_plans(monkeypatch) -> list:
    """Every ``_Plan`` run from here on, appended when it starts to run."""
    plans, run = [], ledger._Plan.run
    monkeypatch.setattr(ledger._Plan, "run", lambda self: plans.append(self) or run(self))
    return plans


def test_ledger_and_audit_sample_each_filtrate_once(grid32, monkeypatch):
    u = suites._window_field(grid32, 0)
    want = [ledger.ledger_classical(u, 1), ledger.support_audit(u, 1)]
    ws = ledger._Workspace(u, 1)
    spellings: dict = {}
    keyed = []
    key = ws.key
    monkeypatch.setattr(
        ws, "key", lambda filt: keyed.append(filt) or spellings.setdefault(tuple(sorted(filt)), key(filt))
    )
    calls, named = [], []
    sample, rule = products.samples_on, products._eval_grid_for
    monkeypatch.setattr(products, "samples_on", lambda c, dst: calls.append(dst.n) or sample(c, dst))
    monkeypatch.setattr(products, "_eval_grid_for", lambda *a: named.append(rule(*a).n) or rule(*a))
    plans = _spy_plans(monkeypatch)
    assert ws.run(ledger._classical(ws, Fraction(1, 2)), ledger._audit(ws)) == want
    (plan,) = plans
    assert not plan.filtrates and not plan.sampler.held  # each is dropped after its last use
    slots = {slot for *_, reads in plan.steps for slot in reads}
    filtrates = {filt for ((filt, _), _, grad) in slots if not grad}
    gradients = {filt for ((filt, _), _, grad) in slots if grad}
    # 10 filtrates and 3 gradients, standing for 19 and 7 spellings of their
    # filters; the plan keys a filter once, never its key again, and the
    # audit keys S_k once more for the gradient it pairs against
    assert (len(filtrates), len(gradients)) == (10, 3)
    assert sum(k in filtrates for k in spellings.values()) == 19
    assert sum(k in gradients for k in spellings.values()) == 7
    assert len(keyed) == len(set(keyed)) + 1 and keyed.count(ws.low) == 2
    # each slot's arrays were sampled once, on a grid the rule named, and
    # nothing else was: the narrow terms drop to 16^3, none leaves the native 32^3
    arrays = [n for (_, n, grad) in slots for _ in range(3 if grad else 1)]
    assert sorted(calls) == sorted(arrays)
    assert set(calls) == set(named) == {16, 32}
    assert (calls.count(16), calls.count(32)) == (18, 54)


@pytest.mark.parametrize("case", ["ledger+audit", "fractional-high"])
def test_plan_builds_each_filtrate_once(grid32, monkeypatch, case):
    u = suites._window_field(grid32, 0)
    builds, shaped = [], []
    band, shape = dyadic.band, products._shape
    monkeypatch.setattr(dyadic, "band", lambda f, key: builds.append(key) or band(f, key))
    monkeypatch.setattr(products, "_shape", lambda f: shaped.append(f) or shape(f))
    plans = _spy_plans(monkeypatch)
    if case == "ledger+audit":
        ws = ledger._Workspace(u, 1)
        ws.run(ledger._classical(ws, Fraction(1, 2)), ledger._audit(ws))
        builds.remove(ws.key(ws.low))  # the audit's own S_k, whose gradient it pairs against
    else:
        ledger.ledger_fractional_high(u, 2, "3/5")
    (plan,) = plans
    keys = {key for _, _, ks, *_ in plan.steps for key in ks}
    # every filtrate is built, and its shape read, in planning and never again;
    # the key () is u itself, which is shaped but not built
    assert len(builds) == len(set(builds)) and set(builds) == keys - {()}
    assert len(shaped) == len(keys) == len({id(f) for f in shaped})


@pytest.mark.parametrize("case", ["ledger+audit", "fractional-high"])
def test_plan_states_its_samples_per_grid(grid32, monkeypatch, case):
    u = suites._window_field(grid32, 3)
    calls = []
    sample = products.samples_on
    monkeypatch.setattr(products, "samples_on", lambda c, dst: calls.append(dst.n) or sample(c, dst))
    plans = _spy_plans(monkeypatch)
    if case == "ledger+audit":
        ws = ledger._Workspace(u, 1)
        ws.run(ledger._classical(ws, Fraction(1, 2)), ledger._audit(ws))
    else:
        ledger.ledger_fractional_high(u, 2, "3/5")
    (plan,) = plans
    assert plan.samples == {n: calls.count(n) for n in set(calls)}
    assert len(set(calls)) > 1  # the narrow terms drop to a coarser grid


# -- support audit ------------------------------------------------------------------


def test_support_audit_clean(field64):
    rep = ledger.support_audit(field64, 2)
    assert rep.violations == 0
    assert rep.lowpass_grad_support_exact
    assert rep.max_relative_leak <= 1e-13


def _audit_products_literal(u, k):
    """(term, level, annulus, max outside, scale) of each audited product,
    every product made by ``products.product`` from public filters."""
    tl = dyadic.tail(u, k)
    out = []
    for l in range(k - 1, ledger._Workspace(u, k).l_top + 1):
        dl = dyadic.block(tl, l)
        pairs = (("I12-summand", dyadic.lowpass(dyadic.lowpass(u, k), l - 2)),
                 ("I21-I22-summand", dyadic.lowpass(tl, l - 2)))
        for i in range(3):
            for j in range(3):
                for term, f in pairs:
                    a, b = dl.components[i], f.components[j]
                    if a.max_abs_coeff() == 0.0 or b.max_abs_coeff() == 0.0:
                        continue
                    lo, hi, max_in, max_out = dyadic.annulus_audit(products.product(a, b), l)
                    out.append((term, l, lo, hi, max_out, max(max_in, max_out)))
    return out


def _spy_live_samples(monkeypatch) -> tuple[list, list]:
    """(the bytes of samples alive after each sampling, the slots the samplers
    sampled in order); an array counts from ``samples_on`` until it is freed."""
    live, levels, sampled = [0], [], []
    sample, call = products.samples_on, products._Sampler.__call__

    def release(nbytes: int) -> None:
        live[0] -= nbytes

    def spy(c, dst):
        out = sample(c, dst)
        live[0] += out.nbytes
        weakref.finalize(out, release, out.nbytes)
        levels.append(live[0])
        return out

    def spy_call(self, key, c, eg, grad=False):
        if key is not None and (key, eg.n, grad) not in self.held:
            sampled.append((key, eg.n, grad))
        return call(self, key, c, eg, grad)

    monkeypatch.setattr(products, "samples_on", spy)
    monkeypatch.setattr(products._Sampler, "__call__", spy_call)
    return levels, sampled


@pytest.mark.parametrize("order", ["ledger-first", "audit-first", "last-use"])
def test_support_audit_on_shared_workspace(grid32, monkeypatch, order):
    u = suites._window_field(grid32, 2)
    k = 1
    alone, fresh = ledger.support_audit(u, k), ledger.ledger_classical(u, k)
    literal = _audit_products_literal(u, k)
    assert len(alone.rows) == len(literal)
    for r, (term, l, lo, hi, max_out, scale) in zip(alone.rows, literal):
        assert (r.term, r.level, r.annulus_lo, r.annulus_hi) == (term, l, lo, hi)
        assert r.scale == pytest.approx(scale, rel=1e-12)
        assert abs(r.max_outside - max_out) <= 1e-14 * scale
    if order == "last-use":
        levels, sampled = _spy_live_samples(monkeypatch)
        plans = _spy_plans(monkeypatch)
    ws = ledger._Workspace(u, k)
    if order == "audit-first":
        rep, led = ws.run(ledger._audit(ws), ledger._classical(ws, Fraction(1, 2)))
    else:
        led, rep = ws.run(ledger._classical(ws, Fraction(1, 2)), ledger._audit(ws))
    assert rep == alone
    assert rep.rows and rep.violations == 0
    assert led == fresh
    if order == "last-use":
        (plan,) = plans
        assert not plan.filtrates and not plan.sampler.held
        # live samples never exceed the plan's stated peak, and reach it
        assert max(levels) == plan.peak_bytes
        assert len(sampled) == len(set(sampled))  # no slot is sampled twice


@pytest.mark.parametrize("name", ["zero", "single-mode", "window"])
def test_plans_hold_nothing_after_they_run(grid32, monkeypatch, name):
    # the zero field leaves out every product and the single-mode shear all
    # but one component's, so most filtrates are read by no step at all
    u = {
        "zero": VectorField.zeros(grid32),
        "single-mode": forge.generate(grid32, forge.SpectrumSpec("single-mode")),
        "window": suites._window_field(grid32, 0),
    }[name]
    k = 1
    literal = _audit_products_literal(u, k)
    plans = _spy_plans(monkeypatch)
    alone = ledger.support_audit(u, k)
    assert not plans[-1].filtrates and not plans[-1].sampler.held
    ws = ledger._Workspace(u, k)
    led, rep = ws.run(ledger._classical(ws, Fraction(1, 2)), ledger._audit(ws))
    assert not plans[-1].filtrates and not plans[-1].sampler.held
    assert led == ledger.ledger_classical(u, k)
    assert len(plans) == 3 and not plans[-1].filtrates and not plans[-1].sampler.held
    assert rep == alone and rep.violations == 0
    assert len(rep.rows) == len(literal)
    for r, (term, l, lo, hi, max_out, scale) in zip(rep.rows, literal):
        assert (r.term, r.level, r.annulus_lo, r.annulus_hi) == (term, l, lo, hi)
        assert r.scale == pytest.approx(scale, rel=1e-12)
        assert abs(r.max_outside - max_out) <= 1e-14 * scale
    if name == "zero":
        assert not rep.rows and all(v == 0.0 for v in led.terms.values())


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
    # an exponent given as a string reads as the same fraction
    assert ledger.remainder_decay(field64, "I232", range(1, 5), "1/2") == ser
    assert ledger.remainder_decay(field64, "fractional-remainder", range(1, 5), Fraction(5, 6)) == ser2
    assert ledger.remainder_decay(field64, "I232", range(1, 5), "5/6") == ledger.remainder_decay(
        field64, "I232", range(1, 5), Fraction(5, 6)
    )


def test_removed_terms_vanish_at_window_top(grid64):
    win = DyadicWindow.for_grid(grid64)
    u = forge.generate(
        grid64, forge.SpectrumSpec("power-law", seed=2, band=(win.k_min, win.k_max), alpha=0.85)
    )
    ks = range(win.k_max - 2, win.k_max + 2)
    leds = [ledger.ledger_fractional_high(u, k, "0.6") for k in ks]
    for term in ("J1_low", "J2_low", "J3_low"):
        ser = ledger.remainder_decay(u, term, ks, "0.6")
        assert ser.top_value == abs(ser.points[-1][1]) <= suites.TOLERANCES["removed-top"] * ledger.ledger_scale(u)
        assert list(ser.points) == [(led.k, led.terms[term]) for led in leds]


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


@pytest.mark.parametrize("s", ["5/6", "3/5", "1/2"])
@pytest.mark.parametrize("window", [None, DyadicWindow(1, 2)])
@pytest.mark.parametrize("alpha", [1.0, None])  # power-law, white-band
def test_diagnostics_besov_entries_match_explicit_filtrates(grid32, s, window, alpha):
    u = suites._window_field(grid32, 3, alpha=alpha)
    rep = ledger.diagnostics(u, s, window)
    win = window or DyadicWindow.for_grid(grid32)
    w = 1.0 - 2.0 * float(ledger.as_fraction(s))
    theta = ledger.theta_for(s) if s != "5/6" else None
    assert list(rep.per_k) == list(win.indices())
    for k, row in rep.per_k.items():
        su = dyadic.lowpass(u, k)
        assert row["besov_neg1_lowpass"] == norms.besov_infty_norm(su, -1.0, win)
        assert row["besov_frac_lowpass"] == norms.besov_infty_norm(su, w, win)
        assert row["besov_neg1_lowpass"] > 0.0 or k == win.k_min
        if theta is not None:
            for key, m in (("tail_besov_theta", ledger.split_index(theta, k)),
                           ("tail_besov_half", ledger.split_index(Fraction(1, 2), k))):
                assert row[key] == norms.besov_infty_norm(dyadic.tail(u, m), w, win), (k, key)


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


def _energy_balance_per_level(u, f, s, k):
    """One level's balance on its own: u and grad u are sampled afresh."""
    sv = float(ledger.as_fraction(s))
    tl = dyadic.tail(u, k)
    su = dyadic.lowpass(u, k)
    t1 = norms.fractional_dirichlet(tl, sv)
    t2 = products.trilinear(u, u, tl)
    t3 = ledger._frac_pairing(su, tl, sv)
    t4 = ledger._l2_pairing(f, tl)
    residual = abs(t1 + t2 + t3 - t4)
    scale = max(abs(t1), abs(t2), abs(t3), abs(t4), f.l2() * u.l2(), 1e-300)
    return ledger.EnergyBalanceRow(k, sv, residual, scale, t1, t2, t3, t4)


@pytest.mark.parametrize("s", ["1", "5/6", "1/2"])
def test_energy_balance_sweep_matches_per_level_rows(monkeypatch, grid32, s):
    f = forge.taylor_green(grid32, amplitude=1e-2)
    u = forge.picard_solve(f, float(Fraction(s)), tol=1e-11, max_iter=40).u
    pf = forge.leray_project(f)
    ks = DyadicWindow.for_grid(grid32).indices()
    assert len(ks) == 4
    calls = []
    sample = products.samples_on
    monkeypatch.setattr(products, "samples_on", lambda c, dst: calls.append(dst.n) or sample(c, dst))
    want = [_energy_balance_per_level(u, pf, s, k) for k in ks]
    assert len(calls) == 4 * (3 + 9 + 3)  # u, grad u and the tail at every level
    del calls[:]
    got = ledger._energy_balance_sweep(u, pf, s, ks)
    assert len(calls) == 3 + 9 + 4 * 3  # u and grad u once, then each tail
    assert got == want
    assert [ledger.energy_balance_residual(u, pf, s, k) for k in ks] == want


def test_energy_balance_rejects_mismatched_forcing(grid16, grid32):
    u = forge.taylor_green(grid32)
    with pytest.raises(GridError):
        ledger._energy_balance_sweep(u, forge.taylor_green(grid16), 1.0, (0, 1))
