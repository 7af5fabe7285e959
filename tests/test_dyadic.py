import importlib
import inspect
import math
import pkgutil

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lpverify import TorusGrid, bernstein_check, block, lowpass, tail, tilde_block
from lpverify.dyadic import DEFAULT_PROFILE, DyadicProfile, DyadicWindow, _floor_log2
from lpverify.errors import FieldError, WindowError
from lpverify.spectral import TWO_PI
from lpverify import dyadic, forge, ledger, norms, suites


# -- profile -------------------------------------------------------------------


def test_profile_plateau_and_support():
    p = DEFAULT_PROFILE
    r = np.linspace(0.0, 2.5, 2001)
    psi = p.psi(r)
    assert np.all(psi[r <= 0.5] == 1.0)
    assert np.all(psi[r >= 1.0] == 0.0)
    assert np.all((0.0 <= psi) & (psi <= 1.0))
    phi = p.phi(r)
    assert np.all(phi >= 0.0)
    assert np.all(phi[(r <= 0.5) | (r >= 2.0)] == 0.0)
    assert p.phi(np.array([1.0]))[0] == 1.0


@settings(max_examples=50, deadline=None)
@given(r=st.floats(0.008, 120.0), k_lo=st.integers(-12, -7))
def test_profile_telescoping_partition(r, k_lo):
    p = DEFAULT_PROFILE
    total = sum(float(p.phi(np.array([r * 2.0**-k]))[0]) for k in range(k_lo, 12))
    assert abs(total - 1.0) <= 1e-12


def test_fingerprint_distinguishes_shapes():
    assert DEFAULT_PROFILE.fingerprint() != DyadicProfile(sharpness=2.0).fingerprint()
    assert DEFAULT_PROFILE.fingerprint() == DyadicProfile().fingerprint()


def _defined_functions():
    """Every function and method written in the lpverify modules, by qualified name."""
    import lpverify

    for info in pkgutil.iter_modules(lpverify.__path__):
        mod = importlib.import_module(f"lpverify.{info.name}")
        for obj in vars(mod).values():
            if getattr(obj, "__module__", None) != mod.__name__:
                continue
            members = vars(obj).values() if inspect.isclass(obj) else [obj]
            for m in members:
                fn = getattr(m, "__func__", None) or getattr(m, "fget", None) or getattr(m, "func", None) or m
                # dataclass-generated methods are compiled from "<string>", not written here
                if inspect.isfunction(fn) and fn.__code__.co_filename == mod.__file__:
                    yield f"{mod.__name__}.{fn.__qualname__}", fn


def test_profile_is_named_once():
    named = sorted(
        name for name, fn in _defined_functions() if "profile" in inspect.signature(fn).parameters
    )
    assert named == ["lpverify.dyadic._multiplier"]


# -- window arithmetic ----------------------------------------------------------


def test_window_for_standard_grids():
    assert DyadicWindow.for_grid(TorusGrid(32, TWO_PI)).k_max == 3
    assert DyadicWindow.for_grid(TorusGrid(64, TWO_PI)).k_max == 4
    assert DyadicWindow.for_grid(TorusGrid(128, TWO_PI)).k_max == 5
    w = DyadicWindow.for_grid(TorusGrid(128, TWO_PI * 2**5))
    assert (w.k_min, w.k_max) == (-5, 0)


def test_window_guard_requires_room():
    w = DyadicWindow.for_grid(TorusGrid(64, TWO_PI))
    assert (w.guarded(1).k_min, w.guarded(1).k_max) == (1, 3)
    with pytest.raises(WindowError):
        DyadicWindow.for_grid(TorusGrid(8, TWO_PI)).guarded(2)


def test_floor_log2_exact_powers():
    assert _floor_log2(1.0) == 0
    assert _floor_log2(0.5) == -1
    assert _floor_log2(0.75) == -1
    assert _floor_log2(16.0) == 4
    assert _floor_log2(16.0001) == 4


# -- block operators -------------------------------------------------------------


def test_block_of_unit_mode(grid16):
    f = forge.harmonic(grid16, (0, 0, 1))
    b0 = block(f, 0)
    assert np.array_equal(b0.coeffs, f.coeffs)  # phi(1) = 1 exactly
    assert block(f, 5).max_abs_coeff() == 0.0


def test_block_support_bit_exact(grid64):
    u = forge.generate(grid64, forge.SpectrumSpec("white-band", seed=2, band=(0, 4)))
    c = u.components[0]
    for k in range(0, 5):
        bk = block(c, k)
        outside = ~(
            (grid64.xi_abs >= math.ldexp(1.0, k - 1))
            & (grid64.xi_abs <= math.ldexp(1.0, k + 1))
        )
        assert np.all(bk.coeffs[outside] == 0.0)


def test_almost_orthogonality_bit_exact(grid64):
    u = forge.generate(grid64, forge.SpectrumSpec("white-band", seed=2, band=(0, 4)))
    c = u.components[0]
    for k in range(0, 5):
        for j in range(0, 5):
            if abs(j - k) >= 2:
                assert block(block(c, k), j).max_abs_coeff() == 0.0


def test_reconstruction_over_window(grid64):
    win = DyadicWindow.for_grid(grid64)
    u = forge.generate(grid64, forge.SpectrumSpec("white-band", seed=5, band=(0, 4)))
    c = u.components[0]
    acc = np.zeros_like(c.coeffs)
    for k in win.indices():
        acc += block(c, k).coeffs
    assert np.max(np.abs(acc - c.coeffs)) <= 1e-12 * c.max_abs_coeff()


def test_lowpass_telescoping(grid64):
    win = DyadicWindow.for_grid(grid64)
    u = forge.generate(grid64, forge.SpectrumSpec("white-band", seed=6, band=(0, 4)))
    c = u.components[1]
    for k in range(1, win.k_max + 2):
        acc = np.zeros_like(c.coeffs)
        for l in range(win.k_min, k):
            acc += block(c, l).coeffs
        sk = lowpass(c, k)
        assert np.max(np.abs(acc - sk.coeffs)) <= 1e-12 * max(c.max_abs_coeff(), 1e-300)


def test_lowpass_identities(grid16):
    f = forge.harmonic(grid16, (0, 0, 1))
    assert lowpass(f, 0).max_abs_coeff() == 0.0  # psi(1) = 0
    win = DyadicWindow.for_grid(grid16)
    full = lowpass(f, win.k_max + 2)
    assert np.array_equal(full.coeffs, f.coeffs)


def test_tail_complement_exact(grid32, rng):
    u = forge.generate(grid32, forge.SpectrumSpec("white-band", seed=8, band=(1, 3)))
    c = u.components[0]
    for k in (-1, 1, 2, 5):
        recon = lowpass(c, k).coeffs + tail(c, k).coeffs
        # exact on plateau/exterior; one ulp of re-rounding on the crossover shell
        assert np.max(np.abs(recon - c.coeffs)) <= 5e-16 * c.max_abs_coeff()
    win = DyadicWindow.for_grid(grid32)
    assert np.array_equal(tail(c, win.k_min - 2).coeffs, c.coeffs)
    assert tail(c, win.k_max + 2).max_abs_coeff() == 0.0


def test_tilde_block_matches_five_block_oracle(grid32):
    u = forge.generate(grid32, forge.SpectrumSpec("white-band", seed=9, band=(1, 3)))
    c = u.components[2]
    for l in (1, 2, 3):
        oracle = sum(block(c, lp).coeffs for lp in range(l - 2, l + 3))
        assert np.max(np.abs(tilde_block(c, l).coeffs - oracle)) == 0.0


def test_tilde_block_of_unit_mode(grid16):
    f = forge.harmonic(grid16, (0, 0, 1))
    assert np.max(np.abs(tilde_block(f, 0).coeffs - f.coeffs)) <= 1e-15 * f.max_abs_coeff()
    assert tilde_block(f, 4).max_abs_coeff() == 0.0


def test_tail_l3_bound(grid64):
    u = forge.generate(grid64, forge.SpectrumSpec("power-law", seed=3, band=(0, 4), alpha=1.0))
    win = DyadicWindow.for_grid(grid64)
    droot = math.sqrt(norms.dirichlet(u))
    for k in win.indices():
        tl = u.map(lambda c: tail(c, k))
        bound = math.ldexp(1.0, -k) ** 0.5 * droot
        assert norms.lp_norm(tl, 3.0) <= 4.0 * bound


# -- band symbols and their cache ---------------------------------------------------


@pytest.mark.parametrize("n", [16, 32, 64, 128])
@pytest.mark.parametrize("box", ["2pi", "decay"])
def test_block_symbol_is_lowpass_difference(n, box):
    L = TWO_PI if box == "2pi" else suites.decay_box_length(n)
    win = DyadicWindow.for_grid(TorusGrid(n, L))
    for k in range(win.k_min - 4, win.k_max + 4):
        g = TorusGrid(n, L)  # fresh per level, so the cache stays one level deep
        blk = dyadic._multiplier(g, k, k + 1, DEFAULT_PROFILE)
        diff = (
            dyadic._multiplier(g, -math.inf, k + 1, DEFAULT_PROFILE)
            - dyadic._multiplier(g, -math.inf, k, DEFAULT_PROFILE)
        )
        assert np.array_equal(blk, diff), k
        assert np.array_equal(np.signbit(blk), np.signbit(diff)), k


@pytest.mark.parametrize("n", [32, 64])
def test_block_identities_of_lowpass_and_tail(n):
    # Delta_j S_k = Delta_j for j <= k-2 and 0 for j >= k+1; Delta_j T_m = Delta_j
    # for j >= m+1 and 0 for j <= m-2: the identities behind the diagnostics block table
    g = TorusGrid(n, TWO_PI)
    win = DyadicWindow.for_grid(g)
    for j in win.indices():
        on_block = dyadic._multiplier(g, j, j + 1, DEFAULT_PROFILE) != 0.0
        assert on_block.any(), j
        for k in win.indices():
            low = dyadic._multiplier(g, -math.inf, k, DEFAULT_PROFILE)[on_block]
            tail_sym = dyadic._multiplier(g, k, math.inf, DEFAULT_PROFILE)[on_block]
            if j <= k - 2:
                assert np.all(low == 1.0) and np.all(tail_sym == 0.0), (j, k)
            if j >= k + 1:
                assert np.all(low == 0.0) and np.all(tail_sym == 1.0), (j, k)


def test_cache_holds_only_lowpasses_and_blocks():
    g = TorusGrid(32, TWO_PI)
    u = suites._window_field(g, 3)
    ledger.ledger_classical(u, 1)
    ledger.support_audit(u, 1)
    ledger.diagnostics(u, "3/5")
    keys = list(g._mult_cache)
    assert keys
    composite = [(a, b) for _, a, b in keys if a != -math.inf and b != a + 1]
    assert composite == []


# -- Bernstein ---------------------------------------------------------------------


def test_bernstein_single_mode(grid16):
    f = forge.harmonic(grid16, (0, 0, 1))
    rep = bernstein_check(f, 2.0, 2.0, k=0)
    assert rep.l2_lower_ok and rep.l2_upper_ok
    assert abs(rep.grad_norm_q / rep.norm_p - 1.0) < 1e-12


def test_bernstein_annulus_ratio(grid64):
    u = forge.generate(grid64, forge.SpectrumSpec("white-band", seed=4, band=(3, 3)))
    c = block(u.components[0], 3)
    rep = bernstein_check(c, 2.0, 2.0, k=3)
    ratio = rep.grad_norm_q / rep.norm_p
    assert 2.0**2 <= ratio <= 2.0**4
    assert rep.l2_lower_ok and rep.l2_upper_ok


def test_bernstein_support_validation(grid16):
    f = forge.harmonic(grid16, (0, 0, 4))
    with pytest.raises(FieldError):
        bernstein_check(f, 2.0, 2.0, k=0)
    with pytest.raises(FieldError):
        bernstein_check(f, 2.0, 1.0, k=2)


def test_bernstein_linf_stable_under_refinement():
    spec = forge.SpectrumSpec("white-band", seed=13, band=(3, 3))
    ratios = []
    for n in (64, 128):
        g = TorusGrid(n, TWO_PI)
        c = block(forge.generate(g, spec).components[0], 3)
        rep = bernstein_check(c, 2.0, math.inf, k=3)
        ratios.append(rep.ratio_plain)
    assert abs(ratios[1] - ratios[0]) <= 0.15 * ratios[0]
