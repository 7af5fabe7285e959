import math

import numpy as np
import pytest

from lpverify import (
    TorusGrid,
    VectorField,
    besov_infty_norm,
    dirichlet,
    fractional_dirichlet,
    lp_norm,
    sobolev_norm,
    spectral_lr_ball,
)
from lpverify.dyadic import DyadicWindow
from lpverify.errors import FieldError
from lpverify.spectral import TWO_PI, SpectralField
from lpverify import forge, norms


def test_l2_of_sine_analytic(grid16):
    f = forge.harmonic(grid16, (0, 0, 1))
    expect = math.sqrt(TWO_PI**3 / 2.0)
    assert abs(lp_norm(f, 2.0) - expect) <= 1e-12 * expect
    assert abs(f.l2() - expect) <= 1e-12 * expect


def test_lp_norm_of_zero_and_validation(grid16):
    z = SpectralField.zeros(grid16)
    for p in (1.0, 1.5, 2.0, 3.0, 4.5, 6.0, math.inf):
        assert lp_norm(z, p) == 0.0
    with pytest.raises(FieldError):
        lp_norm(z, 0.5)


def test_plancherel_consistency_of_l2(grid32):
    u = forge.generate(grid32, forge.SpectrumSpec("white-band", seed=1, band=(1, 3)))
    phys = lp_norm(u, 2.0)
    spec = u.l2()
    assert abs(phys - spec) <= 1e-12 * spec


def test_dirichlet_of_sine_analytic(grid16):
    u = forge.generate(grid16, forge.SpectrumSpec("single-mode"))
    expect = TWO_PI**3 / 2.0
    assert abs(dirichlet(u) - expect) <= 1e-12 * expect


def test_fractional_dirichlet_endpoint(grid32):
    u = forge.generate(grid32, forge.SpectrumSpec("white-band", seed=2, band=(1, 3)))
    a = fractional_dirichlet(u, 1.0)
    b = dirichlet(u)
    assert abs(a - b) <= 1e-12 * b


def test_fractional_dirichlet_continuous_in_s(grid32):
    u = forge.generate(grid32, forge.SpectrumSpec("white-band", seed=2, band=(1, 3)))
    base = dirichlet(u)
    prev = fractional_dirichlet(u, 0.95)
    for s, delta in ((0.99, 0.04), (0.999, 0.009), (1.0, 0.001)):
        cur = fractional_dirichlet(u, s)
        # lattice frequencies span [1, 8*sqrt(3)]; the s-derivative is bounded
        assert abs(cur - prev) <= 2.0 * math.log(192.0) * delta * base
        prev = cur


def test_fractional_dirichlet_coefficient_oracle():
    g = TorusGrid(8, TWO_PI)
    u = forge.taylor_green(g)
    s = 5.0 / 6.0
    total = 0.0
    m = g.modes.astype(float)
    for c in u.components:
        for i in range(8):
            for j in range(8):
                for k in range(8):
                    xi2 = m[i] ** 2 + m[j] ** 2 + m[k] ** 2
                    if xi2 > 0:
                        total += xi2**s * abs(c.coeffs[i, j, k]) ** 2
    total *= g.spectral_cell
    assert abs(fractional_dirichlet(u, s) - total) <= 1e-12 * total


def test_sobolev_embedding_l6_constant_stable():
    # ||u||_L6 <= C ||grad u||_L2 with a stable empirical constant
    ratios = []
    for n in (32, 64):
        g = TorusGrid(n, TWO_PI)
        u = forge.generate(g, forge.SpectrumSpec("white-band", seed=17, band=(1, 3)))
        ratios.append(lp_norm(u, 6.0) / math.sqrt(dirichlet(u)))
    assert abs(ratios[1] - ratios[0]) <= 0.15 * ratios[0]


def test_sobolev_norm_single_mode_exact(grid16):
    f = forge.harmonic(grid16, (0, 0, 1))
    l2 = f.l2()
    for s in (0.5, 5.0 / 6.0, -0.5):
        assert abs(sobolev_norm(f, s) - l2) <= 1e-12 * l2
    # single active block at k=0 with phi(1)=1: block-sum form agrees exactly
    ratio = sobolev_norm(f, 0.5, method="lp-sum") / sobolev_norm(f, 0.5)
    assert abs(ratio - 1.0) <= 1e-12


def test_sobolev_two_forms_equivalence_interval(grid64):
    # ratio spread over random fields is a fixed profile property
    ratios = []
    win = DyadicWindow.for_grid(grid64)
    for seed in range(20):
        u = forge.generate(grid64, forge.SpectrumSpec("white-band", seed=seed, band=(1, 3)))
        for s in (0.5, 5.0 / 6.0):
            ratios.append(sobolev_norm(u, s, method="lp-sum", window=win) / sobolev_norm(u, s))
    spread = max(ratios) / min(ratios)
    assert spread <= 1.8
    assert all(0.5 <= r <= 1.5 for r in ratios)


def test_besov_examples(grid16):
    f = forge.harmonic(grid16, (0, 0, 1))
    assert abs(besov_infty_norm(f, -1.0) - 1.0) <= 1e-12
    assert besov_infty_norm(SpectralField.zeros(grid16), -0.5) == 0.0


def test_spectral_lr_ball(grid16):
    f = forge.harmonic(grid16, (0, 0, 1))
    # one conjugate mode pair inside any ball of radius >= 1
    c = abs(f.coeffs[0, 0, 1])
    for r in (1.5, 3.0):
        expect = (2.0 * c**r * grid16.spectral_cell) ** (1.0 / r)
        assert abs(spectral_lr_ball(f, r, 2.0) - expect) <= 1e-12 * expect
    assert spectral_lr_ball(f, 1.5, 0.5) == 0.0


def test_hausdorff_young_style_chain(grid64):
    # 2^-k ||S_k u||_inf <= C * ||u_hat||_{L^r(ball 2^k)} for r >= 3/2
    from lpverify import dyadic

    u = forge.generate(grid64, forge.SpectrumSpec("power-law", seed=7, band=(0, 4), alpha=1.0))
    win = DyadicWindow.for_grid(grid64)
    const = (2.0 * math.pi) ** -1.5 * (4.0 * math.pi / 3.0) ** (1.0 / 3.0)
    for k in range(1, win.k_max + 1):
        su = dyadic.lowpass(u, k)
        lhs = math.ldexp(1.0, -k) * lp_norm(su, math.inf)
        rhs = spectral_lr_ball(u, 1.5, math.ldexp(1.0, k))
        assert lhs <= 4.0 * const * rhs + 1e-300
