import math

import numpy as np
import pytest

from lpverify import TorusGrid, VectorField, fractional_laplacian, transform_forward
from lpverify.errors import AliasingGuardError, FieldError, GridError
from lpverify.spectral import TWO_PI, SpectralField
from lpverify import dyadic, forge, norms, products


def _band_field(grid, seed, band):
    return forge.generate(grid, forge.SpectrumSpec("white-band", seed=seed, band=band))


def test_product_matches_direct_convolution_oracle():
    # brute-force convolution over all mode pairs on a tiny grid
    g = TorusGrid(8, TWO_PI)
    f = _band_field(g, 3, (0, 1)).components[0]
    h = _band_field(g, 4, (0, 1)).components[1]
    p = products.product(f, h)

    n = g.n
    conv = np.zeros((n, n, n), dtype=complex)
    idx = np.argwhere(f.coeffs != 0)
    for a in idx:
        fa = f.coeffs[tuple(a)]
        ma = g.modes[a]
        for b in np.argwhere(h.coeffs != 0):
            mb = g.modes[b]
            m = ma + mb
            if np.max(np.abs(m)) >= n // 2:
                continue
            conv[tuple(m % n)] += fa * h.coeffs[tuple(b)]
    conv *= g.spectral_cell / (2.0 * math.pi) ** 1.5
    scale = np.max(np.abs(conv))
    assert np.max(np.abs(p.coeffs - conv)) <= 1e-12 * scale


def test_product_of_sines(grid16):
    _, _, Z = grid16.mesh
    f = forge.harmonic(grid16, (0, 0, 1))
    p = products.product(f, f)
    assert np.max(np.abs(p.samples() - np.sin(Z) ** 2)) < 1e-13


def _eval_grid_n(monkeypatch, f, h):
    seen = []
    restrict = products.restrict_to

    def spy(samples, eval_grid, out, bands):
        seen.append(eval_grid.n)
        return restrict(samples, eval_grid, out, bands)

    monkeypatch.setattr(products, "restrict_to", spy)
    products.product(f, h)
    monkeypatch.undo()
    return seen[0]


def _doubled_grid_product(f, h):
    G = TorusGrid(2 * f.grid.n, f.grid.box_length)
    return products.restrict_to(
        products.samples_on(f, G) * products.samples_on(h, G), G, f.grid, (f.band_axis, h.band_axis)
    )


def _white_pair(n):
    u = _band_field(TorusGrid(n, TWO_PI), 7, (1, 2))
    return u.components[0], u.components[1]


def _scalar_pair(n):
    g = TorusGrid(n, TWO_PI)
    return forge.scalar_band(g, 5, (2, 2), salt=1), forge.scalar_band(g, 5, (2, 2), salt=2)


@pytest.mark.parametrize(
    "pair, n, eval_n",
    [(_white_pair, 32, 32), (_scalar_pair, 64, 32)],
    ids=["white-native-32", "scalar-coarse-64"],
)
def test_product_matches_doubled_grid_oracle(monkeypatch, pair, n, eval_n):
    f, h = pair(n)
    assert _eval_grid_n(monkeypatch, f, h) == eval_n
    a = products.product(f, h)
    b = _doubled_grid_product(f, h)
    assert np.max(np.abs(a.coeffs - b.coeffs)) <= 1e-13 * max(
        a.max_abs_coeff(), 1e-300
    )


def _box(grid, h):
    """The modes |m|_inf <= h of grid's cube."""
    m = np.abs(grid.modes)
    return np.maximum(np.maximum(m[:, None, None], m[None, :, None]), m[None, None, :]) <= h


def test_products_keep_only_the_box_their_factors_reach(monkeypatch, grid32):
    f, h = (forge.scalar_band(grid32, 4, (1, 2), salt=s) for s in (1, 2))
    reach = f.band_axis + h.band_axis
    assert _eval_grid_n(monkeypatch, f, h) == 32 and reach < 15  # native, and the box leaves modes out
    p = products.product(f, h)
    assert p.band_axis <= reach and not p.coeffs[~_box(grid32, reach)].any()
    u = _band_field(grid32, 5, (1, 2))
    reach = 2 * u.band_axis()
    assert products._eval_grid_for(grid32, (u.band_axis(),) * 2) == grid32 and reach < 15
    adv = products.advective_term(u, u)
    assert adv.band_axis() <= reach
    for c in adv.components:
        assert c.max_abs_coeff() > 0 and not c.coeffs[~_box(grid32, reach)].any()


def test_samples_on_coarsens_band_limited_field(grid32):
    coarse = TorusGrid(8, grid32.box_length)
    _, _, Z = coarse.mesh
    got = products.samples_on(forge.harmonic(grid32, (0, 0, 1)), coarse)
    assert np.max(np.abs(got - np.sin(Z))) <= 1e-14
    # mode 4 is the coarse grid's unpaired Nyquist plane
    with pytest.raises(AliasingGuardError):
        products.samples_on(forge.harmonic(grid32, (0, 0, 4)), coarse)


@pytest.mark.parametrize("n", [32, 64])
def test_product_grid_is_smallest_alias_free(monkeypatch, n):
    g = TorusGrid(n, TWO_PI)
    low = forge.harmonic(g, (0, 0, 1))
    assert _eval_grid_n(monkeypatch, low, low) == 8
    k_max = dyadic.DyadicWindow.for_grid(g).k_max
    u = forge.generate(g, forge.SpectrumSpec("white-band", seed=3, band=(0, k_max)))
    assert u.band_axis() == n // 4
    assert _eval_grid_n(monkeypatch, u.components[0], u.components[1]) == n
    full = forge.harmonic(g, (0, 0, n // 2 - 1))
    assert _eval_grid_n(monkeypatch, full, full) == 2 * n


def test_nyquist_energy_rejected(grid16, rng):
    f = transform_forward(grid16, rng.standard_normal((16,) * 3))
    # raw sampled fields carry rounding junk on the unpaired Nyquist planes
    with pytest.raises(AliasingGuardError):
        products.product(f, f)


def test_advective_term_skips_zero_factors(monkeypatch, grid32):
    from lpverify.spectral import gradient

    f = _band_field(grid32, 5, (1, 2))
    zero = SpectralField.zeros(grid32)
    u = VectorField((f.components[0], zero, f.components[2]))
    a = VectorField((zero, f.components[1], f.components[2]))
    bands = u.band_axis(), a.band_axis()
    eg = products._eval_grid_for(grid32, bands)
    want = []  # every component sampled, zeros included, and no mode cut
    for ai in a.components:
        acc = np.zeros((eg.n,) * 3)
        for uj, gj in zip(u.components, gradient(ai).components):
            acc += products.samples_on(uj, eg) * products.samples_on(gj, eg)
        want.append(products.restrict_to(acc, eg, grid32, (grid32.n,)))  # a box past the grid
    calls = _count_samples(monkeypatch)
    got = products.advective_term(u, a)
    assert calls == [eg.n] * (2 + 2 * 3)  # two nonzero u_j, then grad a_i for two nonzero a_i
    box = _box(grid32, sum(bands))
    assert not box.all()  # the box leaves modes out
    for g, w in zip(got.components, want):
        assert np.array_equal(g.coeffs[box], w.coeffs[box])
        assert not g.coeffs[~box].any()


def test_trilinear_skew_symmetry(grid32):
    u = _band_field(grid32, 5, (1, 3))
    a = _band_field(grid32, 9, (1, 2))
    scale = u.l2() * a.l2() * math.sqrt(norms.dirichlet(a))
    assert abs(products.trilinear(u, a, a)) <= 1e-11 * scale
    anti = products.trilinear(u, a, u) + products.trilinear(u, u, a)
    assert abs(anti) <= 1e-11 * u.l2() ** 2 * math.sqrt(norms.dirichlet(u))


def test_trilinear_single_mode_shear_vanishes(grid16):
    u = forge.generate(grid16, forge.SpectrumSpec("single-mode"))
    assert products.trilinear(u, u, u) == 0.0
    t = forge.taylor_green(grid16)
    assert abs(products.trilinear(u, u, t)) < 1e-14


def test_trilinear_matches_refined_grid_oracle(grid32):
    u = forge.taylor_green(grid32)
    b = _band_field(grid32, 11, (1, 2))
    got = products.trilinear(u, u, b)
    # oracle: sample everything on the doubled grid and integrate there
    oracle = _quadrature_on(TorusGrid(64, grid32.box_length), u, u, b)
    assert abs(got - oracle) <= 1e-10 * max(abs(oracle), 1e-300)


def _axis_band_field(grid, seed, band):
    """A real mean-zero vector field of axis bandwidth exactly ``band``."""
    rng = np.random.default_rng(seed)
    m = np.abs(grid.modes)
    keep = (m[:, None, None] <= band) & (m[None, :, None] <= band) & (m[None, None, :] <= band)
    keep[0, 0, 0] = False
    comps = []
    for _ in range(3):
        c = np.where(keep, transform_forward(grid, rng.standard_normal((grid.n,) * 3)).coeffs, 0.0)
        comps.append(SpectralField(grid, c, real_valued=True, mean_zero=True))
    return VectorField(tuple(comps))


def _quadrature_on(eg, x, y, z):
    """integral of x . grad y . z sampled on eg, one gradient component at a time."""
    from lpverify.spectral import gradient

    xs = [products.samples_on(c, eg) for c in x.components]
    acc = 0.0
    for yi, zi in zip(y.components, z.components):
        zs = products.samples_on(zi, eg)
        for xj, gj in zip(xs, gradient(yi).components):
            acc += float(np.sum(xj * products.samples_on(gj, eg) * zs))
    return acc * eg.cell_volume


@pytest.mark.parametrize(
    "bands, eval_n",
    [((1, 1, 1), 8), ((2, 2, 2), 8), ((4, 4, 4), 16), ((8, 1, 1), 32), ((8, 8, 8), 32), ((15, 15, 15), 64)],
)
def test_trilinear_grid_rule(monkeypatch, grid32, bands, eval_n):
    n = grid32.n
    eg = products._eval_grid_for(grid32, bands, 0)

    def fits(m):  # the zero mode is exact and every factor is below its Nyquist plane
        return m > sum(bands) and m > 2 * max(bands)

    assert eg.n == eval_n and fits(eg.n) and (eg.n == 8 or not fits(eg.n // 2))
    old = 8  # the rule before: every mode up to the largest bandwidth exact
    while old <= sum(bands) + max(bands):
        old *= 2
    assert eg.n <= old
    if max(bands) <= n // 4:  # window-band factors never leave their grid
        assert eg.n <= n
    x, y, z = (_axis_band_field(grid32, 20 + i, b) for i, b in enumerate(bands))
    assert (x.band_axis(), y.band_axis(), z.band_axis()) == bands
    calls = _count_samples(monkeypatch)
    form = products._tri_reads(grid32, [products._shape(f) for f in (x, y, z)])
    got = products._tri(products._Sampler(), (x, y, z), (None, None, None), form)
    monkeypatch.undo()
    assert set(calls) == {eval_n}
    want = _quadrature_on(TorusGrid(2 * eval_n, grid32.box_length), x, y, z)
    assert abs(got - want) <= 1e-13 * abs(want)


def _trilinear_per_call(u, a, b):
    """The per-call quadrature: sample u, grad a and b afresh, then contract."""
    from lpverify.spectral import gradient

    grid = u.grid
    if a.grid != grid or b.grid != grid:
        raise GridError("trilinear operands live on different grids")
    if all(c.max_abs_coeff() == 0.0 for c in u.components):
        return 0.0
    bands = (u.band_axis(), a.band_axis(), b.band_axis())
    eg = products._eval_grid_for(grid, bands, 0)
    us = [products.samples_on(c, eg) for c in u.components]
    gys = [None] * 3
    zs = [None] * 3
    for i, (ai, bi) in enumerate(zip(a.components, b.components)):
        if ai.max_abs_coeff() != 0.0 and bi.max_abs_coeff() != 0.0:
            gys[i] = [products.samples_on(g, eg) for g in gradient(ai).components]
            zs[i] = products.samples_on(bi, eg)
    return products._contract(us, gys, zs) * eg.cell_volume


def _count_samples(monkeypatch):
    calls = []
    sample = products.samples_on

    def spy(c, dst):
        calls.append(dst.n)
        return sample(c, dst)

    monkeypatch.setattr(products, "samples_on", spy)
    return calls


def _sweep_operands(grid):
    u = _band_field(grid, 5, (0, 1))  # axis bandwidth 2
    half = _band_field(grid, 6, (1, 2))
    one_zero = VectorField((half.components[0], SpectralField.zeros(grid), half.components[2]))
    bs = [
        _band_field(grid, 7, (0, 0)),  # axis bandwidth 1: the 8^3 grid
        _band_field(grid, 8, (2, 3)),  # 8: the 32^3 grid
        VectorField.zeros(grid),
        _band_field(grid, 9, (0, 0)),  # back on the 8^3 grid
        one_zero,  # 4: the 16^3 grid, component 1 zero
    ]
    return u, bs


def test_trilinear_matches_per_call_quadrature(grid32):
    u, bs = _sweep_operands(grid32)
    a = _band_field(grid32, 4, (1, 1))
    for x, y in ((u, u), (u, a), (a, u)):
        want = [_trilinear_per_call(x, y, b) for b in bs]
        got = [products.trilinear(x, y, b) for b in bs]
        assert [v.hex() for v in got] == [v.hex() for v in want]  # bit for bit, signs of zeros too


def test_trilinear_zero_factors(monkeypatch, grid32):
    u, bs = _sweep_operands(grid32)
    zero = VectorField.zeros(grid32)
    calls = _count_samples(monkeypatch)
    got = [products.trilinear(u, u, bs[2])] + [products.trilinear(zero, u, b) for b in bs]
    assert calls == []  # a zero factor samples nothing
    monkeypatch.undo()
    want = [_trilinear_per_call(u, u, bs[2])] + [_trilinear_per_call(zero, u, b) for b in bs]
    assert [v.hex() for v in got] == [v.hex() for v in want] == [(0.0).hex()] * 6


def test_trilinear_rejects_mismatched_grid(grid16, grid32):
    u, bs = _sweep_operands(grid32)
    with pytest.raises(GridError):
        products.trilinear(u, u, forge.taylor_green(grid16))
    with pytest.raises(GridError):
        products.trilinear(VectorField.zeros(grid32), u, forge.taylor_green(grid16))
    with pytest.raises(GridError):
        products.trilinear(u, forge.taylor_green(grid16), bs[0])


def test_products_reject_complex_fields(grid32):
    # e^{ix}: one mode without its conjugate, so no real field
    n = grid32.n
    f = SpectralField.on_support(grid32, np.array([n * n]), np.array([1.0 + 0j]), real_valued=False)
    for dst in (grid32, TorusGrid(8, grid32.box_length)):
        with pytest.raises(FieldError):
            products.samples_on(f, dst)
    with pytest.raises(FieldError):
        products.product(f, f)


# -- pressure ------------------------------------------------------------------


def test_pressure_zero_field(grid16):
    P = products.pressure_from_velocity(VectorField.zeros(grid16))
    assert P.max_abs_coeff() == 0.0


def test_pressure_single_mode_shear(grid16):
    u = forge.generate(grid16, forge.SpectrumSpec("single-mode"))
    P = products.pressure_from_velocity(u)
    assert P.max_abs_coeff() <= 1e-14


def test_pressure_taylor_green_analytic(grid32):
    u = forge.taylor_green(grid32, amplitude=1.5)
    P = products.pressure_from_velocity(u)
    exact = forge.tg_pressure(grid32, amplitude=1.5)
    assert np.max(np.abs(P.samples() - exact)) <= 1e-12 * np.max(np.abs(exact))


def test_pressure_coefficient_division_oracle(grid32):
    # independent oracle: assemble div div (u x u) spectrally, divide by |xi|^2
    u = forge.taylor_green(grid32)
    P = products.pressure_from_velocity(u)
    g = grid32
    acc = np.zeros((g.n,) * 3, dtype=complex)
    for i in range(3):
        for j in range(3):
            t = products.product(u.components[i], u.components[j])
            acc += (1j * g.xi_component(i)) * (1j * g.xi_component(j)) * t.coeffs
    with np.errstate(invalid="ignore", divide="ignore"):
        expect = np.where(g.xi_sq > 0, acc / g.xi_sq, 0.0)
    assert np.max(np.abs(P.coeffs - expect)) <= 1e-12 * np.max(np.abs(expect))


def test_pressure_residual_random_band(grid32):
    u = _band_field(grid32, 21, (1, 3))
    P = products.pressure_from_velocity(u)
    g = grid32
    lhs = fractional_laplacian(P, 1.0).coeffs
    acc = np.zeros((g.n,) * 3, dtype=complex)
    for i in range(3):
        for j in range(3):
            t = products.product(u.components[i], u.components[j])
            acc += (1j * g.xi_component(i)) * (1j * g.xi_component(j)) * t.coeffs
    scale = norms.lp_norm(u, math.inf) ** 2 * float(g.xi_abs.max()) ** 2
    assert np.max(np.abs(lhs - acc)) <= 1e-10 * scale
