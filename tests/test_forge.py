import math
import tracemalloc

import numpy as np
import pytest

from lpverify import TorusGrid
from lpverify.dyadic import DEFAULT_PROFILE, DyadicWindow
from lpverify.errors import PicardError, SpectrumSpecError
from lpverify.ledger import fit_decay
from lpverify.spectral import TWO_PI, SpectralField, VectorField, fractional_laplacian
from lpverify import dyadic, forge, norms, products


def test_spec_validation():
    with pytest.raises(SpectrumSpecError):
        forge.SpectrumSpec("unknown")
    with pytest.raises(SpectrumSpecError):
        forge.SpectrumSpec("white-band")  # band missing
    with pytest.raises(SpectrumSpecError):
        forge.SpectrumSpec("single-mode", mode=(0, 0, 1), polarization=2)
    with pytest.raises(SpectrumSpecError):
        forge.SpectrumSpec("single-mode", mode=(0, 0, 0))


def test_spec_json_round_trip():
    spec = forge.SpectrumSpec("power-law", seed=5, band=(1, 3), alpha=1.2, amplitude=0.5)
    again = forge.SpectrumSpec.from_json(spec.to_json())
    assert again == spec


def test_hs_class_bookkeeping():
    spec = forge.SpectrumSpec("power-law", seed=0, band=(0, 3), alpha=1.0)
    assert spec.hs_class_ok(5.0 / 6.0)
    assert not spec.hs_class_ok(1.0)
    assert forge.SpectrumSpec("taylor-green").hs_class_ok(2.0)


def test_single_mode_field(grid16):
    u = forge.generate(grid16, forge.SpectrumSpec("single-mode", amplitude=2.0, phase=0.3))
    _, _, Z = grid16.mesh
    assert np.max(np.abs(u.components[0].samples() - 2.0 * np.sin(Z + 0.3))) < 2e-15 * 2.0
    assert u.components[1].max_abs_coeff() == 0.0
    assert u.div_free and u.check_div_free()


def test_taylor_green_divergence_free(grid32):
    u = forge.taylor_green(grid32)
    assert u.divergence_defect() < 1e-13


def test_band_amplitudes_within_two_percent(grid64):
    win = DyadicWindow.for_grid(grid64)
    spec = forge.SpectrumSpec("white-band", seed=7, band=(1, 3), amplitude=1.5)
    u = forge.generate(grid64, spec)
    prof = norms.block_l2_profile(u, win)
    for k in (1, 2, 3):
        assert abs(prof[k] - 1.5) <= 0.02 * 1.5
    assert prof[0] <= 1e-12 and prof[4] <= 1e-12


def test_power_law_slope_fit(grid64):
    win = DyadicWindow.for_grid(grid64)
    spec = forge.SpectrumSpec("power-law", seed=3, band=(0, 4), alpha=1.2)
    u = forge.generate(grid64, spec)
    prof = norms.block_l2_profile(u, win)
    fit = fit_decay([(k, prof[k]) for k in range(0, 5)])
    assert abs(fit.slope - (-1.2)) <= 0.05


def test_generation_bit_reproducible(grid32):
    spec = forge.SpectrumSpec("white-band", seed=9, band=(1, 3))
    a = forge.generate(grid32, spec)
    b = forge.generate(grid32, spec)
    for ca, cb in zip(a.components, b.components):
        assert np.array_equal(ca.coeffs, cb.coeffs)


def test_generation_grid_consistent(grid32, grid64):
    # shared lattice modes receive identical coefficients before band correction
    spec = forge.SpectrumSpec("white-band", seed=9, band=(1, 3))
    a = forge.generate(grid32, spec)
    b = forge.generate(grid64, spec)
    ca, cb = a.components[0].coeffs, b.components[0].coeffs
    # compare a probe set of low modes (band correction is a radial factor ~1)
    for m in ((2, 1, 0), (0, 3, 1), (-2, 0, 3)):
        va = ca[tuple(mi % 32 for mi in m)]
        vb = cb[tuple(mi % 64 for mi in m)]
        assert abs(va - vb) <= 5e-3 * max(abs(va), 1e-30)


def test_band_outside_window_rejected(grid16):
    with pytest.raises(SpectrumSpecError):
        forge.generate(grid16, forge.SpectrumSpec("white-band", seed=0, band=(0, 9)))


# -- support-only painting against the full-cube arithmetic --------------------
#
# The painters below are a literal full-cube copy of the generator: every one
# of the n^3 modes is signed, hashed and phased, and the band enters only as a
# zero weight off the support.  The forge paints the support alone; a mode's
# value must not depend on which other modes are evaluated.  The band-target
# sweeps sum each block energy over the band's modes in ascending flat order,
# and so does the copy.


def _cube_splitmix(z):
    z = (z + np.uint64(0x9E3779B97F4A7C15)).astype(np.uint64)
    z ^= z >> np.uint64(30)
    z *= np.uint64(0xBF58476D1CE4E5B9)
    z ^= z >> np.uint64(27)
    z *= np.uint64(0x94D049BB133111EB)
    z ^= z >> np.uint64(31)
    return z


def _cube_uniform(seed, mx, my, mz, salt):
    h = _cube_splitmix(np.uint64(seed & 0xFFFFFFFFFFFFFFFF) + np.zeros_like(mx, dtype=np.uint64))
    for coord in (mx, my, mz, np.full_like(mx, salt)):
        h = _cube_splitmix(h ^ coord.astype(np.int64).view(np.uint64))
    return (h >> np.uint64(11)).astype(np.float64) / float(1 << 53)


def _cube_phased(grid, w, seed, salt):
    m = grid.modes
    mx, my, mz = np.meshgrid(m, m, m, indexing="ij")
    pos = (mx > 0) | ((mx == 0) & (my > 0)) | ((mx == 0) & (my == 0) & (mz > 0))
    sign = np.where(pos, 1.0, -1.0)
    canon = sign > 0
    kx = np.where(canon, mx, -mx)
    ky = np.where(canon, my, -my)
    kz = np.where(canon, mz, -mz)
    theta = 2.0 * math.pi * _cube_uniform(seed, kx, ky, kz, salt)
    coeffs = w * np.exp(1j * sign * theta)
    coeffs[0, 0, 0] = 0.0
    return coeffs


def _cube_support(grid, band):
    r = grid.xi_abs
    lo, hi = math.ldexp(1.0, band[0]), math.ldexp(1.0, band[1])
    return (r >= lo) & (r <= hi)


def _cube_scalar_band(grid, seed, band, alpha, amplitude, salt):
    r = grid.xi_abs
    support = _cube_support(grid, band)
    with np.errstate(divide="ignore"):
        w = np.where(support, np.where(support, r, 1.0) ** (-(alpha + 1.5)), 0.0)
    return _cube_phased(grid, amplitude * w, seed, salt)


def _cube_generate(grid, spec):
    r = grid.xi_abs
    support = _cube_support(grid, spec.band)
    if spec.kind == "power-law":
        with np.errstate(divide="ignore"):
            w = np.where(support, r, 1.0) ** (-(spec.alpha + 1.5))
    else:
        w = np.ones_like(r)
    w = np.where(support, w, 0.0)
    comps = tuple(
        SpectralField(grid, _cube_phased(grid, w, spec.seed, axis + 1))
        for axis in range(3)
    )
    u = forge.leray_project(VectorField(comps))
    targets = {
        k: spec.amplitude * math.ldexp(1.0, k) ** (-spec.alpha)
        if spec.kind == "power-law"
        else spec.amplitude
        for k in range(spec.band[0], spec.band[1] + 1)
    }
    for _ in range(3):
        ratios = {}
        for k, t in targets.items():
            # the block energy, summed over the band's modes in ascending flat order
            w2 = dyadic._multiplier(grid, k, k + 1, DEFAULT_PROFILE) ** 2
            total = 0.0
            for c in u.components:
                total += float(np.sum((w2 * (c.coeffs.real**2 + c.coeffs.imag**2))[support]))
            m = math.sqrt(total * grid.spectral_cell)
            if m == 0.0:
                raise SpectrumSpecError(f"band {k} received no energy")
            ratios[k] = t / m
        num = np.zeros((grid.n,) * 3)
        den = np.zeros((grid.n,) * 3)
        for k, rk in ratios.items():
            w2 = dyadic._multiplier(grid, k, k + 1, DEFAULT_PROFILE) ** 2
            num += w2 * rk
            den += w2
        corr = np.where(den > 0, num / np.maximum(den, 1e-300), 1.0)
        u = u.map(lambda c: SpectralField(grid, c.coeffs * corr, c.real_valued, c.mean_zero))
    return u


def _oracle_bands(grid):
    win = DyadicWindow.for_grid(grid)
    bands = [(1, 1), (win.k_min, win.k_max)]
    if win.k_max - win.k_min >= 4:
        # the paraproduct suite's band
        g = win.guarded(2)
        bands.append((g.k_min, g.k_max))
    return tuple(bands)


@pytest.mark.parametrize("n", [16, 32, 64])
def test_scalar_band_matches_full_cube_painter(request, n):
    grid = request.getfixturevalue(f"grid{n}")
    for band in _oracle_bands(grid):
        for alpha in (0.0, 1.0):
            for salt in (1, 2):
                got = forge.scalar_band(grid, 11, band, alpha, 0.7, salt).coeffs
                want = _cube_scalar_band(grid, 11, band, alpha, 0.7, salt)
                assert np.array_equal(got, want), (band, alpha, salt)


@pytest.mark.parametrize("n", [16, 32, 64])
def test_generate_matches_full_cube_painter(request, n):
    grid = request.getfixturevalue(f"grid{n}")
    for kind in ("white-band", "power-law"):
        for band in _oracle_bands(grid):
            for seed in (0, 5):
                spec = forge.SpectrumSpec(kind, seed=seed, band=band, alpha=1.2)
                got = forge.generate(grid, spec)
                want = _cube_generate(grid, spec)
                for cg, cw in zip(got.components, want.components):
                    assert np.array_equal(cg.coeffs, cw.coeffs), (kind, band, seed)


def test_generate_peak_memory():
    # the projection and the sweeps run on the band's support; after a warm-up
    # call (lattice and symbol caches) only the three output cubes are full-size
    grid = TorusGrid(64)
    win = DyadicWindow.for_grid(grid)
    spec = forge.SpectrumSpec("white-band", seed=1, band=(win.k_min, win.k_max))
    forge.generate(grid, spec)
    tracemalloc.start()
    try:
        forge.generate(grid, spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4.5 * 16 * 64**3


# -- Picard --------------------------------------------------------------------


def test_picard_zero_forcing(grid16):
    res = forge.picard_solve(VectorField.zeros(grid16), 1.0)
    assert res.residual == 0.0 and res.iterations == 1
    assert res.u.l2() == 0.0


def test_picard_manufactured_linear_case(grid32):
    shear = forge.generate(grid32, forge.SpectrumSpec("single-mode", amplitude=0.5))
    f = VectorField(shear.map(lambda c: fractional_laplacian(c, 1.0)).components)
    res = forge.picard_solve(f, 1.0, tol=1e-13)
    assert res.iterations == 1
    assert (res.u - shear).l2() <= 1e-13 * shear.l2()


@pytest.mark.parametrize("s", [1.0, 5.0 / 6.0, 0.5])
def test_picard_small_taylor_green(grid32, s):
    f = forge.taylor_green(grid32, amplitude=1e-2)
    res = forge.picard_solve(f, s, tol=1e-10, max_iter=30)
    assert res.residual <= 1e-10
    assert res.iterations <= 30
    assert res.u.check_div_free()
    # momentum equation holds pointwise with the recovered pressure
    from lpverify.spectral import gradient

    P = products.pressure_from_velocity(res.u)
    adv = products.advective_term(res.u, res.u)
    gradP = gradient(P)
    resid = (
        res.u.map(lambda c: fractional_laplacian(c, s))
        + adv
        + VectorField(gradP.components)
        - VectorField(forge.leray_project(f).components)
    )
    scale = f.l2()
    assert resid.l2() <= 10 * max(res.residual, 1e-10) * scale


@pytest.mark.parametrize("s", [1.0, 5.0 / 6.0, 0.5])
def test_picard_iterates_keep_the_band_products_reach(grid32, s):
    # the Stokes solution has axis band 1, and each iterate doubles it: 2, 4, 8
    f = forge.taylor_green(grid32, amplitude=1e-2)
    res = forge.picard_solve(f, s, tol=1e-11, max_iter=40)
    assert res.iterations == 3 and res.u.band_axis() == 8


def test_picard_divergence_detected(grid16):
    f = forge.taylor_green(grid16, amplitude=50.0)
    with pytest.raises(PicardError):
        forge.picard_solve(f, 1.0, max_iter=40)


@pytest.mark.parametrize("max_iter", [0, -1])
def test_picard_rejects_no_iterations(grid16, max_iter):
    f = forge.taylor_green(grid16, amplitude=1e-2)
    with pytest.raises(PicardError, match="max_iter"):
        forge.picard_solve(f, 1.0, max_iter=max_iter)
