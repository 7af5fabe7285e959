"""Every field's support is its exact nonzero set, and every coefficient
kernel that runs on the support equals its full-cube expression.

The oracles below are full-cube expressions.  A sum over a field runs
over its ``active`` set in ascending flat order, so a sum oracle adds the
cube's terms in that order: the nonzero entries for a small known
support, else the whole cube.  Equality is ``==`` (``np.array_equal`` for
arrays): the one raw-bit difference allowed is +0.0 where a cube product
stored -0.0 off the support, and the two compare equal.
"""

import itertools
import math
import tracemalloc

import numpy as np
import pytest
import scipy.fft

from lpverify import TorusGrid, VectorField, dyadic, forge, ledger, norms, products, spectral, suites
from lpverify.dyadic import DEFAULT_PROFILE, DyadicWindow, _multiplier
from lpverify.errors import AliasingGuardError
from lpverify.snapshot import snapshot_read, snapshot_write
from lpverify.spectral import FOURIER_NORM, TWO_PI, SpectralField


def _components(u):
    return [u] if isinstance(u, SpectralField) else list(u.components)


def _assert_exact_support(u):
    for c in _components(u):
        assert np.array_equal(c.support, np.flatnonzero(c.coeffs))


# -- full-cube oracles ---------------------------------------------------------


def _cube_max_abs(c):
    return float(np.max(np.abs(c.coeffs))) if c.coeffs.size else 0.0


def _cube_band_axis(c):
    nz = c.coeffs != 0
    if not nz.any():
        return 0
    m = np.abs(c.grid.modes)
    out = 0
    for axis in range(3):
        proj = nz.any(axis=tuple(a for a in range(3) if a != axis))
        out = max(out, int(m[proj].max()))
    return out


def _cube_band_radius(c):
    nz = c.coeffs != 0
    if not nz.any():
        return 0.0
    return float(c.grid.xi_abs[nz].max())


def _in_sum_order(c, cube):
    """The entries of a lattice cube in the order a sum over ``c`` visits them."""
    return cube if isinstance(c.active, slice) else cube.reshape(-1)[np.flatnonzero(c.coeffs)]


def _cube_weighted_sq(u, weight):
    total = 0.0
    for c in _components(u):
        total += float(np.sum(_in_sum_order(c, weight * (c.coeffs.real**2 + c.coeffs.imag**2))))
    return total * u.grid.spectral_cell


def _cube_l2(c):
    v = _in_sum_order(c, c.coeffs)
    return math.sqrt(float(np.sum(v.real * v.real + v.imag * v.imag)) * c.grid.spectral_cell)


def _cube_ball_sup(u, radius):
    mask = u.grid.xi_abs <= radius
    mag_sq = np.zeros(int(mask.sum()))
    for c in _components(u):
        v = c.coeffs[mask]
        mag_sq += v.real**2 + v.imag**2
    return math.sqrt(float(mag_sq.max())) if mag_sq.size else 0.0


def _cube_xi_power(grid, power):
    with np.errstate(divide="ignore"):
        w = grid.xi_sq ** (power / 2.0)
    w[0, 0, 0] = 0.0
    return w


def _cube_block_l2(u, k):
    mult = _multiplier(u.grid, k, k + 1, DEFAULT_PROFILE)
    return math.sqrt(_cube_weighted_sq(u, mult**2))


def _cube_annulus_audit(p, l):
    lo = math.ldexp(1.0, l - 2)
    hi = 1.125 * math.ldexp(1.0, l + 1)
    inside = (p.grid.xi_abs >= lo) & (p.grid.xi_abs < hi)
    mag = np.abs(p.coeffs)
    max_in = float(np.max(mag, where=inside, initial=0.0))
    return lo, hi, max_in, float(np.max(mag, where=~inside, initial=0.0))


def _cube_band(c, bands):
    sym = None
    for a, b in bands:
        m = _multiplier(c.grid, a, b, DEFAULT_PROFILE)
        sym = m if sym is None else sym * m
    return c.coeffs * sym


def _cube_tilde_block(c, l):
    acc = c.coeffs * _multiplier(c.grid, l - 2, l - 1, DEFAULT_PROFILE)
    for lp in range(l - 1, l + 3):
        acc += _multiplier(c.grid, lp, lp + 1, DEFAULT_PROFILE) * c.coeffs
    return acc


def _assert_kernels_match_cube(u):
    _assert_exact_support(u)
    g = u.grid
    for c in _components(u):
        assert c.max_abs_coeff() == _cube_max_abs(c)
        assert c.band_axis == _cube_band_axis(c)
        assert c.band_radius() == _cube_band_radius(c)
        assert c.l2() == _cube_l2(c)
    assert norms.dirichlet(u) == _cube_weighted_sq(u, g.xi_sq)
    for s in (0.5, 5.0 / 6.0, 1.0, 1.5, -0.5):
        assert norms.fractional_dirichlet(u, s) == _cube_weighted_sq(u, _cube_xi_power(g, 2.0 * s))
    for radius in (0.5, 2.0, 5.0, g.nyquist * math.sqrt(3.0)):
        assert norms.spectral_lr_ball(u, math.inf, radius) == _cube_ball_sup(u, radius)
    window = DyadicWindow.for_grid(g)
    for k in window.indices():
        assert norms._block_l2(u, k) == _cube_block_l2(u, k)
        for c in _components(u):
            assert dyadic.annulus_audit(c, k) == _cube_annulus_audit(c, k)


def _window_band(grid):
    w = DyadicWindow.for_grid(grid)
    return (w.k_min, w.k_max)


def _all_filters(grid):
    w = DyadicWindow.for_grid(grid)
    out = []
    for k in range(w.k_min - 1, w.k_max + 3):
        out += [((k, k + 1),), ((-math.inf, k),), ((k, math.inf),), ((k - 2, k + 3),)]
        out += [((k, k + 1), (k - 1, math.inf)), ((-math.inf, k), (k - 2, k + 1))]
    return out


# -- construction paths --------------------------------------------------------


@pytest.mark.parametrize("n", [16, 32, 64, 128])
def test_forge_bands_carry_exact_support(n):
    g = TorusGrid(n, TWO_PI)
    for band in (_window_band(g), (1, 1), (2, 2)):
        f = forge.scalar_band(g, 3, band, alpha=0.5)
        assert "support" in f.__dict__
        _assert_exact_support(f)
        for kind in ("white-band", "power-law"):
            u = forge.generate(g, forge.SpectrumSpec(kind, seed=4, band=band))
            assert all("support" in c.__dict__ for c in u.components)
            _assert_exact_support(u)
    _assert_exact_support(forge.scalar_band(g, 3, (1, 1), amplitude=0.0))


@pytest.mark.parametrize("n", [32, 64])
def test_filters_keep_exact_support_and_match_cube(n):
    g = TorusGrid(n, TWO_PI)
    u = forge.generate(g, forge.SpectrumSpec("white-band", seed=1, band=_window_band(g)))
    f = forge.scalar_band(g, 2, (2, 2))
    w = DyadicWindow.for_grid(g)
    for field in (*u.components, f):
        for bands in _all_filters(g):
            out = dyadic.band(field, bands)
            _assert_exact_support(out)
            assert np.array_equal(out.coeffs, _cube_band(field, bands))
        for k in range(w.k_min - 1, w.k_max + 3):
            for op in (dyadic.block, dyadic.lowpass, dyadic.tail):
                _assert_exact_support(op(field, k))
            t = dyadic.tilde_block(field, k)
            _assert_exact_support(t)
            assert np.array_equal(t.coeffs, _cube_tilde_block(field, k))
    # filters that leave nothing
    assert dyadic.block(f, w.k_max + 2).support.size == 0
    assert dyadic.lowpass(f, w.k_min - 2).support.size == 0


def test_sums_and_differences_drop_cancelled_modes(grid32):
    u = forge.generate(grid32, forge.SpectrumSpec("white-band", seed=6, band=(0, 3)))
    c = u.components[0]
    lo, hi = dyadic.lowpass(c, 1), dyadic.tail(c, 3)
    for field in (c - c, (lo + hi) - hi, c - dyadic.block(c, 2), lo + hi, 0.0 * c, c * 2.5, -1.0 * c + c):
        _assert_exact_support(field)
    assert (c - c).support.size == 0
    assert np.array_equal(((lo + hi) - hi).support, lo.support)
    # modes where the block symbol is exactly 1 cancel
    d = c - dyadic.block(c, 2)
    assert d.support.size < c.support.size
    _assert_kernels_match_cube(u - dyadic.band(u, ((1, 3),)))
    # small supports are merged index by index
    f, h = (forge.scalar_band(grid32, 4, (1, 2), salt=s) for s in (1, 2))
    assert isinstance(spectral._union(f.active, h.active, f.coeffs.size), np.ndarray)
    for field in (f - f, (f + h) - h, f + dyadic.block(h, 1), f - dyadic.block(f, 1), -1.0 * f + f):
        assert "support" in field.__dict__
        _assert_kernels_match_cube(field)
    assert np.array_equal(((f + h) - h).coeffs, (f.coeffs + h.coeffs) - h.coeffs)


def _eval_n(f, h):
    return products._eval_grid_for(f.grid, (f.band_axis, h.band_axis)).n


def test_products_on_coarser_equal_and_doubled_grids():
    g64, g32, g16 = (TorusGrid(n, TWO_PI) for n in (64, 32, 16))
    coarse = [forge.scalar_band(g64, s, (1, 1)) for s in (1, 2)]
    equal = forge.generate(g32, forge.SpectrumSpec("white-band", seed=2, band=(0, 3))).components[:2]
    rng = np.random.default_rng(7)
    doubled = [dyadic.lowpass(spectral.transform_forward(g16, rng.standard_normal((16,) * 3)), 3) for _ in "ab"]
    for (f, h), eval_n in ((coarse, 16), (equal, 32), (doubled, 32)):
        assert _eval_n(f, h) == eval_n
        p = products.product(f, h)
        _assert_kernels_match_cube(p)
        if eval_n < p.grid.n:
            assert "support" in p.__dict__


def test_zeros_and_snapshots(tmp_path, grid32):
    z = SpectralField.zeros(grid32)
    assert z.support.size == 0
    _assert_kernels_match_cube(z)
    _assert_kernels_match_cube(VectorField.zeros(grid32))
    u = forge.generate(grid32, forge.SpectrumSpec("power-law", seed=3, band=(1, 3)))
    snapshot_write(u, tmp_path / "u.lpf")
    v = snapshot_read(tmp_path / "u.lpf")
    _assert_kernels_match_cube(v)


@pytest.mark.parametrize("n", [16, 32, 64])
def test_kernels_match_full_cube(n):
    g = TorusGrid(n, TWO_PI)
    rng = np.random.default_rng(n)
    u = forge.generate(g, forge.SpectrumSpec("white-band", seed=8, band=_window_band(g)))
    _assert_kernels_match_cube(u)
    _assert_kernels_match_cube(forge.scalar_band(g, 5, (1, 2)))
    _assert_kernels_match_cube(dyadic.tail(u, 2))
    # a transform's output, and the same cube with its support known: both
    # are visited as the whole cube (the support covers more than 1/8)
    dense = spectral.transform_forward(g, rng.standard_normal((n,) * 3))
    known = SpectralField.on_support(g, np.flatnonzero(dense.coeffs), dense.coeffs.ravel()[dense.support])
    assert isinstance(known.active, slice)
    for c in (dense, known):
        _assert_kernels_match_cube(c)
        _assert_exact_support(dyadic.band(c, ((1, 3),)))


def test_criterion_four_pair_never_scans_a_fine_cube(monkeypatch):
    """One criterion-4 pair at n=128 runs on the supports: no scan over 128^3."""
    g = TorusGrid(128, TWO_PI)
    scanned = []
    real_scan = spectral._scan_support

    def spy(coeffs):
        scanned.append(coeffs.size)
        return real_scan(coeffs)

    for mod in (spectral, products):
        monkeypatch.setattr(mod, "_scan_support", spy)
    f = forge.scalar_band(g, 1003, (2, 2), salt=1)
    h = forge.scalar_band(g, 1003, (2, 2), salt=2)
    fg = products.product(f, h)
    pairs = [(x, t) for s in (0.55, 5.0 / 6.0) for x, t in ((fg, 2.0 * s - 1.5), (f, s), (h, s))]
    values = [norms.sobolev_norm(x, t) for x, t in pairs]
    assert scanned and max(scanned) < g.n**3  # the product's scan ran on its coarse grid
    for x in (f, h, fg):
        assert isinstance(x.active, np.ndarray)
    monkeypatch.undo()
    for x in (f, h, fg):
        _assert_exact_support(x)
    assert values == [math.sqrt(_cube_weighted_sq(x, _cube_xi_power(g, 2.0 * t))) for x, t in pairs]


# -- fields stored on their support ----------------------------------------------


def _random_cube(n, seed, count, real, top=None):
    """A cube with about ``count`` random nonzero modes, Hermitian-symmetric when
    ``real``; modes with an axis |m| > ``top`` are left out (default: every
    mode, the Nyquist planes included)."""
    rng = np.random.default_rng(seed)
    cube = np.zeros((n,) * 3, dtype=np.complex128)
    m = np.abs(TorusGrid(n).modes)
    idx = [rng.integers(0, n, count) for _ in range(3)]
    if top is None:  # put a third of the modes on a Nyquist plane
        for a in range(3):
            idx[a][a::3] = n // 2
    ok = np.ones(count, dtype=bool) if top is None else np.all([m[i] <= top for i in idx], axis=0)
    cube[tuple(i[ok] for i in idx)] = rng.standard_normal(ok.sum()) + 1j * rng.standard_normal(ok.sum())
    if real:
        rev = spectral._reflect_index(n)
        cube = 0.5 * (cube + np.conj(cube[rev][:, rev][:, :, rev]))
    return cube


def _band_cube(n, b, seed, odd=False):
    """A Hermitian cube with random modes in the box |m| <= b per axis (b < n/2),
    few enough to be stored on their support, and the modes (b, 0, 0),
    (0, b, 0), (0, 0, b), so the axis bandwidth is b.  ``odd`` makes the
    coefficients imaginary: a sine series, whose samples hold exact zeros
    (and the zero field for b = 0)."""
    rng = np.random.default_rng(seed)
    box = np.ix_(*[np.flatnonzero(np.abs(TorusGrid(n).modes) <= b)] * 3)
    shape = (2 * b + 1,) * 3
    vals = rng.standard_normal(shape) + (0.0 if odd else 1.0) * rng.standard_normal(shape) * 1j
    keep = rng.random(shape) < n**3 / (32 * (2 * b + 1) ** 3)
    cube = np.zeros((n,) * 3, dtype=np.complex128)
    cube[box] = (1j if odd else 1.0) * vals * keep
    for axis in range(3):
        cube[tuple(b if a == axis else 0 for a in range(3))] = 1j if odd else 1.0
    rev = spectral._reflect_index(n)
    return 0.5 * (cube + np.conj(cube[rev][:, rev][:, :, rev]))


def _band_cases(n):
    """(B, cube) of real fields of axis bandwidth B: B in {0, 1, 2, n/4, n/2 - 1},
    generic and odd, and B = n/2 for modes on the Nyquist planes."""
    for i, b in enumerate(sorted({0, 1, 2, n // 4, n // 2 - 1})):
        for odd in (False, True):
            yield b, _band_cube(n, b, 100 * n + 2 * i + odd, odd)
    yield n // 2, _random_cube(n, 5 * n, n, True)


def _assert_bits(a, b):
    """``a`` and ``b`` hold the same float64 bits: equal values, signs of zero included."""
    a, b = (x.view(np.float64) if np.iscomplexobj(x) else x for x in (np.asarray(a), np.asarray(b)))
    assert a.shape == b.shape and np.array_equal(a, b)
    assert np.array_equal(np.signbit(a), np.signbit(b))


def _stored_and_dense(grid, cube, real):
    flags = dict(real_valued=real, mean_zero=bool(cube[0, 0, 0] == 0))
    at = np.flatnonzero(cube)
    stored = SpectralField.on_support(grid, at, cube.reshape(-1)[at], **flags)
    assert "coeffs" not in stored.__dict__  # holds only its support and values
    return stored, SpectralField(grid, cube.copy(), **flags)


def _parent_transform_inverse(u):
    """The inverse transform's arithmetic before the shared half-spectrum scatter."""
    g = u.grid
    n = g.n
    scale = FOURIER_NORM / g.cell_volume
    at = u.active
    if isinstance(at, slice):
        if u.real_valued:
            half = u.coeffs[:, :, : n // 2 + 1] * scale
            return scipy.fft.irfftn(half, s=(n,) * 3)
        return scipy.fft.ifftn(u.coeffs * scale)
    if not u.real_valued:
        cube = np.zeros((n,) * 3, dtype=np.complex128)
        cube.reshape(-1)[at] = u.values * scale
        return scipy.fft.ifftn(cube)
    half = np.zeros((n, n, n // 2 + 1), dtype=np.complex128)
    kz = at % n
    keep = kz <= n // 2
    half.reshape(-1)[at[keep] // n * (n // 2 + 1) + kz[keep]] = u.values[keep] * scale
    return scipy.fft.irfftn(half, s=(n,) * 3)


def _parent_samples_on(u, dst):
    """``samples_on``'s arithmetic before the shared half-spectrum scatter."""
    g = u.grid
    h = min(g.n, dst.n) // 2 - 1
    ax = (slice(0, h + 1), slice(-h, None))
    half = np.zeros((dst.n, dst.n, dst.n // 2 + 1), dtype=np.complex128)
    scale = FOURIER_NORM / dst.cell_volume
    at = u.active
    if isinstance(at, slice):
        for sx, sy in itertools.product(ax, repeat=2):
            half[sx, sy, ax[0]] = u.coeffs[sx, sy, ax[0]]
        half = half * scale
    else:
        mx, my, mz = (g.modes[i] for i in np.unravel_index(at, (g.n,) * 3))
        keep = mz >= 0
        half[mx[keep], my[keep], mz[keep]] = u.values[keep] * scale
    return scipy.fft.irfftn(half, s=(dst.n,) * 3)


def _same(a, b):
    assert (a.real_valued, a.mean_zero) == (b.real_valued, b.mean_zero)
    assert np.array_equal(a.coeffs, b.coeffs)


@pytest.mark.parametrize("n", [16, 32, 64])
@pytest.mark.parametrize("real", [True, False])
def test_stored_support_matches_dense_cube(n, real):
    g = TorusGrid(n, TWO_PI)
    counts = (0, 1, n, n**3 // 64)
    cubes = [_random_cube(n, 10 * n + i, c, real) for i, c in enumerate(counts)]
    for cube, other in zip(cubes, cubes[1:] + cubes[:1]):
        (s, d), (s2, d2) = _stored_and_dense(g, cube, real), _stored_and_dense(g, other, real)
        for at in (s2.support, np.union1d(s.support, s2.support), np.arange(0, n**3, 7)):
            assert np.array_equal(s._at(at), cube.reshape(-1)[at])
        assert "coeffs" not in s.__dict__
        assert np.array_equal(s.coeffs, cube)
        for x in (s, d):  # support and cube branches, real and complex fields
            assert np.array_equal(spectral.transform_inverse(x), _parent_transform_inverse(x))
        for x, y in ((s, s2), (s, d2), (d, s2)):
            _same(x + y, d + d2)
            _same(x - y, d - d2)
        gs, gd = spectral.gradient(s), spectral.gradient(d)
        for a, b in zip(gs.components, gd.components):
            _same(a, b)
            assert "support" in a.__dict__
            _assert_exact_support(a)
        vs = VectorField((s, s2, s))
        _same(spectral.divergence(vs), spectral.divergence(VectorField((d, d2, d))))
        _same(spectral.divergence(gs), spectral.divergence(gd))
        _assert_exact_support(spectral.divergence(gs))
    if not real:
        return
    for b, cube in _band_cases(n):  # the band box of the inverse kernel
        s, d = _stored_and_dense(g, cube, True)
        assert s.band_axis == d.band_axis == (0 if not cube.any() else b)
        want = _parent_transform_inverse(d)
        _assert_bits(_parent_transform_inverse(s), want)
        for workers in (1, 2):
            spectral.set_fft_workers(workers)
            try:
                for x in (s, d):
                    _assert_bits(spectral.transform_inverse(x), want)
            finally:
                spectral.set_fft_workers(1)


@pytest.mark.parametrize("n", [16, 32, 64])
def test_stored_support_samples_on_other_grids(n):
    g = TorusGrid(n, TWO_PI)
    for dst, top in ((TorusGrid(n // 2, TWO_PI), n // 4 - 1), (TorusGrid(2 * n, TWO_PI), n // 2 - 1)):
        for seed, count in enumerate((0, 1, n, n**3 // 64)):
            s, d = _stored_and_dense(g, _random_cube(n, seed, count, True, top), True)
            want = _parent_samples_on(d, dst)
            assert np.array_equal(_parent_samples_on(s, dst), want)
            assert np.array_equal(products.samples_on(s, dst), want)
            assert np.array_equal(products.samples_on(d, dst), want)
    for b, cube in _band_cases(n):  # the same, a coarser and a finer grid
        s, d = _stored_and_dense(g, cube, True)
        for dst in (g, TorusGrid(n // 2, TWO_PI), TorusGrid(2 * n, TWO_PI)):
            if dst != g and b > min(n, dst.n) // 2 - 1:
                continue
            want = _parent_transform_inverse(d) if dst == g else _parent_samples_on(d, dst)
            _assert_bits(_parent_samples_on(s, dst) if dst != g else _parent_transform_inverse(s), want)
            for x in (s, d):
                _assert_bits(products.samples_on(x, dst), want)
    # energy on a Nyquist plane is rejected alike
    s, d = _stored_and_dense(g, _random_cube(n, 1, n, True), True)
    for u in (s, d):
        with pytest.raises(AliasingGuardError):
            products.samples_on(u, TorusGrid(2 * n, TWO_PI))


def _parent_mirror_half_spectrum(half, n):
    """The gather-based mirror of the forward transform before the
    reversed-stride views: the kz = 0 and kz = n/2 planes averaged with
    their reflections, the planes kz > n/2 gathered by reflected index."""
    half = np.array(half, dtype=np.complex128)
    rev = spectral._reflect_index(n)
    for kz in (0, n // 2):
        plane = half[:, :, kz]
        half[:, :, kz] = 0.5 * (plane + np.conj(plane[rev][:, rev]))
    full = np.empty((n, n, n), dtype=np.complex128)
    full[:, :, : n // 2 + 1] = half
    src = np.conj(half[:, :, 1 : n // 2][rev][:, rev])
    full[:, :, n // 2 + 1 :] = src[:, :, ::-1]
    return full


def _parent_transform_forward(grid, samples):
    return _parent_mirror_half_spectrum(scipy.fft.rfftn(samples), grid.n) * (grid.cell_volume / FOURIER_NORM)


def _parent_restrict_to(samples, eval_grid, out, bands):
    """``restrict_to``'s cube by the octant copy: every mode of the box
    |m|_inf <= sum(bands) that both grids resolve but their Nyquist planes,
    copied into a zeroed cube of ``out``."""
    f = _parent_transform_forward(eval_grid, samples)
    h = min(sum(bands), min(eval_grid.n, out.n) // 2 - 1)
    coeffs = np.zeros((out.n,) * 3, dtype=np.complex128)
    for octant in itertools.product((range(h + 1), range(-h, 0)), repeat=3):
        coeffs[np.ix_(*octant)] = f[np.ix_(*octant)]
    return coeffs


def _forward_samples(n):
    """Real samples and the axis bandwidths of their factors: random, random
    integers, and trigonometric polynomials whose spectra hold exact zeros
    of either sign."""
    rng = np.random.default_rng(n)
    x, y, z = TorusGrid(n).mesh
    return ((rng.standard_normal((n,) * 3), (n // 2,)), (rng.integers(-3, 4, (n,) * 3).astype(float), (n // 2,)),
            (np.cos(x) * np.sin(2 * y) - np.sin(3 * z), (1, 2)), (np.sin(x + y) ** 2, (1, 1)),
            (np.zeros((n,) * 3), (0,)))


@pytest.mark.parametrize("n", [8, 16, 32, 64])
def test_forward_mirror_matches_gather_oracle(n):
    g = TorusGrid(n, TWO_PI)
    for samples, _ in _forward_samples(n):
        for workers in (1, 2):
            spectral.set_fft_workers(workers)
            try:
                f = spectral.transform_forward(g, samples)
            finally:
                spectral.set_fft_workers(1)
            _assert_bits(f.coeffs, _parent_transform_forward(g, samples))
            assert f.real_valued and f.hermitian_defect() == 0.0


@pytest.mark.parametrize("n", [16, 32])
def test_restrict_to_matches_octant_copy(n):
    g = TorusGrid(n, TWO_PI)
    for samples, bands in _forward_samples(n):
        for out in (g, TorusGrid(n // 2, TWO_PI), TorusGrid(2 * n, TWO_PI)):  # native, coarser, finer
            r = products.restrict_to(samples, g, out, bands)
            want = _parent_restrict_to(samples, g, out, bands)
            assert r.real_valued and r.mean_zero == (want[0, 0, 0] == 0)
            if out.n > n:  # lifted from a scan of the nonzero modes: +0.0 off the support
                assert np.array_equal(r.coeffs, want)
                want = np.where(want == 0, 0.0, want)
            _assert_bits(r.coeffs, want)


def test_band_product_at_128_allocates_no_cube():
    g = TorusGrid(128, TWO_PI)
    warm = [forge.scalar_band(g, 1, (2, 2), salt=s) for s in (1, 2)]
    products.product(*warm)  # lattice geometry of the grid, built once per grid
    tracemalloc.start()
    try:
        f, h = (forge.scalar_band(g, 5, (2, 2), salt=s) for s in (1, 2))
        p = products.product(f, h)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * g.n**3  # one complex n^3 cube, 32 MiB
    assert all("coeffs" not in x.__dict__ for x in (f, h, p))


def test_band_norms_at_128_allocate_no_cube():
    g = TorusGrid(128, TWO_PI)
    warm = forge.scalar_band(g, 1, (2, 2))
    norms.sobolev_norm(warm, 5.0 / 6.0), norms.dirichlet(warm)  # lattice geometry, once per grid
    f = forge.scalar_band(g, 5, (2, 2))
    tracemalloc.start()
    try:
        norms.sobolev_norm(f, 5.0 / 6.0), norms.dirichlet(f), f.l2()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20  # a float n^3 cube is 16 MiB
    assert "coeffs" not in f.__dict__


@pytest.mark.parametrize("n", [16, 32, 64])
def test_support_sums_within_summation_bound_of_cube_sums(n):
    """A sum over a small support adds only its nonzero terms, the zero-filled
    cube sum adds the same terms in another grouping: both are within
    gamma_{m-1} sum|x_i| of the exact sum of m terms (Higham, Accuracy and
    Stability of Numerical Algorithms, 2002, section 4.2)."""
    g = TorusGrid(n, TWO_PI)
    u = suites._window_field(g, 3)
    narrow = forge.generate(g, forge.SpectrumSpec("white-band", seed=4, band=(1, 2)))
    fields = [u, narrow, dyadic.lowpass(u, 2), dyadic.block(u, 1), dyadic.tail(narrow, 2)]
    comps = [c for f in fields for c in f.components]
    assert any(isinstance(c.active, np.ndarray) for c in comps)
    u_round = np.finfo(float).eps / 2
    weights = [np.ones((n,) * 3), g.xi_sq, _cube_xi_power(g, 5.0 / 3.0), _cube_xi_power(g, -1.0)]
    weights += [_multiplier(g, k, k + 1, DEFAULT_PROFILE) ** 2 for k in DyadicWindow.for_grid(g).indices()]
    for c in comps:
        m = max(c.support.size - 1, 0)
        gamma = m * u_round / (1 - m * u_round)
        mag_sq = c.coeffs.real**2 + c.coeffs.imag**2
        for w in weights:
            got = norms._spectral_weighted_sq(c, lambda grid, at, w=w: w.reshape(-1)[at])
            terms = w * mag_sq
            old = float(np.sum(terms)) * g.spectral_cell
            bound = (2 * gamma + 4 * u_round) * math.fsum(terms.ravel()) * g.spectral_cell
            assert abs(got - old) <= bound
        old_l2 = math.sqrt(float(np.vdot(c.coeffs, c.coeffs).real) * g.spectral_cell)
        assert abs(c.l2() - old_l2) <= (gamma + 4 * u_round) * old_l2


# -- spectral operators on the support, against the cube kernels they replaced --


def _cube_leray(u):
    g = u.grid
    xi = [g.xi_component(axis) for axis in range(3)]
    coeffs = [c.coeffs for c in u.components]
    dot = np.zeros(np.shape(coeffs[0]), dtype=np.complex128)
    for x, c in zip(xi, coeffs):
        dot += x * c
    with np.errstate(invalid="ignore", divide="ignore"):
        dot = np.where(g.xi_sq > 0, dot / g.xi_sq, 0.0)
    out = [c - x * dot for x, c in zip(xi, coeffs)]
    for o in out:
        o[0, 0, 0] = 0.0
    return out


def _cube_pressure(u):
    g = u.grid
    acc = np.zeros((g.n,) * 3, dtype=np.complex128)
    for i, j in itertools.combinations_with_replacement(range(3), 2):
        t = products.product(u.components[i], u.components[j])
        w = g.xi_component(i) * g.xi_component(j)
        acc += (w if i == j else 2.0 * w) * t.coeffs
    with np.errstate(invalid="ignore", divide="ignore"):
        coeffs = np.where(g.xi_sq > 0, -acc / g.xi_sq, 0.0)
    coeffs[0, 0, 0] = 0.0
    return coeffs


def _cube_apply_xi_power(c, power):
    out = c.coeffs * _cube_xi_power(c.grid, power)
    out[0, 0, 0] = 0.0
    return out


def _cube_divergence_defect(u):
    g = u.grid
    acc = np.zeros((g.n,) * 3, dtype=np.complex128)
    for axis, c in enumerate(u.components):
        acc += g.xi_component(axis) * c.coeffs
    return float(np.max(np.abs(acc)))


def _cube_paint(grid, entries):
    n = grid.n
    coeffs = np.zeros((n, n, n), dtype=np.complex128)
    for m, v in entries.items():
        i = tuple(mi % n for mi in m)
        j = tuple((-mi) % n for mi in m)
        coeffs[i] += v
        coeffs[j] += np.conj(v)
    return coeffs


def _dense_twin(c):
    cube = np.zeros((c.grid.n,) * 3, dtype=np.complex128)
    cube.reshape(-1)[c.support] = c.values
    return SpectralField(c.grid, cube, c.real_valued, c.mean_zero)


def _stored_vectors(g):
    """Vector fields stored on their supports, with their dense twins: random
    real and complex modes (some on Nyquist planes), a scalar band triple and
    a solenoidal band."""
    n = g.n
    out = []
    for real in (True, False):
        pairs = [_stored_and_dense(g, _random_cube(n, 7 * n + a, n, real), real) for a in range(3)]
        out.append(tuple(VectorField(comps) for comps in zip(*pairs)))
    for u in (VectorField(tuple(forge.scalar_band(g, 5, (1, 2), salt=a) for a in (1, 2, 3))),
              forge.generate(g, forge.SpectrumSpec("white-band", seed=2, band=(1, 2)))):
        out.append((u, u.map(_dense_twin)))
    for u, _ in out:
        assert all(isinstance(c.active, np.ndarray) and "coeffs" not in c.__dict__ for c in u.components)
    return out


@pytest.mark.parametrize("n", [16, 32, 64])
def test_operators_on_stored_support_match_cube_kernels(n):
    g = TorusGrid(n, TWO_PI)
    for u, d in _stored_vectors(g):
        p = spectral.leray_project(u)
        for got, want, c in zip(p.components, _cube_leray(d), u.components):
            assert np.array_equal(got.coeffs, want)
            assert got.real_valued == c.real_valued and got.mean_zero
        for c, dc in zip(u.components, d.components):
            for s in (0.5, 5.0 / 6.0, 1.0):
                assert np.array_equal(spectral.fractional_laplacian(c, s).coeffs, _cube_apply_xi_power(dc, 2.0 * s))
                got = spectral.inverse_fractional_laplacian(c, s).coeffs
                assert np.array_equal(got, _cube_apply_xi_power(dc, -2.0 * s))
        assert u.divergence_defect() == _cube_divergence_defect(d)
        if all(c.real_valued for c in u.components) and u.band_axis() < n // 2:
            assert np.array_equal(products.pressure_from_velocity(u).coeffs, _cube_pressure(d))
        assert all("coeffs" not in c.__dict__ for c in u.components)


def test_painters_store_their_support(grid32):
    g = grid32
    cases = []
    for mode, a, phase in (((0, 0, 1), 1.0, 0.0), ((1, -2, 3), 0.7, 0.3), ((0, 0, 16), 1.0, 0.5)):
        v = a * g.box_length**3 / FOURIER_NORM * np.exp(1j * phase) / 2j
        cases.append(([forge.harmonic(g, mode, a, phase)], [_cube_paint(g, {mode: v})]))
    spec = forge.SpectrumSpec("single-mode", amplitude=0.5, mode=(0, 1, 2), polarization=0, phase=0.2)
    v = 0.5 * g.box_length**3 / FOURIER_NORM * np.exp(1j * 0.2) / 2j
    zero = np.zeros((g.n,) * 3, dtype=np.complex128)
    cases.append((forge.generate(g, spec).components, [_cube_paint(g, {(0, 1, 2): v}), zero, zero]))
    base = 0.3 * g.box_length**3 / FOURIER_NORM / 8.0
    signs = list(itertools.product((1, -1), repeat=3))
    ex = {m: base * m[0] / 1j for m in signs}
    ey = {m: -base * m[1] / 1j for m in signs}
    tg = [_cube_paint(g, {m: v / 2 for m, v in e.items()}) for e in (ex, ey)]
    cases.append((forge.taylor_green(g, 0.3).components, tg + [zero]))
    for comps, cubes in cases:
        for c, cube in zip(comps, cubes):
            assert isinstance(c.active, np.ndarray) and "coeffs" not in c.__dict__
            _assert_exact_support(c)
            assert np.array_equal(c.coeffs, cube)


def test_operators_build_no_cube_of_a_stored_field(monkeypatch):
    """The projection, the pressure, fractional powers, the energy-balance
    pairings and the divergence defect read stored fields on their supports:
    while the union of their operands' supports stays small, they scatter
    nothing into a cube."""
    g = TorusGrid(64, TWO_PI)
    u = VectorField(tuple(forge.scalar_band(g, 3, (1, 1), salt=a) for a in (1, 2, 3)))
    v = forge.generate(g, forge.SpectrumSpec("white-band", seed=2, band=(1, 2)))
    built = []
    scatter = spectral._scatter
    monkeypatch.setattr(spectral, "_scatter", lambda grid, at, values: built.append(at.size) or scatter(grid, at, values))
    outs = [spectral.leray_project(u), spectral.leray_project(v), products.pressure_from_velocity(u)]
    outs += [op(c, 5.0 / 6.0) for op in (spectral.fractional_laplacian, spectral.inverse_fractional_laplacian)
             for c in v.components]
    values = [ledger._frac_pairing(u, v, 5.0 / 6.0), ledger._l2_pairing(u, v), u.divergence_defect(), v.l2()]
    assert built == []
    assert all(np.isfinite(values))
    for x in (u, v, *outs):
        for c in x.components if isinstance(x, VectorField) else (x,):
            assert "coeffs" not in c.__dict__
    # the stress products of v fill most of a coarser grid: their union is
    # summed on the whole cube, and no input keeps one
    monkeypatch.undo()
    products.pressure_from_velocity(v)
    assert all("coeffs" not in c.__dict__ for c in v.components)
