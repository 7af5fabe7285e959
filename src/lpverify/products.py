"""De-aliased products, trilinear advective integrals, pressure recovery.

Quadratic and cubic expressions are evaluated in physical space.  The
evaluation grid is chosen by integer mode arithmetic: a product computed
on an n-grid is exact on the retained modes as long as alias images
(shifted by 2*Nyquist per axis) cannot land inside them.  Window-band
fields always satisfy this on their own grid; anything wider is evaluated
after zero-padding to 2n per axis, which resolves every quadratic and
cubic interaction of n-grid fields exactly.
"""

from __future__ import annotations

import numpy as np
import scipy.fft as _fft

from .errors import AliasingGuardError, GridError
from .spectral import (
    FOURIER_NORM,
    SpectralField,
    TorusGrid,
    VectorField,
    fft_workers,
    gradient,
    padded_grid,
    transform_forward,
)

__all__ = [
    "samples_on",
    "restrict_to",
    "product",
    "advective_term",
    "trilinear",
    "pressure_from_velocity",
    "resample",
]


def _embed_indices(src: TorusGrid, dst: TorusGrid) -> np.ndarray:
    if dst.n < src.n or dst.box_length != src.box_length:
        raise GridError("destination grid does not refine the source grid")
    return (src.modes % dst.n).astype(np.intp)


def _require_clean_band(u: SpectralField) -> None:
    if u.band_axis > u.grid.n // 2 - 1:
        raise AliasingGuardError(
            "field carries unpaired Nyquist-plane energy; its products cannot "
            f"be resolved exactly on n={u.grid.n}"
        )


def samples_on(u: SpectralField, dst: TorusGrid) -> np.ndarray:
    """Sample the trigonometric field on a refined grid (real fields)."""
    g = u.grid
    if dst is g or dst == g:
        return u.samples()
    _require_clean_band(u)
    idx = _embed_indices(g, dst)
    half = np.zeros((dst.n, dst.n, dst.n // 2 + 1), dtype=np.complex128)
    # nonzero source modes have |m| <= n/2-1, so kz indices 0..n/2-1 map
    # straight into the destination half-spectrum
    kz = np.arange(g.n // 2)
    half[np.ix_(idx, idx, kz)] = u.coeffs[:, :, : g.n // 2]
    scale = FOURIER_NORM / dst.cell_volume
    return _fft.irfftn(half * scale, s=(dst.n,) * 3, workers=fft_workers())


def restrict_to(samples: np.ndarray, eval_grid: TorusGrid, out: TorusGrid) -> SpectralField:
    """Forward-transform on the evaluation grid, keep the coarse lattice.

    Modes beyond the coarse grid's resolution are discarded and the
    unpaired Nyquist planes zeroed, so the result is a clean calculus-band
    field on ``out``.
    """
    f = transform_forward(eval_grid, samples)
    if eval_grid == out:
        coeffs = f.coeffs.copy()
    else:
        idx = _embed_indices(out, eval_grid)
        coeffs = f.coeffs[np.ix_(idx, idx, idx)]
    ny = out.n // 2
    coeffs[ny, :, :] = 0.0
    coeffs[:, ny, :] = 0.0
    coeffs[:, :, ny] = 0.0
    return SpectralField(out, coeffs, real_valued=True, mean_zero=bool(coeffs[0, 0, 0] == 0))


def resample(u: SpectralField, dst: TorusGrid) -> SpectralField:
    """The same trigonometric field represented on a refined grid."""
    if dst == u.grid:
        return u
    _require_clean_band(u)
    idx = _embed_indices(u.grid, dst)
    coeffs = np.zeros((dst.n,) * 3, dtype=np.complex128)
    coeffs[np.ix_(idx, idx, idx)] = u.coeffs
    return SpectralField(dst, coeffs, real_valued=u.real_valued, mean_zero=u.mean_zero)


def _eval_grid_for(grid: TorusGrid, band_sum: int, target_band: int, pad) -> TorusGrid:
    """Pick the grid on which a product is alias-free on the target modes.

    Alias images of the true content (axis bandwidth ``band_sum``) sit at
    axis distance >= n - band_sum from it, so the retained modes
    |m| <= target_band stay exact iff band_sum + target_band < n.
    """
    if pad == "always":
        return padded_grid(grid)
    if pad == "never":
        if band_sum + target_band >= grid.n:
            raise AliasingGuardError(
                f"product bandwidth {band_sum} aliases into |m| <= {target_band} on n={grid.n}"
            )
        return grid
    if band_sum + target_band < grid.n:
        return grid
    return padded_grid(grid)


def product(f: SpectralField, g: SpectralField, pad="auto") -> SpectralField:
    """De-aliased pointwise product returned on the common grid."""
    if f.grid != g.grid:
        raise GridError("product operands live on different grids")
    grid = f.grid
    if f.max_abs_coeff() == 0.0 or g.max_abs_coeff() == 0.0:
        return SpectralField.zeros(grid)
    band_sum = f.band_axis + g.band_axis
    eg = _eval_grid_for(grid, band_sum, grid.n // 2 - 1, pad)
    fs = samples_on(f, eg)
    gs = samples_on(g, eg)
    return restrict_to(fs * gs, eg, grid)


def advective_term(u: VectorField, a: VectorField, pad="auto") -> VectorField:
    """(u . grad) a, fully de-aliased, on the common grid."""
    grid = u.grid
    if a.grid != grid:
        raise GridError("advection operands live on different grids")
    band_sum = u.band_axis() + a.band_axis()
    eg = _eval_grid_for(grid, band_sum, grid.n // 2 - 1, pad)
    us = [samples_on(c, eg) for c in u.components]
    comps = []
    for ai in a.components:
        grad_ai = gradient(ai)
        acc = np.zeros((eg.n,) * 3)
        for j in range(3):
            acc += us[j] * samples_on(grad_ai.components[j], eg)
        comps.append(restrict_to(acc, eg, grid))
    return VectorField(tuple(comps))  # type: ignore[arg-type]


def trilinear(u: VectorField, a: VectorField, b: VectorField, pad="auto") -> float:
    """The advective trilinear form  integral of u . grad a . b dx.

    Evaluated as a plain quadrature on a grid fine enough that no alias
    image can reach the zero mode of the cubic integrand.
    """
    grid = u.grid
    if a.grid != grid or b.grid != grid:
        raise GridError("trilinear operands live on different grids")
    if (
        u.components[0].max_abs_coeff() == 0.0
        and u.components[1].max_abs_coeff() == 0.0
        and u.components[2].max_abs_coeff() == 0.0
    ):
        return 0.0
    band_sum = u.band_axis() + a.band_axis() + b.band_axis()
    eg = _eval_grid_for(grid, band_sum, 0, pad)
    us = [samples_on(c, eg) for c in u.components]
    gys: list = [None] * 3
    zs: list = [None] * 3
    for i, (ai, bi) in enumerate(zip(a.components, b.components)):
        if ai.max_abs_coeff() != 0.0 and bi.max_abs_coeff() != 0.0:
            gys[i] = [samples_on(g, eg) for g in gradient(ai).components]
            zs[i] = samples_on(bi, eg)
    return _contract(us, gys, zs) * eg.cell_volume


def _contract(xs: list, gys: list, zs: list) -> float:
    """Sum of xs[j] * gys[i][j] * zs[i] over all samples, i outer, j inner.

    Each list holds 3 entries; a None entry is a zero factor and is skipped.
    Times the cell volume this is the trilinear form.
    """
    acc = 0.0
    for i in range(3):
        if zs[i] is None:
            continue
        for j in range(3):
            if xs[j] is None or gys[i][j] is None:
                continue
            acc += float(np.sum(xs[j] * gys[i][j] * zs[i]))
    return acc


def pressure_from_velocity(u: VectorField, pad="auto") -> SpectralField:
    """Pressure of a mean-zero velocity via -Delta P = div div (u (x) u).

    Solved coefficient-wise: P_hat = -(xi (x) xi : T_hat)/|xi|^2 with the
    de-aliased quadratic stress T = u (x) u; the zero mode is fixed to 0.
    """
    grid = u.grid
    acc = np.zeros((grid.n,) * 3, dtype=np.complex128)
    for i in range(3):
        for j in range(i, 3):
            t = product(u.components[i], u.components[j], pad=pad)
            w = grid.xi_component(i) * grid.xi_component(j)
            acc += (w if i == j else 2.0 * w) * t.coeffs
    with np.errstate(invalid="ignore", divide="ignore"):
        coeffs = np.where(grid.xi_sq > 0, -acc / grid.xi_sq, 0.0)
    coeffs[0, 0, 0] = 0.0
    return SpectralField(grid, coeffs, real_valued=True, mean_zero=True)
