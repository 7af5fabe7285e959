"""Functional norms: Lebesgue, Dirichlet energies, homogeneous Sobolev in
Fourier and block-sum form, and sup-type Besov norms.

Physical quadratures use the cell volume (L/n)^3, spectral quadratures the
cell volume (2*pi/L)^3.  Plancherel ties the two sides together to
rounding, so each L^2-based quantity may be evaluated on whichever side
is cheaper; tests assert the agreement explicitly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import dyadic
from .errors import FieldError
from .spectral import SpectralField, VectorField

__all__ = [
    "NormReport",
    "lp_norm",
    "dirichlet",
    "fractional_dirichlet",
    "sobolev_norm",
    "besov_infty_norm",
    "spectral_lr_ball",
    "block_l2_profile",
]


@dataclass(frozen=True)
class NormReport:
    name: str
    parameter: float
    method: str
    value: float

    def __post_init__(self):
        if not (self.value >= 0.0 and math.isfinite(self.value)):
            raise FieldError(f"norm {self.name} is not finite/nonnegative: {self.value}")


def _magnitude_samples(u: SpectralField | VectorField) -> np.ndarray:
    if isinstance(u, SpectralField):
        return np.abs(u.samples())
    acc = np.zeros((u.grid.n,) * 3)
    for c in u.components:
        s = c.samples()
        if not c.real_valued:
            s = np.abs(s)
        acc += np.abs(s) ** 2
    return np.sqrt(acc)


def lp_norm(u: SpectralField | VectorField, p: float) -> float:
    """L^p norm by physical-space quadrature; p = inf is the sample max.

    Vector fields are measured through their pointwise Euclidean magnitude.
    """
    if p < 1:
        raise FieldError(f"L^p norm needs p >= 1, got {p}")
    mag = _magnitude_samples(u)
    if math.isinf(p):
        return float(np.max(mag))
    dV = u.grid.cell_volume
    return float(np.sum(mag**p) * dV) ** (1.0 / p)


def _spectral_weighted_sq(u: SpectralField | VectorField, weight: np.ndarray) -> float:
    comps = [u] if isinstance(u, SpectralField) else list(u.components)
    g = comps[0].grid
    total = 0.0
    for c in comps:
        total += float(np.sum(weight * (c.coeffs.real**2 + c.coeffs.imag**2)))
    return total * g.spectral_cell


def dirichlet(u: VectorField | SpectralField) -> float:
    """Dirichlet integral: the squared L^2 norm of the full gradient."""
    g = u.grid if isinstance(u, VectorField) else u.grid
    return _spectral_weighted_sq(u, g.xi_sq)


def fractional_dirichlet(u: VectorField | SpectralField, s: float) -> float:
    """integral of |(-Delta)^(s/2) u|^2, via the |xi|^(2s) Plancherel weight."""
    g = u.grid
    with np.errstate(divide="ignore"):
        w = g.xi_sq ** float(s)
    w[0, 0, 0] = 0.0
    return _spectral_weighted_sq(u, w)


def sobolev_norm(
    u: SpectralField | VectorField,
    s: float,
    method: str = "fourier",
    window: dyadic.DyadicWindow | None = None,
    profile: dyadic.DyadicProfile = dyadic.DEFAULT_PROFILE,
) -> float:
    """Homogeneous Sobolev norm, Fourier-weight or dyadic block-sum form.

    The two methods agree up to a fixed profile-dependent equivalence
    factor; their ratio is pinned by regression tests, not asserted here.
    """
    if method == "fourier":
        return math.sqrt(fractional_dirichlet(u, s))
    if method != "lp-sum":
        raise FieldError(f"unknown sobolev method {method!r}")
    g = u.grid
    window = window or dyadic.DyadicWindow.for_grid(g)
    total = 0.0
    for k in window.indices():
        bk = _block_l2(u, k, profile)
        total += (math.ldexp(1.0, k) ** s * bk) ** 2
    return math.sqrt(total)


def _block_l2(u: SpectralField | VectorField, k: int, profile) -> float:
    comps = [u] if isinstance(u, SpectralField) else list(u.components)
    g = comps[0].grid
    mult = dyadic._multiplier(g, "phi", k, profile)
    total = 0.0
    for c in comps:
        total += float(np.sum((mult**2) * (c.coeffs.real**2 + c.coeffs.imag**2)))
    return math.sqrt(total * g.spectral_cell)


def block_l2_profile(
    u: SpectralField | VectorField,
    window: dyadic.DyadicWindow,
    profile: dyadic.DyadicProfile = dyadic.DEFAULT_PROFILE,
) -> dict[int, float]:
    """Per-level block L^2 amplitudes over a window."""
    return {k: _block_l2(u, k, profile) for k in window.indices()}


def besov_infty_norm(
    u: SpectralField | VectorField,
    s: float,
    window: dyadic.DyadicWindow | None = None,
    profile: dyadic.DyadicProfile = dyadic.DEFAULT_PROFILE,
) -> float:
    """sup over window levels of 2^(ks) * max-abs of the dyadic block."""
    g = u.grid
    window = window or dyadic.DyadicWindow.for_grid(g)
    comps = [u] if isinstance(u, SpectralField) else list(u.components)
    best = 0.0
    for k in window.indices():
        blocks = [dyadic.block(c, k, profile) for c in comps]
        if all(b.max_abs_coeff() == 0.0 for b in blocks):
            continue
        mag = _magnitude_samples(
            blocks[0] if len(blocks) == 1 else VectorField(tuple(blocks))  # type: ignore[arg-type]
        )
        best = max(best, math.ldexp(1.0, k) ** s * float(np.max(mag)))
    return best


def spectral_lr_ball(u: SpectralField | VectorField, r: float, radius: float) -> float:
    """||u_hat||_{L^r} over the ball |xi| <= radius, lattice quadrature."""
    if r < 1:
        raise FieldError(f"spectral L^r norm needs r >= 1, got {r}")
    comps = [u] if isinstance(u, SpectralField) else list(u.components)
    g = comps[0].grid
    mask = g.xi_abs <= radius
    mag_sq = np.zeros(int(mask.sum()))
    for c in comps:
        v = c.coeffs[mask]
        mag_sq += v.real**2 + v.imag**2
    if math.isinf(r):
        return math.sqrt(float(mag_sq.max())) if mag_sq.size else 0.0
    return float(np.sum(mag_sq ** (r / 2.0)) * g.spectral_cell) ** (1.0 / r)
