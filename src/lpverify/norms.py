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
from functools import reduce

import numpy as np

from . import dyadic
from .errors import FieldError
from .spectral import SpectralField, VectorField, _re_dot, _take, _union, _xi_power

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


def _components(u: SpectralField | VectorField) -> list[SpectralField]:
    return [u] if isinstance(u, SpectralField) else list(u.components)


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
    return _lp_norms(u, (p,))[0]


def _lp_norms(u: SpectralField | VectorField, ps) -> list[float]:
    """``lp_norm(u, p)`` for each p of ``ps``, from one sampling of u's magnitude."""
    for p in ps:
        if p < 1:
            raise FieldError(f"L^p norm needs p >= 1, got {p}")
    mag = _magnitude_samples(u)
    dV = u.grid.cell_volume
    return [float(np.max(mag)) if math.isinf(p) else float(np.sum(mag**p) * dV) ** (1.0 / p) for p in ps]


def _spectral_weighted_sq(u: SpectralField | VectorField, weight) -> float:
    """Sum of weight * |u_hat|^2 over each component's ``active`` set, in
    ascending flat order, where ``weight(grid, at)`` is the weight there,
    times the spectral cell."""
    comps = _components(u)
    g = comps[0].grid
    total = 0.0
    for c in comps:
        total += _re_dot(c.values, c.values, weight(g, c.active))
    return total * g.spectral_cell


def dirichlet(u: VectorField | SpectralField) -> float:
    """Dirichlet integral: the squared L^2 norm of the full gradient."""
    return _spectral_weighted_sq(u, lambda g, at: _take(g.xi_sq, at))


def fractional_dirichlet(u: VectorField | SpectralField, s: float) -> float:
    """integral of |(-Delta)^(s/2) u|^2, via the |xi|^(2s) Plancherel weight."""
    return _spectral_weighted_sq(u, lambda g, at: _xi_power(g, 2.0 * float(s), at))


def sobolev_norm(
    u: SpectralField | VectorField,
    s: float,
    method: str = "fourier",
    window: dyadic.DyadicWindow | None = None,
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
        bk = _block_l2(u, k)
        total += (math.ldexp(1.0, k) ** s * bk) ** 2
    return math.sqrt(total)


def _block_l2(u: SpectralField | VectorField, k: int) -> float:
    def weight(g, at):
        return dyadic._multiplier(g, k, k + 1, dyadic.DEFAULT_PROFILE, at) ** 2

    return math.sqrt(_spectral_weighted_sq(u, weight))


def block_l2_profile(u: SpectralField | VectorField, window: dyadic.DyadicWindow) -> dict[int, float]:
    """Per-level block L^2 amplitudes over a window."""
    return {k: _block_l2(u, k) for k in window.indices()}


def besov_infty_norm(
    u: SpectralField | VectorField,
    s: float,
    window: dyadic.DyadicWindow | None = None,
) -> float:
    """sup over window levels of 2^(ks) * max-abs of the dyadic block."""
    return _besov_combine(_block_table(u, window), s)


def _block_table(
    u: SpectralField | VectorField, window: dyadic.DyadicWindow | None = None
) -> dict[int, float]:
    """{k: max |Delta_k u|} over the window levels (default: the grid's window)."""
    window = window or dyadic.DyadicWindow.for_grid(u.grid)
    return {k: _block_sup(u, k) for k in window.indices()}


def _block_sup(u: SpectralField | VectorField, k: int) -> float:
    """max |Delta_k u| over the samples (the pointwise magnitude of a vector
    field); 0.0 for a zero block, which is not sampled."""
    blocks = [dyadic.block(c, k) for c in _components(u)]
    if all(b.max_abs_coeff() == 0.0 for b in blocks):
        return 0.0
    mag = _magnitude_samples(
        blocks[0] if len(blocks) == 1 else VectorField(tuple(blocks))  # type: ignore[arg-type]
    )
    return float(np.max(mag))


def _besov_combine(sups: dict[int, float], s: float) -> float:
    """max over levels k of 2^(ks) * sups[k], zero blocks skipped."""
    best = 0.0
    for k, sup in sups.items():
        if sup != 0.0:
            best = max(best, math.ldexp(1.0, k) ** s * sup)
    return best


def spectral_lr_ball(u: SpectralField | VectorField, r: float, radius: float) -> float:
    """||u_hat||_{L^r} over the ball |xi| <= radius, lattice quadrature,
    read at the components' ``active`` indices inside the ball."""
    if r < 1:
        raise FieldError(f"spectral L^r norm needs r >= 1, got {r}")
    comps = _components(u)
    g = comps[0].grid
    at = reduce(lambda a, b: _union(a, b, g.n**3), (c.active for c in comps))
    inside = _take(g.xi_abs, at) <= radius
    at = np.flatnonzero(inside) if isinstance(at, slice) else at[inside]
    mag_sq = np.zeros(at.size)
    for c in comps:
        v = c._at(at)
        mag_sq += v.real**2 + v.imag**2
    if math.isinf(r):
        return math.sqrt(float(mag_sq.max())) if mag_sq.size else 0.0
    return float(np.sum(mag_sq ** (r / 2.0)) * g.spectral_cell) ** (1.0 / r)
