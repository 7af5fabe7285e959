"""Bony splitting of products and the bilinear Sobolev product bound.

A product fg of guarded band-limited fields splits exactly into two
paraproducts and a resonant remainder,

    fg = sum_i block(f,i) lowpass(g,i-2)
       + sum_i block(g,i) lowpass(f,i-2)
       + sum_i block(f,i) tilde_block(g,i),

because the window sum covers every active block pair and the low-pass
telescoping is a lattice-exact multiplier identity.  The guard bands (two
empty octaves at each window edge) keep every summand representable on
the native lattice, so the per-summand frequency-support containments
can be audited against stored coefficients.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from . import dyadic, norms, products
from .dyadic import DyadicWindow
from .errors import FieldError, WindowError
from .spectral import SpectralField, _left_sum

__all__ = ["BonySplit", "bony_split", "ProductBoundReport", "product_sobolev_bound"]


@dataclass(frozen=True)
class SummandAudit:
    """Support bookkeeping for one paraproduct summand."""

    term: str
    level: int
    annulus_lo: float
    annulus_hi: float
    max_inside: float
    max_outside: float


@dataclass(frozen=True)
class BonySplit:
    t_fg: SpectralField
    t_gf: SpectralField
    remainder: SpectralField
    audits: tuple[SummandAudit, ...] = field(default_factory=tuple)
    #: ||tilde_block(g, i)||_2 for each level i whose tilde block was built
    tilde_l2: dict[int, float] = field(default_factory=dict)

    def total(self) -> SpectralField:
        return self.t_fg + self.t_gf + self.remainder


def _check_guarded(u: SpectralField, window: DyadicWindow, guard: int, name: str) -> None:
    radii = u.nonzero_radii()
    if not radii.size:
        return
    lo = math.ldexp(1.0, window.k_min + guard)
    hi = math.ldexp(1.0, window.k_max - guard)
    if radii.min() < lo or radii.max() > hi:
        raise WindowError(
            f"{name} has energy within {guard} octaves of the window edge "
            f"(support [{radii.min():.3g}, {radii.max():.3g}], "
            f"guarded band [{lo:.3g}, {hi:.3g}])"
        )


def bony_split(
    f: SpectralField,
    g: SpectralField,
    window: DyadicWindow | None = None,
    guard: int = 2,
    audit: bool = True,
) -> BonySplit:
    """Split the de-aliased product fg into paraproducts plus remainder.

    Inputs must be mean-zero and band-limited inside the window with
    ``guard`` empty octaves at both edges; violating energy raises
    WindowError.  Summation order over the level index is ascending and
    fixed, so results are bit-deterministic.
    """
    if f.grid != g.grid:
        raise FieldError("operands live on different grids")
    if not (f.mean_zero and g.mean_zero):
        raise FieldError("Bony splitting expects mean-zero fields")
    grid = f.grid
    window = window or DyadicWindow.for_grid(grid)
    _check_guarded(f, window, guard, "f")
    _check_guarded(g, window, guard, "g")

    t_fg = SpectralField.zeros(grid)
    t_gf = SpectralField.zeros(grid)
    rem = SpectralField.zeros(grid)
    audits: list[SummandAudit] = []
    tilde_l2: dict[int, float] = {}
    for i in window.indices():
        bf = dyadic.block(f, i)
        bg = dyadic.block(g, i)
        lf = dyadic.lowpass(f, i - 2)
        lg = dyadic.lowpass(g, i - 2)
        if bf.max_abs_coeff() and lg.max_abs_coeff():
            p = products.product(bf, lg)
            t_fg = t_fg + p
            if audit:
                audits.append(SummandAudit("t_fg", i, *dyadic.annulus_audit(p, i)))
        if bg.max_abs_coeff() and lf.max_abs_coeff():
            p = products.product(bg, lf)
            t_gf = t_gf + p
            if audit:
                audits.append(SummandAudit("t_gf", i, *dyadic.annulus_audit(p, i)))
        if bf.max_abs_coeff():
            tg_i = dyadic.tilde_block(g, i)
            tilde_l2[i] = tg_i.l2()
            if tg_i.max_abs_coeff():
                rem = rem + products.product(bf, tg_i)
    return BonySplit(t_fg, t_gf, rem, tuple(audits), tilde_l2)


# ---------------------------------------------------------------------------
# bilinear Sobolev bound


@dataclass(frozen=True)
class ProductBoundReport:
    s: float
    lhs: float
    rhs: float
    ratio: float
    vacuous: bool
    levels: tuple[int, ...]
    low_high: tuple[float, ...]
    high_low: tuple[float, ...]
    resonant: tuple[float, ...]
    low_high_l2: float
    high_low_l2: float
    resonant_l2: float
    lhs_block_sum: float
    c_emp_low_high: float
    c_emp_high_low: float
    c_emp_resonant: float


def product_sobolev_bound(
    f: SpectralField,
    g: SpectralField,
    s: float,
    window: DyadicWindow | None = None,
    guard: int = 2,
) -> ProductBoundReport:
    """Measure ||fg||_{H^(2s-3/2)} against ||f||_{H^s} ||g||_{H^s}.

    Returns the level-resolved weighted block norms of the three Bony
    pieces, their l^2 aggregates, and per-level empirical constants for
    the scale-interaction bounds that drive the estimate.
    """
    if not (0.0 < s < 1.0):
        raise FieldError(f"product bound needs 0 < s < 1, got {s}")
    grid = f.grid
    window = window or DyadicWindow.for_grid(grid)
    split = bony_split(f, g, window=window, guard=guard, audit=False)
    fg = products.product(f, g)
    sigma = 2.0 * s - 1.5

    rhs = norms.sobolev_norm(f, s) * norms.sobolev_norm(g, s)
    lhs = norms.sobolev_norm(fg, sigma)
    if rhs == 0.0:
        nanv = math.nan
        return ProductBoundReport(
            s, lhs, rhs, nanv, True, (), (), (), (), 0.0, 0.0, 0.0, 0.0, nanv, nanv, nanv
        )

    levels = tuple(window.indices())
    bf = {k: norms._block_l2(f, k) for k in levels}
    bg = {k: norms._block_l2(g, k) for k in levels}
    # read only where bf[k] != 0: there block(f, k) != 0, so bony_split built tilde_block(g, k)
    tg_l2 = {k: split.tilde_l2[k] if bf[k] else 0.0 for k in levels}

    lk, mk, nk = [], [], []
    lk_bound, mk_bound, nk_bound = [], [], []
    for k in levels:
        w = math.ldexp(1.0, k) ** sigma
        lk.append(w * norms._block_l2(split.t_fg, k))
        mk.append(w * norms._block_l2(split.t_gf, k))
        nk.append(w * norms._block_l2(split.remainder, k))
        lk_bound.append(_paraproduct_bound(k, bf, bg, s, levels))
        mk_bound.append(_paraproduct_bound(k, bg, bf, s, levels))
        nk_bound.append(_resonant_bound(k, bf, tg_l2, s, levels))

    def _c_emp(vals, bounds):
        ratios = [v / b for v, b in zip(vals, bounds) if b > 0.0 and v > 0.0]
        return max(ratios) if ratios else 0.0

    lhs_blocks = math.sqrt(
        _left_sum((math.ldexp(1.0, k) ** sigma * norms._block_l2(fg, k)) ** 2 for k in levels)
    )
    return ProductBoundReport(
        s=s,
        lhs=lhs,
        rhs=rhs,
        ratio=lhs / rhs,
        vacuous=False,
        levels=levels,
        low_high=tuple(lk),
        high_low=tuple(mk),
        resonant=tuple(nk),
        low_high_l2=math.sqrt(_left_sum(v * v for v in lk)),
        high_low_l2=math.sqrt(_left_sum(v * v for v in mk)),
        resonant_l2=math.sqrt(_left_sum(v * v for v in nk)),
        lhs_block_sum=lhs_blocks,
        c_emp_low_high=_c_emp(lk, lk_bound),
        c_emp_high_low=_c_emp(mk, mk_bound),
        c_emp_resonant=_c_emp(nk, nk_bound),
    )


def _paraproduct_bound(k: int, bf: dict, bg: dict, s: float, levels) -> float:
    """Scale-interaction majorant for the weighted low-high block norm."""
    total = 0.0
    for i in levels:
        if abs(i - k) > 2:
            continue
        inner = 0.0
        for j in levels:
            if j <= i - 3:
                inner += 2.0 ** ((1.5 - s) * (j - i)) * math.ldexp(1.0, j) ** s * bg[j]
        total += math.ldexp(1.0, i) ** s * bf[i] * inner
    return total


def _resonant_bound(k: int, bf: dict, tg_l2: dict, s: float, levels) -> float:
    total = 0.0
    for i in levels:
        if i < k - 4:
            continue
        total += (
            2.0 ** (2.0 * (k - i) * s)
            * math.ldexp(1.0, i) ** s
            * bf[i]
            * math.ldexp(1.0, i) ** s
            * tg_l2[i]
        )
    return total
