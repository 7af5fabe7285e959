"""De-aliased products, trilinear advective integrals, pressure recovery.

Quadratic and cubic expressions are evaluated in physical space, each on
the grid one rule (Orszag's, ``_eval_grid_for``) names for its factors'
axis bandwidths B: the smallest power of two n' >= 8 with n' > sum B + t,
so the modes |m| <= t are exact, and n' > 2 max B.  A product keeps the
box |m|_inf <= sum B that its factors can reach, capped at what its grid
resolves: window-band pairs stay on their grid, narrow-band pairs drop to
a coarser one, and full-band fields go to 2n.  Where the box fits the
grid, t = sum B and no alias image lands on the evaluation grid, so every
mode beyond the box is zero but for rounding; where it does not, nothing
is cut.  A trilinear form needs only the zero mode of its integrand, t = 0.

A form is a grid and what is read on it: ``_product_form`` names a
product's, ``_tri_reads`` a trilinear form's, each from its factors'
``_shape``, and a zero factor gives no form.  One runner exists per form,
``_product`` and ``_tri``; every caller holds one ``_Sampler``, gets the
form and runs it, and the sampler samples only what a form reads, which
is never a zero component.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterator

import numpy as np

from .errors import AliasingGuardError, FieldError, GridError
from .spectral import (
    SpectralField,
    TorusGrid,
    VectorField,
    _common_axis,
    _gather,
    _inverse_real,
    _scan_support,
    _take,
    _xi_at,
    gradient,
    transform_forward,
)

__all__ = [
    "samples_on",
    "restrict_to",
    "product",
    "advective_term",
    "trilinear",
    "pressure_from_velocity",
]


def _require_clean_band(u: SpectralField, dst: TorusGrid) -> None:
    n = min(u.grid.n, dst.n)
    if u.band_axis > n // 2 - 1:
        raise AliasingGuardError(
            f"field of axis bandwidth {u.band_axis} has energy at or beyond the "
            f"Nyquist plane of n={n}; its samples there would alias"
        )


def samples_on(u: SpectralField, dst: TorusGrid) -> np.ndarray:
    """Sample the real trigonometric field on another grid of the same box,
    through ``transform_inverse``'s kernel: only the box of the half
    spectrum that u's band reaches is placed on ``dst`` and transformed.
    A complex-valued field raises ``FieldError``: the kernel reads only
    its kz >= 0 half, and every product of samples is stored as real."""
    if not u.real_valued:
        raise FieldError("products take real-valued fields only")
    if dst == u.grid:
        return u.samples()
    _common_axis(u.grid, dst)  # raises unless the two grids cover one box
    _require_clean_band(u, dst)
    return _inverse_real(u, dst)


def restrict_to(samples: np.ndarray, eval_grid: TorusGrid, out: TorusGrid, bands) -> SpectralField:
    """Forward-transform on the evaluation grid, keep the box its factors reach.

    ``bands`` are the axis bandwidths of the factors whose product
    ``samples`` holds, the ones ``_eval_grid_for`` was handed.  Only the box
    |m|_inf <= sum(bands) is kept, capped at the modes both grids resolve
    less their unpaired Nyquist planes, so the result is a clean
    calculus-band field on ``out``.  On the grid ``_eval_grid_for`` names,
    every mode beyond the box is zero in exact arithmetic, so the cut drops
    rounding only.  From a coarser evaluation grid the kept modes are
    scanned there, so the result knows its support without a scan of the
    larger ``out`` cube.
    """
    _common_axis(eval_grid, out)  # raises unless the two grids cover one box
    f = transform_forward(eval_grid, samples)
    e = eval_grid.n
    h = min(sum(bands), min(e, out.n) // 2 - 1)  # the kept box |m|_inf <= h
    if e > out.n:  # the eight octants of the box, copied into out's cube
        coeffs = np.zeros((out.n,) * 3, dtype=np.complex128)
        negative = slice(-h, None) if h else slice(0)  # the modes -h..-1, none for h = 0
        for octant in itertools.product((slice(0, h + 1), negative), repeat=3):
            coeffs[octant] = f.coeffs[octant]
        return SpectralField(out, coeffs, real_valued=True, mean_zero=bool(coeffs[0, 0, 0] == 0))
    beyond = [(slice(None),) * axis + (slice(h + 1, e - h),) for axis in range(3)]  # h < |m| <= e/2
    if e < out.n:  # the box's nonzero modes, scanned on the evaluation grid
        kept = f.coeffs != 0
        for slab in beyond:
            kept[slab] = False
        local = _scan_support(kept)
        lift = np.arange(e)
        lift[e // 2 + 1 :] += out.n - e
        i, j, k = (lift[a] for a in np.unravel_index(local, kept.shape))
        return SpectralField.on_support(
            out, (i * out.n + j) * out.n + k, np.take(f.coeffs, local),
            real_valued=True, mean_zero=bool(f.coeffs[0, 0, 0] == 0),
        )
    coeffs = f.coeffs  # the box is f's own cube less three slabs
    for slab in beyond:
        coeffs[slab] = 0
    return SpectralField(out, coeffs, real_valued=True, mean_zero=bool(coeffs[0, 0, 0] == 0))


def _eval_grid_for(grid: TorusGrid, bands, t: int | None = None) -> TorusGrid:
    """The smallest power-of-two grid n' >= 8 on which a product of factors
    of axis bandwidths ``bands`` is exact on |m| <= t: n' > sum(bands) + t,
    as alias images sit at axis distance >= n' - sum(bands), and
    n' > 2 max(bands), so no factor reaches its Nyquist plane.  The default
    t = min(n/2 - 1, sum(bands)) keeps all of the product's box
    |m|_inf <= sum(bands) that ``grid`` resolves, which implies the second
    clause for factors it resolves; ``restrict_to`` keeps that box and
    drops the rest.  A trilinear form takes t = 0.
    """
    t = min(grid.n // 2 - 1, sum(bands)) if t is None else t
    n = 8
    while n <= sum(bands) + t or n <= 2 * max(bands):
        n *= 2
    return grid if n == grid.n else TorusGrid(n, grid.box_length)


def product(f: SpectralField, g: SpectralField) -> SpectralField:
    """De-aliased pointwise product returned on the common grid."""
    if f.grid != g.grid:
        raise GridError("product operands live on different grids")
    (a,), (b,) = _shape(f), _shape(g)
    return _product(_Sampler(), (f, g), (None, None), _product_form(f.grid, a, b))


def _product(sample: _Sampler, factors, keys, form) -> SpectralField:
    """The product of the two scalar ``factors`` with ``form`` their
    ``_product_form``, each sampled by ``sample`` under its key (None:
    sampled afresh); zero on their grid without a form."""
    grid = factors[0].grid
    if form is None:
        return SpectralField.zeros(grid)
    eg, bands = form
    a, b = (sample(key, c, eg) for key, c in zip(keys, factors))
    return restrict_to(a * b, eg, grid, bands)


class _Sampler:
    """Physical samples of scalar fields, and of their gradients, per (key, grid n).

    A key names one scalar field for as long as the sampler lives; the key
    None samples afresh and keeps nothing.  ``held`` maps each slot (key,
    grid n, gradient or not) to its samples, which stay until their holder
    drops them from it.
    """

    def __init__(self):
        self.held: dict = {}

    def __call__(self, key, c: SpectralField, eg: TorusGrid, grad: bool = False):
        """c sampled on eg, or the list of its gradient's three components."""
        slot = (key, eg.n, grad)
        if slot in self.held:
            return self.held[slot]
        out = [samples_on(g, eg) for g in gradient(c).components] if grad else samples_on(c, eg)
        if key is not None:
            self.held[slot] = out
        return out


def advective_term(u: VectorField, a: VectorField) -> VectorField:
    """(u . grad) a, fully de-aliased, on the common grid; zero factors are not sampled."""
    grid = u.grid
    if a.grid != grid:
        raise GridError("advection operands live on different grids")
    bands = u.band_axis(), a.band_axis()
    eg = _eval_grid_for(grid, bands)
    sample = _Sampler()
    us = [sample(None, c, eg) if nonzero else None for c, (nonzero, _) in zip(u.components, _shape(u))]
    comps = []
    for ai, (nonzero, _) in zip(a.components, _shape(a)):
        acc = np.zeros((eg.n,) * 3)
        for uj, gj in zip(us, sample(None, ai, eg, grad=True) if nonzero else ()):
            if uj is not None:
                acc += uj * gj
        comps.append(restrict_to(acc, eg, grid, bands))
    return VectorField(tuple(comps))  # type: ignore[arg-type]


def trilinear(u: VectorField, a: VectorField, b: VectorField) -> float:
    """The advective trilinear form  integral of u . grad a . b dx.

    Evaluated by ``_tri`` as a plain quadrature on the grid of
    ``_eval_grid_for``, where no alias image can reach the zero mode of the
    cubic integrand and every factor is resolved; zero without a form.
    """
    if a.grid != u.grid or b.grid != u.grid:
        raise GridError("trilinear operands live on different grids")
    form = _tri_reads(u.grid, [_shape(f) for f in (u, a, b)])
    return _tri(_Sampler(), (u, a, b), (None, None, None), form) if form else 0.0


def _shape(f: VectorField | SpectralField) -> list[tuple[bool, int]]:
    """(nonzero, axis bandwidth) of each component of f (of f itself, for a scalar field)."""
    comps = f.components if isinstance(f, VectorField) else (f,)
    return [(c.max_abs_coeff() != 0.0, c.band_axis) for c in comps]


def _product_form(grid: TorusGrid, a, b) -> tuple[TorusGrid, tuple] | None:
    """The form of the product of two scalar fields of ``_shape`` entries
    a and b: None if either is zero, else the grid of ``_eval_grid_for``
    and the two bands it and ``restrict_to`` read."""
    if not (a[0] and b[0]):
        return None
    bands = a[1], b[1]
    return _eval_grid_for(grid, bands), bands


def _tri_reads(grid: TorusGrid, shapes) -> tuple[TorusGrid, list] | None:
    """The grid and the reads of the quadrature of X . grad Y . Z, from each
    factor's ``_shape``; None if X is zero or no component i has Y_i and Z_i
    both nonzero.  The grid is ``_eval_grid_for``'s, t = 0; the reads are
    (factor, component, gradient or not): each nonzero X_j, then grad Y_i
    and Z_i for each such i."""
    x, y, z = ([nonzero for nonzero, _ in s] for s in shapes)
    pairs = [i for i in range(3) if y[i] and z[i]]
    if not pairs or not any(x):
        return None
    eg = _eval_grid_for(grid, [max(band for _, band in s) for s in shapes], 0)
    return eg, [(0, j, False) for j in range(3) if x[j]] + [
        read for i in pairs for read in ((1, i, True), (2, i, False))
    ]


def _tri(sample: _Sampler, factors, keys, form) -> float:
    """integral of X . grad Y . Z dx for ``factors`` (X, Y, Z), with ``form``
    their ``_tri_reads``: a quadrature on its grid of the samples it reads,
    held by ``sample`` under ``keys``, one per factor (None: sampled afresh)."""
    got = [[None] * 3 for _ in range(3)]  # X, grad Y, Z
    for f, i, grad in form[1]:
        key = None if keys[f] is None else (keys[f], i)
        got[f][i] = sample(key, factors[f].components[i], form[0], grad)
    return _contract(*got) * form[0].cell_volume


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


def _stress(u: VectorField) -> Iterator[tuple[tuple[int, int], SpectralField]]:
    """((i, j), product(u_i, u_j)) for i <= j; each u_i is sampled once per grid."""
    sample, shape = _Sampler(), _shape(u)
    for i, j in itertools.combinations_with_replacement(range(3), 2):
        form = _product_form(u.grid, shape[i], shape[j])
        yield (i, j), _product(sample, (u.components[i], u.components[j]), (i, j), form)


def pressure_from_velocity(u: VectorField) -> SpectralField:
    """Pressure of a mean-zero velocity via -Delta P = div div (u (x) u).

    Solved coefficient-wise: P_hat = -(xi (x) xi : T_hat)/|xi|^2 with the
    de-aliased quadratic stress T = u (x) u; the zero mode is fixed to 0.
    """
    return _pressure(u.grid, _stress(u))


def _pressure(grid: TorusGrid, stress) -> SpectralField:
    """The pressure of ``pressure_from_velocity`` from the pairs of ``_stress``.

    The sum xi (x) xi : T_hat grows on the union of the products' ``active``
    sets, one product at a time, so no product is held past its turn.
    """
    acc = SpectralField.zeros(grid)
    for (i, j), t in stress:
        at, (v,) = _gather([t])
        xi = _xi_at(grid, at)
        w = xi[i] * xi[j]
        acc = acc + t.with_values((w if i == j else 2.0 * w) * v)
    xi_sq = _take(grid.xi_sq, acc.active)
    with np.errstate(invalid="ignore", divide="ignore"):
        vals = np.where(xi_sq > 0, -acc.values / xi_sq, 0.0)
    return acc.with_values(vals, real_valued=True, mean_zero=True)
