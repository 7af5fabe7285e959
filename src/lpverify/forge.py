"""Deterministic test-field generation and small-data steady solutions.

Random fields are painted directly in spectral space.  Every mode's phase
comes from a counter-based hash of (seed, canonical mode triple), so a
given (seed, spec, grid) is bit-reproducible, independent of iteration
order, and modes shared by two grids receive identical values, which is
what refinement studies rely on.

Band-limited spectra are supported on the closed annulus
[2^k_lo, 2^k_hi], on which the dyadic blocks k_lo..k_hi form an exact
partition of unity; per-band amplitude targets are enforced by a couple
of partition-weighted correction sweeps.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from . import dyadic, norms, products
from .errors import PicardError, SpectrumSpecError
from .spectral import (
    FOURIER_NORM,
    SpectralField,
    TorusGrid,
    VectorField,
    fractional_laplacian,
    inverse_fractional_laplacian,
    leray_project,
)

KINDS = ("single-mode", "taylor-green", "white-band", "power-law")


@dataclass(frozen=True)
class SpectrumSpec:
    """Recipe for a generated divergence-free test field."""

    kind: str
    amplitude: float = 1.0
    seed: int = 0
    band: tuple[int, int] | None = None
    alpha: float = 1.0
    mode: tuple[int, int, int] = (0, 0, 1)
    polarization: int = 0
    phase: float = 0.0

    def __post_init__(self):
        if self.kind not in KINDS:
            raise SpectrumSpecError(f"unknown spectrum kind {self.kind!r}")
        if self.kind in ("white-band", "power-law"):
            if self.band is None or self.band[0] > self.band[1]:
                raise SpectrumSpecError(f"kind {self.kind!r} needs a nonempty band")
        if self.kind == "single-mode":
            m = self.mode
            if m == (0, 0, 0):
                raise SpectrumSpecError("single-mode spec needs a nonzero mode")
            if m[self.polarization] != 0:
                raise SpectrumSpecError(
                    "polarization must be orthogonal to the mode for a solenoidal field"
                )

    def hs_class_ok(self, s: float) -> bool:
        """Bookkeeping mirror of the continuum H^s membership: a power-law
        slope alpha only certifies exponents s < alpha."""
        if self.kind != "power-law":
            return True
        return s < self.alpha

    def to_json(self) -> str:
        d = {k: getattr(self, k) for k in self.__dataclass_fields__}
        return json.dumps(d, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "SpectrumSpec":
        d = json.loads(text)
        if "band" in d and d["band"] is not None:
            d["band"] = tuple(int(x) for x in d["band"])
        if "mode" in d:
            d["mode"] = tuple(int(x) for x in d["mode"])
        return cls(**d)


# ---------------------------------------------------------------------------
# counter-based phases


_GAMMA = np.uint64(0x9E3779B97F4A7C15)


def _splitmix(z: np.ndarray) -> np.ndarray:
    z = (z + _GAMMA).astype(np.uint64)
    z ^= z >> np.uint64(30)
    z *= np.uint64(0xBF58476D1CE4E5B9)
    z ^= z >> np.uint64(27)
    z *= np.uint64(0x94D049BB133111EB)
    z ^= z >> np.uint64(31)
    return z


def _mode_uniform(seed: int, mx, my, mz, salt: int) -> np.ndarray:
    """Deterministic uniform [0,1) per lattice mode, keyed by canonical pair."""
    h = _splitmix(np.uint64(seed & 0xFFFFFFFFFFFFFFFF) + np.zeros_like(mx, dtype=np.uint64))
    for coord in (mx, my, mz, np.full_like(mx, salt)):
        h = _splitmix(h ^ coord.astype(np.int64).view(np.uint64))
    return (h >> np.uint64(11)).astype(np.float64) / float(1 << 53)


def _canonical_sign(mx, my, mz) -> np.ndarray:
    """+1 on the lexicographically positive member of each {m, -m} pair."""
    pos = (mx > 0) | ((mx == 0) & (my > 0)) | ((mx == 0) & (my == 0) & (mz > 0))
    return np.where(pos, 1.0, -1.0)


# ---------------------------------------------------------------------------
# painters


def generate(
    grid: TorusGrid,
    spec: SpectrumSpec,
    profile: dyadic.DyadicProfile = dyadic.DEFAULT_PROFILE,
) -> VectorField:
    """Realize a spec as a mean-zero, divergence-free spectral field."""
    if spec.kind == "single-mode":
        return _single_mode(grid, spec)
    if spec.kind == "taylor-green":
        return taylor_green(grid, spec.amplitude)
    return _random_band(grid, spec, profile)


def _paint(grid: TorusGrid, entries: dict[tuple[int, int, int], complex]) -> np.ndarray:
    """Place f_hat values at integer modes together with conjugate partners."""
    n = grid.n
    coeffs = np.zeros((n, n, n), dtype=np.complex128)
    for m, v in entries.items():
        i = tuple(mi % n for mi in m)
        j = tuple((-mi) % n for mi in m)
        coeffs[i] += v
        coeffs[j] += np.conj(v)
    return coeffs


def harmonic(
    grid: TorusGrid, mode: tuple[int, int, int], amplitude: float = 1.0, phase: float = 0.0
) -> SpectralField:
    """Exactly painted scalar field A sin(xi.x + phase) for a lattice mode."""
    amp = amplitude * grid.box_length**3 / FOURIER_NORM
    v = amp * np.exp(1j * phase) / 2j
    return SpectralField(grid, _paint(grid, {mode: v}))


def _single_mode(grid: TorusGrid, spec: SpectrumSpec) -> VectorField:
    # A sin(xi.x + phase) along the polarization axis
    amp = spec.amplitude * grid.box_length**3 / FOURIER_NORM
    v = amp * np.exp(1j * spec.phase) / 2j
    comps = []
    for axis in range(3):
        if axis == spec.polarization:
            coeffs = _paint(grid, {spec.mode: v})
        else:
            coeffs = np.zeros((grid.n,) * 3, dtype=np.complex128)
        comps.append(SpectralField(grid, coeffs))
    return VectorField(tuple(comps), div_free=True)  # type: ignore[arg-type]


def taylor_green(grid: TorusGrid, amplitude: float = 1.0) -> VectorField:
    """The classical cellular field (sin x cos y cos z, -cos x sin y cos z, 0),
    painted exactly (eight modes per nonzero component)."""
    base = amplitude * grid.box_length**3 / FOURIER_NORM / 8.0
    ex: dict[tuple[int, int, int], complex] = {}
    ey: dict[tuple[int, int, int], complex] = {}
    for sx in (1, -1):
        for sy in (1, -1):
            for sz in (1, -1):
                m = (sx, sy, sz)
                # sin factors contribute s/(i), cos factors 1
                ex[m] = base * sx / 1j
                ey[m] = -base * sy / 1j
    cx = SpectralField(grid, _paint(grid, {m: v / 2 for m, v in ex.items()}))
    cy = SpectralField(grid, _paint(grid, {m: v / 2 for m, v in ey.items()}))
    cz = SpectralField.zeros(grid)
    return VectorField((cx, cy, cz), div_free=True)


def tg_pressure(grid: TorusGrid, amplitude: float = 1.0) -> np.ndarray:
    """Closed-form (mean-zero) pressure samples for the cellular field."""
    a = 2.0 * math.pi / grid.box_length
    X, Y, Z = grid.mesh
    return (amplitude**2 / 16.0) * (np.cos(2 * a * X) + np.cos(2 * a * Y)) * (
        np.cos(2 * a * Z) + 2.0
    )


def scalar_band(
    grid: TorusGrid,
    seed: int,
    band: tuple[int, int],
    alpha: float = 0.0,
    amplitude: float = 1.0,
    salt: int = 7,
) -> SpectralField:
    """Cheap mean-zero scalar field with random phases on a closed dyadic band.

    No solenoidal projection and no per-band renormalisation; useful for
    bilinear checks that need many independent scalar samples.
    """
    r = grid.xi_abs
    lo, hi = math.ldexp(1.0, band[0]), math.ldexp(1.0, band[1])
    support = (r >= lo) & (r <= hi)
    with np.errstate(divide="ignore"):
        w = np.where(support, np.where(support, r, 1.0) ** (-(alpha + 1.5)), 0.0)
    mx, my, mz = grid.mode_cubes
    sign = _canonical_sign(mx, my, mz)
    canon = sign > 0
    kx = np.where(canon, mx, -mx)
    ky = np.where(canon, my, -my)
    kz = np.where(canon, mz, -mz)
    theta = 2.0 * math.pi * _mode_uniform(seed, kx, ky, kz, salt=salt)
    coeffs = amplitude * w * np.exp(1j * sign * theta)
    coeffs[0, 0, 0] = 0.0
    return SpectralField(grid, coeffs)


def _random_band(grid: TorusGrid, spec: SpectrumSpec, profile) -> VectorField:
    k_lo, k_hi = spec.band  # type: ignore[misc]
    window = dyadic.DyadicWindow.for_grid(grid)
    if k_lo < window.k_min or k_hi > window.k_max:
        raise SpectrumSpecError(
            f"band [{k_lo}, {k_hi}] exceeds the grid window "
            f"[{window.k_min}, {window.k_max}]"
        )
    r = grid.xi_abs
    lo, hi = math.ldexp(1.0, k_lo), math.ldexp(1.0, k_hi)
    support = (r >= lo) & (r <= hi)
    if spec.kind == "power-law":
        with np.errstate(divide="ignore"):
            w = np.where(support, r, 1.0) ** (-(spec.alpha + 1.5))
    else:
        w = np.ones_like(r)
    u = _random_phases(grid, np.where(support, w, 0.0), spec.seed)
    targets = {
        k: (
            spec.amplitude * math.ldexp(1.0, k) ** (-spec.alpha)
            if spec.kind == "power-law"
            else spec.amplitude
        )
        for k in range(k_lo, k_hi + 1)
    }
    u = _enforce_band_targets(u, targets, profile, sweeps=3)
    return u


def _random_phases(grid: TorusGrid, w: np.ndarray, seed: int) -> VectorField:
    """Leray projection of the field with amplitudes ``w`` and seeded Hermitian phases.

    A function of its own so that the index, phase and unprojected cubes are
    freed before the band-target sweeps, which set the generator's peak memory.
    """
    mx, my, mz = grid.mode_cubes
    sign = _canonical_sign(mx, my, mz)
    # canonical triple: the lexicographically positive representative
    canon = sign > 0
    kx = np.where(canon, mx, -mx)
    ky = np.where(canon, my, -my)
    kz = np.where(canon, mz, -mz)
    comps = []
    for axis in range(3):
        theta = 2.0 * math.pi * _mode_uniform(seed, kx, ky, kz, salt=axis + 1)
        coeffs = w * np.exp(1j * sign * theta)
        coeffs[0, 0, 0] = 0.0
        comps.append(SpectralField(grid, coeffs))
    return leray_project(VectorField(tuple(comps)))  # type: ignore[arg-type]


def _enforce_band_targets(
    u: VectorField, targets: dict[int, float], profile, sweeps: int
) -> VectorField:
    """Rescale radially until measured block amplitudes meet their targets.

    The correction multiplier blends per-band ratios through the squared
    partition weights; a radial scalar keeps the field solenoidal.
    """
    g = u.grid
    for _ in range(sweeps):
        ratios = {}
        for k, t in targets.items():
            m = norms._block_l2(u, k, profile)
            if m == 0.0:
                raise SpectrumSpecError(f"band {k} received no energy")
            ratios[k] = t / m
        num = np.zeros((g.n,) * 3)
        den = np.zeros((g.n,) * 3)
        for k, rk in ratios.items():
            w2 = dyadic._multiplier(g, "phi", k, profile) ** 2
            num += w2 * rk
            den += w2
        corr = np.where(den > 0, num / np.maximum(den, 1e-300), 1.0)
        u = u.map(lambda c: c.apply_multiplier(corr))
    return u


# ---------------------------------------------------------------------------
# forced steady solutions


@dataclass(frozen=True)
class PicardResult:
    u: VectorField
    f: VectorField
    s: float
    residual: float
    iterations: int
    update_norms: tuple[float, ...] = field(default_factory=tuple)


def picard_solve(
    f: VectorField,
    s: float,
    max_iter: int = 60,
    tol: float = 1e-12,
) -> PicardResult:
    """Small-data fixed point for the forced steady fractional system.

    Iterates u <- (-Delta)^(-s) P (f - u.grad u) from the Stokes solution
    u0 = (-Delta)^(-s) P f, with P the solenoidal projection.  There is no
    a-priori smallness constant: divergence is detected dynamically when
    the update norm grows three times in a row.
    """
    if not (0.5 <= s <= 1.0):
        raise PicardError(f"exponent s must lie in [1/2, 1], got {s}")
    if max_iter < 1:
        raise PicardError(f"max_iter must be at least 1, got {max_iter}")
    pf = leray_project(f)
    f_norm = pf.l2()
    if f_norm == 0.0:
        zero = VectorField.zeros(f.grid)
        return PicardResult(zero, f, s, 0.0, 1)
    u = _stokes(pf, s)
    # u.grad u of the current iterate feeds both its residual and the next update
    adv = products.advective_term(u, u)
    updates: list[float] = []
    grow = 0
    for it in range(1, max_iter + 1):
        rhs = leray_project(pf - adv)
        u_next = _stokes(rhs, s)
        upd = (u_next - u).l2()
        updates.append(upd)
        if len(updates) >= 2 and upd > updates[-2]:
            grow += 1
            if grow >= 3:
                raise PicardError(
                    f"update norm grew {grow} consecutive iterations; forcing too large"
                )
        else:
            grow = 0
        u = u_next
        adv = products.advective_term(u, u)
        res = _steady_residual(u, adv, pf, s) / f_norm
        if res <= tol:
            return PicardResult(u, f, s, res, it, tuple(updates))
    raise PicardError(f"no convergence to {tol} within {max_iter} iterations (last residual {res:.3e})")


def _stokes(rhs: VectorField, s: float) -> VectorField:
    out = rhs.map(lambda c: inverse_fractional_laplacian(c, s))
    return VectorField(out.components, div_free=True)


def _steady_residual(u: VectorField, adv: VectorField, pf: VectorField, s: float) -> float:
    res = u.map(lambda c: fractional_laplacian(c, s)) + leray_project(adv) - pf
    return res.l2()
