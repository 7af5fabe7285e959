"""Dyadic frequency calculus: smooth radial cutoffs, block and low-pass
operators, high-frequency tails, and Bernstein-inequality measurements.

The low-pass profile psi is 1 on [0, 1/2], 0 on [1, inf) and crosses over
through the classic exp(-1/t) smooth step, so the band profile
phi(r) = psi(r/2) - psi(r) is nonnegative with support in the open
annulus (1/2, 2) and phi(1) = 1.  Plateau and exterior values are taken
through exact branches, which makes every support statement about block
operators hold bit-exactly on the lattice: coefficients outside a block's
annulus are stored zeros, not small numbers.

Telescoping is structural: sum_{k=a..b} phi(2^-k r) collapses to
psi(2^-(b+1) r) - psi(2^-a r), so partitions of unity and the identity
S_k = sum_{l<k} Delta_l hold to rounding on every admissible lattice
frequency.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass

import numpy as np

from .errors import FieldError, WindowError
from .spectral import SpectralField, TorusGrid

_CACHE_BYTES_CAP = 512 * 1024 * 1024


@dataclass(frozen=True)
class DyadicProfile:
    """Radial cutoff pair (psi, phi) with a recorded transition shape.

    ``sharpness`` scales the exponent of the exp(-a/t) transition; it is
    a free reproducibility parameter reported with every run.
    """

    sharpness: float = 1.0

    def psi(self, r: np.ndarray | float) -> np.ndarray:
        r = np.asarray(r, dtype=np.float64)
        out = np.zeros(r.shape)
        out[r <= 0.5] = 1.0
        mid = (r > 0.5) & (r < 1.0)
        if mid.any():
            t = 2.0 * (r[mid] - 0.5)
            hi = np.exp(-self.sharpness / t)
            lo = np.exp(-self.sharpness / (1.0 - t))
            out[mid] = lo / (hi + lo)
        return out

    def phi(self, r: np.ndarray | float) -> np.ndarray:
        return self.psi(np.asarray(r, dtype=np.float64) / 2.0) - self.psi(r)

    def fingerprint(self) -> str:
        cached = self.__dict__.get("_fingerprint")
        if cached is None:
            probe = self.psi(np.linspace(0.0, 2.0, 41))
            h = hashlib.sha256()
            h.update(repr(("exp-step", float(self.sharpness))).encode())
            h.update(probe.tobytes())
            cached = h.hexdigest()[:16]
            object.__setattr__(self, "_fingerprint", cached)
        return cached


DEFAULT_PROFILE = DyadicProfile()


@dataclass(frozen=True)
class DyadicWindow:
    """Integer dyadic index range [k_min, k_max] admissible on a grid.

    Reconstruction over the window is exact for mean-zero fields whose
    spectrum lies in the band 2^k_min <= |xi| <= 2^k_max.
    """

    k_min: int
    k_max: int

    def __post_init__(self):
        if self.k_min > self.k_max:
            raise WindowError(f"empty dyadic window [{self.k_min}, {self.k_max}]")

    @classmethod
    def for_grid(cls, grid: TorusGrid) -> "DyadicWindow":
        k_min = _floor_log2(grid.xi_min)
        k_max = _floor_log2(grid.nyquist) - 1
        if k_min > k_max:
            raise WindowError(
                f"grid n={grid.n}, L={grid.box_length} admits no dyadic window"
            )
        return cls(k_min, k_max)

    def indices(self) -> range:
        return range(self.k_min, self.k_max + 1)

    def __len__(self) -> int:
        return self.k_max - self.k_min + 1

    def __contains__(self, k: int) -> bool:
        return self.k_min <= k <= self.k_max

    def guarded(self, guard: int) -> "DyadicWindow":
        """The sub-window with ``guard`` empty octaves at each edge."""
        if self.k_min + guard > self.k_max - guard:
            raise WindowError(
                f"window [{self.k_min}, {self.k_max}] too small for guard {guard}"
            )
        return DyadicWindow(self.k_min + guard, self.k_max - guard)

    def band_limits(self) -> tuple[float, float]:
        return math.ldexp(1.0, self.k_min), math.ldexp(1.0, self.k_max)


def _floor_log2(x: float) -> int:
    m, e = math.frexp(x)
    return e - 1


# ---------------------------------------------------------------------------
# cached multipliers


def _multiplier(grid: TorusGrid, kind: str, k: int, profile: DyadicProfile) -> np.ndarray:
    key = (profile.fingerprint(), kind, k)
    cache = grid._mult_cache
    arr = cache.get(key)
    if arr is not None:
        return arr
    scale = math.ldexp(1.0, -k)
    r = grid.xi_abs * scale
    arr = profile.phi(r) if kind == "phi" else profile.psi(r)
    nbytes = arr.nbytes
    while cache and grid._mult_cache_bytes + nbytes > _CACHE_BYTES_CAP:
        oldest = next(iter(cache))
        grid._mult_cache_bytes -= cache.pop(oldest).nbytes
    cache[key] = arr
    grid._mult_cache_bytes += nbytes
    return arr


def block(u: SpectralField, k: int, profile: DyadicProfile = DEFAULT_PROFILE) -> SpectralField:
    """Dyadic band filter at level k (annulus 2^(k-1) <= |xi| <= 2^(k+1))."""
    return u.apply_multiplier(_multiplier(u.grid, "phi", k, profile))


def lowpass(u: SpectralField, k: int, profile: DyadicProfile = DEFAULT_PROFILE) -> SpectralField:
    """Smooth low-pass keeping |xi| < 2^k."""
    return u.apply_multiplier(_multiplier(u.grid, "psi", k, profile))


def tail(u: SpectralField, k: int, profile: DyadicProfile = DEFAULT_PROFILE) -> SpectralField:
    """High-frequency part u - lowpass(u, k); complementary by construction."""
    return u.with_coeffs(u.coeffs - lowpass(u, k, profile).coeffs)


def tilde_block(u: SpectralField, l: int, profile: DyadicProfile = DEFAULT_PROFILE) -> SpectralField:
    """Five-block neighbourhood sum over levels l-2 .. l+2."""
    acc = block(u, l - 2, profile).coeffs.copy()
    for lp in range(l - 1, l + 3):
        acc += _multiplier(u.grid, "phi", lp, profile) * u.coeffs
    return u.with_coeffs(acc)


def block_vector(u, k: int, profile: DyadicProfile = DEFAULT_PROFILE):
    return u.map(lambda c: block(c, k, profile))


def lowpass_vector(u, k: int, profile: DyadicProfile = DEFAULT_PROFILE):
    return u.map(lambda c: lowpass(c, k, profile))


def tail_vector(u, k: int, profile: DyadicProfile = DEFAULT_PROFILE):
    return u.map(lambda c: tail(c, k, profile))


# ---------------------------------------------------------------------------
# Bernstein measurements


@dataclass(frozen=True)
class BernsteinReport:
    k: int
    region: str
    p: float
    q: float
    norm_p: float
    norm_q: float
    grad_norm_q: float
    ratio_plain: float
    ratio_grad: float
    l2_lower_ok: bool
    l2_upper_ok: bool
    support_min: float
    support_max: float


def bernstein_check(
    u: SpectralField, p: float, q: float, k: int, region: str = "annulus"
) -> BernsteinReport:
    """Measure band-limited norm ratios against the 2^k scaling laws.

    ``region`` states the claimed spectral support ('annulus' for
    2^(k-1) <= |xi| <= 2^(k+1), 'ball' for |xi| <= 2^k); containment is
    verified on the exact nonzero-coefficient set.  For p = q = 2 the
    two-sided gradient bound with the lattice constants min|xi|, max|xi|
    over the support is checked exactly.
    """
    if q < p:
        raise FieldError("Bernstein ratios require q >= p")
    g = u.grid
    nz = u.coeffs != 0
    if not nz.any():
        raise FieldError("zero field has no Bernstein scale")
    radii = g.xi_abs[nz]
    rmin, rmax = float(radii.min()), float(radii.max())
    lo, hi = math.ldexp(1.0, k - 1), math.ldexp(1.0, k + 1)
    if region == "annulus":
        ok = lo <= rmin and rmax <= hi
    elif region == "ball":
        ok = rmax <= math.ldexp(1.0, k)
    else:
        raise FieldError(f"unknown support region {region!r}")
    if not ok:
        raise FieldError(
            f"support [{rmin:.3g}, {rmax:.3g}] not contained in claimed {region} at k={k}"
        )

    dV = g.cell_volume
    samples = u.samples()
    if not u.real_valued:
        samples = samples.real
    norm_p = _phys_lp(samples, p, dV)
    norm_q = _phys_lp(samples, q, dV)
    grad_samples = _grad_magnitude(u)
    grad_norm_q = _phys_lp(grad_samples, q, dV)

    lam = math.ldexp(1.0, k)
    ratio_plain = norm_q / (lam ** (3.0 / p - 3.0 / q) * norm_p) if norm_p else math.nan
    ratio_grad = (
        grad_norm_q / (lam ** (1.0 + 3.0 / p - 3.0 / q) * norm_p) if norm_p else math.nan
    )

    # exact two-sided L^2 bound from the support radii
    l2 = u.l2()
    grad_l2 = math.sqrt(float(np.sum(g.xi_sq[nz] * np.abs(u.coeffs[nz]) ** 2)) * g.spectral_cell)
    slack = 1e-12 * max(l2 * rmax, 1.0e-300)
    lower_ok = rmin * l2 <= grad_l2 + slack
    upper_ok = grad_l2 <= rmax * l2 + slack

    return BernsteinReport(
        k=k,
        region=region,
        p=p,
        q=q,
        norm_p=norm_p,
        norm_q=norm_q,
        grad_norm_q=grad_norm_q,
        ratio_plain=ratio_plain,
        ratio_grad=ratio_grad,
        l2_lower_ok=lower_ok,
        l2_upper_ok=upper_ok,
        support_min=rmin,
        support_max=rmax,
    )


def _phys_lp(samples: np.ndarray, p: float, dV: float) -> float:
    if math.isinf(p):
        return float(np.max(np.abs(samples)))
    return float(np.sum(np.abs(samples) ** p) * dV) ** (1.0 / p)


def _grad_magnitude(u: SpectralField) -> np.ndarray:
    from .spectral import gradient

    g = gradient(u)
    acc = np.zeros((u.grid.n,) * 3)
    for c in g.components:
        s = c.samples()
        if not c.real_valued:
            s = s.real
        acc += s * s
    return np.sqrt(acc)
