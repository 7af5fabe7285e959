"""Dyadic frequency calculus: smooth radial cutoffs, block and low-pass
operators, high-frequency tails, and Bernstein-inequality measurements.

The low-pass profile psi is 1 on [0, 1/2], 0 on [1, inf) and crosses over
through the classic exp(-1/t) smooth step, so the band profile
phi(r) = psi(r/2) - psi(r) is nonnegative with support in the open
annulus (1/2, 2) and phi(1) = 1.  Plateau and exterior values are taken
through exact branches, which makes every support statement about block
operators hold bit-exactly on the lattice: coefficients outside a block's
annulus are stored zeros, not small numbers.  One profile is fixed, the
exp-step of sharpness 1 (``DEFAULT_PROFILE``): it is named only in
``_multiplier`` and reported by its fingerprint.

Telescoping is structural: sum_{k=a..b} phi(2^-k r) collapses to
psi(2^-(b+1) r) - psi(2^-a r), so partitions of unity and the identity
S_k = sum_{l<k} Delta_l hold to rounding on every admissible lattice
frequency.

Every filter is written in one vocabulary.  A band (a, b) is the radial
symbol psi_b - psi_a, with psi_j = psi(2^-j |xi|), psi_-inf = 0 and
psi_+inf = 1; it telescopes to the blocks a .. b-1.  The low-pass S_m is
(-inf, m), the block Delta_l is (l, l+1), the tail above k is (k, +inf)
and the five-block neighbourhood of l is (l-2, l+3).  A filter is a
tuple of bands and acts by the product of their symbols (``band``).  psi
is exactly 0 or 1 on its plateaus, so a product of bands keeps the zero
set of the chained filters it stands for.

``_multiplier`` is the one place a symbol is evaluated.  It caches, per
grid and under a byte cap, the low-passes (-inf, j) and the one-level
blocks (k, k+1); the latter come from ``phi``, which equals
psi_{k+1} - psi_k bit for bit.  Every other band is composed from cached
low-passes on each call and is not kept.  Measured at n=64 on 2 vCPUs:
caching every band added about 10 MiB to the peak RSS of the dyadic and
paraproduct suites, and caching the low-passes alone (composing every
block) made the paraproduct suite about 7% slower.  A filter reads the
symbols at a field's ``active`` indices only (its support, when known and
small), so composing a band there costs the size of the support.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass

import numpy as np

from .errors import FieldError, WindowError
from .spectral import SpectralField, TorusGrid, _take, gradient

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


def _floor_log2(x: float) -> int:
    m, e = math.frexp(x)
    return e - 1


# ---------------------------------------------------------------------------
# band symbols and filters


def _multiplier(grid: TorusGrid, a: float, b: float, profile: DyadicProfile, at=None) -> np.ndarray:
    """The band symbol psi_b - psi_a (a < b) on the grid's lattice, or at the
    flat indices ``at`` (a field's ``active`` set) alone."""
    if a != -math.inf and b != a + 1:
        hi = 1.0 if b == math.inf else _multiplier(grid, -math.inf, b, profile, at)
        return hi - _multiplier(grid, -math.inf, a, profile, at)
    key = (profile.fingerprint(), a, b)
    cache = grid._mult_cache
    arr = cache.get(key)
    if arr is not None:
        return arr if at is None else _take(arr, at)
    if a == -math.inf:
        arr = profile.psi(grid.xi_abs * math.ldexp(1.0, -b))
    else:
        arr = profile.phi(grid.xi_abs * math.ldexp(1.0, -a))
    nbytes = arr.nbytes
    while cache and grid._mult_cache_bytes + nbytes > _CACHE_BYTES_CAP:
        oldest = next(iter(cache))
        grid._mult_cache_bytes -= cache.pop(oldest).nbytes
    cache[key] = arr
    grid._mult_cache_bytes += nbytes
    return arr if at is None else _take(arr, at)


def band(u, bands):
    """u (scalar or vector field) times the product of the symbols of ``bands``.

    The product symbol is evaluated at each component's ``active`` set
    only, and the filtered field keeps the modes where the product is
    nonzero.
    """

    def apply(c: SpectralField) -> SpectralField:
        sym = None
        for a, b in bands:
            m = _multiplier(c.grid, a, b, DEFAULT_PROFILE, c.active)
            sym = m if sym is None else sym * m
        return c.apply_multiplier(sym)

    return apply(u) if isinstance(u, SpectralField) else u.map(apply)


def block(u, k: int):
    """Dyadic band filter at level k (annulus 2^(k-1) <= |xi| <= 2^(k+1))."""
    return band(u, ((k, k + 1),))


def lowpass(u, k: int):
    """Smooth low-pass keeping |xi| < 2^k."""
    return band(u, ((-math.inf, k),))


def tail(u, k: int):
    """High-frequency part, the symbol 1 - psi_k; complementary to lowpass(u, k)."""
    return band(u, ((k, math.inf),))


def tilde_block(u: SpectralField, l: int) -> SpectralField:
    """Five-block neighbourhood sum over levels l-2 .. l+2."""
    at, c = u.active, u.values
    acc = c * _multiplier(u.grid, l - 2, l - 1, DEFAULT_PROFILE, at)
    for lp in range(l - 1, l + 3):
        acc += _multiplier(u.grid, lp, lp + 1, DEFAULT_PROFILE, at) * c
    return u.with_values(acc)


def annulus_audit(p: SpectralField, l: int) -> tuple[float, float, float, float]:
    """(lo, hi, max inside, max outside) of |p_hat| on {lo <= |xi| < hi}.

    The annulus lo = 2^(l-2), hi = (9/8) 2^(l+1) holds the spectrum of a
    product summand Delta_l f * S_m g with m <= l-2.
    """
    lo = math.ldexp(1.0, l - 2)
    hi = 1.125 * math.ldexp(1.0, l + 1)
    r = _take(p.grid.xi_abs, p.active)
    inside = (r >= lo) & (r < hi)
    mag = np.abs(p.values)
    max_in = float(np.max(mag, where=inside, initial=0.0))
    return lo, hi, max_in, float(np.max(mag, where=~inside, initial=0.0))


# ---------------------------------------------------------------------------
# Bernstein measurements


@dataclass(frozen=True)
class BernsteinReport:
    k: int
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


def bernstein_check(u: SpectralField, p: float, q: float, k: int) -> BernsteinReport:
    """Measure band-limited norm ratios against the 2^k scaling laws.

    The spectral support must lie in the annulus 2^(k-1) <= |xi| <= 2^(k+1);
    containment is verified on the exact nonzero-coefficient set.  For
    p = q = 2 the two-sided gradient bound with the lattice constants
    min|xi|, max|xi| over the support is checked exactly.
    """
    from . import norms

    if q < p:
        raise FieldError("Bernstein ratios require q >= p")
    radii = u.nonzero_radii()
    if not radii.size:
        raise FieldError("zero field has no Bernstein scale")
    rmin, rmax = float(radii.min()), float(radii.max())
    if not (math.ldexp(1.0, k - 1) <= rmin and rmax <= math.ldexp(1.0, k + 1)):
        raise FieldError(
            f"support [{rmin:.3g}, {rmax:.3g}] not contained in claimed annulus at k={k}"
        )

    norm_p, norm_q = norms._lp_norms(u, (p, q))
    grad_norm_q = norms.lp_norm(gradient(u), q)

    lam = math.ldexp(1.0, k)
    ratio_plain = norm_q / (lam ** (3.0 / p - 3.0 / q) * norm_p) if norm_p else math.nan
    ratio_grad = (
        grad_norm_q / (lam ** (1.0 + 3.0 / p - 3.0 / q) * norm_p) if norm_p else math.nan
    )

    # exact two-sided L^2 bound from the support radii
    l2 = u.l2()
    grad_l2 = math.sqrt(norms.dirichlet(u))
    slack = 1e-12 * max(l2 * rmax, 1.0e-300)
    lower_ok = rmin * l2 <= grad_l2 + slack
    upper_ok = grad_l2 <= rmax * l2 + slack

    return BernsteinReport(
        k=k,
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
