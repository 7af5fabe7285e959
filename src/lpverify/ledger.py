"""Per-level bookkeeping of the trilinear advective form and all the named
quantities in its frequency-localized decomposition.

For a mean-zero, divergence-free field u and a level k, the pairing of
u.grad u against the high-frequency tail splits as

    tri(u, u, tail) = I1 + I2 + I3,
    I1 = tri(S_k u, S_k u, tail),   I2 = tri(tail, S_k u, tail),
    I3 = tri(u, tail, tail) = 0     (skew symmetry),

and each advecting factor is Bony-split against the tail.  Support
disjointness forces I11 = I21 = I22 = 0 identically on the lattice, the
surviving pieces I12 and I13 collapse to a few near-diagonal level pairs,
and the resonant piece I23 is partitioned at the split index [theta k]
into a retained part I231 and a remainder I232 whose size decays in k.
The same decomposition with the advected low-pass seen from above gives
the J-terms and their removed low-frequency parts.

Here tri(x, y, z) always means  integral of x . grad y . z dx,
with x advecting, z pairing.  Block sums are telescoped into psi-band
symbols and every sum over levels runs in a fixed ascending order, so
ledgers are bit-deterministic.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from . import dyadic, norms, products
from .dyadic import DEFAULT_PROFILE, DyadicProfile, DyadicWindow
from .errors import FieldError, WindowError
from .spectral import SpectralField, VectorField, gradient

__all__ = [
    "TrilinearLedger",
    "DecayFit",
    "DecaySeries",
    "trilinear",
    "ledger_classical",
    "ledger_fractional_low",
    "ledger_fractional_high",
    "remainder_decay",
    "support_audit",
    "SupportAuditReport",
    "diagnostics",
    "DiagnosticsReport",
    "energy_balance_residual",
    "EnergyBalanceRow",
    "theta_for",
    "split_index",
    "ledger_scale",
    "snc_chains",
    "fit_decay",
]

trilinear = products.trilinear


def as_fraction(s) -> Fraction:
    """Exact rational reading of an exponent given as str/int/Fraction/float.

    Floats go through their shortest decimal repr, so CLI-style inputs
    like 0.7 mean exactly 7/10.
    """
    if isinstance(s, Fraction):
        return s
    if isinstance(s, (int, str)):
        return Fraction(s)
    return Fraction(str(float(s)))


def theta_for(s) -> Fraction:
    """Split parameter theta(s) = (4s - 2)/(3 - 2s) for the high-frequency path."""
    sf = as_fraction(s)
    if not (Fraction(1, 2) <= sf < Fraction(5, 6)):
        raise FieldError(f"theta(s) is defined for 1/2 <= s < 5/6, got {sf}")
    return (4 * sf - 2) / (3 - 2 * sf)


def split_index(theta, k: int) -> int:
    """[theta k] with floor toward -infinity, exact in rational arithmetic."""
    return math.floor(as_fraction(theta) * k)


def ledger_scale(u: VectorField) -> float:
    """Norm product bounding every trilinear term: ||u||_inf ||grad u||_2 ||u||_2."""
    return norms.lp_norm(u, math.inf) * math.sqrt(norms.dirichlet(u)) * u.l2()


@dataclass(frozen=True)
class TrilinearLedger:
    k: int
    theta: float
    s: float | None
    terms: dict[str, float]
    scale: float
    certificates: dict[str, float] = field(default_factory=dict)


# ---------------------------------------------------------------------------
# workspace: memoized filtered fields and their physical samples
#
# A filter is a tuple of bands; band (a, b) is the radial symbol psi_b - psi_a,
# psi_j = psi(2^-j |xi|), psi_-inf = 0, psi_+inf = 1.  It telescopes to the
# blocks a .. b-1: S_m is (-inf, m), Delta_l is (l, l+1), the tail is (k, +inf)
# and the five-block neighbourhood of l is (l-2, l+3).  psi is exactly 0 or 1
# on its plateaus, so products of bands keep the zero sets of chained filters.


def _band(a, b) -> tuple:
    return ((a, b),)


def _low(m: int) -> tuple:  # S_m
    return _band(-math.inf, m)


def _block(l: int) -> tuple:  # Delta_l
    return _band(l, l + 1)


_WORKSPACE_BYTES = int(os.environ.get("LPVERIFY_BUDGET_BYTES", 0)) // 3 or 1280 * 1024**2


class _Workspace:
    """Filtered-field cache for one (u, k) ledger evaluation.

    All fields here are band-limited inside the grid window, so every
    cubic pairing is alias-free on the native lattice (axis bandwidth sums
    stay below n).  Physical samples and gradients are memoized per filter
    under a byte budget with oldest-first eviction; spectral fields are
    rebuilt on demand (multiplier work is cheap next to transforms).
    """

    def __init__(self, u: VectorField, k: int, profile: DyadicProfile):
        self.u = u
        self.k = k
        self.profile = profile
        self.grid = u.grid
        self.window = DyadicWindow.for_grid(self.grid)
        r = max(c.band_radius() for c in u.components)
        if r > math.ldexp(1.0, self.window.k_max):
            raise WindowError(
                f"field band radius {r:.3g} exceeds the window top 2^{self.window.k_max}"
            )
        if not all(c.mean_zero for c in u.components):
            raise FieldError("ledger fields must be mean-zero")
        # highest level whose block can act on this field
        self.l_top = dyadic._floor_log2(r) + 1 if r > 0 else self.window.k_min
        self.l_bot = self.window.k_min
        self.low = _low(k)
        self.tail = _band(k, math.inf)
        self._fields: dict[tuple, VectorField] = {}
        self._phys: dict[tuple, list] = {}
        self._grad: dict[tuple, list] = {}
        self._zero: dict[tuple, bool] = {}
        self._bytes = 0

    def _charge(self, arrays) -> None:
        for group in arrays:
            for a in group if isinstance(group, list) else [group]:
                if a is not None:
                    self._bytes += a.nbytes

    def _evict(self) -> None:
        while self._bytes > _WORKSPACE_BYTES and (self._phys or self._grad):
            store = self._grad if self._grad else self._phys
            token = next(iter(store))
            dropped = store.pop(token)
            for group in dropped:
                for a in group if isinstance(group, list) else [group]:
                    if a is not None:
                        self._bytes -= a.nbytes

    # -- filtered fields ----------------------------------------------------

    def field(self, filt: tuple) -> VectorField:
        """u times the product of the band symbols in ``filt`` (u itself for ())."""
        if not filt:
            return self.u
        out = self._fields.get(filt)
        if out is None:
            sym = 1.0
            for a, b in filt:
                hi = 1.0 if b == math.inf else self._psi(b)
                sym = sym * (hi if a == -math.inf else hi - self._psi(a))
            out = self.u.map(lambda c: c.apply_multiplier(sym))
            # single bands are kept; products of bands are cheap to rebuild
            # and would dominate the footprint
            if len(filt) == 1:
                self._fields[filt] = out
        return out

    def _psi(self, j: int) -> np.ndarray:
        return dyadic._multiplier(self.grid, "psi", j, self.profile)

    def is_zero(self, filt: tuple) -> bool:
        flag = self._zero.get(filt)
        if flag is None:
            flag = all(c.max_abs_coeff() == 0.0 for c in self.field(filt).components)
            self._zero[filt] = flag
        return flag

    def phys(self, filt: tuple) -> list:
        out = self._phys.get(filt)
        if out is None:
            out = [
                None if c.max_abs_coeff() == 0.0 else c.samples()
                for c in self.field(filt).components
            ]
            self._phys[filt] = out
            self._charge(out)
            self._evict()
        return out

    def grad_phys(self, filt: tuple) -> list:
        out = self._grad.get(filt)
        if out is None:
            out = []
            for c in self.field(filt).components:
                if c.max_abs_coeff() == 0.0:
                    out.append([None, None, None])
                else:
                    out.append([gc.samples() for gc in gradient(c).components])
            self._grad[filt] = out
            self._charge(out)
            self._evict()
        return out

    # -- the elementary integral --------------------------------------------

    def tri(self, xf: tuple, yf: tuple, zf: tuple) -> float:
        """integral of X . grad Y . Z dx over the torus, memoized factors."""
        # canonical band order, so a filter has one memo key however it was written
        xf, yf, zf = (tuple(sorted(f)) for f in (xf, yf, zf))
        if self.is_zero(xf) or self.is_zero(yf) or self.is_zero(zf):
            return 0.0
        acc = products._contract(self.phys(xf), self.grad_phys(yf), self.phys(zf))
        return acc * self.grid.cell_volume

    # -- resonant per-level integrals ---------------------------------------

    def resonant_terms(self) -> dict[int, float]:
        """c_l = tri(T_l, S_k u, D_l) per level; D_l, T_l: block l, blocks l-2..l+2 of the tail."""
        out = {}
        for l in range(self.k - 1, self.l_top + 1):
            out[l] = self.tri(_band(l - 2, l + 3) + self.tail, self.low, _block(l) + self.tail)
        return out


# ---------------------------------------------------------------------------
# classical ledger


def _i12_expanded(ws: _Workspace) -> float:
    k = ws.k
    total = 0.0
    for l in range(k - 1, k + 3):
        for lp in range(l - 2, k):
            total += ws.tri(_low(l - 2) + ws.low, _block(lp), _block(l) + ws.tail)
    return total


def _i13(ws: _Workspace) -> float:
    k = ws.k
    total = 0.0
    for l in range(k - 3, k + 1):
        total += ws.tri(_block(l) + ws.low, ws.low, _band(l - 2, l + 3) + ws.tail)
    return total


def _vanishing_terms(ws: _Workspace) -> tuple[float, float, float]:
    k = ws.k
    lo = min(ws.l_bot - 1, k - 2)
    hi = ws.l_top + 1
    i11 = i21 = i22 = 0.0
    for l in range(lo, hi + 1):
        i11 += ws.tri(_block(l) + ws.low, ws.low, _low(l - 2) + ws.tail)
        i21 += ws.tri(_block(l) + ws.tail, ws.low, _low(l - 2) + ws.tail)
        i22 += ws.tri(_low(l - 2) + ws.tail, ws.low, _block(l) + ws.tail)
    return i11, i21, i22


def ledger_classical(
    u: VectorField,
    k: int,
    theta=Fraction(1, 2),
    profile: DyadicProfile = DEFAULT_PROFILE,
) -> TrilinearLedger:
    """Every named term of the level-k trilinear decomposition.

    Requires u mean-zero, divergence-free, band-limited inside the grid
    window.  theta in (0,1) sets the resonant split index [theta k].
    """
    theta = as_fraction(theta)
    if not (0 < theta < 1):
        raise FieldError(f"theta must lie in (0, 1), got {theta}")
    if not u.div_free:
        raise FieldError("ledger_classical expects a certified divergence-free field")
    ws = _Workspace(u, k, profile)
    terms: dict[str, float] = {}

    terms["I1"] = ws.tri(ws.low, ws.low, ws.tail)
    terms["I2"] = ws.tri(ws.tail, ws.low, ws.tail)
    terms["I3"] = ws.tri((), ws.tail, ws.tail)
    terms["I11"], terms["I21"], terms["I22"] = _vanishing_terms(ws)
    terms["I12"] = _i12_expanded(ws)
    terms["I13"] = _i13(ws)

    c_l = ws.resonant_terms()
    split = split_index(theta, k)
    terms["I23"] = sum(c_l[l] for l in sorted(c_l))
    terms["I231"] = sum(c_l[l] for l in sorted(c_l) if l <= split)
    terms["I232"] = sum(c_l[l] for l in sorted(c_l) if l > split)

    half = split_index(Fraction(1, 2), k)
    terms["snc_rhs_1"] = terms["I12"]
    terms["snc_rhs_2"] = terms["I13"]
    terms["snc_rhs_3"] = sum(c_l[l] for l in sorted(c_l) if l <= half)

    total = ws.tri((), (), ws.tail)
    terms["recon_residual"] = abs(
        total - (terms["I12"] + terms["I13"] + terms["I231"] + terms["I232"])
    )
    return TrilinearLedger(
        k=k, theta=float(theta), s=None, terms=terms, scale=ledger_scale(u)
    )


# ---------------------------------------------------------------------------
# fractional paths


def ledger_fractional_low(
    u: VectorField,
    k: int,
    s,
    profile: DyadicProfile = DEFAULT_PROFILE,
) -> TrilinearLedger:
    """Low-frequency localization ledger for 5/6 <= s < 1.

    The decomposition itself never references s, so the terms coincide
    with the classical ledger at theta = 1/2; what changes is the decay
    exponent of the remainder and the well-definedness certificates
    recorded alongside (negative-order norms of the stress and of the
    tail gradient, and the pressure bound).
    """
    sf = as_fraction(s)
    if not (Fraction(5, 6) <= sf < 1):
        raise FieldError(f"fractional-low path needs 5/6 <= s < 1, got {sf}")
    base = ledger_classical(u, k, theta=Fraction(1, 2), profile=profile)
    sv = float(sf)
    sigma = 2.0 * sv - 1.5
    certs: dict[str, float] = {}
    stress_max = 0.0
    for i in range(3):
        for j in range(i, 3):
            t = products.product(u.components[i], u.components[j])
            stress_max = max(stress_max, norms.sobolev_norm(t, sigma))
    certs["stress_sobolev_max"] = stress_max
    certs["tail_grad_negative_order"] = _tail_grad_norm(u, k, 1.5 - 2.0 * sv, profile)
    pressure = products.pressure_from_velocity(u)
    certs["pressure_sobolev"] = norms.sobolev_norm(pressure, sigma)
    certs["hs_norm"] = norms.sobolev_norm(u, sv)
    return TrilinearLedger(
        k=k, theta=base.theta, s=sv, terms=dict(base.terms), scale=base.scale,
        certificates=certs,
    )


def _tail_grad_norm(u: VectorField, k: int, order: float, profile) -> float:
    """Block-sum norm of grad(tail) at the given regularity, levels >= k."""
    window = DyadicWindow.for_grid(u.grid)
    tail = dyadic.tail_vector(u, k, profile)
    total = 0.0
    for l in range(k, window.k_max + 2):
        b = dyadic.block_vector(tail, l, profile)
        gsq = 0.0
        for c in b.components:
            gsq += norms.dirichlet(c)
        total += (math.ldexp(1.0, l) ** order) ** 2 * gsq
    return math.sqrt(total)


def ledger_fractional_high(
    u: VectorField,
    k: int,
    s,
    profile: DyadicProfile = DEFAULT_PROFILE,
) -> TrilinearLedger:
    """High-frequency localization ledger for 1/2 <= s < 5/6.

    Pairs the advective form against the low-pass instead of the tail:
    J1, J2, J3 mirror I12, I13, I23, and each is split into a removed
    low-frequency part (at split index [theta(s) k], [k/2], [k/2]
    respectively) plus a retained high part.  At s = 1/2 the formula
    theta = 0 turns the first split into the fixed level-0 cut.
    """
    sf = as_fraction(s)
    if not (Fraction(1, 2) <= sf < Fraction(5, 6)):
        raise FieldError(f"fractional-high path needs 1/2 <= s < 5/6, got {sf}")
    theta = theta_for(sf)
    if not u.div_free:
        raise FieldError("ledger_fractional_high expects a divergence-free field")
    ws = _Workspace(u, k, profile)
    m1 = split_index(theta, k)
    m2 = split_index(Fraction(1, 2), k)
    terms: dict[str, float] = {}

    terms["J1"] = _i12_expanded(ws)
    j1_low = 0.0
    for l in range(k - 1, k + 3):
        for lp in range(l - 2, k):
            j1_low += ws.tri(_low(l - 2) + _low(m1), _block(lp), _block(l) + ws.tail)
    terms["J1_low"] = j1_low
    j1_high = 0.0
    if m1 <= k - 1:
        for l in range(k - 1, k + 3):
            for lp in range(l - 2, k):
                j1_high += ws.tri(_low(l - 2) + _band(m1, k), _block(lp), _block(l) + ws.tail)
    terms["J1_high"] = j1_high

    terms["J2"] = _i13(ws)
    j2_low = j2_high = 0.0
    for l in range(k - 3, k + 1):
        j2_low += ws.tri(_block(l) + ws.low, _low(m2), _band(l - 2, l + 3) + ws.tail)
        if m2 <= k - 1:
            j2_high += ws.tri(_block(l) + ws.low, _band(m2, k), _band(l - 2, l + 3) + ws.tail)
    terms["J2_low"], terms["J2_high"] = j2_low, j2_high

    c_l = ws.resonant_terms()
    terms["J3"] = sum(c_l[l] for l in sorted(c_l))
    j3_low = j3_high = 0.0
    for l in sorted(c_l):
        j3_low += ws.tri(_band(l - 2, l + 3) + ws.tail, _low(m2), _block(l) + ws.tail)
        if m2 <= k - 1:
            j3_high += ws.tri(_band(l - 2, l + 3) + ws.tail, _band(m2, k), _block(l) + ws.tail)
    terms["J3_low"], terms["J3_high"] = j3_low, j3_high

    total = ws.tri((), ws.low, ())
    terms["recon_residual"] = abs(total - (terms["J1"] + terms["J2"] + terms["J3"]))
    return TrilinearLedger(
        k=k, theta=float(theta), s=float(sf), terms=terms, scale=ledger_scale(u)
    )


# ---------------------------------------------------------------------------
# decay series


@dataclass(frozen=True)
class DecayFit:
    slope: float
    intercept: float
    rms_residual: float
    npoints: int
    slope_stderr: float = math.inf

    def slope_band(self, width: float = 2.0) -> tuple[float, float]:
        """Confidence band: slope +/- width standard errors."""
        return self.slope - width * self.slope_stderr, self.slope + width * self.slope_stderr


def fit_decay(points, fit_range: tuple[int, int] | None = None) -> DecayFit:
    """Least-squares slope of log2|value| against the level index.

    Zero values are dropped; at least 4 usable points are required.
    """
    ks, logs = [], []
    for k, v in points:
        if fit_range is not None and not (fit_range[0] <= k <= fit_range[1]):
            continue
        if v != 0.0 and math.isfinite(v):
            ks.append(float(k))
            logs.append(math.log2(abs(v)))
    if len(ks) < 4:
        raise FieldError(f"decay fit needs >= 4 usable points, got {len(ks)}")
    A = np.vstack([np.asarray(ks), np.ones(len(ks))]).T
    sol, *_ = np.linalg.lstsq(A, np.asarray(logs), rcond=None)
    resid = np.asarray(logs) - A @ sol
    npts = len(ks)
    sxx = float(np.sum((np.asarray(ks) - np.mean(ks)) ** 2))
    stderr = (
        math.sqrt(float(np.sum(resid**2)) / max(npts - 2, 1) / sxx)
        if sxx > 0
        else math.inf
    )
    return DecayFit(
        slope=float(sol[0]),
        intercept=float(sol[1]),
        rms_residual=float(np.sqrt(np.mean(resid**2))),
        npoints=npts,
        slope_stderr=stderr,
    )


@dataclass(frozen=True)
class DecaySeries:
    term: str
    parameter: float
    points: tuple[tuple[int, float], ...]
    fit: DecayFit | None
    fit_range: tuple[int, int] | None
    predicted_exponent: float | None
    slack: float
    slope_ok: bool | None
    top_value: float | None = None
    top_threshold: float | None = None
    top_ok: bool | None = None


_DECAY_SLACK = 0.25


def remainder_decay(
    u: VectorField,
    term: str,
    k_range,
    theta_or_s=Fraction(1, 2),
    profile: DyadicProfile = DEFAULT_PROFILE,
    scale: float | None = None,
) -> DecaySeries:
    """Measure the level dependence of a remainder/removed term.

    term 'I232': resonant remainder beyond [theta k]; the fitted slope is
    compared with the 3/2 - 2 theta floor (minus slack).  term
    'fractional-remainder': the same integral split at [k/2], compared
    with 5/2 - 2s.  terms 'J1_low'/'J2_low'/'J3_low': removed low parts of
    the high-frequency path; asserted to fall below 1e-6 * scale at the
    top of the range.
    """
    k_list = sorted(k_range)
    if not k_list:
        raise WindowError("empty level range")
    pts: list[tuple[int, float]] = []
    scale = ledger_scale(u) if scale is None else scale

    if term in ("I232", "fractional-remainder"):
        if term == "I232":
            theta = as_fraction(theta_or_s)
            predicted = 1.5 - 2.0 * float(theta)
        else:
            s = as_fraction(theta_or_s)
            theta = Fraction(1, 2)
            predicted = 2.5 - 2.0 * float(s)
        for k in k_list:
            ws = _Workspace(u, k, profile)
            c_l = ws.resonant_terms()
            split = split_index(theta, k)
            pts.append((k, sum(v for l, v in sorted(c_l.items()) if l > split)))
        fit = fit_decay(pts)
        return DecaySeries(
            term=term,
            parameter=float(theta_or_s if term == "I232" else as_fraction(theta_or_s)),
            points=tuple(pts),
            fit=fit,
            fit_range=(k_list[0], k_list[-1]),
            predicted_exponent=predicted,
            slack=_DECAY_SLACK,
            slope_ok=fit.slope >= predicted - _DECAY_SLACK,
        )

    if term in ("J1_low", "J2_low", "J3_low"):
        s = as_fraction(theta_or_s)
        for k in k_list:
            led = ledger_fractional_high(u, k, s, profile)
            pts.append((k, led.terms[term]))
        top_value = abs(pts[-1][1])
        threshold = 1e-6 * scale
        fit = None
        try:
            fit = fit_decay(pts)
        except FieldError:
            pass
        return DecaySeries(
            term=term,
            parameter=float(s),
            points=tuple(pts),
            fit=fit,
            fit_range=(k_list[0], k_list[-1]),
            predicted_exponent=None,
            slack=_DECAY_SLACK,
            slope_ok=None,
            top_value=top_value,
            top_threshold=threshold,
            top_ok=top_value <= threshold,
        )

    raise FieldError(f"unknown decay term {term!r}")


# ---------------------------------------------------------------------------
# support audit


@dataclass(frozen=True)
class AuditRow:
    term: str
    level: int
    annulus_lo: float
    annulus_hi: float
    max_outside: float
    pairing: float
    pairing_disjoint: bool
    scale: float


@dataclass(frozen=True)
class SupportAuditReport:
    k: int
    rows: tuple[AuditRow, ...]
    lowpass_grad_support_exact: bool
    violations: int

    @property
    def max_relative_leak(self) -> float:
        vals = [r.max_outside / r.scale for r in self.rows if r.scale > 0]
        return max(vals) if vals else 0.0


_AUDIT_RTOL = 1e-13


def support_audit(
    u: VectorField, k: int, profile: DyadicProfile = DEFAULT_PROFILE
) -> SupportAuditReport:
    """Check the frequency-support containments behind the vanishing terms.

    For every product summand block(tail,l) * lowpass(...) feeding the
    near-diagonal and vanishing terms, the de-aliased product spectrum
    must live in {2^(l-2) <= |xi| < (9/8) 2^(l+1)} up to rounding, and
    summands claimed disjoint from grad lowpass(u,k) must pair to zero at
    rounding level.  The gradient of the low-pass itself has bit-exact
    support inside the open ball of radius 2^k.
    """
    ws = _Workspace(u, k, profile)
    g = u.grid
    rows: list[AuditRow] = []
    grad_ok = True
    ball = g.xi_abs < math.ldexp(1.0, k)
    su = ws.field(ws.low)
    grad_su = [gradient(c).components for c in su.components]
    for comps in grad_su:
        for gc in comps:
            if np.any(gc.coeffs[~ball] != 0):
                grad_ok = False
    grad_scale = math.sqrt(norms.dirichlet(su))

    def audit_product(term: str, l: int, a: SpectralField, b: SpectralField):
        if a.max_abs_coeff() == 0.0 or b.max_abs_coeff() == 0.0:
            return
        p = products.product(a, b)
        lo = math.ldexp(1.0, l - 2)
        hi = 1.125 * math.ldexp(1.0, l + 1)
        outside = ~((g.xi_abs >= lo) & (g.xi_abs < hi))
        mag = np.abs(p.coeffs)
        max_out = float(mag[outside].max()) if outside.any() else 0.0
        scale = float(mag.max())
        pairing = 0.0
        disjoint = lo >= math.ldexp(1.0, k)
        if disjoint and grad_scale > 0:
            for comps in grad_su:
                for gc in comps:
                    val = abs(float(np.vdot(gc.coeffs, p.coeffs).real) * g.spectral_cell)
                    pairing = max(pairing, val / (grad_scale * p.l2() + 1e-300))
        rows.append(AuditRow(term, l, lo, hi, max_out, pairing, disjoint, scale))

    for l in range(k - 1, ws.l_top + 1):
        dl = ws.field(_block(l) + ws.tail)
        ss = ws.field(_low(l - 2) + ws.low)
        st = ws.field(_low(l - 2) + ws.tail)
        for i in range(3):
            for j in range(3):
                audit_product("I12-summand", l, dl.components[i], ss.components[j])
                audit_product("I21-I22-summand", l, dl.components[i], st.components[j])

    violations = sum(
        1
        for r in rows
        if r.scale > 0
        and (
            r.max_outside > _AUDIT_RTOL * r.scale
            or (r.pairing_disjoint and r.pairing > _AUDIT_RTOL)
        )
    )
    return SupportAuditReport(
        k=k, rows=tuple(rows), lowpass_grad_support_exact=grad_ok, violations=violations
    )


# ---------------------------------------------------------------------------
# diagnostics


@dataclass(frozen=True)
class ChainRow:
    name: str
    per_k_lhs: dict[int, float]
    per_k_rhs: dict[int, float]
    c_emp: float
    note: str = ""


@dataclass(frozen=True)
class DiagnosticsReport:
    s: float
    theta: float | None
    window: tuple[int, int]
    per_k: dict[int, dict[str, float]]
    chains: dict[str, ChainRow]
    u0_linf: float
    windowed_min: dict[str, float]


def diagnostics(
    u: VectorField,
    s,
    profile: DyadicProfile = DEFAULT_PROFILE,
    window: DyadicWindow | None = None,
) -> DiagnosticsReport:
    """Per-level smallness quantities and the inequality chains tying them.

    Limit statements in k are downgraded to windowed minima and labeled
    as such; each chain records its empirical constant, the largest
    LHS/RHS ratio over the window.
    """
    sf = as_fraction(s)
    sv = float(sf)
    g = u.grid
    window = window or DyadicWindow.for_grid(g)
    theta = theta_for(sf) if Fraction(1, 2) <= sf < Fraction(5, 6) else None
    hs = norms.sobolev_norm(u, sv)
    per_k: dict[int, dict[str, float]] = {}
    for k in window.indices():
        row: dict[str, float] = {}
        su = dyadic.lowpass_vector(u, k, profile)
        linf = norms.lp_norm(su, math.inf)
        row["lowpass_linf"] = linf
        row["classical_smallness"] = math.ldexp(1.0, -k) * linf
        row["fractional_smallness"] = math.ldexp(1.0, k) ** (1.0 - 2.0 * sv) * linf
        row["besov_neg1_lowpass"] = norms.besov_infty_norm(su, -1.0, window, profile)
        row["besov_frac_lowpass"] = norms.besov_infty_norm(su, 1.0 - 2.0 * sv, window, profile)
        row["fourier_l32_ball"] = norms.spectral_lr_ball(u, 1.5, math.ldexp(1.0, k))
        row["fourier_lr_ball"] = norms.spectral_lr_ball(
            u, 3.0 / (4.0 - 2.0 * sv), math.ldexp(1.0, k)
        )
        if theta is not None:
            m1 = split_index(theta, k)
            m2 = split_index(Fraction(1, 2), k)
            band1 = _band_sum(u, m1, k - 1, profile)
            band2 = _band_sum(u, m2, k - 1, profile)
            w = math.ldexp(1.0, k) ** (1.0 - 2.0 * sv)
            row["tail_band_theta_linf"] = norms.lp_norm(band1, math.inf) if band1 else 0.0
            row["tail_band_half_linf"] = norms.lp_norm(band2, math.inf) if band2 else 0.0
            row["high_band_smallness"] = w * (
                row["tail_band_theta_linf"] + row["tail_band_half_linf"]
            )
            row["tail_besov_theta"] = norms.besov_infty_norm(
                dyadic.tail_vector(u, m1, profile), 1.0 - 2.0 * sv, window, profile
            )
            row["tail_besov_half"] = norms.besov_infty_norm(
                dyadic.tail_vector(u, m2, profile), 1.0 - 2.0 * sv, window, profile
            )
        per_k[k] = row

    chains: dict[str, ChainRow] = {}

    def chain(name: str, lhs_key, rhs_fn, note=""):
        lhs = {k: per_k[k][lhs_key] for k in per_k}
        rhs = {k: rhs_fn(k) for k in per_k}
        ratios = [lhs[k] / rhs[k] for k in per_k if rhs[k] > 0 and lhs[k] > 0]
        chains[name] = ChainRow(name, lhs, rhs, max(ratios) if ratios else 0.0, note)

    chain("lowpass-linf-vs-besov", "classical_smallness", lambda k: per_k[k]["besov_neg1_lowpass"])
    chain(
        "lowpass-linf-vs-fourier-l32",
        "classical_smallness",
        lambda k: per_k[k]["fourier_l32_ball"],
        note="normalisation (2pi)^(-3/2) (4pi/3)^(1/3) folded into the constant",
    )
    chain(
        "fractional-linf-vs-besov",
        "fractional_smallness",
        lambda k: per_k[k]["besov_frac_lowpass"],
    )
    chain(
        "fractional-linf-vs-fourier-lr",
        "fractional_smallness",
        lambda k: per_k[k]["fourier_lr_ball"],
    )
    chain(
        "fractional-linf-vs-hs",
        "fractional_smallness",
        lambda k: math.ldexp(1.0, k) ** (2.5 - 3.0 * sv) * hs,
    )
    if sf == Fraction(5, 6):
        chain("critical-linf-vs-hs", "fractional_smallness", lambda k: hs)
    if theta is not None:
        chain(
            "high-band-theta-vs-tail-besov",
            "tail_band_theta_linf",
            lambda k: per_k[k]["tail_besov_theta"] / math.ldexp(1.0, k) ** (1.0 - 2.0 * sv),
        )
        chain(
            "high-band-half-vs-tail-besov",
            "tail_band_half_linf",
            lambda k: per_k[k]["tail_besov_half"] / math.ldexp(1.0, k) ** (1.0 - 2.0 * sv),
        )

    u0 = dyadic.tail_vector(u, 0, profile)
    windowed_min = {
        key: min(per_k[k][key] for k in per_k)
        for key in ("classical_smallness", "fractional_smallness")
    }
    return DiagnosticsReport(
        s=sv,
        theta=None if theta is None else float(theta),
        window=(window.k_min, window.k_max),
        per_k=per_k,
        chains=chains,
        u0_linf=norms.lp_norm(u0, math.inf),
        windowed_min=windowed_min,
    )


def _band_sum(u: VectorField, a: int, b: int, profile) -> VectorField | None:
    if a > b:
        return None
    out = dyadic.block_vector(u, a, profile)
    for l in range(a + 1, b + 1):
        out = out + dyadic.block_vector(u, l, profile)
    return out


# ---------------------------------------------------------------------------
# identity bounding chains (level-resolved majorants of the localized terms)


def snc_chains(u: VectorField, led: TrilinearLedger, s=None, profile=DEFAULT_PROFILE):
    """Empirical constants for the majorants of the localized sum.

    Returns {name: (lhs, rhs, ratio)} at the ledger's level: the first two
    retained terms against 2^-k (classical) or 2^(k(1-2s)) (fractional)
    times the low-pass sup norm and the squared energy through level k+3,
    and the third term against the [k/2]+3 energy.
    """
    k = led.k
    su_inf = norms.lp_norm(dyadic.lowpass_vector(u, k, profile), math.inf)
    lhs12 = abs(led.terms["snc_rhs_1"] + led.terms["snc_rhs_2"])
    lhs3 = abs(led.terms["snc_rhs_3"])
    half3 = split_index(Fraction(1, 2), k) + 3
    out = {}
    if s is None:
        e12 = norms.dirichlet(dyadic.lowpass_vector(u, k + 3, profile))
        e3 = norms.dirichlet(dyadic.lowpass_vector(u, half3, profile))
        rhs12 = math.ldexp(1.0, -k) * su_inf * e12
        rhs3 = math.ldexp(1.0, -k) * su_inf * e3
    else:
        sv = float(as_fraction(s))
        w = math.ldexp(1.0, k) ** (1.0 - 2.0 * sv)
        e12 = norms.sobolev_norm(dyadic.lowpass_vector(u, k + 3, profile), sv) ** 2
        e3 = norms.sobolev_norm(dyadic.lowpass_vector(u, half3, profile), sv) ** 2
        rhs12 = w * su_inf * e12
        rhs3 = w * su_inf * e3
    out["retained-12"] = (lhs12, rhs12, lhs12 / rhs12 if rhs12 > 0 else 0.0)
    out["retained-3"] = (lhs3, rhs3, lhs3 / rhs3 if rhs3 > 0 else 0.0)
    return out


# ---------------------------------------------------------------------------
# energy balance


@dataclass(frozen=True)
class EnergyBalanceRow:
    k: int
    s: float
    residual: float
    scale: float
    tail_energy: float
    advective: float
    cross: float
    forcing: float


def energy_balance_residual(
    u: VectorField,
    f: VectorField,
    s,
    k: int,
    profile: DyadicProfile = DEFAULT_PROFILE,
) -> EnergyBalanceRow:
    """Residual of the tail-paired momentum balance for a forced solution.

    |  ||(-D)^(s/2) tail||^2 + tri(u,u,tail) + <(-D)^(s/2) S_k u,
       (-D)^(s/2) tail>  -  <f, tail>  |
    """
    sv = float(as_fraction(s))
    g = u.grid
    tl = dyadic.tail_vector(u, k, profile)
    su = dyadic.lowpass_vector(u, k, profile)
    t1 = norms.fractional_dirichlet(tl, sv)
    t2 = products.trilinear(u, u, tl)
    t3 = _frac_pairing(su, tl, sv)
    t4 = _l2_pairing(f, tl)
    residual = abs(t1 + t2 + t3 - t4)
    scale = max(abs(t1), abs(t2), abs(t3), abs(t4), f.l2() * u.l2(), 1e-300)
    return EnergyBalanceRow(k, sv, residual, scale, t1, t2, t3, t4)


def _frac_pairing(a: VectorField, b: VectorField, s: float) -> float:
    g = a.grid
    with np.errstate(divide="ignore"):
        w = g.xi_sq ** s
    w[0, 0, 0] = 0.0
    total = 0.0
    for ca, cb in zip(a.components, b.components):
        total += float(np.sum(w * (ca.coeffs * np.conj(cb.coeffs)).real))
    return total * g.spectral_cell


def _l2_pairing(a: VectorField, b: VectorField) -> float:
    g = a.grid
    total = 0.0
    for ca, cb in zip(a.components, b.components):
        total += float(np.vdot(cb.coeffs, ca.coeffs).real)
    return total * g.spectral_cell
