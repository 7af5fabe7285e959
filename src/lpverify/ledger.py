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
from collections.abc import Callable
from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial
from typing import NamedTuple

import numpy as np

from . import dyadic, norms, products
from .dyadic import DyadicWindow
from .errors import FieldError, GridError, WindowError
from .spectral import VectorField, _left_sum, _re_dot, _union, _xi_power, gradient

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
    #: per-level resonant integrals c_l, so any theta split is a view of them
    resonant: dict[int, float] = field(default_factory=dict)

    def split(self, theta) -> tuple[float, float]:
        """(I231, I232) of this ledger's resonant sum split at [theta k]."""
        return _split(self.resonant, split_index(theta, self.k))


def _split(c_l: dict[int, float], m: int) -> tuple[float, float]:
    """(sum over l <= m, sum over l > m) of per-level integrals, ascending in l."""
    levels = sorted(c_l)
    return _left_sum(c_l[l] for l in levels if l <= m), _left_sum(c_l[l] for l in levels if l > m)


# ---------------------------------------------------------------------------
# workspace and plans
#
# A filter is a tuple of bands (a, b), as in the ``dyadic`` module docstring.
# A table maps names to terms, each an iterable of steps.  A step is a triple
# (X, Y, Z) of filters, valued tri(X, Y, Z), or a ``_Product``.


def _band(a, b) -> tuple:
    return ((a, b),)


def _low(m: int) -> tuple:  # S_m
    return _band(-math.inf, m)


def _block(l: int) -> tuple:  # Delta_l
    return _band(l, l + 1)


class _Product(NamedTuple):
    """A step valued ``finish`` of the product of component i of u filtered by
    a and component j of u filtered by b; it is left out if either is zero."""

    a: tuple
    i: int
    b: tuple
    j: int
    finish: Callable


def _filtrate(u: VectorField, key: tuple) -> VectorField:
    """u filtered by ``key``, a canonical filter (u itself for ())."""
    return dyadic.band(u, key) if key else u


class _Workspace:
    """One (u, k): the canonical key of each filter, and the runner of plans.

    A filter is read through its canonical ``key``, so a filtrate is built
    and sampled once per grid in a ``_Plan`` however it is spelled.
    """

    def __init__(self, u: VectorField, k: int):
        self.u = u
        self.k = k
        self.grid = u.grid
        self.window = DyadicWindow.for_grid(self.grid)
        self.r = max(c.band_radius() for c in u.components)
        if self.r > math.ldexp(1.0, self.window.k_max):
            raise WindowError(
                f"field band radius {self.r:.3g} exceeds the window top 2^{self.window.k_max}"
            )
        if not all(c.mean_zero for c in u.components):
            raise FieldError("ledger fields must be mean-zero")
        # highest level whose block can act on this field
        self.l_top = dyadic._floor_log2(self.r) + 1 if self.r > 0 else self.window.k_min
        self.l_bot = self.window.k_min
        self.levels = range(k - 1, self.l_top + 1)  # the tail's blocks that can meet u
        self.low = _low(k)
        self.tail = _band(k, math.inf)

    def key(self, filt: tuple) -> tuple:
        """The canonical filter of ``filt``, which filters u bit for bit alike.

        u's radii lie in [xi_min, r], and a band (a, b) can be nonzero only
        on (2^(a-1), 2^b).  On the radii [lo, hi] where u and the other
        bands can be nonzero, psi_a is 0 if 2^a <= lo and psi_b is 1 if
        hi <= 2^(b-1); those ends become -inf and +inf, a band (-inf, +inf)
        is dropped, and this repeats until nothing changes.  Repeated bands
        are kept: psi_1 psi_1 is not psi_1.
        """
        bands = list(filt)
        changed = True
        while changed:
            changed = False
            for i, (a, b) in enumerate(bands):
                rest = bands[:i] + bands[i + 1 :]
                lo = max([self.grid.xi_min] + [2.0 ** (a2 - 1) for a2, _ in rest])
                hi = min([self.r] + [2.0**b2 for _, b2 in rest])
                new = (-math.inf if 2.0**a <= lo else a, math.inf if hi <= 2.0 ** (b - 1) else b)
                changed |= new != (a, b)
                bands[i] = new
            bands = [band for band in bands if band != (-math.inf, math.inf)]
        return tuple(sorted(bands))

    def run(self, *parts) -> list:
        """Each part's report, ``finish`` of the values of one ``_Plan`` of the
        tables of all ``parts``, pairs (table, finish)."""
        values = _Plan(self, {name: term for table, _ in parts for name, term in table.items()}).run()
        return [finish(values) for _, finish in parts]


class _Plan:
    """A table's steps and the form of each, worked out before any FFT.

    Each filter is keyed once, and each filtrate built and its
    ``products._shape`` read once, here; ``filtrates`` holds it until the
    last step that reads it.  A triple's form is its
    ``products._tri_reads`` (without one it is zero), a product's its
    ``products._product_form`` (without one it is left out); a form is a
    grid and the reads (factor, component, gradient or not) on it.  A slot
    is (key and component, grid n, gradient or not).  ``samples`` counts
    the arrays sampled per grid n, ``peak_bytes`` the most sample bytes
    held at once.  ``run`` runs each step's form on ``sampler`` and drops
    each slot and filtrate after its last step.
    """

    def __init__(self, ws: _Workspace, table: dict):
        self.grid, self.names, self.sampler = ws.grid, list(table), products._Sampler()
        keys: dict = {}
        built: dict = {}  # key -> (filtrate, its shape)
        self.last: dict = {}  # slot or filtrate key -> the last step that reads it
        self.steps = []  # (name, step, its filtrates' keys, its form, the slots it reads)
        for name, term in table.items():
            for step in term:
                product = isinstance(step, _Product)
                filters = (step.a, step.b) if product else step
                for filt in filters:
                    if filt not in keys:
                        keys[filt] = ws.key(filt)
                        if keys[filt] not in built:
                            f = _filtrate(ws.u, keys[filt])
                            built[keys[filt]] = f, products._shape(f)
                ks = tuple(keys[f] for f in filters)
                shapes = [built[k][1] for k in ks]
                if product:
                    form = products._product_form(ws.grid, shapes[0][step.i], shapes[1][step.j])
                    if form is None:
                        continue  # a zero product is left out
                    reads = [(0, step.i, False), (1, step.j, False)]
                else:
                    form = products._tri_reads(ws.grid, shapes)
                    reads = form[1] if form else []
                slots = list(dict.fromkeys(((ks[f], i), form[0].n, grad) for f, i, grad in reads))
                for x in slots + (list(ks) if slots else []):
                    self.last[x] = len(self.steps)
                self.steps.append((name, step, ks, form, slots))
        self.filtrates = {k: f for k, (f, _) in built.items() if k in self.last}
        self.samples: dict[int, int] = {}
        live: dict = {}  # the bytes of each slot held
        self.peak_bytes = 0
        for t, (*_, slots) in enumerate(self.steps):
            for slot in slots:
                if slot not in live:  # its first step
                    n, arrays = slot[1], 3 if slot[2] else 1
                    self.samples[n] = self.samples.get(n, 0) + arrays
                    live[slot] = arrays * 8 * n**3
            self.peak_bytes = max(self.peak_bytes, sum(live.values()))
            for slot in slots:
                if self.last[slot] == t:
                    del live[slot]

    def run(self) -> dict[str, list]:
        """{name: the value of each of its steps}."""
        out: dict[str, list] = {name: [] for name in self.names}
        for t, (name, step, ks, form, slots) in enumerate(self.steps):
            if form:
                f = [self.filtrates[k] for k in ks]
                if isinstance(step, _Product):
                    factors = f[0].components[step.i], f[1].components[step.j]
                    keys = (ks[0], step.i), (ks[1], step.j)
                    value = step.finish(products._product(self.sampler, factors, keys, form))
                else:
                    value = products._tri(self.sampler, f, ks, form)
                for slot in slots:
                    if self.last[slot] == t:
                        del self.sampler.held[slot]
                for k in set(ks):
                    if self.last[k] == t:
                        del self.filtrates[k]
            out[name].append(value if form else 0.0)  # a triple without a form is zero
        return out


# ---------------------------------------------------------------------------
# classical ledger


def _i12(ws: _Workspace, y: tuple):
    """I12's triples, with y in place of S_k in the advecting low-pass."""
    for l in range(ws.k - 1, ws.k + 3):
        for lp in range(l - 2, ws.k):
            yield _low(l - 2) + y, _block(lp), _block(l) + ws.tail


def _i13(ws: _Workspace, y: tuple):
    """I13's triples, with y as the advected factor."""
    for l in range(ws.k - 3, ws.k + 1):
        yield _block(l) + ws.low, y, _band(l - 2, l + 3) + ws.tail


def _resonant(ws: _Workspace, y: tuple):
    """c_l = tri(T_l, y, D_l) per level of ws.levels; D_l, T_l: block l, blocks l-2..l+2 of the tail."""
    for l in ws.levels:
        yield _band(l - 2, l + 3) + ws.tail, y, _block(l) + ws.tail


def ledger_classical(u: VectorField, k: int, theta=Fraction(1, 2)) -> TrilinearLedger:
    """Every named term of the level-k trilinear decomposition.

    Requires u mean-zero, divergence-free, band-limited inside the grid
    window.  theta in (0,1) sets the resonant split index [theta k].
    """
    ws = _Workspace(u, k)
    return ws.run(_classical(ws, theta))[0]


def _classical(ws: _Workspace, theta) -> tuple[dict, Callable]:
    """``ledger_classical`` of ws.u at ws.k as a part for ``_Workspace.run``."""
    theta = as_fraction(theta)
    if not (0 < theta < 1):
        raise FieldError(f"theta must lie in (0, 1), got {theta}")
    if not ws.u.div_free:
        raise FieldError("ledger_classical expects a certified divergence-free field")
    k, low, tail = ws.k, ws.low, ws.tail
    ls = range(min(ws.l_bot - 1, k - 2), ws.l_top + 2)
    table = {
        "I1": [(low, low, tail)],
        "I2": [(tail, low, tail)],
        "I3": [((), tail, tail)],
        # vanishing by support disjointness
        "I11": [(_block(l) + low, low, _low(l - 2) + tail) for l in ls],
        "I21": [(_block(l) + tail, low, _low(l - 2) + tail) for l in ls],
        "I22": [(_low(l - 2) + tail, low, _block(l) + tail) for l in ls],
        "I12": _i12(ws, low),
        "I13": _i13(ws, low),
        "I23": _resonant(ws, low),
        "total": [((), (), tail)],
    }

    def finish(values: dict) -> TrilinearLedger:
        terms = {name: _left_sum(values[name]) for name in table if name != "total"}
        c_l = dict(zip(ws.levels, values["I23"]))
        terms["I231"], terms["I232"] = _split(c_l, split_index(theta, k))
        terms["snc_rhs_1"] = terms["I12"]
        terms["snc_rhs_2"] = terms["I13"]
        terms["snc_rhs_3"], _ = _split(c_l, split_index(Fraction(1, 2), k))
        terms["recon_residual"] = abs(
            values["total"][0] - (terms["I12"] + terms["I13"] + terms["I231"] + terms["I232"])
        )
        return TrilinearLedger(
            k=k, theta=float(theta), s=None, terms=terms, scale=ledger_scale(ws.u), resonant=c_l
        )

    return table, finish


# ---------------------------------------------------------------------------
# fractional paths


def ledger_fractional_low(u: VectorField, k: int, s) -> TrilinearLedger:
    """Low-frequency localization ledger for 5/6 <= s < 1.

    The decomposition itself never references s, so the terms coincide
    with the classical ledger at theta = 1/2; what changes is the decay
    exponent of the remainder and the well-definedness certificates
    recorded alongside (negative-order norms of the stress and of the
    tail gradient, and the pressure bound).
    """
    return _fractional_low_sweep(u, (k,), s)[k]


def _fractional_low_sweep(u: VectorField, ks, s) -> dict[int, TrilinearLedger]:
    """``ledger_fractional_low`` at each level of ``ks``.

    Only the tail-gradient certificate depends on k; the stress and
    pressure norms and ||u||_{H^s} are computed once, after the first
    ledger has checked u.
    """
    sf = as_fraction(s)
    if not (Fraction(5, 6) <= sf < 1):
        raise FieldError(f"fractional-low path needs 5/6 <= s < 1, got {sf}")
    sv = float(sf)
    sigma = 2.0 * sv - 1.5
    out: dict[int, TrilinearLedger] = {}
    level_free = None
    for k in ks:
        base = ledger_classical(u, k, theta=Fraction(1, 2))
        if level_free is None:
            stress = list(products._stress(u))
            stress_max = 0.0
            for _, t in stress:
                stress_max = max(stress_max, norms.sobolev_norm(t, sigma))
            pressure = products._pressure(u.grid, stress)
            level_free = (stress_max, norms.sobolev_norm(pressure, sigma), norms.sobolev_norm(u, sv))
        certs = {
            "stress_sobolev_max": level_free[0],
            "tail_grad_negative_order": _tail_grad_norm(u, k, 1.5 - 2.0 * sv),
            "pressure_sobolev": level_free[1],
            "hs_norm": level_free[2],
        }
        out[k] = TrilinearLedger(
            k=k, theta=base.theta, s=sv, terms=dict(base.terms), scale=base.scale,
            certificates=certs, resonant=base.resonant,
        )
    return out


def _tail_grad_norm(u: VectorField, k: int, order: float) -> float:
    """Block-sum norm of grad(tail) at the given regularity, levels >= k."""
    window = DyadicWindow.for_grid(u.grid)
    total = 0.0
    for l in range(k, window.k_max + 2):
        b = dyadic.band(u, ((l, l + 1), (k, math.inf)))
        gsq = 0.0
        for c in b.components:
            gsq += norms.dirichlet(c)
        total += (math.ldexp(1.0, l) ** order) ** 2 * gsq
    return math.sqrt(total)


def ledger_fractional_high(u: VectorField, k: int, s) -> TrilinearLedger:
    """High-frequency localization ledger for 1/2 <= s < 5/6.

    Pairs the advective form against the low-pass instead of the tail:
    J1, J2, J3 mirror I12, I13, I23, and each is split into a removed
    low-frequency part (at split index [theta(s) k], [k/2], [k/2]
    respectively) plus a retained high part.  At s = 1/2 the formula
    theta = 0 turns the first split into the fixed level-0 cut.
    """
    sf = as_fraction(s)
    theta = theta_for(sf)
    if not u.div_free:
        raise FieldError("ledger_fractional_high expects a divergence-free field")
    ws = _Workspace(u, k)
    m1 = split_index(theta, k)
    m2 = split_index(Fraction(1, 2), k)
    table: dict = {}
    for name, term, m in (("J1", _i12, m1), ("J2", _i13, m2), ("J3", _resonant, m2)):
        table[name] = term(ws, ws.low)
        # removed and retained parts: S_m, then the band m .. k-1, in place of S_k
        table[f"{name}_low"] = term(ws, _low(m))
        table[f"{name}_high"] = term(ws, _band(m, k)) if m <= k - 1 else ()
    table["total"] = [((), ws.low, ())]

    def finish(values: dict) -> TrilinearLedger:
        terms = {name: _left_sum(values[name]) for name in table if name != "total"}
        terms["recon_residual"] = abs(values["total"][0] - (terms["J1"] + terms["J2"] + terms["J3"]))
        return TrilinearLedger(
            k=k, theta=float(theta), s=float(sf), terms=terms, scale=ledger_scale(u),
            resonant=dict(zip(ws.levels, values["J3"])),
        )

    return ws.run((table, finish))[0]


# ---------------------------------------------------------------------------
# decay series


_BAND_WIDTH = 2.0


@dataclass(frozen=True)
class DecayFit:
    slope: float
    intercept: float
    rms_residual: float
    npoints: int
    slope_stderr: float = math.inf

    def slope_band(self) -> tuple[float, float]:
        """Confidence band: slope +/- _BAND_WIDTH standard errors."""
        return self.slope - _BAND_WIDTH * self.slope_stderr, self.slope + _BAND_WIDTH * self.slope_stderr


def fit_decay(points) -> DecayFit:
    """Least-squares slope of log2|value| against the level index.

    Zero values are dropped; at least 4 usable points are required.
    """
    ks, logs = [], []
    for k, v in points:
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
    """A measured level series; ``suites`` judges it against the run's tolerances."""

    term: str
    parameter: float
    points: tuple[tuple[int, float], ...]
    fit: DecayFit | None
    fit_range: tuple[int, int] | None
    predicted_exponent: float | None
    top_value: float | None = None


def remainder_decay(u: VectorField, term: str, k_range, theta_or_s=Fraction(1, 2)) -> DecaySeries:
    """Measure the level dependence of a remainder/removed term.

    term 'I232': resonant remainder beyond [theta k], whose fitted slope the
    3/2 - 2 theta floor predicts.  term 'fractional-remainder': the same
    integral split at [k/2], predicted by 5/2 - 2s.  terms
    'J1_low'/'J2_low'/'J3_low': removed low parts of the high-frequency
    path, measured up to the top of the range.
    """
    k_list = sorted(k_range)
    if not k_list:
        raise WindowError("empty level range")

    if term in ("I232", "fractional-remainder"):
        param = as_fraction(theta_or_s)  # theta for I232, s for the other
        theta = param if term == "I232" else Fraction(1, 2)
        predicted = 1.5 - 2.0 * float(param) if term == "I232" else 2.5 - 2.0 * float(param)
        pts = []
        for k in k_list:
            ws = _Workspace(u, k)
            part = {"I23": _resonant(ws, ws.low)}, lambda values: dict(zip(ws.levels, values["I23"]))
            pts.append((k, _split(ws.run(part)[0], split_index(theta, k))[1]))
        return DecaySeries(
            term=term,
            parameter=float(param),
            points=tuple(pts),
            fit=fit_decay(pts),
            fit_range=(k_list[0], k_list[-1]),
            predicted_exponent=predicted,
        )

    if term in ("J1_low", "J2_low", "J3_low"):
        return _removed_series([ledger_fractional_high(u, k, theta_or_s) for k in k_list], term)

    raise FieldError(f"unknown decay term {term!r}")


def _removed_series(leds, term: str) -> DecaySeries:
    """Series of a removed J-part from fractional-high ledgers in ascending k."""
    pts = tuple((led.k, led.terms[term]) for led in leds)
    fit = None
    try:
        fit = fit_decay(pts)
    except FieldError:
        pass
    return DecaySeries(
        term=term,
        parameter=leds[0].s,
        points=pts,
        fit=fit,
        fit_range=(pts[0][0], pts[-1][0]),
        predicted_exponent=None,
        top_value=abs(pts[-1][1]),
    )


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


def support_audit(u: VectorField, k: int) -> SupportAuditReport:
    """Check the frequency-support containments behind the vanishing terms.

    For every product summand block(tail,l) * lowpass(...) feeding the
    near-diagonal and vanishing terms, the de-aliased product spectrum
    must live in {2^(l-2) <= |xi| < (9/8) 2^(l+1)} up to rounding, and
    summands claimed disjoint from grad lowpass(u,k) must pair to zero at
    rounding level.  The gradient of the low-pass itself has bit-exact
    support inside the open ball of radius 2^k.

    Its products sample each filtrate once per component and grid, in one
    ``_Plan``, which a ledger on the same workspace can join (``_audit``).
    """
    ws = _Workspace(u, k)
    return ws.run(_audit(ws))[0]


def _audit(ws: _Workspace) -> tuple[dict, Callable]:
    """``support_audit`` of ws.u at ws.k as a part for ``_Workspace.run``."""
    k = ws.k
    g = ws.grid
    su = _filtrate(ws.u, ws.key(ws.low))
    grad_su = [gradient(c).components for c in su.components]
    grad_ok = all(gc.band_radius() < math.ldexp(1.0, k) for comps in grad_su for gc in comps)
    grad_scale = math.sqrt(norms.dirichlet(su))

    def row(term: str, l: int, p) -> AuditRow:
        lo, hi, max_in, max_out = dyadic.annulus_audit(p, l)
        scale = max(max_in, max_out)
        pairing = 0.0
        disjoint = lo >= math.ldexp(1.0, k)
        if disjoint and grad_scale > 0:
            norm = grad_scale * p.l2() + 1e-300
            for comps in grad_su:
                for gc in comps:
                    val = abs(_re_dot(gc.values, p._at(gc.active)) * g.spectral_cell)
                    pairing = max(pairing, val / norm)
        return AuditRow(term, l, lo, hi, max_out, pairing, disjoint, scale)

    steps = []
    for l in ws.levels:
        dl, ss, st = _block(l) + ws.tail, _low(l - 2) + ws.low, _low(l - 2) + ws.tail
        for i in range(3):
            for j in range(3):
                steps.append(_Product(dl, i, ss, j, partial(row, "I12-summand", l)))
                steps.append(_Product(dl, i, st, j, partial(row, "I21-I22-summand", l)))

    def finish(values: dict) -> SupportAuditReport:
        rows = tuple(values["audit"])
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
            k=k, rows=rows, lowpass_grad_support_exact=grad_ok, violations=violations
        )

    return {"audit": steps}, finish


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


def diagnostics(u: VectorField, s, window: DyadicWindow | None = None) -> DiagnosticsReport:
    """Per-level smallness quantities and the inequality chains tying them.

    Limit statements in k are downgraded to windowed minima and labeled
    as such; each chain records its empirical constant, the largest
    LHS/RHS ratio over the window.

    The Besov values are read from one table of block sups max|Delta_j u|,
    each block sampled once per call.  Delta_j S_k u is Delta_j u for
    j <= k-2 and zero for j >= k+1, so a low-pass S_k u is sampled only at
    its edge blocks k-1 and k, once for both weights; a tail T_m u is
    Delta_j u for j >= m+1 and zero for j <= m-2, so it is sampled only at
    m-1 and m, once per m.
    """
    window = window or DyadicWindow.for_grid(u.grid)
    return _diagnostics(u, s, window, norms._block_table(u, window))


def _diagnostics(u: VectorField, s, window: DyadicWindow, table: dict[int, float]) -> DiagnosticsReport:
    """``diagnostics`` with u's block sups over ``window`` given as ``table``."""
    sf = as_fraction(s)
    sv = float(sf)
    theta = theta_for(sf) if Fraction(1, 2) <= sf < Fraction(5, 6) else None
    hs = norms.sobolev_norm(u, sv)

    def block_sups(f, edge: int, inner) -> dict[int, float]:
        # f's block sups: the table's where ``inner(j)`` (f's block is u's
        # there), f's own at edge-1 and edge, zero elsewhere
        sups = {j: table[j] for j in window.indices() if inner(j)}
        sups.update({j: norms._block_sup(f, j) for j in (edge - 1, edge) if j in window})
        return sups

    tail_sups: dict[int, dict[int, float]] = {}

    def tail_besov(m: int) -> float:
        if m not in tail_sups:
            tail_sups[m] = block_sups(dyadic.tail(u, m), m, lambda j: j >= m + 1)
        return norms._besov_combine(tail_sups[m], 1.0 - 2.0 * sv)

    per_k: dict[int, dict[str, float]] = {}
    for k in window.indices():
        row: dict[str, float] = {}
        su = dyadic.lowpass(u, k)
        linf = norms.lp_norm(su, math.inf)
        row["lowpass_linf"] = linf
        row["classical_smallness"] = math.ldexp(1.0, -k) * linf
        row["fractional_smallness"] = math.ldexp(1.0, k) ** (1.0 - 2.0 * sv) * linf
        low_sups = block_sups(su, k, lambda j: j <= k - 2)
        row["besov_neg1_lowpass"] = norms._besov_combine(low_sups, -1.0)
        row["besov_frac_lowpass"] = norms._besov_combine(low_sups, 1.0 - 2.0 * sv)
        row["fourier_l32_ball"] = norms.spectral_lr_ball(u, 1.5, math.ldexp(1.0, k))
        row["fourier_lr_ball"] = norms.spectral_lr_ball(
            u, 3.0 / (4.0 - 2.0 * sv), math.ldexp(1.0, k)
        )
        if theta is not None:
            m1 = split_index(theta, k)
            m2 = split_index(Fraction(1, 2), k)
            w = math.ldexp(1.0, k) ** (1.0 - 2.0 * sv)
            # sup norm of the blocks m .. k-1 of u
            for key, m in (("tail_band_theta_linf", m1), ("tail_band_half_linf", m2)):
                row[key] = norms.lp_norm(dyadic.band(u, ((m, k),)), math.inf) if m < k else 0.0
            row["high_band_smallness"] = w * (
                row["tail_band_theta_linf"] + row["tail_band_half_linf"]
            )
            row["tail_besov_theta"] = tail_besov(m1)
            row["tail_besov_half"] = tail_besov(m2)
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

    u0 = dyadic.tail(u, 0)
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


# ---------------------------------------------------------------------------
# identity bounding chains (level-resolved majorants of the localized terms)


def snc_chains(u: VectorField, led: TrilinearLedger, s=None):
    """Empirical constants for the majorants of the localized sum.

    Returns {name: (lhs, rhs, ratio)} at the ledger's level: the first two
    retained terms against 2^-k (classical) or 2^(k(1-2s)) (fractional)
    times the low-pass sup norm and the squared energy through level k+3,
    and the third term against the [k/2]+3 energy.
    """
    k = led.k
    su_inf = norms.lp_norm(dyadic.lowpass(u, k), math.inf)
    lhs12 = abs(led.terms["snc_rhs_1"] + led.terms["snc_rhs_2"])
    lhs3 = abs(led.terms["snc_rhs_3"])
    half3 = split_index(Fraction(1, 2), k) + 3
    out = {}
    if s is None:
        e12 = norms.dirichlet(dyadic.lowpass(u, k + 3))
        e3 = norms.dirichlet(dyadic.lowpass(u, half3))
        rhs12 = math.ldexp(1.0, -k) * su_inf * e12
        rhs3 = math.ldexp(1.0, -k) * su_inf * e3
    else:
        sv = float(as_fraction(s))
        w = math.ldexp(1.0, k) ** (1.0 - 2.0 * sv)
        e12 = norms.sobolev_norm(dyadic.lowpass(u, k + 3), sv) ** 2
        e3 = norms.sobolev_norm(dyadic.lowpass(u, half3), sv) ** 2
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


def energy_balance_residual(u: VectorField, f: VectorField, s, k: int) -> EnergyBalanceRow:
    """Residual of the tail-paired momentum balance for a forced solution.

    |  ||(-D)^(s/2) tail||^2 + tri(u,u,tail) + <(-D)^(s/2) S_k u,
       (-D)^(s/2) tail>  -  <f, tail>  |

    The one-level case of ``_energy_balance_sweep``, which samples u and
    grad u once for all the levels of a sweep.
    """
    return _energy_balance_sweep(u, f, s, (k,))[0]


def _energy_balance_sweep(u: VectorField, f: VectorField, s, ks) -> list[EnergyBalanceRow]:
    """``energy_balance_residual`` at each level of ``ks``.

    Only the tail T_k u depends on k.  Every level's tri(u, u, T_k u) runs
    on one sampler keyed for u, so u and grad u are sampled once per
    evaluation grid, not once per level, and the scale floor ||f|| ||u||
    is computed once.  Tails are built one level at a time.
    """
    sv = float(as_fraction(s))
    floor = f.l2() * u.l2()
    sample, shape = products._Sampler(), products._shape(u)
    rows = []
    for k in ks:
        tl = dyadic.tail(u, k)
        t1 = norms.fractional_dirichlet(tl, sv)
        form = products._tri_reads(u.grid, (shape, shape, products._shape(tl)))
        t2 = products._tri(sample, (u, u, tl), ("u", "u", None), form) if form else 0.0
        t3 = _frac_pairing(dyadic.lowpass(u, k), tl, sv)
        t4 = _l2_pairing(f, tl)
        residual = abs(t1 + t2 + t3 - t4)
        scale = max(abs(t1), abs(t2), abs(t3), abs(t4), floor, 1e-300)
        rows.append(EnergyBalanceRow(k, sv, residual, scale, t1, t2, t3, t4))
    return rows


def _frac_pairing(a: VectorField, b: VectorField, s: float) -> float:
    return _l2_pairing(a, b, lambda g, at: _xi_power(g, 2.0 * s, at))


def _l2_pairing(a: VectorField, b: VectorField, weight=lambda g, at: 1.0) -> float:
    """Sum of weight * Re(a_hat conj b_hat) over the union of each component
    pair's ``active`` sets, times the spectral cell; ``weight(grid, at)``."""
    g = a.grid
    if b.grid != g:
        raise GridError("paired fields live on different grids")
    total = 0.0
    for ca, cb in zip(a.components, b.components):
        at = _union(ca.active, cb.active, g.n**3)
        total += _re_dot(ca._at(at), cb._at(at), weight(g, at))
    return total * g.spectral_cell
