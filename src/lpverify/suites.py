"""Named verification suites, machine-readable reports, decay regressions.

Each suite composes module operations into check records carrying a short
anchor naming the identity being exercised, the measured value, the scale
it is judged against, and the tolerance.  Reports are deterministic given
(config, seed, toolkit version); they are written atomically as JSON with
CSV sidecars per decay series (and optional self-contained SVG charts).
"""

from __future__ import annotations

import json
import math
import os
import tempfile
import time
from dataclasses import asdict, dataclass, field
from fractions import Fraction
from pathlib import Path

import numpy as np

from . import __version__, dyadic, forge, ledger, norms, paraproduct, products, snapshot
from .dyadic import DEFAULT_PROFILE, DyadicWindow
from .errors import ConfigError, ResourceBudgetError, WindowError
from .ledger import fit_decay  # noqa: F401  (public: decay fitting lives here too)
from .spectral import TWO_PI, TorusGrid, VectorField, _left_sum, set_fft_workers

SUITES = (
    "core",
    "dyadic",
    "paraproduct",
    "classical-identity",
    "fractional-low",
    "fractional-high",
    "s-half",
    "diagnostics",
    "energy-balance",
    "all",
)

_S_DEFAULTS = {
    "fractional-low": ("5/6",),
    "fractional-high": ("3/5", "7/10"),
    "s-half": ("1/2",),
    "diagnostics": ("5/6",),
    "energy-balance": ("1", "5/6", "1/2"),
}

#: default tolerances, overridable per-run
TOLERANCES = {
    "round-trip": 1e-12,
    "plancherel": 1e-12,
    "normalisation": 1e-12,
    "gradient": 1e-12,
    "laplacian-composition": 1e-12,
    "semigroup": 1e-13,
    "leray-idempotent": 1e-13,
    "leray-gradient": 1e-13,
    "leray-divergence": 1e-12,
    "solenoidal": 1e-13,
    "pressure": 1e-10,
    "reconstruction": 1e-12,
    "telescoping": 1e-12,
    "partition": 1e-12,
    "tail-l3-constant": 4.0,
    "bony": 1e-11,
    "summand-leak": 1e-13,
    "vanishing": 1e-12,
    "advective-skew": 1e-11,
    "split-sum": 1e-11,
    "recon": 1e-10,
    "theta-sum": 1e-12,
    "coherence": 1e-12,
    "j-recon": 1e-10,
    "removed-top": 1e-6,
    "decay-slack": 0.25,
    "besov-chain-constant": 4.0,
    "energy-balance": 1e-9,
}

#: decay regressions use the geometry whose window top sits at level 0
DECAY_ALPHA = 0.3


def decay_box_length(n: int) -> float:
    return TWO_PI * (n / 4.0)


@dataclass(frozen=True)
class SuiteConfig:
    suite: str
    n: int = 32
    box: float = TWO_PI
    seed: int = 0
    theta: Fraction = Fraction(1, 2)
    s_values: tuple[str, ...] = ()
    k_range: tuple[int, int] | None = None
    tolerances: dict = field(default_factory=dict)
    out_dir: str | None = None
    threads: int = 1
    svg: bool = False

    def __post_init__(self):
        if self.suite not in SUITES:
            raise ConfigError(f"unknown suite {self.suite!r} (choose from {SUITES})")
        theta = ledger.as_fraction(self.theta)
        if not (0 < theta < 1):
            raise ConfigError(f"theta must lie in (0,1), got {theta}")
        object.__setattr__(self, "theta", theta)
        if self.suite == "all" and self.s_values:
            raise ConfigError("suite 'all' takes no s values: no one list fits the s range of every suite")
        svals = tuple(self.s_values) or _S_DEFAULTS.get(self.suite, ())
        object.__setattr__(self, "s_values", svals)
        for raw in svals:
            s = ledger.as_fraction(raw)
            if self.suite == "fractional-low" and not (Fraction(5, 6) <= s < 1):
                raise ConfigError(f"fractional-low needs 5/6 <= s < 1, got {s}")
            if self.suite == "fractional-high" and not (Fraction(1, 2) <= s < Fraction(5, 6)):
                raise ConfigError(f"fractional-high needs 1/2 <= s < 5/6, got {s}")
            if self.suite == "s-half" and s != Fraction(1, 2):
                raise ConfigError(f"s-half runs at s = 1/2 only, got {s}")
            if self.suite == "energy-balance" and not (Fraction(1, 2) <= s <= 1):
                raise ConfigError(f"energy-balance needs 1/2 <= s <= 1, got {s}")
        unknown = set(self.tolerances) - set(TOLERANCES)
        if unknown:
            raise ConfigError(f"unknown tolerance overrides: {sorted(unknown)}")

    def tol(self, name: str) -> float:
        return float(self.tolerances.get(name, TOLERANCES[name]))


@dataclass
class CheckRecord:
    name: str
    anchor: str
    value: float
    scale: float
    tolerance: float
    passed: bool | None
    detail: str = ""

    def row(self) -> dict:
        return asdict(self)


@dataclass
class RunReport:
    config: dict
    version: str
    profile: dict
    dyadic: dict
    checks: list
    series: list
    timings: dict
    passed: bool
    ledger_rows: list = field(default_factory=list)
    tables: list = field(default_factory=list)

    def to_json(self) -> str:
        payload = {
            "config": self.config,
            "version": self.version,
            "profile": self.profile,
            "dyadic": self.dyadic,
            "checks": [c.row() for c in self.checks],
            "series": self.series,
            "ledger_rows": self.ledger_rows,
            "tables": self.tables,
            "timings": self.timings,
            "passed": self.passed,
        }
        return json.dumps(payload, indent=2, sort_keys=True, allow_nan=True)


@dataclass
class SuiteResult:
    """What one suite body contributes to a report."""

    checks: list
    series: list = field(default_factory=list)
    ledger_rows: list = field(default_factory=list)
    tables: list = field(default_factory=list)


def estimate_bytes(n: int) -> int:
    # envelope over working sets incl. 2n-padded transients and caches
    return 480 * n**3


def _budget() -> int:
    env = os.environ.get("LPVERIFY_BUDGET_BYTES")
    return int(env) if env else 3 * 1024**3


# ---------------------------------------------------------------------------
# check helpers


def _check(name, anchor, value, scale, tol, detail="") -> CheckRecord:
    passed = value == 0.0 or value <= tol * max(scale, 1e-300)
    return CheckRecord(name, anchor, float(value), float(scale), tol, bool(passed), detail)


def _check_bound(name, anchor, value, bound, detail="") -> CheckRecord:
    return CheckRecord(name, anchor, float(value), 1.0, float(bound), bool(value <= bound), detail)


def _info(name, anchor, value, detail="") -> CheckRecord:
    return CheckRecord(name, anchor, float(value), 1.0, math.inf, None, detail)


def _sweep(cfg: SuiteConfig, win: DyadicWindow) -> tuple[int, int]:
    """The configured level sweep, or the window minus one level at each edge."""
    return cfg.k_range or (win.k_min + 1, win.k_max - 1)


def _window_field(grid, seed, alpha=None):
    win = DyadicWindow.for_grid(grid)
    kind = "white-band" if alpha is None else "power-law"
    spec = forge.SpectrumSpec(kind, seed=seed, band=(win.k_min, win.k_max), alpha=alpha or 1.0)
    return forge.generate(grid, spec)


# ---------------------------------------------------------------------------
# suite bodies


def _suite_core(cfg: SuiteConfig, g: TorusGrid, win: DyadicWindow) -> SuiteResult:
    rng = np.random.default_rng(cfg.seed)
    checks = []
    from .spectral import divergence, fractional_laplacian, gradient, leray_project, transform_forward

    x = rng.standard_normal((g.n,) * 3)
    f = transform_forward(g, x)
    rt = float(np.max(np.abs(f.samples() - x)))
    checks.append(_check("transform-round-trip", "fourier-round-trip", rt, np.max(np.abs(x)), cfg.tol("round-trip")))
    phys = float(np.sum(x**2)) * g.cell_volume
    spec = float(np.sum(np.abs(f.coeffs) ** 2)) * g.spectral_cell
    checks.append(_check("plancherel", "plancherel", abs(phys - spec), phys, cfg.tol("plancherel")))

    mode = forge.harmonic(g, (0, 0, 1))
    expect = g.box_length**3 / (2.0 * (2.0 * math.pi) ** 1.5)
    got = abs(mode.coeffs[0, 0, 1])
    checks.append(_check("single-mode-modulus", "fourier-normalisation", abs(got - expect), expect, cfg.tol("normalisation")))

    grad = gradient(mode)
    a = TWO_PI / g.box_length
    _, _, Z = g.mesh
    gerr = float(np.max(np.abs(grad.components[2].samples() - a * np.cos(a * Z))))
    checks.append(_check("gradient-single-mode", "gradient", gerr, a, cfg.tol("gradient")))

    h = transform_forward(g, rng.standard_normal((g.n,) * 3))
    dg = divergence(gradient(h))
    lap = fractional_laplacian(h, 1.0)
    checks.append(
        _check("divergence-of-gradient", "laplacian-composition",
               float(np.max(np.abs(dg.coeffs + lap.coeffs))), lap.max_abs_coeff(), cfg.tol("laplacian-composition"))
    )
    twice = fractional_laplacian(fractional_laplacian(h, 0.5), 0.5)
    checks.append(
        _check("fractional-semigroup", "fractional-semigroup",
               float(np.max(np.abs(twice.coeffs - lap.coeffs))), lap.max_abs_coeff(), cfg.tol("semigroup"))
    )

    w = VectorField.from_samples(g, tuple(rng.standard_normal((g.n,) * 3) for _ in range(3)))
    pw = leray_project(w)
    ppw = leray_project(pw)
    idem = max(float(np.max(np.abs(a2.coeffs - b2.coeffs))) for a2, b2 in zip(ppw.components, pw.components))
    pscale = max(c.max_abs_coeff() for c in pw.components)
    checks.append(_check("leray-idempotent", "solenoidal-projection", idem, pscale, cfg.tol("leray-idempotent")))
    killed = leray_project(VectorField(gradient(h).components))
    gscale = max(c.max_abs_coeff() for c in gradient(h).components)
    checks.append(
        _check("leray-annihilates-gradients", "solenoidal-projection",
               max(c.max_abs_coeff() for c in killed.components), gscale, cfg.tol("leray-gradient"))
    )
    checks.append(
        _check("leray-divergence", "solenoidal-projection", pw.divergence_defect(),
               pscale * float(g.xi_abs.max()), cfg.tol("leray-divergence"))
    )

    tg = forge.taylor_green(g)
    checks.append(_check("taylor-green-divergence", "solenoidal-certificate", tg.divergence_defect(),
                         float(g.xi_abs.max()), cfg.tol("solenoidal")))
    P = products.pressure_from_velocity(tg)
    perr = float(np.max(np.abs(P.samples() - forge.tg_pressure(g))))
    checks.append(_check("pressure-analytic", "pressure-poisson", perr, 3.0 / 16.0, cfg.tol("pressure")))

    ub = _window_field(g, cfg.seed + 1)
    # one pass over the stress products feeds the pressure (pairs i <= j) and
    # the residual sum in row-major (i, j) order, the product commuting bit
    # for bit; a product is held only until its last use, since holding all
    # six raised the suite's peak memory
    acc = np.zeros((g.n,) * 3, dtype=complex)
    held: dict = {}
    todo = [(i, j) for i in range(3) for j in range(3)]

    def stress():
        for key, t in products._stress(ub):
            yield key, t
            held[key] = t
            while todo and (min(todo[0]), max(todo[0])) in held:
                i, j = todo.pop(0)
                t = held.pop((j, i)) if j <= i else held[i, j]
                np.add(acc, (1j * g.xi_component(i)) * (1j * g.xi_component(j)) * t.coeffs, out=acc)

    Pb = products._pressure(g, stress())
    resid = float(np.max(np.abs(fractional_laplacian(Pb, 1.0).coeffs - acc)))
    pressure_scale = norms.lp_norm(ub, math.inf) ** 2 * float(g.xi_abs.max()) ** 2
    checks.append(_check("pressure-residual", "pressure-poisson", resid, pressure_scale, cfg.tol("pressure")))

    shear = forge.generate(g, forge.SpectrumSpec("single-mode", seed=cfg.seed))
    checks.append(_check("pressure-trivial-shear", "pressure-poisson",
                         products.pressure_from_velocity(shear).max_abs_coeff(), 1.0, 1e-14))

    with tempfile.TemporaryDirectory() as td:
        path = Path(td) / "probe.lpf"
        snapshot.snapshot_write(ub, path)
        back = snapshot.snapshot_read(path)
        same = all(np.array_equal(a3.coeffs, b3.coeffs) for a3, b3 in zip(ub.components, back.components))
        size_ok = path.stat().st_size == 64 + 3 * g.n**3 * 16
    checks.append(_check_bound("snapshot-round-trip", "snapshot-io", 0.0 if same and size_ok else 1.0, 0.5))
    return SuiteResult(checks)


def _suite_dyadic(cfg: SuiteConfig, g: TorusGrid, win: DyadicWindow) -> SuiteResult:
    checks = []
    u = _window_field(g, cfg.seed)
    c = u.components[0]

    support_ok, ortho_ok = True, True
    for k in win.indices():
        bk = dyadic.block(c, k)
        outside = ~((g.xi_abs >= math.ldexp(1.0, k - 1)) & (g.xi_abs <= math.ldexp(1.0, k + 1)))
        support_ok &= bool(np.all(bk.coeffs[outside] == 0.0))
        for j in win.indices():
            if abs(j - k) >= 2 and dyadic.block(bk, j).max_abs_coeff() != 0.0:
                ortho_ok = False
    checks.append(_check_bound("block-support-exact", "block-support", 0.0 if support_ok else 1.0, 0.5))
    checks.append(_check_bound("block-orthogonality", "block-orthogonality", 0.0 if ortho_ok else 1.0, 0.5))

    acc = np.zeros_like(c.coeffs)
    for k in win.indices():
        acc += dyadic.block(c, k).coeffs
    checks.append(_check("block-reconstruction", "partition-of-unity",
                         float(np.max(np.abs(acc - c.coeffs))), c.max_abs_coeff(), cfg.tol("reconstruction")))

    tele = 0.0
    for k in range(win.k_min + 1, win.k_max + 2):
        acc = np.zeros_like(c.coeffs)
        for l in range(win.k_min, k):
            acc += dyadic.block(c, l).coeffs
        tele = max(tele, float(np.max(np.abs(acc - dyadic.lowpass(c, k).coeffs))))
    checks.append(_check("lowpass-telescoping", "lowpass-telescoping", tele, c.max_abs_coeff(), cfg.tol("telescoping")))

    radii = np.geomspace(math.ldexp(1.0, win.k_min), math.ldexp(1.0, win.k_max), 64)
    part = max(
        abs(_left_sum(float(DEFAULT_PROFILE.phi(np.array([r * 2.0**-k]))[0]) for k in range(win.k_min - 2, win.k_max + 3)) - 1.0)
        for r in radii
    )
    checks.append(_check("profile-partition", "partition-of-unity", part, 1.0, cfg.tol("partition")))

    comp = 0.0
    for k in (win.k_min, win.k_min + 2, win.k_max):
        recon = dyadic.lowpass(c, k).coeffs + dyadic.tail(c, k).coeffs
        comp = max(comp, float(np.max(np.abs(recon - c.coeffs))))
    checks.append(_check("tail-complement", "tail-complement", comp, c.max_abs_coeff(), 1e-15))

    mid = (win.k_min + win.k_max) // 2
    tilde_err = float(np.max(np.abs(
        dyadic.tilde_block(c, mid).coeffs
        - sum(dyadic.block(c, lp).coeffs for lp in range(mid - 2, mid + 3))
    )))
    checks.append(_check("tilde-five-blocks", "tilde-block", tilde_err, c.max_abs_coeff(), 1e-15))

    ann = dyadic.block(c, mid)
    rep = dyadic.bernstein_check(ann, 2.0, 2.0, k=mid)
    checks.append(CheckRecord("bernstein-two-sided-l2", "band-limited-norms",
                              rep.grad_norm_q / max(rep.norm_p, 1e-300), 1.0, math.inf,
                              rep.l2_lower_ok and rep.l2_upper_ok,
                              detail=f"support [{rep.support_min:.3g},{rep.support_max:.3g}]"))
    lo_mode = forge.harmonic(g, (0, 0, 1))
    rep1 = dyadic.bernstein_check(lo_mode, 2.0, 2.0, k=0)
    checks.append(_check("bernstein-single-mode", "band-limited-norms",
                         abs(rep1.grad_norm_q / rep1.norm_p - g.xi_min), g.xi_min, 1e-12))

    droot = math.sqrt(norms.dirichlet(u))
    worst = 0.0
    for k in win.indices():
        tl = dyadic.tail(u, k)
        bound = math.ldexp(1.0, -k) ** 0.5 * droot
        worst = max(worst, norms.lp_norm(tl, 3.0) / bound)
    checks.append(_check_bound("tail-l3-bound", "tail-lebesgue-bound", worst, cfg.tol("tail-l3-constant")))
    return SuiteResult(checks)


_BONY_PAIRS = 20


def _suite_paraproduct(cfg: SuiteConfig, g: TorusGrid, win: DyadicWindow) -> SuiteResult:
    band = win.guarded(2)
    checks = []
    worst_rel, worst_leak = 0.0, 0.0
    for i in range(_BONY_PAIRS):
        f = forge.generate(g, forge.SpectrumSpec("white-band", seed=cfg.seed + i, band=(band.k_min, band.k_max))).components[0]
        h = forge.generate(g, forge.SpectrumSpec("white-band", seed=cfg.seed + 5000 + i, band=(band.k_min, band.k_max))).components[1]
        split = paraproduct.bony_split(f, h, window=win)
        fg = products.product(f, h)
        scale = max(fg.max_abs_coeff(), 1e-300)
        worst_rel = max(worst_rel, (split.total() - fg).max_abs_coeff() / scale)
        for row in split.audits:
            worst_leak = max(worst_leak, row.max_outside / max(row.max_inside, 1e-300))
    checks.append(_check("bony-reconstruction", "product-splitting", worst_rel, 1.0, cfg.tol("bony"),
                         detail=f"{_BONY_PAIRS} seeded pairs"))
    checks.append(_check("bony-summand-support", "product-splitting-supports", worst_leak, 1.0, cfg.tol("summand-leak")))

    mode = forge.harmonic(g, (0, 0, 1))
    rep = paraproduct.product_sobolev_bound(mode, mode, 0.5, guard=0)
    expect = 2.0**-0.5 * math.sqrt(g.box_length**3 / 2.0) / 2.0
    checks.append(_check("bilinear-two-mode", "bilinear-sobolev-bound",
                         abs(rep.lhs - expect), expect, 1e-12))

    tables = []
    for s in ("0.55", "5/6"):
        sv = float(ledger.as_fraction(s))
        ratios = []
        rep_first = None
        for i in range(10):
            f = forge.generate(g, forge.SpectrumSpec("white-band", seed=cfg.seed + 100 + i, band=(band.k_min, band.k_max))).components[0]
            h = forge.generate(g, forge.SpectrumSpec("white-band", seed=cfg.seed + 7000 + i, band=(band.k_min, band.k_max))).components[2]
            rep2 = paraproduct.product_sobolev_bound(f, h, sv, window=win)
            rep_first = rep_first or rep2
            ratios.append(rep2.ratio)
        checks.append(CheckRecord(f"bilinear-ratio-finite-s={s}", "bilinear-sobolev-bound",
                                  max(ratios), 1.0, math.inf, bool(all(map(math.isfinite, ratios))),
                                  detail="max ratio over 10 pairs"))
        tables.append({
            "name": f"scale-interaction-series-s={s.replace('/', 'over')}",
            "columns": ["k", "low_high", "high_low", "resonant"],
            "rows": [
                [k, lk, mk, nk]
                for k, lk, mk, nk in zip(rep_first.levels, rep_first.low_high,
                                         rep_first.high_low, rep_first.resonant)
            ],
        })
    return SuiteResult(checks, tables=tables)


_CLASSICAL_FIELDS = 10


_ROW_TOLS = {
    "I11": "vanishing", "I21": "vanishing", "I22": "vanishing",
    "I3": "advective-skew", "recon_residual": "recon",
}


def _ledger_rows(cfg: SuiteConfig, led, seed: int) -> list[dict]:
    rows = []
    for term, value in led.terms.items():
        tol_name = _ROW_TOLS.get(term)
        tol = cfg.tol(tol_name) if tol_name else None
        passed = (abs(value) <= tol * max(led.scale, 1e-300)) if tol is not None else None
        rows.append({
            "k": led.k, "term": term, "value": value, "scale": led.scale,
            "tolerance": tol, "passed": passed, "seed": seed, "s": led.s,
            "theta": led.theta,
        })
    return rows


def _classical_sweep(cfg: SuiteConfig, grid: TorusGrid, win: DyadicWindow) -> SuiteResult:
    sweep = _sweep(cfg, win)
    checks = []
    rows: list[dict] = []
    agg = {key: 0.0 for key in ("I11", "I21", "I22", "I3", "recon", "split1", "split2", "theta", "audit")}
    for i in range(_CLASSICAL_FIELDS):
        u = _window_field(grid, cfg.seed + i)
        for k in range(sweep[0], sweep[1] + 1):
            # the ledger and the support audit run as one plan, which samples each filtrate once
            ws = ledger._Workspace(u, k)
            led, audit = ws.run(ledger._classical(ws, cfg.theta), ledger._audit(ws))
            rows.extend(_ledger_rows(cfg, led, cfg.seed + i))
            T, S = led.terms, led.scale
            agg["I11"] = max(agg["I11"], abs(T["I11"]) / S)
            agg["I21"] = max(agg["I21"], abs(T["I21"]) / S)
            agg["I22"] = max(agg["I22"], abs(T["I22"]) / S)
            agg["I3"] = max(agg["I3"], abs(T["I3"]) / S)
            agg["recon"] = max(agg["recon"], T["recon_residual"] / S)
            agg["split1"] = max(agg["split1"], abs(T["I1"] - (T["I11"] + T["I12"] + T["I13"])) / S)
            agg["split2"] = max(agg["split2"], abs(T["I2"] - (T["I21"] + T["I22"] + T["I23"])) / S)
            base = T["I231"] + T["I232"]
            splits = [led.split(th) for th in (Fraction(1, 4), Fraction(3, 4))]
            spread = max(abs(lo + hi - base) for lo, hi in splits)
            agg["theta"] = max(agg["theta"], spread / S)
            agg["audit"] = max(agg["audit"], float(audit.violations))
    checks.append(_check("vanishing-I11", "paraproduct-disjointness", agg["I11"], 1.0, cfg.tol("vanishing")))
    checks.append(_check("vanishing-I21", "paraproduct-disjointness", agg["I21"], 1.0, cfg.tol("vanishing")))
    checks.append(_check("vanishing-I22", "paraproduct-disjointness", agg["I22"], 1.0, cfg.tol("vanishing")))
    checks.append(_check("advective-skew-I3", "advective-skew", agg["I3"], 1.0, cfg.tol("advective-skew")))
    checks.append(_check("trilinear-reconstruction", "localized-identity", agg["recon"], 1.0, cfg.tol("recon")))
    checks.append(_check("bony-split-sum-1", "localized-identity", agg["split1"], 1.0, cfg.tol("split-sum")))
    checks.append(_check("bony-split-sum-2", "localized-identity", agg["split2"], 1.0, cfg.tol("split-sum")))
    checks.append(_check("theta-partition-invariance", "resonant-split", agg["theta"], 1.0, cfg.tol("theta-sum")))
    checks.append(_check_bound("support-audit", "support-containment", agg["audit"], 0.5,
                               detail=f"fields={_CLASSICAL_FIELDS}, sweep={sweep}"))
    return SuiteResult(checks, ledger_rows=rows)


def _decay_sweep(n: int, seed: int):
    grid = TorusGrid(n, decay_box_length(n))
    win = DyadicWindow.for_grid(grid)
    u = forge.generate(
        grid,
        forge.SpectrumSpec("power-law", seed=seed, band=(win.k_min, win.k_max), alpha=DECAY_ALPHA),
    )
    return u, range(win.k_min + 1, 0)


def _suite_classical(cfg: SuiteConfig, grid: TorusGrid, win: DyadicWindow) -> SuiteResult:
    got = _classical_sweep(cfg, grid, win)
    if cfg.n >= 128:
        u, ks = _decay_sweep(cfg.n, cfg.seed)
        ser = ledger.remainder_decay(u, "I232", ks, cfg.theta)
        _judge_series(cfg, got, ser, "resonant-remainder-slope", "resonant-remainder-decay")
    else:
        got.checks.append(CheckRecord("resonant-remainder-slope", "resonant-remainder-decay",
                                      math.nan, 1.0, math.nan, None,
                                      detail="needs n >= 128 for a 4-point split sweep"))
    return got


def _suite_fractional_low(cfg: SuiteConfig, grid: TorusGrid, win: DyadicWindow) -> SuiteResult:
    sweep = _sweep(cfg, win)
    got = SuiteResult([])
    checks = got.checks
    u = _window_field(grid, cfg.seed)
    # the coherence check compares these with separately evaluated fractional ledgers
    bases = {k: ledger.ledger_classical(u, k, Fraction(1, 2)) for k in range(sweep[0], sweep[1] + 1)}
    mid = (sweep[0] + sweep[1]) // 2
    for s in cfg.s_values:
        worst = 0.0
        certs_ok = True
        leds = ledger._fractional_low_sweep(u, bases, s)
        for k, base in bases.items():
            led = leds[k]
            worst = max(worst, max(abs(led.terms[t] - base.terms[t]) for t in base.terms) / base.scale)
            certs_ok &= all(math.isfinite(v) for v in led.certificates.values())
        checks.append(_check(f"fractional-coherence-s={s}", "s-independent-decomposition", worst, 1.0, cfg.tol("coherence")))
        checks.append(_check_bound(f"certificates-finite-s={s}", "pairing-well-defined", 0.0 if certs_ok else 1.0, 0.5))
        rows = ledger.snc_chains(u, leds[mid], s=s)
        for name, (lhs, rhs, ratio) in rows.items():
            checks.append(_info(f"{name}-ratio-s={s}", "localized-sum-majorant", ratio))
    if cfg.n >= 128:
        ud, ks = _decay_sweep(cfg.n, cfg.seed)
        for s in cfg.s_values:
            ser = ledger.remainder_decay(ud, "fractional-remainder", ks, s)
            _judge_series(cfg, got, ser, f"fractional-remainder-slope-s={s}", "fractional-remainder-decay")
    return got


def _suite_fractional_high(cfg: SuiteConfig, grid: TorusGrid, win: DyadicWindow) -> SuiteResult:
    sweep = _sweep(cfg, win)
    top = range(win.k_max - 2, win.k_max + 2)
    got = SuiteResult([])
    checks, rows = got.checks, got.ledger_rows
    theta_710 = ledger.theta_for("7/10")
    checks.append(CheckRecord("theta-formula-exact", "split-exponent", float(theta_710), 1.0, math.inf,
                              theta_710 == Fraction(1, 2), detail="theta(7/10) == 1/2 exactly"))
    u = _window_field(grid, cfg.seed)
    for s in cfg.s_values:
        # one ledger per level of the sweep and of the window top; the J-series read from them
        leds = {k: ledger.ledger_fractional_high(u, k, s) for k in sorted({*range(sweep[0], sweep[1] + 1), *top})}
        worst_recon, worst_split = 0.0, 0.0
        for k in range(sweep[0], sweep[1] + 1):
            led = leds[k]
            rows.extend(_ledger_rows(cfg, led, cfg.seed))
            T = led.terms
            worst_recon = max(worst_recon, T["recon_residual"] / led.scale)
            for jt in ("J1", "J2", "J3"):
                worst_split = max(worst_split, abs(T[jt] - (T[f"{jt}_low"] + T[f"{jt}_high"])) / led.scale)
        checks.append(_check(f"j-reconstruction-s={s}", "lowpass-paired-identity", worst_recon, 1.0, cfg.tol("j-recon")))
        checks.append(_check(f"j-splits-s={s}", "removed-lowfrequency-split", worst_split, 1.0, cfg.tol("split-sum")))
        for term in ("J1_low", "J2_low", "J3_low"):
            ser = ledger._removed_series([leds[k] for k in top], term)
            _judge_series(cfg, got, ser, f"removed-{term}-top-s={s}", "removed-part-vanishing", leds[top[0]].scale)
    return got


def _suite_s_half(cfg: SuiteConfig, grid: TorusGrid, win: DyadicWindow) -> SuiteResult:
    sweep = _sweep(cfg, win)
    top = range(win.k_max - 2, win.k_max + 2)
    got = SuiteResult([])
    checks = got.checks
    checks.append(CheckRecord("theta-vanishes-at-half", "split-exponent", float(ledger.theta_for("1/2")),
                              1.0, math.inf, ledger.theta_for("1/2") == 0, detail="fixed level-0 cut"))
    u = _window_field(grid, cfg.seed)
    leds = {k: ledger.ledger_fractional_high(u, k, "1/2") for k in sorted({*range(sweep[0], sweep[1] + 1), *top})}
    worst = 0.0
    for k in range(sweep[0], sweep[1] + 1):
        worst = max(worst, leds[k].terms["recon_residual"] / leds[k].scale)
    checks.append(_check("j-reconstruction-s=1/2", "lowpass-paired-identity", worst, 1.0, cfg.tol("j-recon")))
    checks.append(_info("u0-sup-norm", "fixed-cut-tail-size", norms.lp_norm(dyadic.tail(u, 0), math.inf)))
    ser = ledger._removed_series([leds[k] for k in top], "J1_low")
    _judge_series(cfg, got, ser, "removed-J1_low-top-s=1/2", "removed-part-vanishing", leds[top[0]].scale)
    return got


def _suite_diagnostics(cfg: SuiteConfig, grid: TorusGrid, win: DyadicWindow) -> SuiteResult:
    checks = []
    u = _window_field(grid, cfg.seed, alpha=1.0)
    # u's block sups, read by the diagnostics of every s and by the Besov norm report
    table = norms._block_table(u, win)
    for s in cfg.s_values:
        rep = ledger._diagnostics(u, s, win, table)
        for name, chain in rep.chains.items():
            ok = math.isfinite(chain.c_emp)
            if name == "lowpass-linf-vs-besov":
                ok = ok and chain.c_emp <= cfg.tol("besov-chain-constant")
            checks.append(CheckRecord(f"chain-{name}-s={s}", name, chain.c_emp, 1.0,
                                      cfg.tol("besov-chain-constant") if name == "lowpass-linf-vs-besov" else math.inf,
                                      bool(ok), detail=chain.note))
        for key, val in rep.windowed_min.items():
            checks.append(_info(f"windowed-min-{key}-s={s}", "windowed-liminf-surrogate", val,
                                detail="minimum over the finite window, not a true limit"))
    norm_rows = []
    lebesgue = [norms.NormReport("lebesgue", p, "quadrature", v)
                for p, v in zip((2.0, 3.0, 6.0), norms._lp_norms(u, (2.0, 3.0, 6.0)))]
    for s in cfg.s_values:
        sv = float(ledger.as_fraction(s))
        for report in (
            *lebesgue,
            norms.NormReport("dirichlet", 1.0, "fourier", norms.dirichlet(u)),
            norms.NormReport("fractional-dirichlet", sv, "fourier", norms.fractional_dirichlet(u, sv)),
            norms.NormReport("sobolev", sv, "fourier", norms.sobolev_norm(u, sv)),
            norms.NormReport("sobolev", sv, "lp-sum", norms.sobolev_norm(u, sv, method="lp-sum")),
            norms.NormReport("besov-sup", 1.0 - 2.0 * sv, "lp-sum", norms._besov_combine(table, 1.0 - 2.0 * sv)),
        ):
            norm_rows.append([report.name, report.parameter, report.method, report.value])
    tables = [{"name": "norm-reports", "columns": ["name", "s_or_p", "method", "value"],
               "rows": norm_rows}]
    return SuiteResult(checks, tables=tables)


def _suite_energy_balance(cfg: SuiteConfig, grid: TorusGrid, win: DyadicWindow) -> SuiteResult:
    checks = []
    f = forge.taylor_green(grid, amplitude=1e-2)
    for s in cfg.s_values:
        sv = float(ledger.as_fraction(s))
        res = forge.picard_solve(f, sv, tol=1e-11, max_iter=40)
        checks.append(_check_bound(f"picard-converged-s={s}", "forced-steady-solution", res.residual, 1e-11,
                                   detail=f"{res.iterations} iterations"))
        pf = forge.leray_project(f)
        worst = 0.0
        for row in ledger._energy_balance_sweep(res.u, pf, s, win.indices()):
            tol_k = max(10.0 * res.residual, cfg.tol("energy-balance"))
            worst = max(worst, row.residual / (tol_k * row.scale))
        checks.append(_check_bound(f"energy-balance-s={s}", "tail-paired-balance", worst, 1.0,
                                   detail="max over window levels of residual/(tol*scale)"))
    return SuiteResult(checks)


_SUITE_BODIES = {
    "core": _suite_core,
    "dyadic": _suite_dyadic,
    "paraproduct": _suite_paraproduct,
    "classical-identity": _suite_classical,
    "fractional-low": _suite_fractional_low,
    "fractional-high": _suite_fractional_high,
    "s-half": _suite_s_half,
    "diagnostics": _suite_diagnostics,
    "energy-balance": _suite_energy_balance,
}


def _judge_series(cfg: SuiteConfig, got: SuiteResult, ser: ledger.DecaySeries, name: str, anchor: str,
                  scale: float | None = None) -> None:
    """Add a decay series' report block and its check to ``got``, both judged from cfg.tol.

    A series with a predicted exponent passes iff its fitted slope reaches
    the prediction minus ``decay-slack``; a removed series passes iff its top
    value is within ``removed-top`` of ``scale``.
    """
    slope_ok = top_threshold = top_ok = None
    if ser.predicted_exponent is not None:
        floor = ser.predicted_exponent - cfg.tol("decay-slack")
        check = CheckRecord(name, anchor, ser.fit.slope, 1.0, floor, bool(ser.fit.slope >= floor),
                            detail=f"floor {floor:+.3f}")
        slope_ok = check.passed
    else:
        check = _check(name, anchor, ser.top_value, scale, cfg.tol("removed-top"))
        top_threshold, top_ok = check.tolerance * check.scale, check.passed
    got.checks.append(check)
    d = {
        "term": ser.term,
        "parameter": ser.parameter,
        "points": [[int(k), float(v)] for k, v in ser.points],
        "fit_range": list(ser.fit_range) if ser.fit_range else None,
        "predicted_exponent": ser.predicted_exponent,
        "slack": cfg.tol("decay-slack"),
        "slope_ok": slope_ok,
        "top_value": ser.top_value,
        "top_threshold": top_threshold,
        "top_ok": top_ok,
    }
    if ser.fit is not None:
        lo, hi = ser.fit.slope_band()
        d["fit"] = {"slope": ser.fit.slope, "intercept": ser.fit.intercept,
                    "rms_residual": ser.fit.rms_residual, "npoints": ser.fit.npoints,
                    "slope_stderr": ser.fit.slope_stderr, "slope_band": [lo, hi]}
    got.series.append(d)


def run_suite(config: SuiteConfig) -> RunReport:
    """Execute a named suite and assemble (and optionally write) its report."""
    need = estimate_bytes(config.n)
    if need > _budget():
        raise ResourceBudgetError(
            f"estimated {need/1e9:.2f} GB exceeds budget {_budget()/1e9:.2f} GB"
        )
    # validate the window geometry up front so bad configs fail fast
    grid = TorusGrid(config.n, config.box)
    win = DyadicWindow.for_grid(grid)
    if config.suite in ("paraproduct", "all"):
        try:
            win.guarded(2)
        except WindowError as exc:
            raise ConfigError(f"window too small for guarded checks: {exc}") from exc
    if config.suite not in ("core",) and len(win) < 3:
        raise ConfigError(f"window [{win.k_min}, {win.k_max}] too small for dyadic suites")
    if config.k_range and not win.k_min <= config.k_range[0] <= config.k_range[1] <= win.k_max:
        raise ConfigError(f"k-range {config.k_range[0]}:{config.k_range[1]} is empty or leaves "
                          f"the window [{win.k_min}, {win.k_max}]")

    names = [s for s in SUITES if s not in ("all",)] if config.suite == "all" else [config.suite]
    out = SuiteResult([])
    timings: dict[str, float] = {}
    workers = set_fft_workers(config.threads)
    try:
        for name in names:
            cfg_i = config
            if config.suite == "all":
                cfg_i = SuiteConfig(
                    suite=name, n=config.n, box=config.box, seed=config.seed, theta=config.theta,
                    k_range=config.k_range, tolerances=config.tolerances, threads=config.threads,
                )
                # a fresh grid per suite, so no multiplier cache outlives its suite
                grid = TorusGrid(config.n, config.box)
            t0 = time.perf_counter()
            got = _SUITE_BODIES[name](cfg_i, grid, win)
            timings[name] = time.perf_counter() - t0
            out.checks.extend(got.checks)
            out.series.extend(got.series)
            out.ledger_rows.extend(got.ledger_rows)
            out.tables.extend(got.tables)
    finally:
        set_fft_workers(workers)

    passed = all(c.passed is not False for c in out.checks)
    cfg_dict = {
        "suite": config.suite, "n": config.n, "box": config.box, "seed": config.seed,
        "theta": str(config.theta), "s_values": list(config.s_values),
        "k_range": list(config.k_range) if config.k_range else None,
        "tolerances": dict(config.tolerances), "threads": config.threads,
    }
    report = RunReport(
        config=cfg_dict,
        version=__version__,
        profile={"shape": "exp-step", "sharpness": DEFAULT_PROFILE.sharpness,
                 "fingerprint": DEFAULT_PROFILE.fingerprint()},
        dyadic={"k_min": win.k_min, "k_max": win.k_max,
                "profile_shape": "exp-step", "profile_sharpness": DEFAULT_PROFILE.sharpness,
                "profile_fingerprint": DEFAULT_PROFILE.fingerprint()},
        checks=out.checks,
        series=out.series,
        timings=timings,
        passed=passed,
        ledger_rows=out.ledger_rows,
        tables=out.tables,
    )
    if config.out_dir:
        write_report(report, Path(config.out_dir), svg=config.svg)
    return report


# ---------------------------------------------------------------------------
# report writers


def _atomic_write(path: Path, data: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=".tmp-", suffix=path.suffix)
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_report(report: RunReport, out_dir: Path, svg: bool = False) -> None:
    out_dir = Path(out_dir)
    _atomic_write(out_dir / "report.json", report.to_json())
    lines = [["name", "anchor", "value", "scale", "tolerance", "passed"]]
    for c in report.checks:
        lines.append([c.name, c.anchor, repr(c.value), repr(c.scale), repr(c.tolerance), str(c.passed)])
    _atomic_write(out_dir / "checks.csv", "\n".join(",".join(map(str, row)) for row in lines) + "\n")
    for i, ser in enumerate(report.series):
        rows = ["k,value"] + [f"{k},{v!r}" for k, v in ser["points"]]
        _atomic_write(out_dir / f"series-{i:02d}-{ser['term']}.csv", "\n".join(rows) + "\n")
        if svg:
            _atomic_write(out_dir / f"series-{i:02d}-{ser['term']}.svg", _series_svg(ser))
    def _cell(x) -> str:
        if x is None:
            return ""
        return repr(x) if isinstance(x, float) else str(x)

    if report.ledger_rows:
        cols = ["k", "term", "value", "scale", "tolerance", "passed", "seed", "s", "theta"]
        body = [",".join(cols)]
        for r in report.ledger_rows:
            body.append(",".join(_cell(r[c]) for c in cols))
        _atomic_write(out_dir / "ledger.csv", "\n".join(body) + "\n")
    for table in report.tables:
        body = [",".join(map(str, table["columns"]))]
        body += [",".join(_cell(x) for x in row) for row in table["rows"]]
        _atomic_write(out_dir / f"{table['name']}.csv", "\n".join(body) + "\n")


def _series_svg(ser: dict) -> str:
    """Minimal self-contained log2-magnitude line chart."""
    pts = [(k, abs(v)) for k, v in ser["points"] if v != 0.0]
    w, h, pad = 480, 300, 40
    if not pts:
        return f'<svg xmlns="http://www.w3.org/2000/svg" width="{w}" height="{h}"><text x="10" y="20">all values zero</text></svg>'
    xs = [p[0] for p in pts]
    ys = [math.log2(p[1]) for p in pts]
    x0, x1 = min(xs), max(xs)
    y0, y1 = min(ys), max(ys)
    dx = (x1 - x0) or 1.0
    dy = (y1 - y0) or 1.0

    def sx(x):
        return pad + (x - x0) / dx * (w - 2 * pad)

    def sy(y):
        return h - pad - (y - y0) / dy * (h - 2 * pad)

    poly = " ".join(f"{sx(x):.1f},{sy(y):.1f}" for x, y in zip(xs, ys))
    label = f"{ser['term']} log2|value| vs level"
    return (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{w}" height="{h}">'
        f'<rect width="{w}" height="{h}" fill="white"/>'
        f'<polyline points="{poly}" fill="none" stroke="black" stroke-width="1.5"/>'
        + "".join(
            f'<circle cx="{sx(x):.1f}" cy="{sy(y):.1f}" r="3" fill="black"/>'
            for x, y in zip(xs, ys)
        )
        + f'<text x="{pad}" y="20" font-size="13">{label}</text>'
        f"</svg>"
    )
