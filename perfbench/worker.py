"""Benchmark passes in a fresh process.

    python3 perfbench/worker.py <job.json> <spawn-time>

The job file names the checkout root, the operation list, the output
directory, whether to trace and a time budget.
``spawn-time`` is the parent's ``time.monotonic()`` just before it
started this process, so set-up time covers interpreter start,
``import lpverify`` and grid construction.  The worker writes
``result.json`` next to the job file and exits 0; a missing result means
the worker crashed.  A job with no operations only measures set-up.

A warm-up runs the first operation once, untimed and unchecked, so lazy
imports, FFT plans and the heap are in place before timing.  Then passes
of the operation list run, one after another in this process, until
another pass would likely end past the budget (at least one pass).  The
operations of a pass run back to back and their outputs are checked after
the pass ends, so checking never counts toward its wall time.
"""

from __future__ import annotations

import cmath
import hashlib
import json
import math
import resource
import shutil
import sys
import time
from pathlib import Path

#: relative tolerance between a pair's ratios and the reference ratios
PAIR_RTOL = 1e-9
PAIR_S = (0.55, 5.0 / 6.0)


def _import_program(root: Path) -> None:
    """Import lpverify from the checkout's ``src``, never from elsewhere."""
    src = (root / "src").resolve()
    sys.path.insert(0, str(src))
    import lpverify  # noqa: F401
    import lpverify.cli  # noqa: F401
    from lpverify import forge, norms, products  # noqa: F401

    where = Path(lpverify.__file__).resolve()
    if src not in where.parents:
        raise ImportError(f"lpverify imported from {where}, not from {src}")


# ---------------------------------------------------------------------------
# operations


def run_cli(argv: list[str], out_dir: Path) -> dict:
    from lpverify import cli

    try:
        rc = cli.main([*argv, "--out", str(out_dir)])
    except SystemExit as exc:  # argparse rejects a bad command line this way
        rc = exc.code if isinstance(exc.code, int) else 2
    return {"rc": rc, "out": str(out_dir)}


def run_pair(grid, seed: int, band: tuple[int, int]) -> dict:
    """One criterion-4 pair: two band fields, their product, the ratios."""
    from lpverify import forge, norms, products

    f = forge.scalar_band(grid, seed, band, salt=1)
    h = forge.scalar_band(grid, seed, band, salt=2)
    fg = products.product(f, h)
    ratios = []
    for s in PAIR_S:
        num = norms.sobolev_norm(fg, 2.0 * s - 1.5)
        den = norms.sobolev_norm(f, s) * norms.sobolev_norm(h, s)
        ratios.append(num / den)
    return {"ratios": ratios}


# ---------------------------------------------------------------------------
# output checks


def check_cli(out: dict) -> tuple[str | None, str]:
    """Exit code 0 and a passing report; the digest omits ``timings``."""
    if out["rc"] != 0:
        return f"exit code {out['rc']}", ""
    path = Path(out["out"]) / "report.json"
    try:
        report = json.loads(path.read_text())
    except (OSError, ValueError) as exc:
        return f"unreadable report: {exc}", ""
    report.pop("timings", None)
    digest = hashlib.sha256(json.dumps(report, sort_keys=True).encode()).hexdigest()
    if report.get("passed") is not True:
        return "report.json does not have passed = true", digest
    return None, digest


_MASK = (1 << 64) - 1


def _splitmix(z: int) -> int:
    z = (z + 0x9E3779B97F4A7C15) & _MASK
    z ^= z >> 30
    z = (z * 0xBF58476D1CE4E5B9) & _MASK
    z ^= z >> 27
    z = (z * 0x94D049BB133111EB) & _MASK
    return z ^ (z >> 31)


def _mode_uniform(seed: int, mode: tuple[int, int, int], salt: int) -> float:
    h = _splitmix(seed & _MASK)
    for c in (*mode, salt):
        h = _splitmix(h ^ (c & _MASK))
    return (h >> 11) / float(1 << 53)


def _band_modes(band: tuple[int, int]) -> dict[tuple[int, int, int], float]:
    """Radius of every nonzero mode of a band field on the 2*pi box."""
    lo, hi = math.ldexp(1.0, band[0]), math.ldexp(1.0, band[1])
    top = int(hi)
    out = {}
    rng = range(-top, top + 1)
    for m in ((x, y, z) for x in rng for y in rng for z in rng):
        r = math.sqrt(float(m[0] ** 2 + m[1] ** 2 + m[2] ** 2))
        if lo <= r <= hi and m != (0, 0, 0):
            out[m] = r
    return out


def reference_ratios(seed: int, band: tuple[int, int]) -> list[float]:
    """The pair's ratios from first principles, summed over the band's modes.

    A band field on the 2*pi box has coefficient r^-1.5 exp(+-i 2 pi U) at
    each mode of radius r in the band, with U the splitmix uniform of the
    canonical (lexicographically positive) mode.  The product's coefficient
    at m is (2 pi)^-1.5 times the convolution sum over a + b = m, and the
    homogeneous Sobolev norm weighs |m|^(2s).  This reproduces, for any
    seed, the values the program computes at the commit that defined the
    benchmark.  It is independent of the grid size as long as the grid
    resolves every product mode (each axis |m| below n/2), which holds for
    every pair the workloads run.
    """
    modes = _band_modes(band)

    def field(salt: int) -> dict:
        coeffs = {}
        for m, r in modes.items():
            pos = m > (0, 0, 0)
            canon = m if pos else (-m[0], -m[1], -m[2])
            theta = 2.0 * math.pi * _mode_uniform(seed, canon, salt)
            coeffs[m] = r ** -1.5 * cmath.exp(1j * (theta if pos else -theta))
        return coeffs

    f, h = field(1), field(2)
    fg: dict[tuple[int, int, int], complex] = {}
    for a, fa in f.items():
        for b, hb in h.items():
            m = (a[0] + b[0], a[1] + b[1], a[2] + b[2])
            fg[m] = fg.get(m, 0.0) + fa * hb
    scale = (2.0 * math.pi) ** -1.5

    def norm(coeffs: dict, s: float, factor: float = 1.0) -> float:
        total = 0.0
        for m, c in coeffs.items():
            q = float(m[0] ** 2 + m[1] ** 2 + m[2] ** 2)
            if q > 0:
                total += q**s * abs(c * factor) ** 2
        return math.sqrt(total)

    return [norm(fg, 2.0 * s - 1.5, scale) / (norm(f, s) * norm(h, s)) for s in PAIR_S]


def check_pair(op: dict, out: dict) -> tuple[str | None, str]:
    ratios = out["ratios"]
    digest = repr(ratios)
    if not all(map(math.isfinite, ratios)):
        return f"non-finite ratios {ratios}", digest
    ref = reference_ratios(op["seed"], tuple(op["band"]))
    for got, want in zip(ratios, ref):
        if abs(got - want) > PAIR_RTOL * abs(want):
            return f"ratios {ratios} differ from reference {ref}", digest
    return None, digest


# ---------------------------------------------------------------------------


def _peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_op(op: dict, grids: dict, out_dir: Path) -> dict:
    if op["kind"] == "cli":
        return run_cli(op["argv"], out_dir)
    return run_pair(grids[op["n"]], op["seed"], tuple(op["band"]))


def run_pass(ops: list[dict], grids: dict, out_root: Path, tracer) -> dict:
    """Time one pass of ``ops``, then check each output."""
    outputs = []
    t_start = time.perf_counter()
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.op_id = i
        t0 = time.perf_counter()
        try:
            out, error = run_op(op, grids, out_root / f"op{i:02d}"), None
        except Exception as exc:  # a failing operation is counted, not fatal
            out, error = None, f"{type(exc).__name__}: {exc}"
        outputs.append((time.perf_counter() - t0, out, error))
    wall_s = time.perf_counter() - t_start
    checked = []
    for op, (seconds, out, error) in zip(ops, outputs):
        digest = ""
        if error is None and op["kind"] == "cli":
            error, digest = check_cli(out)
        elif error is None:
            error, digest = check_pair(op, out)
        checked.append({"seconds": seconds, "error": error, "digest": digest})
    shutil.rmtree(out_root, ignore_errors=True)
    return {"wall_s": wall_s, "ops": checked}


def main(job_path: str, spawned: float) -> int:
    job_file = Path(job_path)
    job = json.loads(job_file.read_text())
    root = Path(job["root"])
    _import_program(root)
    from lpverify.spectral import TWO_PI, TorusGrid

    grids = {n: TorusGrid(n, TWO_PI) for n in job["grids"]}
    setup_s = time.monotonic() - spawned
    result = {"setup_s": setup_s, "passes": []}
    ops, out_root = job["ops"], Path(job["out"])
    if ops:
        try:
            run_op(ops[0], grids, out_root / "warmup")
        except Exception:  # pass 0 runs the same operation and reports it
            pass
        shutil.rmtree(out_root / "warmup", ignore_errors=True)
    tracer = None
    if ops and job["trace"]:
        import tracer as tracing

        tracer = tracing.Tracer()
        tracer.install()
    t_loop = time.perf_counter()
    while ops:
        result["passes"].append(run_pass(ops, grids, out_root / f"pass{len(result['passes'])}", tracer))
        if len(result["passes"]) == 1:
            # peak memory through the first pass, however many passes follow
            result["peak_rss_mib"] = _peak_rss_mib()
        elapsed = time.perf_counter() - t_loop
        if elapsed + elapsed / len(result["passes"]) > job["budget_s"]:
            break
    if tracer is not None:
        tracer.uninstall()
        result["layers"] = tracer.metrics()
    result.setdefault("peak_rss_mib", _peak_rss_mib())
    if not ops:
        import numpy
        import scipy

        result["versions"] = {
            "python": sys.version.split()[0],
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
        }
    (job_file.parent / "result.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], float(sys.argv[2])))
