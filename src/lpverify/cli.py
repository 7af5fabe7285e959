"""Command-line front end.

    lpverify run --suite <name> --n <int> --box <float> --seed <int>
                 --theta <frac> --s <list> --out <dir> [--threads N] [--svg]
    lpverify generate --spec <json> --n <int> [--box <float>] --out <snapshot>
    lpverify inspect --in <snapshot>

Exit codes: 0 all checks passed; 1 at least one check failed, or a
numerical failure inside a suite (a field, grid or aliasing error);
2 configuration error (bad arguments, unknown suite, a window too small
for the suite, a bad snapshot); 3 resource budget exceeded.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from pathlib import Path

from .errors import (
    ConfigError,
    GridError,
    LPVerifyError,
    ResourceBudgetError,
    SnapshotFormatError,
    SpectrumSpecError,
    WindowError,
)

EXIT_PASS = 0
EXIT_CHECK_FAILED = 1
EXIT_CONFIG = 2
EXIT_RESOURCE = 3


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="lpverify", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="execute a verification suite")
    run.add_argument("--suite", required=True)
    run.add_argument("--n", type=int, default=32)
    run.add_argument("--box", type=float, default=None, help="box length (default 2*pi)")
    run.add_argument("--seed", type=int, default=0)
    run.add_argument("--theta", default="1/2")
    run.add_argument("--s", default=None, help="comma-separated exponents, e.g. 5/6,0.9")
    run.add_argument("--k-range", default=None, help="level sweep a:b")
    run.add_argument("--tol", action="append", default=[], help="override name=value")
    run.add_argument("--out", default=None, help="report directory")
    run.add_argument("--threads", type=int, default=1)
    run.add_argument("--svg", action="store_true")

    gen = sub.add_parser("generate", help="realize a spectrum spec into a snapshot")
    gen.add_argument("--spec", required=True, help="path to a SpectrumSpec JSON document")
    gen.add_argument("--n", type=int, required=True)
    gen.add_argument("--box", type=float, default=None)
    gen.add_argument("--out", required=True)

    ins = sub.add_parser("inspect", help="print a snapshot header")
    ins.add_argument("--in", dest="path", required=True)
    return p


def _grid(n: int, box: float | None):
    """The grid of ``--n`` and ``--box`` (default 2*pi); a bad pair is a
    configuration error, raised before any work starts."""
    import math

    from .spectral import TorusGrid

    try:
        return TorusGrid(n, box if box is not None else 2.0 * math.pi)
    except GridError as exc:
        raise ConfigError(str(exc)) from exc


def _cmd_run(args) -> int:
    from . import suites

    box = _grid(args.n, args.box).box_length
    tols = {}
    for item in args.tol:
        name, _, value = item.partition("=")
        if not value:
            raise ConfigError(f"bad --tol override {item!r}, expected name=value")
        tols[name] = float(value)
    k_range = None
    if args.k_range:
        a, _, b = args.k_range.partition(":")
        k_range = (int(a), int(b))
    s_values = tuple(x.strip() for x in args.s.split(",")) if args.s else ()
    cfg = suites.SuiteConfig(
        suite=args.suite,
        n=args.n,
        box=box,
        seed=args.seed,
        theta=Fraction(args.theta),
        s_values=s_values,
        k_range=k_range,
        tolerances=tols,
        out_dir=args.out,
        threads=args.threads,
        svg=args.svg,
    )
    report = suites.run_suite(cfg)
    for c in report.checks:
        status = {True: "pass", False: "FAIL", None: "info"}[c.passed]
        print(f"[{status}] {c.name}: value={c.value:.6g} scale={c.scale:.6g} tol={c.tolerance:.3g}")
    print(f"suite {args.suite}: {'PASS' if report.passed else 'FAIL'}")
    return EXIT_PASS if report.passed else EXIT_CHECK_FAILED


def _cmd_generate(args) -> int:
    from . import forge, snapshot

    spec = forge.SpectrumSpec.from_json(Path(args.spec).read_text())
    grid = _grid(args.n, args.box)
    u = forge.generate(grid, spec)
    snapshot.snapshot_write(u, args.out)
    print(f"wrote {args.out} (n={args.n}, box={grid.box_length})")
    return EXIT_PASS


def _cmd_inspect(args) -> int:
    from .snapshot import _read_header

    with open(args.path, "rb") as fh:
        print(json.dumps(_read_header(fh), indent=2))
    return EXIT_PASS


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "generate":
            return _cmd_generate(args)
        return _cmd_inspect(args)
    except ResourceBudgetError as exc:
        print(f"resource error: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except (ConfigError, WindowError, SpectrumSpecError, SnapshotFormatError, OSError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except LPVerifyError as exc:  # FieldError, GridError, AliasingGuardError, PicardError
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CHECK_FAILED
    except ValueError as exc:  # an argument value that does not parse
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
