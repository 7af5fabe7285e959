#!/usr/bin/env python3
"""Sweep spectrum slopes and record the measured remainder decay rates.

The resonant remainder beyond the split index [theta k] should shrink as
the level decreases; how closely the measured series tracks the
norm-product majorant depends on the test spectrum.  This script sweeps
the power-law slope alpha and a few seeds, fits each series, and writes a
CSV so the slope floor used by the verification suites can be inspected.

Usage:
    python scripts/decay_study.py --n 64 --alphas 0.05,0.3,0.85 --seeds 0,1 --out decay.csv
"""

import argparse
import csv
import sys
import time
from fractions import Fraction

from lpverify import TorusGrid
from lpverify.dyadic import DyadicWindow
from lpverify import forge, ledger, suites


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n", type=int, default=64)
    ap.add_argument("--alphas", default="0.05,0.3,0.85")
    ap.add_argument("--seeds", default="0,1,2")
    ap.add_argument("--theta", default="1/2")
    ap.add_argument("--out", default="decay-study.csv")
    args = ap.parse_args()

    theta = Fraction(args.theta)
    grid = TorusGrid(args.n, suites.decay_box_length(args.n))
    win = DyadicWindow.for_grid(grid)
    ks = range(win.k_min + 1, 0)
    rows = [("alpha", "seed", "slope", "floor", "ok", "points")]
    for alpha in (float(a) for a in args.alphas.split(",")):
        for seed in (int(s) for s in args.seeds.split(",")):
            t0 = time.perf_counter()
            u = forge.generate(
                grid,
                forge.SpectrumSpec(
                    "power-law", seed=seed, band=(win.k_min, win.k_max), alpha=alpha
                ),
            )
            try:
                ser = ledger.remainder_decay(u, "I232", ks, theta)
                floor = ser.predicted_exponent - suites.TOLERANCES["decay-slack"]
                ok = ser.fit.slope >= floor
                rows.append(
                    (alpha, seed, f"{ser.fit.slope:+.4f}", f"{floor:+.3f}",
                     ok, " ".join(f"{k}:{v:+.2e}" for k, v in ser.points))
                )
                print(f"alpha={alpha} seed={seed} slope={ser.fit.slope:+.3f} "
                      f"floor={floor:+.3f} ok={ok} ({time.perf_counter()-t0:.0f}s)")
            except Exception as exc:  # degenerate spectra are data too
                rows.append((alpha, seed, "nan", "nan", False, str(exc)))
                print(f"alpha={alpha} seed={seed} failed: {exc}")
    with open(args.out, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
