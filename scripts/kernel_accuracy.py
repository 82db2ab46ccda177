#!/usr/bin/env python3
"""Kernel accuracy experiment: truncated series vs closed form, and the
quasi-Monte Carlo convergence of the reproducing-property residual.

Usage:
    python3 scripts/kernel_accuracy.py [--dim 2] [--pairs 500] [--out kernel_accuracy.csv]
"""

import argparse
import sys
import time

import numpy as np

from carleson_lab import bergman, domains
from carleson_lab.errors import TruncationError
from carleson_lab.polynomials import random_polynomial


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--dim", type=int, default=2, help="ball dimension for the series sweep")
    ap.add_argument("--pairs", type=int, default=500)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--out", default=None, help="optional CSV path for the sweep table")
    args = ap.parse_args(argv)

    spec = domains.unit_disk() if args.dim == 1 else domains.unit_ball(args.dim)
    closed = bergman.closed_ball_model(spec)
    rng = np.random.default_rng(np.random.SeedSequence(args.seed))
    z = 0.7 * domains.random_interior(spec, args.pairs, rng)
    w = 0.7 * domains.random_interior(spec, args.pairs, rng)

    print(f"series truncation sweep on {spec.kind} (dim {spec.dim}), {args.pairs} pairs, |z|,|w| <= 0.7")
    rows = []
    for degree in (10, 20, 30, 40, 60, 80):
        t0 = time.monotonic()
        series = bergman.reinhardt_series_model(spec, degree=degree)
        worst = 0.0
        try:
            for zi, wi in zip(z, w):
                exact = bergman.kernel(closed, zi, wi)
                worst = max(worst, abs(bergman.kernel(series, zi, wi) - exact) / abs(exact))
        except TruncationError:
            print(f"  degree {degree:3d}: refused (certified tail bound exceeds tolerance)")
            continue
        dt = time.monotonic() - t0
        rows.append((degree, worst, dt))
        print(f"  degree {degree:3d}: max rel error {worst:.3e}   ({dt:.2f}s)")

    print("\nreproducing-property residual vs sample count (degree-5 polynomial)")
    poly = random_polynomial(spec.dim, 5, rng)
    z0 = 0.5 * domains.random_interior(spec, 1, rng)[0]
    for logn in (12, 14, 16, 18, 20):
        pts = domains.quasi_uniform(spec, 1 << logn, seed=args.seed)
        rep = bergman.reproduce_check(closed, poly, z0, pts)
        print(f"  2^{logn:2d} samples: residual {rep.residual:.3e}")

    if args.out:
        with open(args.out, "w") as fh:
            fh.write("degree,max_rel_error,seconds\n")
            for degree, err, dt in rows:
                fh.write(f"{degree},{err:.17g},{dt:.17g}\n")
        print(f"\nwrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
