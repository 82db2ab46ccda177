#!/usr/bin/env python3
"""Kernel accuracy experiment: truncated series vs closed form, and the
quasi-Monte Carlo convergence of the reproducing-property residual.

The series sweeps run on the ball of --dim (against its closed kernel) and
on the (1,2) ellipsoid {|z1|^2 + |z2|^4 < 1} (against D'Angelo's closed
kernel), the case the series serves; each degree reports the largest
relative error over all pairs and the wall and CPU time of the model and
its rows.

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

DEGREES = (10, 20, 30, 40, 60, 80)


def dangelo_kernel(m: int, z: np.ndarray, w: np.ndarray) -> np.ndarray:
    """D'Angelo's closed Bergman kernel K(z, w) of {|z1|^2 + |z2|^(2m) < 1}
    for a batch z (k, 2) and one point w, with nu(unit ball) = 1."""
    x = z[:, 0] * np.conj(w[0])
    u = z[:, 1] * np.conj(w[1]) * (1.0 - x) ** (-1.0 / m)
    k = 0.5 * m * (1.0 - x) ** (-2.0 - 1.0 / m)
    return k * ((1.0 + u) / (m**2 * (1.0 - u) ** 3) + 1.0 / (m * (1.0 - u) ** 2))


def sweep(label: str, spec, exact, z: np.ndarray, w: np.ndarray) -> list[tuple]:
    """Series rows K(., w_j) over z against exact(z, w_j), per degree."""
    print(f"series truncation sweep on the {label} ({len(z)} x {len(w)} pairs, |z|,|w| <= 0.7)")
    rows = []
    for degree in DEGREES:
        wall, cpu = time.perf_counter(), time.process_time()
        series = bergman.reinhardt_series_model(spec, degree=degree)
        worst = 0.0
        try:
            for wj in w:
                ref = exact(z, wj)
                err = np.abs(bergman.kernel_row(series, wj, z) - ref) / np.abs(ref)
                worst = max(worst, float(err.max()))
        except TruncationError:
            print(f"  degree {degree:3d}: refused (the tail estimate exceeds the tolerance)")
            continue
        wall, cpu = time.perf_counter() - wall, time.process_time() - cpu
        rows.append((label, degree, worst, wall, cpu))
        print(f"  degree {degree:3d}: max rel error {worst:.3e}   (wall {wall:.2f}s, cpu {cpu:.2f}s)")
    return rows


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--dim", type=int, default=2, help="ball dimension for the series sweep")
    ap.add_argument("--pairs", type=int, default=500)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--out", default=None, help="optional CSV path for the sweep tables")
    args = ap.parse_args(argv)

    spec = domains.unit_disk() if args.dim == 1 else domains.unit_ball(args.dim)
    closed = bergman.closed_ball_model(spec)
    rng = np.random.default_rng(np.random.SeedSequence(args.seed))
    z = 0.7 * domains.random_interior(spec, args.pairs, rng)
    w = 0.7 * domains.random_interior(spec, args.pairs, rng)
    label = "disk" if args.dim == 1 else f"{args.dim}-ball"
    rows = sweep(label, spec, lambda zz, wj: bergman.kernel_row(closed, wj, zz), z, w)

    ell = domains.complex_ellipsoid((1, 2), (1.0, 1.0))
    z = 0.7 * domains.random_interior(ell, args.pairs, rng)
    w = 0.7 * domains.random_interior(ell, args.pairs, rng)
    print()
    rows += sweep("(1,2) ellipsoid", ell, lambda zz, wj: dangelo_kernel(2, zz, wj), z, w)

    print("\nreproducing-property residual vs sample count (degree-5 polynomial)")
    poly = random_polynomial(spec.dim, 5, rng)
    z0 = 0.5 * domains.random_interior(spec, 1, rng)[0]
    for logn in (12, 14, 16, 18, 20):
        pts = domains.quasi_uniform(spec, 1 << logn, seed=args.seed)
        rep = bergman.reproduce_check(closed, poly, z0, pts)
        print(f"  2^{logn:2d} samples: residual {rep.residual:.3e}")

    if args.out:
        with open(args.out, "w") as fh:
            fh.write("domain,degree,max_rel_error,wall_seconds,cpu_seconds\n")
            for kind, degree, err, wall, cpu in rows:
                fh.write(f"{kind},{degree},{err:.17g},{wall:.17g},{cpu:.17g}\n")
        print(f"\nwrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
