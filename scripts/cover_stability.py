#!/usr/bin/env python3
"""Cover stability experiment: how reproducible is the greedy Kobayashi cover
across seeds?

For each radius the script builds five seeded covers, reports how many test
points are certified covered (some center certified within r), heuristic
(only Uncertain memberships) and uncovered, and measures the maximum overlap
of the enlarged R=(1+r)/2 balls on a fixed quasi-random query sample; each
seed's line gives the wall time of the cover and of the overlap count.  The
disk, the 2-ball and the (1,2) ellipsoid all use the exact distance oracle,
so their overlap counts are exact except for pairs whose oracle bracket stays
open around R, which count conservatively.  The stability gate is the one of
acceptance criterion 6: seed spread <= max(2, median // 10).

Usage:
    python3 scripts/cover_stability.py [--domain disk|ball2|ellipsoid] [--candidates 12000]
"""

import argparse
import sys
import time

import numpy as np

from carleson_lab import carleson, domains


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--domain", choices=("disk", "ball2", "ellipsoid"), default="disk")
    ap.add_argument("--candidates", type=int, default=12000)
    ap.add_argument("--seeds", type=int, default=5)
    ap.add_argument("--queries", type=int, default=10000)
    ap.add_argument("--radii", type=float, nargs="+", default=[0.3, 0.5])
    args = ap.parse_args(argv)

    spec = {
        "disk": domains.unit_disk(),
        "ball2": domains.unit_ball(2),
        "ellipsoid": domains.complex_ellipsoid((1, 2), (1.0, 1.0)),
    }[args.domain]
    # |r(anchor)| = 1 on every model: test_domains.py::TestSpecs::test_r_is_minus_one_at_the_anchor
    lam0 = 1.0
    queries = domains.quasi_interior(spec, args.queries, seed=12345, level_floor=0.1 * lam0)

    for r in args.radii:
        big_r = (1.0 + r) / 2.0
        print(f"\n{args.domain}, r={r}, R={big_r}, {args.candidates} candidates:")
        maxes = []
        for seed in range(args.seeds):
            t0 = time.monotonic()
            res = carleson.kobayashi_cover(
                spec, r, seed=seed, candidates=args.candidates,
                test_count=min(args.queries, args.candidates),
            )
            t1 = time.monotonic()
            counts = carleson.overlap_count_many(spec, res.centers, big_r, queries)
            t2 = time.monotonic()
            maxes.append(int(counts.max()))
            cov = res.coverage
            print(
                f"  seed {seed}: {len(res.centers):5d} centers, coverage "
                f"{cov.certified} certified / {cov.heuristic} heuristic / "
                f"{cov.uncovered} uncovered of {cov.total}, "
                f"max overlap {maxes[-1]:4d}   (cover {t1 - t0:.1f}s, overlap count {t2 - t1:.1f}s)"
            )
        spread = max(maxes) - min(maxes)
        gate = max(2, int(np.median(maxes)) // 10)
        print(f"  overlap maxima {maxes}: spread {spread} "
              f"({'stable' if spread <= gate else 'NOT stable'} at <= max(2, median // 10) = {gate})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
