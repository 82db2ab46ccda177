#!/usr/bin/env python3
"""Run the three Carleson criteria over the standard ten-measure gallery and
print the verdict table.

The gallery spans the verdict space: normalized Lebesgue, three weighted
packings (separation 0.3/0.5/0.8), two unit-weight dyadic rays, a boundary
cluster, the two truncated density measures, and a single atom.  The dict(1)
column is the largest polynomial quotient of criterion (1); for Lebesgue,
where every quotient is exactly 1, it is max |q - 1| instead.

Usage:
    python3 scripts/measure_gallery.py [--domain disk|ball2|ellipsoid] [--seed 0]
"""

import argparse
import sys
import time

import numpy as np

from carleson_lab import bergman, carleson, domains, sequences


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--domain", choices=("disk", "ball2", "ellipsoid"), default="disk")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--r", type=float, default=0.3)
    args = ap.parse_args(argv)

    spec = {
        "disk": domains.unit_disk(),
        "ball2": domains.unit_ball(2),
        "ellipsoid": domains.complex_ellipsoid((1, 2), (1.0, 1.0)),
    }[args.domain]
    model = bergman.kernel_model(spec)
    config = carleson.CarlesonConfig(r=args.r, seed=args.seed)
    suite = sequences.standard_measure_suite(spec, seed=args.seed)

    print(f"{'measure':18s} {'berezin':13s} {'geometric':13s} {'operator':13s} "
          f"{'sup(2)':>10s} {'sup(3)':>10s} {'dict(1)':>10s}  agree")
    t0 = time.monotonic()
    agree_all = True
    for name, mu in suite:
        rep = carleson.carleson_test(spec, model, mu, config)
        agree = rep.berezin.verdict == rep.geometric.verdict
        agree_all &= agree
        op_diff = float(np.max(np.abs(rep.operator.values - rep.berezin.values)))
        assert op_diff <= 1e-12, f"operator/berezin identity broken on {name}: {op_diff}"
        quotients = np.array([e.quotient for e in rep.dictionary])
        # every quotient is exactly 1 for nu, so its row shows the estimator's error
        dict_col = np.abs(quotients - 1.0).max() if name == "lebesgue" else quotients.max()
        print(f"{name:18s} {rep.berezin.verdict:13s} {rep.geometric.verdict:13s} "
              f"{rep.operator.verdict:13s} {rep.berezin.sup:10.4g} {rep.geometric.sup:10.4g} "
              f"{dict_col:10.4g}  {agree}")
    print("\ndict(1): largest dictionary quotient; on the lebesgue row, max |q - 1|")
    print(f"all verdicts agree: {agree_all}   ({time.monotonic() - t0:.1f}s)")
    return 0 if agree_all else 1


if __name__ == "__main__":
    sys.exit(main())
