#!/usr/bin/env python3
"""Run the three Carleson criteria over the standard ten-measure gallery and
print the verdict table.

The gallery spans the verdict space: normalized Lebesgue, three weighted
packings (separation 0.3/0.5/0.8), two unit-weight dyadic rays, a boundary
cluster, the two truncated density measures, and a single atom.  The
ratio(1) column is lambda(d_top) / lambda(d_{levels-4}), the growth of
criterion (1)'s ladder over the four levels its verdict reads.

With --seeds the gallery is built and tested once per seed (suite and
config alike), and the table counts, per measure and criterion, how many
seeds gave each verdict as Bounded/Diverging/Inconclusive.

Usage:
    python3 scripts/measure_gallery.py [--domain disk|ball2|ellipsoid] [--seed 0]
    python3 scripts/measure_gallery.py --domain ball2 --seeds 0 1 2
"""

import argparse
import sys
import time
from collections import Counter

from carleson_lab import bergman, carleson, domains, sequences

CRITERIA = ("berezin", "geometric", "operator")
VERDICTS = (carleson.BOUNDED, carleson.DIVERGING, carleson.INCONCLUSIVE)


def gallery(spec, model, seed: int, r: float):
    """(name, report) for every measure of the seed's gallery."""
    config = carleson.CarlesonConfig(r=r, seed=seed)
    for name, mu in sequences.standard_measure_suite(spec, seed=seed):
        yield name, carleson.carleson_test(spec, model, mu, config)


def verdict_counts(spec, model, seeds, r: float) -> int:
    """Print how many seeds gave each verdict; 0 if (2) and (3) always agree."""
    counts: dict[str, Counter] = {}
    agree_all = True
    t0 = time.monotonic()
    for seed in seeds:
        for name, rep in gallery(spec, model, seed, r):
            tally = counts.setdefault(name, Counter())
            for crit in CRITERIA:
                tally[crit, getattr(rep, crit).verdict] += 1
            agree_all &= rep.berezin.verdict == rep.geometric.verdict
    print(f"{'measure':18s}" + "".join(f" {c + ' B/D/I':>17s}" for c in CRITERIA))
    for name, tally in counts.items():
        cells = ["/".join(str(tally[crit, v]) for v in VERDICTS) for crit in CRITERIA]
        print(f"{name:18s}" + "".join(f" {cell:>17s}" for cell in cells))
    print(f"\n{len(seeds)} seeds; B/D/I = Bounded/Diverging/Inconclusive")
    print(f"(2) and (3) agree on every seed: {agree_all}   ({time.monotonic() - t0:.1f}s)")
    return 0 if agree_all else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    ap.add_argument("--domain", choices=("disk", "ball2", "ellipsoid"), default="disk")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seeds", type=int, nargs="+", help="count verdicts over these seeds")
    ap.add_argument("--r", type=float, default=0.3)
    args = ap.parse_args(argv)

    spec = {
        "disk": domains.unit_disk(),
        "ball2": domains.unit_ball(2),
        "ellipsoid": domains.complex_ellipsoid((1, 2), (1.0, 1.0)),
    }[args.domain]
    model = bergman.kernel_model(spec)
    if args.seeds:
        return verdict_counts(spec, model, args.seeds, args.r)

    print(f"{'measure':18s} {'berezin':13s} {'geometric':13s} {'operator':13s} "
          f"{'sup(2)':>10s} {'sup(3)':>10s} {'ratio(1)':>10s}  agree")
    t0 = time.monotonic()
    agree_all = True
    for name, rep in gallery(spec, model, args.seed, args.r):
        agree = rep.berezin.verdict == rep.geometric.verdict
        agree_all &= agree
        lam = rep.operator.per_level
        print(f"{name:18s} {rep.berezin.verdict:13s} {rep.geometric.verdict:13s} "
              f"{rep.operator.verdict:13s} {rep.berezin.sup:10.4g} {rep.geometric.sup:10.4g} "
              f"{lam[-1] / lam[-4]:10.4g}  {agree}")
    print("\nratio(1): lambda(d_top) / lambda(d_{levels-4}) of criterion (1)'s ladder")
    print(f"all verdicts agree: {agree_all}   ({time.monotonic() - t0:.1f}s)")
    return 0 if agree_all else 1


if __name__ == "__main__":
    sys.exit(main())
