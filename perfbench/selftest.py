#!/usr/bin/env python3
"""Self-test of the benchmark's checks: each check must pass on a real
library output and fail on a corrupted copy of it.

Usage, from the root of a source checkout:

    python3 perfbench/selftest.py

The outputs are small versions of the workloads' (fewer candidates and
samples), so the whole test takes a few seconds.  Exit code 0 when every
check behaves, 1 otherwise.
"""

from __future__ import annotations

import dataclasses
import hashlib
import math
import sys

import run

run._cap_threads()
workloads = run._import_library()

import numpy as np  # noqa: E402

from carleson_lab import bergman, carleson, domains, sequences  # noqa: E402

import checks  # noqa: E402

replace = dataclasses.replace
RESULTS: list[tuple[str, bool]] = []


def expect(label: str, check, good, bad) -> None:
    """check(good) must report nothing and check(bad) must report a problem."""
    passed = check(good)
    failed = check(bad)
    ok = passed == [] and failed != []
    RESULTS.append((label, ok))
    detail = failed[0] if failed else "corruption not detected"
    print(f"{'ok  ' if ok else 'FAIL'} {label}: good -> {passed or 'pass'}; corrupted -> {detail}")


def nudge(point: np.ndarray, eps: float = 1e-3) -> np.ndarray:
    return point * (1.0 - eps)


def models_chain() -> None:
    disk, ball = domains.unit_disk(), domains.unit_ball(2)
    config = carleson.CarlesonConfig(r=0.3, seed=0, berezin_samples=1 << 12, mass_samples=1 << 10)
    model = bergman.kernel_model(disk)

    mu = sequences.named_measure(disk, "packing0.5", seed=0)
    rep = carleson.carleson_test(disk, model, mu, config)
    values = rep.berezin.values.copy()
    values[3] *= 1.0 + 1e-6
    expect("atomic Berezin value scaled by 1 + 1e-6",
           lambda r: checks.gallery_report("packing0.5", r, mu), rep,
           replace(rep, berezin=replace(rep.berezin, values=values)))
    expect("verdict flipped to Diverging",
           lambda r: checks.gallery_report("packing0.5", r, mu), rep,
           replace(rep, geometric=replace(rep.geometric, verdict="Diverging")))

    nu = sequences.named_measure(disk, "lebesgue")
    rep_nu = carleson.carleson_test(disk, model, nu, config)
    expect("B(nu) moved 1e-9 off 1 at stderr 0",
           lambda r: checks.gallery_report("lebesgue", r, nu), rep_nu,
           replace(rep_nu, berezin=replace(rep_nu.berezin, values=rep_nu.berezin.values + 1e-9)))

    suite = [("packing0.5", mu)]
    crowded = replace(mu, points=np.vstack([mu.points, nudge(mu.points[:1])]))
    expect("packing point added next to another", checks.suite_packings, suite,
           [("packing0.5", crowded)])

    r = 0.5
    cover = carleson.kobayashi_cover(ball, r, seed=0, candidates=2000, test_count=1000)
    sample = domains.quasi_interior(ball, 1000, seed=0, level_floor=cover.level)
    moved = cover.centers.copy()
    moved[1] = nudge(moved[0])
    expect("cover center moved inside another's ball",
           lambda c: checks.ball_cover(c, sample), cover, replace(cover, centers=moved))
    expect("cover with half its centers",
           lambda c: checks.ball_cover(c, sample), cover,
           replace(cover, centers=cover.centers[: len(cover.centers) // 2]))
    expect("coverage report with one uncovered point",
           lambda c: checks.ball_cover(c, sample), cover,
           replace(cover, coverage=replace(cover.coverage, uncovered=1)))

    queries = domains.quasi_interior(ball, 500, seed=1, level_floor=cover.level)
    big_r = (1.0 + r) / 2.0
    counts = carleson.overlap_count_many(ball, cover.centers, big_r, queries)
    off = counts.copy()
    off[7] += 1
    expect("overlap count off by one",
           lambda c: checks.counts_equal(c, queries, cover.centers, big_r), counts, off)

    gamma = sequences.greedy_packing(disk, 0.3, level_floor=0.02, seed=0, candidates=1024).sequence
    cfg = replace(config, r=0.5)
    thm = sequences.thm42_pipeline(disk, model, gamma, cfg)
    for label, bad in (
        ("thm42 part count + 1", replace(thm, part_count=thm.part_count + 1)),
        ("thm42 max ball count - 1", replace(thm, max_ball_count=thm.max_ball_count - 1)),
        ("thm42 separation scaled by 1 + 1e-9", replace(thm, separation=thm.separation * (1 + 1e-9))),
    ):
        expect(label, lambda t: checks.thm42_report(t, gamma.points, cfg.r), thm, bad)


def ellipsoid() -> None:
    spec = domains.complex_ellipsoid((1, 2), (1.0, 1.0))
    r = 0.5
    cover = carleson.kobayashi_cover(spec, r, seed=0, candidates=1500, test_count=1000)
    sample = domains.quasi_interior(spec, 1000, seed=0, level_floor=cover.level)
    inner = np.flatnonzero(checks.in_unit_ball(cover.centers))
    moved = cover.centers.copy()
    moved[inner[1]] = nudge(moved[inner[0]])
    expect("ellipsoid center moved inside another's ball (in B)",
           lambda c: checks.ellipsoid_cover(c, sample), cover, replace(cover, centers=moved))
    cov = cover.coverage
    expect("ellipsoid coverage with 11 points not certified",
           lambda c: checks.ellipsoid_cover(c, sample), cover,
           replace(cover, coverage=replace(cov, certified=cov.total - 11, heuristic=11)))
    expect("ellipsoid cover with a tenth of its centers",
           lambda c: checks.ellipsoid_cover(c, sample), cover,
           replace(cover, centers=cover.centers[: len(cover.centers) // 10]))

    queries = domains.quasi_interior(spec, 500, seed=1, level_floor=cover.level)
    big_r = (1.0 + r) / 2.0
    counts = carleson.overlap_count_many(spec, cover.centers, big_r, queries)
    lower, upper = checks.sandwich_counts(queries, cover.centers, big_r)
    above = counts.copy()
    above[np.argmax(upper)] = upper.max() + 1
    below = counts.copy()
    below[np.argmax(lower)] = lower.max() - 1
    check = lambda c: checks.counts_sandwiched(c, queries, cover.centers, big_r)  # noqa: E731
    expect("overlap count one above the Phi bound", check, counts, above)
    expect("overlap count one below the ball bound", check, counts, below)

    model = bergman.kernel_model(spec, degree=60)
    rng = np.random.default_rng(np.random.SeedSequence(0))
    z0s = 0.5 * domains.random_interior(spec, 2, rng)
    pts = domains.quasi_uniform(spec, 4096, seed=1)
    rows = [bergman.kernel_row(model, z0, pts) for z0 in z0s]
    expect("kernel row scaled by 1 + 1e-6",
           lambda rs: checks.kernel_rows(rs, z0s, pts), rows, [rows[0] * (1.0 + 1e-6), rows[1]])
    table = model.table
    values = table.values.copy()
    values[3, 5] *= 1.0 + 1e-9
    expect("moment m_(3,5) scaled by 1 + 1e-9", checks.moment_table, table,
           replace(table, values=values))
    expect("reproducing residual 2e-3", checks.kernel_check,
           {"variant": "series", "reproduce_max_residual": 2.8e-4},
           {"variant": "series", "reproduce_max_residual": 2e-3})


def digests() -> None:
    arr = np.linspace(0.0, 1.0, 7)
    bumped = arr.copy()
    bumped[3] = math.nextafter(bumped[3], 2.0)

    def digest(obj):
        h = hashlib.sha256()
        workloads.digest_update(h, obj)
        return h.hexdigest()

    expect("digest sees a one-ulp change",
           lambda a: [] if digest(a) == digest(arr) else ["digest changed"], arr, bumped)


def main() -> int:
    models_chain()
    ellipsoid()
    digests()
    bad = [label for label, ok in RESULTS if not ok]
    print(f"{len(RESULTS) - len(bad)} of {len(RESULTS)} checks behave" + (f"; not: {bad}" if bad else ""))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
