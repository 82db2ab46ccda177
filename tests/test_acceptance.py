"""Acceptance suite: the ten numbered release criteria, one test and one
pass/fail line each.

The scales and tolerances here are the contract the library is released
against; they are meant to be run as stated, not shrunk.  Every criterion
prints a single summary line (shown in the terminal summary section) and then
asserts, so a red run still reports the measured numbers for all criteria
that executed.
"""

import json
import math
import time

import criteria_checks
import numpy as np
import pytest
from conftest import record_acceptance

from carleson_lab import bergman, carleson, cli, domains, geometry, kobayashi, measures, sequences
from carleson_lab.domains import complex_ellipsoid, unit_ball, unit_disk
from carleson_lab.polynomials import random_polynomial

DISK = unit_disk()
BALL2 = unit_ball(2)
ELL12 = complex_ellipsoid((1, 2), (1.0, 1.0))


def _line(num: int, ok: bool, name: str, detail: str) -> bool:
    text = f"criterion {num:2d} [{'PASS' if ok else 'FAIL'}] {name}: {detail}"
    record_acceptance(text)
    print(text)
    return ok


# ---------------------------------------------------------------------------
# 1. kernel exactness: series model vs closed form


def test_criterion_01_kernel_series_matches_closed_form():
    t0 = time.monotonic()
    worst = 0.0
    for spec in (DISK, BALL2):
        series = bergman.reinhardt_series_model(spec, degree=60)
        closed = bergman.closed_ball_model(spec)
        rng = np.random.default_rng(np.random.SeedSequence(1))
        z = 0.7 * domains.random_interior(spec, 1000, rng)
        w = 0.7 * domains.random_interior(spec, 1000, rng)
        for zi, wi in zip(z, w):
            exact = bergman.kernel(closed, zi, wi)
            approx = bergman.kernel(series, zi, wi)
            worst = max(worst, abs(approx - exact) / abs(exact))
    elapsed = time.monotonic() - t0
    ok = worst < 1e-8 and elapsed < 10.0
    _line(1, ok, "kernel series vs closed form",
          f"max rel error {worst:.2e} (< 1e-8), 2x10^3 pairs in {elapsed:.1f}s (< 10s)")
    assert worst < 1e-8
    assert elapsed < 10.0


# ---------------------------------------------------------------------------
# 2. reproducing property at quasi-Monte Carlo scale


def test_criterion_02_reproducing_property():
    specs = [DISK, BALL2, ELL12]
    models = [bergman.kernel_model(s) for s in specs]
    rng = np.random.default_rng(np.random.SeedSequence(42))
    t0 = time.monotonic()
    worst = 0.0
    for k in range(20):
        spec, model = specs[k % 3], models[k % 3]
        poly = random_polynomial(spec.dim, 5, rng)
        z0 = 0.5 * domains.random_interior(spec, 1, rng)[0]
        pts = domains.quasi_uniform(spec, 10**6, seed=1000 + k)
        rep = bergman.reproduce_check(model, poly, z0, pts)
        worst = max(worst, rep.residual)
    elapsed = time.monotonic() - t0
    ok = worst < 1e-3 and elapsed < 120.0
    _line(2, ok, "reproducing property",
          f"max residual {worst:.2e} (< 1e-3), 20 polynomials x 10^6 samples in {elapsed:.0f}s (< 120s)")
    assert worst < 1e-3
    assert elapsed < 120.0


# ---------------------------------------------------------------------------
# 3. Berezin identity B(nu) = 1 on the model domains


def test_criterion_03_berezin_identity():
    nu = measures.lebesgue_measure()
    worst_dev = worst_sigma = 0.0
    for spec in (DISK, BALL2):
        model = bergman.kernel_model(spec)
        grid = carleson.build_grid(spec, carleson.CarlesonConfig())
        zs = np.array([gp.point for gp in grid])[:50]
        assert len(zs) == 50
        pts = domains.quasi_uniform(spec, 1 << 16, seed=0)
        base = measures.NuBase(pts, bergman.nu_volume(spec) * nu.density(pts))
        for est in bergman.berezin_many(model, nu, zs, base):
            dev = abs(est.value - 1.0)
            worst_dev = max(worst_dev, dev)
            worst_sigma = max(worst_sigma, est.stderr)
            assert dev <= 3.0 * est.stderr + 1e-12
    ok = True
    _line(3, ok, "Berezin identity",
          f"max |B(nu)-1| = {worst_dev:.1e} within 3 stderr (max stderr {worst_sigma:.1e}) "
          f"at 50 grid points per model domain")


# ---------------------------------------------------------------------------
# 4. polydisk sandwich soundness against the exact distance oracle


def test_criterion_04_sandwich_soundness():
    rng = np.random.default_rng(np.random.SeedSequence(9))
    viol_inner = viol_outer = total = 0
    for spec in (DISK, BALL2):
        for _ in range(100):
            z0 = domains.random_interior(spec, 1, rng)[0]
            r = rng.uniform(0.05, 0.95)
            sw = kobayashi.ball_sandwich(spec, z0, r)
            zin = geometry.sample_polydisk(sw.inner, 50, rng)
            din = kobayashi.tanh_distance_bracket(spec, z0, zin)[0]
            viol_inner += int((din >= r).sum())
            zg = domains.random_interior(spec, 50, rng)
            outside = ~np.asarray(geometry.polydisk_contains(sw.outer, zg))
            dg = kobayashi.tanh_distance_bracket(spec, z0, zg)[0]
            viol_outer += int(((dg < r) & outside).sum())
            total += 100
    ok = viol_inner == 0 and viol_outer == 0
    _line(4, ok, "ball sandwich soundness",
          f"{total} random (z0,r,z): {viol_inner} inner-polydisk points outside the ball, "
          f"{viol_outer} outer-complement points inside (both must be 0)")
    assert viol_inner == 0
    assert viol_outer == 0


# ---------------------------------------------------------------------------
# 5. metric bracket and the boundary log envelope


def test_criterion_05_metric_bracket_and_envelope():
    rng = np.random.default_rng(np.random.SeedSequence(11))
    violations = 0
    for spec in (DISK, BALL2):
        z = domains.random_interior(spec, 5000, rng)
        v = rng.normal(size=(5000, spec.dim)) + 1j * rng.normal(size=(5000, spec.dim))
        for zi, vi in zip(z, v):
            mb = criteria_checks.metric_bounds(spec, zi, vi)
            exact = criteria_checks.exact_metric_model(spec, zi, vi)
            violations += not (mb.lower <= exact <= mb.upper)

    deltas = np.geomspace(1e-6, 1e-1, 60)
    c1 = math.inf
    c2 = -math.inf
    for theta in (0.0, 1.1, 2.7, 4.4):
        pts = criteria_checks.boundary_ray_samples(DISK, np.array([np.exp(1j * theta)]), deltas)
        env = criteria_checks.calibrate_log_envelope(DISK, 0.0, pts)
        c1 = min(c1, env.c1)
        c2 = max(c2, env.c2)
    env_ok = c1 >= -0.01 and c2 <= 0.35
    ok = violations == 0 and env_ok
    _line(5, ok, "metric bracket + log envelope",
          f"10^4 (z,v): {violations} bracket violations (must be 0); "
          f"radial-ray residual range [{c1:.6f}, {c2:.6f}] within [-0.01, 0.35]")
    assert violations == 0
    assert env_ok


# ---------------------------------------------------------------------------
# 6. covering: full coverage and overlap stability across seeds


def test_criterion_06_cover_coverage_and_overlap_stability():
    # The covering lemma promises a finite overlap multiplicity m, not a
    # particular one.  In complex dimension 2 m is in the hundreds (the 2-ball
    # with exact distances gives maxima around 750 at r = 0.3), so the seed
    # spread is gated relative to the median: spread <= max(2, median // 10).
    # Coverage must be certified by the distance oracle, not inferred from the
    # greedy rejections.
    pieces = []
    ok = True
    for spec, name in ((DISK, "disk"), (ELL12, "ellipsoid")):
        # |r(anchor)| = 1 on every model: test_domains.py::TestSpecs::test_r_is_minus_one_at_the_anchor
        lam0 = 1.0
        queries = domains.quasi_interior(spec, 10000, seed=12345, level_floor=0.1 * lam0)
        for r in (0.3, 0.5):
            maxes = []
            certified = heuristic = uncovered = 0
            covered = True
            for seed in range(5):
                res = carleson.kobayashi_cover(
                    spec, r, seed=seed, candidates=12000, test_count=10000
                )
                cov = res.coverage
                certified += cov.certified
                heuristic += cov.heuristic
                uncovered += cov.uncovered
                covered &= cov.total == 10000 and cov.uncovered == 0 and cov.certified >= 9990
                counts = carleson.overlap_count_many(spec, res.centers, (1.0 + r) / 2.0, queries)
                maxes.append(int(counts.max()))
            spread = max(maxes) - min(maxes)
            gate = max(2, int(np.median(maxes)) // 10)
            case_ok = covered and spread <= gate
            ok &= case_ok
            pieces.append(
                f"{name} r={r}: cover {certified} certified / {heuristic} heuristic / "
                f"{uncovered} uncovered of 50000 (>= 9990 certified per seed), "
                f"overlap max {maxes} spread {spread} <= {gate} "
                f"({'ok' if case_ok else 'FAIL'})"
            )
    _line(6, ok, "cover coverage + overlap stability", "; ".join(pieces))
    assert ok, "; ".join(pieces)


# ---------------------------------------------------------------------------
# 7. sub-mean-value inequalities


def test_criterion_07_submean_inequalities():
    rng = np.random.default_rng(np.random.SeedSequence(5))
    polys = [random_polynomial(1, 5, rng) for _ in range(100)]
    deltas = np.geomspace(0.01, 0.2, 20)
    angles = rng.uniform(0.0, 2.0 * np.pi, 20)
    pts = (1.0 - deltas) * np.exp(1j * angles)
    failures = 0
    for poly in polys:
        for z0 in pts:
            for r in (0.1, 0.3, 0.5):
                rep = criteria_checks.submean_check(DISK, poly, z0, r, samples=4096, seed=3)
                failures += not rep.passed
    ok = failures == 0
    _line(7, ok, "sub-mean-value inequalities",
          f"{failures} failures over 100 polynomials x 20 collar points x 3 radii (must be 0)")
    assert failures == 0


# ---------------------------------------------------------------------------
# 8. criteria agreement on the ten-measure suite


def test_criterion_08_measure_suite_agreement():
    # the three verdicts agree on the ten disk measures; for atoms the
    # truncated kernel K_d(., z) = sum_{k <= d} (k + 1) (. conj z)^k lies in
    # P_d, so its quotient B_d(z) = sum_j w_j |K_d(a_j, z)|^2 / K_d(z, z) is
    # at most lambda(d) at every grid point and rung
    model = bergman.kernel_model(DISK)
    config = carleson.CarlesonConfig()
    suite = sequences.standard_measure_suite(DISK, seed=0)
    assert len(suite) == 10
    degrees = carleson.operator_ladder(1, config.levels)
    disagreements = []
    worst_ratio = 0.0
    for name, mu in suite:
        rep = carleson.carleson_test(DISK, model, mu, config)
        if len({t.verdict for t in rep.traces}) != 1:
            disagreements.append(name)
        if isinstance(mu, measures.AtomicMeasure):
            zs = np.array([gp.point[0] for gp in rep.grid])
            for d, lam in zip(degrees, rep.operator.per_level):
                k = np.arange(d + 1)
                rows = ((k + 1) * (mu.points[:, 0, None] * np.conj(zs)[:, None, None]) ** k).sum(-1)
                diag = ((k + 1) * np.abs(zs[:, None]) ** (2 * k)).sum(-1)
                quotients = (mu.weights * np.abs(rows) ** 2).sum(-1) / diag
                worst_ratio = max(worst_ratio, float(quotients.max()) / lam)
    ok = not disagreements and worst_ratio <= 1.0 + 1e-12
    _line(8, ok, "ten-measure suite",
          f"verdicts (1)=(2)=(3) on {10 - len(disagreements)}/10 measures"
          + (f" (disagree: {disagreements})" if disagreements else "")
          + f"; atoms: max B_d(z) / lambda(d) = {worst_ratio:.6f} (<= 1 + 1e-12)")
    assert not disagreements
    assert worst_ratio <= 1.0 + 1e-12


# ---------------------------------------------------------------------------
# 9. decomposition postconditions and sequence-measure verdicts


def test_criterion_09_decomposition_and_sequence_verdicts():
    # greedy decomposition invariants on random clouds, exact oracle arithmetic
    rng = np.random.default_rng(np.random.SeedSequence(21))
    sep_violations = 0
    count_violations = 0
    for _ in range(3):
        w = rng.uniform(-0.95, 0.95, size=(60, 2))
        pts = (w[:, 0] + 1j * w[:, 1]).reshape(-1, 1)
        pts = pts[np.abs(pts[:, 0]) < 0.97][:40]
        cloud = sequences.SequenceSet(points=pts)
        for r in (0.3, 0.5):
            dec = sequences.greedy_decompose(DISK, cloud, r)
            for part in dec.parts:
                if sequences.separation(DISK, part) < r:
                    sep_violations += 1
            if len(dec.parts) > dec.max_ball_count:
                count_violations += 1

    model = bergman.kernel_model(DISK)
    config = carleson.CarlesonConfig()
    packed_verdicts = []
    for delta in (0.3, 0.5, 0.8):
        pack = sequences.greedy_packing(DISK, delta, level_floor=0.02, seed=0, candidates=4096)
        rep = sequences.thm42_pipeline(DISK, model, pack.sequence, config)
        packed_verdicts.append(rep.carleson.berezin.verdict)
    # deep enough that the dyadic growth spans the default seven-level grid;
    # a shallower cluster is a genuinely small measure and reads Inconclusive
    cluster = sequences.boundary_cluster(DISK, np.array([1.0]), levels=9)
    cluster_rep = sequences.thm42_pipeline(DISK, model, cluster, config)

    packed_ok = all(v == "Bounded" for v in packed_verdicts)
    cluster_ok = cluster_rep.carleson.berezin.verdict == "Diverging"
    ok = sep_violations == 0 and count_violations == 0 and packed_ok and cluster_ok
    _line(9, ok, "decomposition + sequence measures",
          f"{sep_violations} part-separation violations, {count_violations} part-count violations; "
          f"packed verdicts {packed_verdicts} (all Bounded), cluster {cluster_rep.carleson.berezin.verdict}")
    assert sep_violations == 0
    assert count_violations == 0
    assert packed_ok
    assert cluster_ok


# ---------------------------------------------------------------------------
# 10. CLI determinism: byte-identical artifacts on every command


def test_criterion_10_cli_byte_determinism(tmp_path):
    disk_spec = tmp_path / "disk.json"
    ell_spec = tmp_path / "ell.json"
    domains.save_spec(DISK, disk_spec)
    domains.save_spec(ELL12, ell_spec)

    # fixed input sequences shared by both decompose runs
    prep = tmp_path / "prep"
    assert cli.main(["pack", "--domain", str(disk_spec), "--r", "0.6",
                     "--samples", "512", "--level", "0.1", "--out", str(prep)]) == 0
    points_csv = str(prep / "pack.csv")
    prep_ell = tmp_path / "prep-ell"
    assert cli.main(["pack", "--domain", str(ell_spec), "--r", "0.3",
                     "--samples", "512", "--level", "0.1", "--out", str(prep_ell)]) == 0
    points_csv_ell = str(prep_ell / "pack.csv")

    commands = {
        "domain-info": ["domain-info", "--domain", str(disk_spec)],
        "frame": ["frame", "--domain", str(ell_spec), "--point", "0,0,0.9,0"],
        "kernel-check": ["kernel-check", "--domain", str(disk_spec), "--samples", "4096"],
        "berezin": ["berezin", "--domain", str(disk_spec), "--samples", "4096"],
        "carleson": ["carleson", "--domain", str(disk_spec), "--samples", "4096"],
        "cover": ["cover", "--domain", str(disk_spec), "--r", "0.5", "--samples", "3000"],
        "pack": ["pack", "--domain", str(disk_spec), "--r", "0.6", "--samples", "512"],
        "decompose": ["decompose", "--domain", str(disk_spec), "--points", points_csv, "--r", "0.3"],
        "thm42": ["thm42", "--domain", str(disk_spec), "--samples", "4096"],
        "pack-ell": ["pack", "--domain", str(ell_spec), "--r", "0.5", "--samples", "1024"],
        "decompose-ell": ["decompose", "--domain", str(ell_spec), "--points", points_csv_ell,
                          "--r", "0.6"],
    }
    mismatches = []
    artifact_count = 0
    for name, argv in commands.items():
        runs = []
        for tag in ("run1", "run2"):
            out = tmp_path / tag / name
            assert cli.main(argv + ["--out", str(out)]) == 0, f"{name} failed"
            runs.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
        if sorted(runs[0]) != sorted(runs[1]):
            mismatches.append(f"{name}: artifact sets differ")
            continue
        artifact_count += len(runs[0])
        for fname, blob in runs[0].items():
            if runs[1][fname] != blob:
                mismatches.append(f"{name}/{fname}")
    ok = not mismatches
    _line(10, ok, "CLI determinism",
          f"{len(commands)} commands x 2 runs: {artifact_count} artifacts byte-identical"
          + (f"; mismatches: {mismatches}" if mismatches else ""))
    assert not mismatches


# ---------------------------------------------------------------------------
# sanity: JSON artifacts parse (guards the byte comparison above against
# accidentally comparing empty files)


def test_artifacts_are_wellformed(tmp_path):
    disk_spec = tmp_path / "disk.json"
    domains.save_spec(DISK, disk_spec)
    out = tmp_path / "info"
    assert cli.main(["domain-info", "--domain", str(disk_spec), "--out", str(out)]) == 0
    payload = json.loads((out / "domain_info.json").read_text())
    assert payload["kind"] == "disk"
