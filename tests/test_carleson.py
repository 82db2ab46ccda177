import math
import time

import numpy as np
import pytest
from criteria_checks import submean_check

from carleson_lab import bergman, domains, geometry, kobayashi, measures, tables
from carleson_lab.carleson import (
    BOUNDED,
    DIVERGING,
    INCONCLUSIVE,
    CarlesonConfig,
    CoverageReport,
    GridPoint,
    build_grid,
    carleson_test,
    criterion_berezin,
    criterion_geometric,
    criterion_operator,
    grid_levels,
    kobayashi_cover,
    nu_uniform_base,
    operator_ladder,
    overlap_count_many,
    report_level_rows,
    report_point_rows,
    report_summary,
    verdict_from_levels,
)
from carleson_lab.domains import complex_ellipsoid, unit_ball, unit_disk
from carleson_lab.errors import ConfigError, InputError, ResourceError
from carleson_lab.measures import atomic_measure, lebesgue_measure
from carleson_lab.polynomials import HoloPolynomial, poly_eval, random_polynomial
from carleson_lab.sequences import named_measure

DISK = unit_disk()
ELL12 = complex_ellipsoid((1, 2), (1.0, 1.0))

FAST = CarlesonConfig(
    r=0.3,
    levels=4,
    extra_rays=2,
    interior_points=8,
    berezin_samples=1 << 12,
    mass_samples=1 << 12,
)


def _monomials(dim, degree):
    """Multi-indices |alpha| <= degree, written out by total degree."""
    return [a for k in range(degree + 1) for a in np.ndindex(*(degree + 1,) * dim) if sum(a) == k]


def _written_out_gram(spec, mu, degree):
    """G[a, b] = sum_k w_k e_a(z_k) conj(e_b(z_k)) with e_a = z^a / sqrt(m_a),
    one atom and one monomial at a time."""
    table = bergman.moments(spec, degree)
    alphas = _monomials(spec.dim, degree)
    v = np.array(
        [[np.prod(z ** np.array(a)) / math.sqrt(bergman.moment(table, a)) for a in alphas]
         for z in mu.points]
    )
    return (v.T * mu.weights) @ v.conj()


def _written_out_diagonal(spec, base, degree):
    """mean(weight |z^a|^2) / m_a over the base for every |a| <= degree."""
    table = bergman.moments(spec, degree)
    return np.array(
        [np.mean(base.weight * np.prod(np.abs(base.points) ** (2 * np.array(a)), axis=1))
         / bergman.moment(table, a) for a in _monomials(spec.dim, degree)]
    )


class TestVerdicts:
    def test_flat_is_bounded(self):
        assert verdict_from_levels([1.0, 1.0, 1.0, 1.0]) == BOUNDED

    def test_zero_is_bounded(self):
        assert verdict_from_levels([0.0, 0.0, 0.0, 0.0]) == BOUNDED

    def test_monotone_x4_growth_diverges(self):
        assert verdict_from_levels([1.0, 2.0, 5.0, 20.0]) == DIVERGING
        assert verdict_from_levels([0.1, 1.0, 2.0, 5.0, 20.0]) == DIVERGING

    def test_growth_below_factor_is_not_diverging(self):
        assert verdict_from_levels([1.0, 2.0, 3.0, 3.9]) == INCONCLUSIVE

    def test_plateau_after_growth_is_bounded(self):
        assert verdict_from_levels([1.0, 10.0, 10.5, 11.0, 11.5]) == BOUNDED

    def test_nonmonotone_tail_is_not_diverging(self):
        assert verdict_from_levels([1.0, 8.0, 4.0, 16.0]) != DIVERGING

    def test_too_few_levels(self):
        with pytest.raises(InputError):
            verdict_from_levels([1.0, 2.0, 3.0])


class TestConfigAndGrid:
    def test_config_validation(self):
        with pytest.raises(ConfigError):
            CarlesonConfig(r=0.0)
        with pytest.raises(ConfigError):
            CarlesonConfig(levels=3)
        with pytest.raises(ConfigError, match="berezin_samples must be >= 2"):
            CarlesonConfig(berezin_samples=1)
        with pytest.raises(ConfigError, match="mass_samples must be >= 2"):
            CarlesonConfig(mass_samples=1)

    def test_operator_ladder(self):
        # d_top is 64 on the disk, 24 in C^2 (C(26, 2) = 325 monomials) and
        # 10 in C^3; the rungs fall by sqrt(2) a level
        assert operator_ladder(1, 7) == [8, 11, 16, 23, 32, 45, 64]
        assert operator_ladder(2, 7) == [3, 4, 6, 8, 12, 17, 24]
        assert operator_ladder(3, 4) == [4, 5, 7, 10]
        assert operator_ladder(1, 4) == [23, 32, 45, 64]
        assert operator_ladder(2, 16)[:3] == [1, 1, 1]

    def test_levels_are_dyadic(self):
        lams = grid_levels(CarlesonConfig(levels=5))
        assert abs(lams[0] - 0.5) < 1e-12  # half of |r(0)| = 1
        np.testing.assert_allclose(lams[:-1] / lams[1:], 2.0)

    def test_grid_structure_and_determinism(self):
        grid1 = build_grid(DISK, FAST)
        grid2 = build_grid(DISK, FAST)
        rays = FAST.levels * (4 * DISK.dim + FAST.extra_rays)
        assert len(grid1) == rays + FAST.interior_points
        for a, b in zip(grid1, grid2):
            np.testing.assert_array_equal(a.point, b.point)
            assert (a.kind, a.level_index, a.ray_index) == (b.kind, b.level_index, b.ray_index)
        for gp in grid1:
            assert domains.contains(DISK, gp.point[None, :])[0]
            if gp.kind == "ray":
                # ray points sit on the prescribed defining level
                assert abs(domains.defining_value(DISK, gp.point) - gp.level_value) < 1e-9
            else:
                assert gp.level_index == -1 and gp.ray_index == -1

    @pytest.mark.parametrize("spec", [DISK, unit_ball(2), ELL12], ids=["disk", "ball2", "ELL12"])
    def test_deltas_are_the_single_point_distances(self, spec):
        # build_grid takes every delta from one boundary_distance_batch call;
        # each must be the one-point distance of its own point, bit for bit,
        # and a Python float
        grid = build_grid(spec, FAST)
        assert {gp.kind for gp in grid} == {"ray", "interior"}
        for gp in grid:
            assert type(gp.delta) is float
            assert gp.delta == domains.boundary_distance(spec, gp.point), gp

    def test_disk_ray_deltas_match_levels(self):
        grid = build_grid(DISK, FAST)
        for gp in grid:
            if gp.kind == "ray":
                lam = -gp.level_value
                expected = 1.0 - math.sqrt(1.0 - lam)
                assert abs(gp.delta - expected) < 1e-9


class TestCarlesonLebesgue:
    def test_disk_lebesgue_report(self):
        model = bergman.kernel_model(DISK)
        report = carleson_test(DISK, model, lebesgue_measure(), FAST)
        # Berezin transform of nu is identically 1 (variance-free estimator)
        np.testing.assert_array_equal(report.berezin.values, 1.0)
        np.testing.assert_array_equal(report.berezin.stderr, 0.0)
        assert report.berezin.verdict == BOUNDED
        assert report.berezin.sup == 1.0
        # geometric bracket: pure sandwich volume-ratio bound
        cap = ((2.0 / (1.0 - FAST.r)) * (1.0 / FAST.r)) ** 2
        assert report.geometric.sup <= cap
        assert report.geometric.verdict == BOUNDED
        assert report.operator.verdict == BOUNDED
        assert report.measure_label == "lebesgue"

    def test_geometric_bracket_orders(self):
        model = bergman.kernel_model(DISK)
        report = carleson_test(DISK, model, lebesgue_measure(), FAST)
        assert report.geometric.lower is not None
        assert np.all(report.geometric.lower <= report.geometric.values + 1e-12)

    def test_dictionary_quotients_for_lebesgue(self):
        # the monomials' quotients integral |e_a|^2 dnu / ||e_a||^2 are all
        # exactly 1 for mu = nu: every rung reads 1 within 3 stderr
        model = bergman.kernel_model(DISK)
        report = carleson_test(DISK, model, lebesgue_measure(), FAST)
        assert len(report.operator.per_level) == FAST.levels
        dev = np.abs(report.operator.per_level - 1.0) - 3.0 * report.operator.stderr
        assert dev.max() <= 1e-12

    @pytest.mark.parametrize("seed", [0, 3, 7])
    @pytest.mark.parametrize(
        "spec", [DISK, domains.unit_ball(2), ELL12], ids=["DISK", "BALL2", "ELL12"]
    )
    def test_dictionary_quotients_for_lebesgue_are_accurate(self, spec, seed):
        # for mu = nu every diagonal entry G[a, a], |a| <= d_top, is 1 within
        # 3 stderr at the default sample count, and so is each rung's max
        config = CarlesonConfig(seed=seed)
        nu = lebesgue_measure()
        base = nu_uniform_base(spec, nu, config)
        top = operator_ladder(spec.dim, config.levels)[-1]
        table = bergman.moments(spec, top)
        t = np.abs(base.points) ** 2
        for a in _monomials(spec.dim, top):
            vals = base.weight * np.prod(t ** np.array(a), axis=1) / bergman.moment(table, a)
            assert abs(vals.mean() - 1.0) <= 3.0 * vals.std(ddof=1) / math.sqrt(len(vals)) + 1e-12
        trace = criterion_operator(spec, nu, config, base)
        assert np.max(np.abs(trace.per_level - 1.0) - 3.0 * trace.stderr) <= 1e-12

    @pytest.mark.parametrize("spec", [DISK, unit_ball(2), ELL12], ids=["disk", "ball2", "ELL12"])
    def test_single_atom_is_rank_one(self, spec):
        # G = w v v^H for one atom w at a, so lambda(d) = w sum |a^alpha|^2 / m_alpha
        a = 0.6 * domains.anchor_point(spec) + np.linspace(0.3, 0.2j, spec.dim) / spec.dim
        mu = atomic_measure(spec, a[None, :], [2.5])
        trace = criterion_operator(spec, mu, CarlesonConfig(), None)
        degrees = operator_ladder(spec.dim, 7)
        table = bergman.moments(spec, degrees[-1])
        for d, lam in zip(degrees, trace.per_level):
            own = 2.5 * sum(
                abs(np.prod(a ** np.array(alpha))) ** 2 / bergman.moment(table, alpha)
                for alpha in _monomials(spec.dim, d)
            )
            assert lam == pytest.approx(own, rel=1e-12)
            if spec is DISK:
                r2 = abs(a[0]) ** 2
                assert lam == pytest.approx(2.5 * sum((k + 1) * r2**k for k in range(d + 1)), rel=1e-12)
        assert trace.verdict == BOUNDED and trace.sup == trace.per_level[-1]

    @pytest.mark.parametrize("spec", [DISK, unit_ball(2), ELL12], ids=["disk", "ball2", "ELL12"])
    def test_random_polynomial_quotients_stay_below_the_ladder(self, spec):
        # lambda(d) is the sup of the quotient over P_d: no random polynomial
        # of degree d beats it, with ||p||^2 = sum |c_alpha|^2 m_alpha
        rng = np.random.default_rng(4)
        pts = domains.quasi_interior(spec, 40, seed=2)
        mu = atomic_measure(spec, pts, rng.uniform(0.1, 2.0, len(pts)))
        trace = criterion_operator(spec, mu, FAST, None)
        degrees = operator_ladder(spec.dim, FAST.levels)
        table = bergman.moments(spec, degrees[-1])
        for d, lam in zip(degrees, trace.per_level):
            for _ in range(5):
                poly = random_polynomial(spec.dim, d, rng)
                norm = sum(abs(c) ** 2 * bergman.moment(table, a) for a, c in poly.coeffs.items())
                quotient = float(np.sum(mu.weights * np.abs(poly_eval(poly, mu.points)) ** 2)) / norm
                assert quotient <= lam * (1.0 + 1e-12)
        assert np.all(np.diff(trace.per_level) >= -1e-12 * trace.per_level[1:])


@pytest.mark.parametrize("spec", [DISK, unit_ball(2)], ids=["disk", "ball2"])
def test_density_criteria_share_one_nu_uniform_base(spec):
    # criteria (1) and (2) integrate a density over the one quasi_uniform
    # draw of config.seed: the Berezin values are the Mobius means over it
    # and criterion (1)'s diagonal is recomputed on its weight
    mu = named_measure(spec, "density(1-d)")
    model = bergman.kernel_model(spec)
    report = carleson_test(spec, model, mu, FAST)
    pts = domains.quasi_uniform(spec, FAST.berezin_samples, seed=FAST.seed)
    for i, gp in enumerate(report.grid):
        vals = mu.density(kobayashi.mobius_translation(spec, gp.point)(pts))
        assert report.berezin.values[i] == float(vals.mean())
        assert report.berezin.stderr[i] == float(vals.std(ddof=1)) / math.sqrt(len(pts))
    base = measures.NuBase(pts, mu.density(pts))  # nu(D) = 1 on the disk and ball
    degrees = operator_ladder(spec.dim, FAST.levels)
    diag = _written_out_diagonal(spec, base, degrees[-1])
    best = [int(np.argmax(diag[: math.comb(d + spec.dim, spec.dim)])) for d in degrees]
    np.testing.assert_allclose(report.operator.per_level, diag[best], rtol=1e-12)
    # each rung's stderr is the iid one of the entry it reads
    table = bergman.moments(spec, degrees[-1])
    alphas = _monomials(spec.dim, degrees[-1])
    for b, err in zip(best, report.operator.stderr):
        vals = base.weight * np.prod(np.abs(pts) ** (2 * np.array(alphas[b])), axis=1)
        own = vals.std(ddof=1) / math.sqrt(len(pts)) / bergman.moment(table, alphas[b])
        assert err == pytest.approx(own, rel=1e-12)


@pytest.mark.parametrize("kind", ["atoms", "density"])
def test_dictionary_on_the_ellipsoid(kind):
    # on ELL12 the moments m_alpha and nu(D) = m_0 come from the moment
    # formula: the atoms' lambda(d) is the top eigenvalue of the written-out
    # Gram, a density's the largest written-out diagonal entry of the rung
    if kind == "atoms":
        mu = atomic_measure(ELL12, [[0.1, 0.2j], [-0.3, 0.1], [0.0, -0.6j]], [1.0, 2.0, 0.5])
    else:
        mu = measures.DensityMeasure(lambda p: np.abs(p[:, 1]) ** 2 + 0.5, label="smooth")
    base = nu_uniform_base(ELL12, mu, FAST)
    trace = criterion_operator(ELL12, mu, FAST, base)
    degrees = operator_ladder(2, FAST.levels)
    sizes = [math.comb(d + 2, 2) for d in degrees]
    if kind == "atoms":
        gram = _written_out_gram(ELL12, mu, degrees[-1])
        own = [np.linalg.eigvalsh(gram[:p, :p])[-1] for p in sizes]
        np.testing.assert_array_equal(trace.stderr, 0.0)
    else:
        weight = bergman.nu_volume(ELL12) * mu.density(base.points)
        np.testing.assert_array_equal(base.weight, weight)
        diag = _written_out_diagonal(ELL12, base, degrees[-1])
        own = [diag[:p].max() for p in sizes]
        assert np.all(trace.stderr > 0.0)
    np.testing.assert_allclose(trace.per_level, own, rtol=1e-12)
    assert trace.name == "operator"
    np.testing.assert_array_equal(trace.values, trace.per_level)
    assert trace.sup == trace.per_level[-1]
    assert trace.verdict == verdict_from_levels(trace.per_level)


def test_large_gram_is_the_same_gram():
    # past 2^23 products (atoms x monomials^2) the Gram is a matrix product,
    # not an einsum: 100 atoms x 325^2 on the 2-ball
    spec = unit_ball(2)
    pts = domains.quasi_interior(spec, 100, seed=5)
    mu = atomic_measure(spec, pts, np.linspace(0.5, 1.5, len(pts)))
    assert mu.count * 325**2 > 1 << 23
    trace = criterion_operator(spec, mu, FAST, None)
    degrees = operator_ladder(2, FAST.levels)
    gram = _written_out_gram(spec, mu, degrees[-1])
    own = [np.linalg.eigvalsh(gram[:p, :p])[-1] for p in (math.comb(d + 2, 2) for d in degrees)]
    np.testing.assert_allclose(trace.per_level, own, rtol=1e-12)


def test_density_is_evaluated_once_on_the_base(monkeypatch):
    # on ELL12 the Berezin transform (quasi-uniform path) and criterion (1)
    # both read the density on the shared base through its weight.  The
    # series tail is let through: the grid's deepest level is beyond the
    # degree-60 series, and only the calls are counted here
    monkeypatch.setattr(bergman, "_TAIL_TOL", math.inf)
    pts = domains.quasi_uniform(ELL12, FAST.berezin_samples, seed=FAST.seed)
    on_base = []

    def density(p):
        on_base.append(p.shape == pts.shape and np.array_equal(p, pts))
        return np.abs(p[:, 1]) ** 2 + 0.5

    mu = measures.DensityMeasure(density, label="counted")
    carleson_test(ELL12, bergman.kernel_model(ELL12), mu, FAST)
    assert sum(on_base) == 1
    assert len(on_base) > 1  # the geometric criterion's polydisk points


class TestGeometricBase:
    # criterion_geometric draws one unit-polydisk sample per call from the
    # spawn key (303,) of config.seed and maps it into both polydisks of
    # every grid point's sandwich
    @staticmethod
    def _base(spec, config, key):
        rng = np.random.default_rng(np.random.SeedSequence(config.seed, spawn_key=(key,)))
        return geometry.unit_polydisk_sample(spec.dim, config.mass_samples, rng)

    def test_values_are_the_outer_mass_on_the_shared_base(self):
        spec = unit_ball(2)
        grid = build_grid(spec, FAST)
        mu = named_measure(spec, "density(1-d)")
        trace = criterion_geometric(spec, mu, grid, FAST)
        base = self._base(spec, FAST, 303)
        for i, gp in enumerate(grid):
            sw = kobayashi.ball_sandwich(spec, gp.point, FAST.r)
            vol_inner = geometry.polydisk_nu_volume(sw.inner)
            vol_outer = geometry.polydisk_nu_volume(sw.outer)
            outer = measures.mass(spec, mu, sw.outer, base)
            assert trace.values[i] == outer.value / vol_inner
            assert trace.stderr[i] == outer.stderr / vol_inner
            assert trace.lower[i] == measures.mass(spec, mu, sw.inner, base).value / vol_outer

    @pytest.mark.parametrize(
        "name", ["lebesgue", "density(1-d)", "density(1/(1-d))"],
        ids=["lebesgue", "one_minus_delta", "inv_one_minus_delta"],
    )
    def test_independent_base_agrees_within_stderr(self, name):
        # sharing the base correlates the grid points but leaves each
        # estimate unbiased: an independent base agrees at every point
        spec = unit_ball(2)
        config = CarlesonConfig()
        grid = build_grid(spec, config)
        mu = named_measure(spec, name)
        trace = criterion_geometric(spec, mu, grid, config)
        base = self._base(spec, config, 304)
        for i, gp in enumerate(grid):
            sw = kobayashi.ball_sandwich(spec, gp.point, config.r)
            scale = geometry.polydisk_nu_volume(sw.inner)
            other = measures.mass(spec, mu, sw.outer, base)
            gap = abs(trace.values[i] - other.value / scale)
            assert gap <= 4.5 * math.hypot(trace.stderr[i], other.stderr / scale), (i, gap)


def test_ball_monte_carlo_runs_on_one_thread():
    # The Mobius pull-back of berezin_many and the polydisk Monte Carlo of
    # criterion_geometric (one base sample mapped into every polydisk) take
    # their products over the n coordinates one coordinate at a time.  As matrix products, OpenBLAS
    # split them across the cores and its spinning worker put the process
    # time near twice the wall time.  Load on the machine lowers the ratio.
    spec = unit_ball(2)
    config = CarlesonConfig(seed=5)
    grid = build_grid(spec, config)
    model = bergman.kernel_model(spec)
    mu = named_measure(spec, "density(1-d)")
    zs = np.array([gp.point for gp in grid[::4]])
    time.sleep(0.5)  # BLAS workers left spinning by earlier tests go idle
    wall, cpu = time.perf_counter(), time.process_time()
    bergman.berezin_many(model, mu, zs, nu_uniform_base(spec, mu, config))
    criterion_geometric(spec, mu, grid, config)
    wall, cpu = time.perf_counter() - wall, time.process_time() - cpu
    assert cpu <= 1.25 * wall, (cpu, wall)


class TestCarlesonVerdictCases:
    def test_boundary_ray_atoms_diverge(self):
        # unit masses marching to the boundary: Berezin blows up like delta^-2
        ks = np.arange(1, 11)
        pts = (1.0 - 0.5**ks)[:, None].astype(complex)
        mu = atomic_measure(DISK, pts, np.ones(len(pts)), label="ray")
        model = bergman.kernel_model(DISK)
        report = carleson_test(DISK, model, mu, FAST)
        assert report.berezin.verdict == DIVERGING
        assert report.geometric.verdict == DIVERGING
        assert report.operator.verdict == DIVERGING

    def test_single_interior_atom_bounded(self):
        mu = atomic_measure(DISK, [0.5], [1.0], label="atom")
        model = bergman.kernel_model(DISK)
        report = carleson_test(DISK, model, mu, FAST)
        assert report.berezin.verdict == BOUNDED
        assert report.geometric.verdict == BOUNDED
        # sup of Berezin over the grid is below the global sup K(z0,z0)=16/9
        assert report.berezin.sup <= 16.0 / 9.0 + 1e-12


class TestCover:
    def test_disk_seeded_regression(self):
        res = kobayashi_cover(DISK, 0.5, seed=0, candidates=3000, test_count=1000)
        assert len(res.centers) == 171
        assert res.level == pytest.approx(0.1)
        assert res.coverage.total == 1000
        assert res.coverage.certified == 1000
        assert res.coverage.uncovered == 0
        assert overlap_count_many(DISK, res.centers, 0.75, [[0.2]])[0] == 30

    def test_disk_centers_separated(self):
        res = kobayashi_cover(DISK, 0.5, seed=0, candidates=3000, test_count=1000)
        rho = kobayashi.pseudo_distance_matrix(res.centers, res.centers)
        np.fill_diagonal(rho, 1.0)
        r_star = math.tanh(2.0 * math.atanh(0.5 / 3.0))
        assert rho.min() >= r_star - 1e-12

    def test_anchor_is_first_center(self):
        res = kobayashi_cover(DISK, 0.4, seed=3, candidates=500, test_count=100)
        np.testing.assert_array_equal(res.centers[0], domains.anchor_point(DISK))

    def test_ellipsoid_cover_coverage(self):
        # the (1,2) ellipsoid has the exact distance oracle: coverage is
        # certified point by point
        res = kobayashi_cover(ELL12, 0.5, seed=1, candidates=3000, test_count=1000)
        assert res.coverage.uncovered == 0
        assert res.coverage.certified == 1000

    def test_polydisk_cover_path(self):
        # without the distance oracle, coverage comes from the polydisk
        # sandwich of each center's minimal frame
        ell22 = complex_ellipsoid((2, 2), (1.0, 1.0))
        res = kobayashi_cover(ell22, 0.5, seed=0, candidates=300, test_count=100)
        # centers are pairwise certified apart in each other's frames
        r_star = math.tanh(2.0 * math.atanh(0.5 / 3.0))
        maybe = kobayashi.ball_relation(ell22, res.centers, res.centers, r_star)[1]
        assert len(res.centers) > 1 and not np.any(maybe & ~np.eye(len(res.centers), dtype=bool))
        assert res.coverage.uncovered == 0
        assert res.coverage.certified + res.coverage.heuristic == 100

    @pytest.mark.parametrize(
        "spec, r, candidates",
        [
            (DISK, 0.5, 2000),
            (domains.unit_ball(2), 0.5, 2000),
            (ELL12, 0.5, 2000),
            (complex_ellipsoid((2, 2), (1.0, 1.0)), 0.5, 300),
        ],
        ids=["DISK", "BALL2", "ELL12", "ELL22"],
    )
    def test_report_is_the_full_count(self, spec, r, candidates):
        # the greedy's witnesses settle most of the prefix sample; the report
        # must be the one counting every test point against every center gives
        res = kobayashi_cover(spec, r, seed=2, candidates=candidates, test_count=candidates // 2)
        pts = domains.quasi_interior(spec, candidates, seed=2, level_floor=res.level)
        sample = pts[: candidates // 2]
        inside_n, maybe_n = kobayashi.ball_counts(spec, sample, res.centers, r)
        certified = int((inside_n > 0).sum())
        uncovered = int((maybe_n == 0).sum())
        total = len(sample)
        assert res.coverage == CoverageReport(total, certified, total - certified - uncovered, uncovered)

    def test_input_validation(self):
        with pytest.raises(InputError):
            kobayashi_cover(DISK, 1.5)
        with pytest.raises(ConfigError):
            kobayashi_cover(DISK, 0.3, candidates=100, test_count=200)

    def test_uncovered_points_raise(self, monkeypatch):
        # off the oracle the greedy leaves the test points unwitnessed; a
        # count that certifies them outside every ball must raise
        def no_ball_holds_them(spec, queries, centers, r):
            return np.zeros(len(queries), dtype=int), np.zeros(len(queries), dtype=int)

        monkeypatch.setattr(kobayashi, "ball_counts", no_ball_holds_them)
        ell22 = complex_ellipsoid((2, 2), (1.0, 1.0))
        with pytest.raises(ResourceError, match="20 of 20 test points not covered"):
            kobayashi_cover(ell22, 0.5, seed=0, candidates=100, test_count=20)

    def test_overlap_count_basics(self):
        centers = np.array([[0.0]], dtype=complex)
        assert overlap_count_many(DISK, centers, 0.3, [[0.9]])[0] == 0
        assert overlap_count_many(DISK, centers, 0.3, [[0.0]])[0] == 1
        many = overlap_count_many(DISK, centers, 0.3, np.array([[0.9], [0.0], [0.2]]))
        np.testing.assert_array_equal(many, [0, 1, 1])

    def test_overlap_conservative_on_ellipsoid(self):
        # Uncertain pairs count as hits, so the count may overcount but never
        # undercounts; on the (1,2) ellipsoid only pairs whose oracle bracket
        # stays open around R are Uncertain
        res = kobayashi_cover(ELL12, 0.5, seed=0, candidates=1000, test_count=200)
        counts = overlap_count_many(ELL12, res.centers, 0.75, res.centers)
        assert np.all(counts >= 1)  # each center lies in its own ball


class TestSubmean:
    def test_constant_function(self):
        f = HoloPolynomial(dim=1, coeffs={(0,): 2.0})
        rep = submean_check(DISK, f, 0.9, 0.3, samples=1 << 12, seed=0)
        assert rep.passed
        assert rep.value == pytest.approx(4.0)

    def test_vanishing_at_center(self):
        f = HoloPolynomial(dim=1, coeffs={(0,): -0.8, (1,): 1.0})  # z - 0.8
        rep = submean_check(DISK, f, 0.8, 0.3, samples=1 << 12, seed=1)
        assert rep.value == pytest.approx(0.0, abs=1e-25)
        assert rep.passed

    def test_random_polys_on_disk_collar(self):
        rng = np.random.default_rng(5)
        for r in (0.1, 0.3, 0.5):
            for _ in range(5):
                f = random_polynomial(1, 3, rng)
                rep = submean_check(DISK, f, 0.9, r, samples=1 << 13, seed=2)
                assert rep.passed, (r, rep)
                assert rep.margin_mean > 0.0

    def test_ellipsoid_collar_point(self):
        rng = np.random.default_rng(9)
        f = random_polynomial(2, 3, rng)
        rep = submean_check(ELL12, f, np.array([0.0, 0.7]), 0.3, samples=1 << 13, seed=3)
        assert rep.passed

    def test_radius_validation(self):
        f = HoloPolynomial(dim=1, coeffs={(0,): 1.0})
        with pytest.raises(InputError):
            submean_check(DISK, f, 0.5, 1.0)


@pytest.fixture(scope="module")
def report():
    model = bergman.kernel_model(DISK)
    mu = atomic_measure(DISK, [0.2, 0.5], [1.0, 1.0], label="pair")
    return carleson_test(DISK, model, mu, FAST)


CRITERIA = ("berezin", "geometric", "operator")


class TestEmitters:
    def test_traces_in_fixed_order(self, report):
        assert [t.name for t in report.traces] == list(CRITERIA)
        assert all(t is getattr(report, t.name) for t in report.traces)

    def test_level_sups_take_the_ray_points_only(self, report):
        # interior points belong to no dyadic level: here some carry more
        # than the last level's rays, so an interior point taken as level -1
        # would raise that level's sup.  Criterion (1) has one value a level
        interior = np.array([gp.kind == "interior" for gp in report.grid])
        np.testing.assert_array_equal(report.operator.values, report.operator.per_level)
        assert report.operator.sup == report.operator.per_level[-1]
        for trace in (report.berezin, report.geometric):
            sups = np.zeros(FAST.levels)
            for gp, value in zip(report.grid, trace.values):
                if gp.kind == "ray":
                    sups[gp.level_index] = max(sups[gp.level_index], value)
            assert trace.values[interior].max() > sups[-1]
            np.testing.assert_array_equal(trace.per_level, sups)
            assert trace.sup == trace.values.max()

    def test_point_rows_shape(self, report):
        header, rows = report_point_rows(report)
        assert header[:3] == ["criterion", "index", "kind"]
        n = len(report.grid)
        assert [row[0] for row in rows] == [name for name in CRITERIA[:2] for _ in range(n)]
        for k, trace in enumerate(report.traces[:2]):
            values = [row[header.index("value")] for row in rows[k * n : (k + 1) * n]]
            np.testing.assert_array_equal(values, trace.values)

    def test_level_rows_match_traces(self, report):
        header, rows = report_level_rows(report)
        assert header[2:] == [f"{name}_sup" for name in CRITERIA]
        assert len(rows) == FAST.levels
        for j, row in enumerate(rows):
            assert row[2:] == [t.per_level[j] for t in report.traces]

    def test_summary_fields(self, report):
        s = report_summary(report)
        assert s["measure"] == "pair"
        assert list(s["verdicts"]) == list(CRITERIA)
        assert list(s["sups"]) == list(CRITERIA)
        for trace in report.traces:
            assert s["verdicts"][trace.name] == trace.verdict
            assert s["sups"][trace.name] == trace.sup
        assert s["grid_points"] == len(report.grid)
        assert s["operator_ladder"] == {
            "degrees": [23, 32, 45, 64],
            "basis_sizes": [24, 33, 46, 65],
            "lambda": report.operator.per_level.tolist(),
            "stderr": [0.0] * FAST.levels,
        }

    def test_csv_bytes_deterministic(self, report, tmp_path):
        header, rows = report_point_rows(report)
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        tables.write(p1, header, rows)
        header2, rows2 = report_point_rows(report)
        tables.write(p2, header2, rows2)
        assert p1.read_bytes() == p2.read_bytes()
