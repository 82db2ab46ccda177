import math
import re
import time

import mpmath
import numpy as np
import pytest

from carleson_lab import bergman, domains, kobayashi, measures
from carleson_lab.bergman import (
    berezin,
    berezin_many,
    closed_ball_model,
    kernel,
    kernel_diag,
    kernel_lowerbound_check,
    kernel_model,
    kernel_row,
    moment,
    moments,
    normalized_kernel,
    reinhardt_series_model,
    reproduce_check,
)
from carleson_lab.domains import (
    anchor_point,
    complex_ellipsoid,
    unit_ball,
    unit_disk,
)
from carleson_lab.errors import InputError, ResourceError, TruncationError
from carleson_lab.measures import DensityMeasure, atomic_measure, lebesgue_measure
from carleson_lab.polynomials import HoloPolynomial, poly_eval
from carleson_lab.sequences import named_measure

DISK = unit_disk()
BALL2 = unit_ball(2)
BALL3 = unit_ball(3)
ELL12 = complex_ellipsoid((1, 2), (1.0, 1.0))


def _nu_base(spec, mu, count, seed):
    """The quasi_uniform base of count points from seed, weighted by mu."""
    points = domains.quasi_uniform(spec, count, seed=seed)
    return measures.NuBase(points, bergman.nu_volume(spec) * mu.density(points))


def _gamma_moment(exponents, axes, alpha):
    """Closed form for the monomial square norms on a Reinhardt model, at 40
    digits.

    Reducing each coordinate to polar form turns the integral into a Dirichlet
    integral over the standard simplex, giving a pure Gamma-function product.
    One multi-index at a time through mpmath.loggamma, apart from the
    vectorized float table of ``moments`` and its log-gamma.
    """
    n = len(exponents)
    with mpmath.workdps(40):
        s = [mpmath.mpf(int(alpha[i]) + 1) / exponents[i] for i in range(n)]
        val = mpmath.log(mpmath.factorial(n))
        for i in range(n):
            val += (2 * int(alpha[i]) + 2) * mpmath.log(mpmath.mpf(axes[i]))
            val += mpmath.loggamma(s[i]) - mpmath.log(exponents[i])
        return mpmath.exp(val - mpmath.loggamma(1 + mpmath.fsum(s)))


class TestMoments:
    def test_disk_closed_values(self):
        tab = moments(DISK, 4)
        np.testing.assert_allclose(
            [moment(tab, (k,)) for k in range(5)],
            [1.0, 0.5, 1.0 / 3.0, 0.25, 0.2],
            rtol=1e-10,
        )

    def test_ball_closed_values(self):
        tab = moments(BALL2, 4)
        for alpha in np.ndindex(5, 5):
            if sum(alpha) <= 4:
                expected = (
                    2.0
                    * math.factorial(alpha[0])
                    * math.factorial(alpha[1])
                    / math.factorial(sum(alpha) + 2)
                )
                assert abs(moment(tab, alpha) - expected) < 1e-10 * expected

    def test_ellipsoid_against_gamma_formula(self):
        tab = moments(ELL12, 8)
        for alpha in np.ndindex(9, 9):
            if sum(alpha) <= 8:
                expected = _gamma_moment((1, 2), (1.0, 1.0), alpha)
                assert abs(moment(tab, alpha) - expected) < 1e-9 * expected

    def test_ellipsoid_total_mass(self):
        tab = moments(ELL12, 0)
        assert abs(moment(tab, (0, 0)) - 4.0 / 3.0) < 1e-10

    @pytest.mark.parametrize(
        "spec, degree, cube",
        [(unit_ball(12), 60, "61^12"), (complex_ellipsoid((1,) * 9), 60, "61^9"),
         (BALL2, 1024, "1025^2")],
        ids=["ball12", "ellipsoid9", "ball2-degree1024"],
    )
    def test_cube_too_large_is_refused_before_it_is_built(self, spec, degree, cube):
        # the (degree+1)^n index cube is checked before np.indices allocates it
        # (61^12 entries once gave "array is too big", 61^9 an ArrayMemoryError)
        with pytest.raises(ResourceError, match=rf"degree {degree} in dimension {spec.dim} has "
                                                 rf"{re.escape(cube)} entries"):
            moments(spec, degree)

    def test_largest_model_in_use_builds(self):
        # C^3 at degree 60, 61^3 = 226,981 entries, is below the cap
        assert moments(unit_ball(3), 60).values.shape == (61, 61, 61)

    @pytest.mark.parametrize(
        "spec, degree",
        [(DISK, 64), (BALL2, 24), (BALL3, 60), (ELL12, 60),
         (complex_ellipsoid((2, 2), (1.0, 1.0)), 60),
         (complex_ellipsoid((1, 1, 2), (1.0, 1.0, 1.0)), 40),
         (complex_ellipsoid((1, 897), (1.0, 1.0)), 60),
         (complex_ellipsoid((1, 2), (0.5, 2.0)), 60)],
        ids=["disk", "ball2", "ball3", "ell12", "ell22", "ell112", "ell1-897", "ell12-axes"],
    )
    def test_tables_against_mpmath(self, spec, degree):
        # sampled entries of each table in use, against 40 digits: exp turns
        # the rounding of log-gamma sums of up to a few hundred into
        # relative errors of up to about 1e-13
        tab = moments(spec, degree)
        idx = np.argwhere(~np.isnan(tab.values))
        rng = np.random.default_rng(degree + spec.dim)
        for alpha in idx[rng.choice(len(idx), min(150, len(idx)), replace=False)].tolist():
            exact = _gamma_moment(tab.exponents, tab.semi_axes, alpha)
            assert abs((tab.values[tuple(alpha)] - exact) / exact) <= 2e-13

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_ball_volume_is_exactly_one(self, dim):
        # log n! and log Gamma(1 + sum s) at alpha = 0, s = (1, ..., 1), are
        # the same math.lgamma(n + 1.0), so m_0 = nu(B) is 1 to the bit, in a
        # table of any degree and through nu_volume
        spec = DISK if dim == 1 else unit_ball(dim)
        for degree in (0, 6, 20):
            assert moment(moments(spec, degree), (0,) * dim) == 1.0
        assert bergman.nu_volume(spec) == 1.0

    def test_scaled_axes(self):
        spec = complex_ellipsoid((1, 1), (0.5, 2.0))
        tab = moments(spec, 2)
        for alpha in np.ndindex(3, 3):
            if sum(alpha) <= 2:
                expected = _gamma_moment((1, 1), (0.5, 2.0), alpha)
                assert abs(moment(tab, alpha) - expected) < 1e-9 * expected

    def test_lookup_validation(self):
        tab = moments(DISK, 3)
        with pytest.raises(InputError):
            moment(tab, (4,))
        with pytest.raises(InputError):
            moment(tab, (1, 1))
        with pytest.raises(InputError):
            moments(DISK, -1)


class TestKernelModels:
    def test_disk_closed_diag(self):
        model = closed_ball_model(DISK)
        assert abs(kernel_diag(model, 0.5) - 16.0 / 9.0) < 1e-12
        assert abs(kernel(model, 0.3, 0.0) - 1.0) < 1e-12

    @pytest.mark.parametrize("spec", [DISK, BALL2, BALL3], ids=["disk", "ball2", "ball3"])
    def test_closed_row_does_not_depend_on_the_batch(self, spec):
        # K(p, z0) for one point p equals its entry in a batch bit for bit
        rng = np.random.default_rng(70 + spec.dim)
        model = closed_ball_model(spec)
        z0 = 0.9 * domains.random_interior(spec, 1, rng)[0]
        pts = (1.0 - 1e-6) * domains.random_interior(spec, 500, rng)
        batch = kernel_row(model, z0, pts)
        for k in rng.integers(0, 500, 60):
            assert kernel_row(model, z0, pts[k : k + 1])[0] == batch[k]

    def test_ball_closed_diag(self):
        model = closed_ball_model(BALL2)
        z = np.array([0.3, 0.0])
        assert abs(kernel_diag(model, z) - (1.0 - 0.09) ** -3) < 1e-12

    def test_conjugate_symmetry(self):
        model = kernel_model(ELL12)
        z = np.array([0.2 + 0.1j, 0.4])
        w = np.array([-0.1, 0.3 - 0.2j])
        assert abs(kernel(model, z, w) - np.conj(kernel(model, w, z))) < 1e-12

    def test_series_matches_closed_disk(self):
        closed = closed_ball_model(DISK)
        series = reinhardt_series_model(DISK, degree=60)
        rng = np.random.default_rng(13)
        zs = 0.7 * np.sqrt(rng.uniform(0, 1, 50)) * np.exp(2j * math.pi * rng.uniform(0, 1, 50))
        ws = 0.7 * np.sqrt(rng.uniform(0, 1, 50)) * np.exp(2j * math.pi * rng.uniform(0, 1, 50))
        for z, w in zip(zs, ws):
            a = kernel(closed, z, w)
            b = kernel(series, z, w)
            assert abs(a - b) <= 1e-8 * abs(a)

    def test_series_matches_closed_ball(self):
        closed = closed_ball_model(BALL2)
        series = reinhardt_series_model(BALL2, degree=60)
        rng = np.random.default_rng(17)
        g = rng.normal(size=(40, 2)) + 1j * rng.normal(size=(40, 2))
        g *= (0.7 * rng.uniform(0, 1, 40) ** 0.25 / np.linalg.norm(g, axis=1))[:, None]
        for i in range(0, 40, 2):
            a = kernel(closed, g[i], g[i + 1])
            b = kernel(series, g[i], g[i + 1])
            assert abs(a - b) <= 1e-8 * abs(a)

    def test_ellipsoid_diag_frozen(self):
        model = reinhardt_series_model(ELL12, degree=60)
        z = np.array([0.0, 0.7])
        assert abs(kernel_diag(model, z) - 4.730458119426167) < 1e-12

    def test_ellipsoid_degree_converged(self):
        z = np.array([0.1 + 0.2j, 0.5])
        m60 = reinhardt_series_model(ELL12, degree=60)
        m80 = reinhardt_series_model(ELL12, degree=80)
        a, b = kernel_diag(m60, z), kernel_diag(m80, z)
        assert abs(a - b) <= 1e-12 * abs(b)

    def test_tail_constants_in_scaled_variables(self):
        # unit axes: the values of the unscaled bound, to the bit
        unit = reinhardt_series_model(ELL12, degree=60)
        assert unit.tail_ratio == 1.090788013318538
        # and at 40 digits: 1.05 times the largest of the last ten ratios
        # W_k / W_(k-1), W_k = max_{|a|=k} a!/(k! m_a)
        with mpmath.workdps(40):
            w = [max(mpmath.factorial(a) * mpmath.factorial(k - a)
                     / (mpmath.factorial(k) * _gamma_moment((1, 2), (1.0, 1.0), (a, k - a)))
                     for a in range(k + 1)) for k in range(50, 61)]
            exact = 1.05 * max(w[i + 1] / w[i] for i in range(10))
        assert abs(unit.tail_ratio / exact - 1) < 1e-12
        # other axes: the same ratio, and W_k up to the factor 1/prod a_i^2
        axes = (0.8, 1.3)
        scaled = reinhardt_series_model(complex_ellipsoid((1, 2), axes), degree=60)
        assert abs(scaled.tail_ratio - unit.tail_ratio) < 1e-12
        rel = scaled.tail_w * np.prod(np.square(axes)) / unit.tail_w - 1.0
        assert np.max(np.abs(rel)) < 1e-12

    def test_truncation_guard(self):
        m20 = reinhardt_series_model(ELL12, degree=20)
        with pytest.raises(TruncationError):
            kernel_diag(m20, np.array([0.0, 0.985]))

    def test_truncation_reads_the_whole_batch(self):
        # the tail is taken at the largest l1 norm over all chunks: at degree
        # 20 the points at 0 (s = 0) pass, and one point z0 = (0, 0.63)
        # (s = 0.397, tail 1.09e-6) fails the batch, in its ragged last
        # chunk as in its first
        model = reinhardt_series_model(ELL12, degree=20)
        chunk = bergman._EVAL_ENTRIES // 21
        z0 = np.array([0.0, 0.63])
        zeros = np.zeros((2 * chunk, 2))
        kernel_row(model, z0, zeros)
        for batch in (np.vstack([zeros, z0]), np.vstack([z0, zeros])):
            with pytest.raises(TruncationError):
                kernel_row(model, z0, batch)

    def test_tail_is_weighed_against_the_smallest_value_of_the_row(self):
        # the row's scale is its smallest modulus, floored at 1/m_0 = 0.75:
        # alone, z0 = (0, 0.63) passes its tail of 1.09e-6 against
        # |K(z0, z0)| = 2.97 (the floor alone would reject it)
        model = reinhardt_series_model(ELL12, degree=20)
        z0 = np.array([0.0, 0.63])
        value = kernel_row(model, z0, z0[None])[0]
        assert value.real == pytest.approx(2.9666, abs=1e-4)
        assert abs(value.imag) < 1e-12

    def test_kernel_row_batch(self):
        model = kernel_model(DISK)
        pts = np.array([[0.1], [0.2j], [-0.3]])
        row = kernel_row(model, np.array([0.5]), pts)
        for i, p in enumerate(pts):
            assert abs(row[i] - kernel(model, p, np.array([0.5]))) < 1e-12

    def test_normalized_kernel_at_center(self):
        model = kernel_model(DISK)
        z0 = np.array([0.5])
        vals = normalized_kernel(model, z0, z0[None, :])
        assert abs(vals[0] - math.sqrt(16.0 / 9.0)) < 1e-12


def test_series_row_runs_on_one_thread():
    # Each product of the series rows stays small enough for OpenBLAS to run
    # it on the calling thread.  The full 61 x 61 cube ran on two, and its
    # spinning worker put the process time near twice the wall time.  Load
    # on the machine lowers the ratio.
    model = reinhardt_series_model(ELL12, degree=60)
    pts = domains.quasi_uniform(ELL12, 1 << 16, seed=3)
    z0s = 0.5 * domains.random_interior(ELL12, 6, np.random.default_rng(37))
    time.sleep(0.5)  # BLAS workers left spinning by earlier tests go idle
    wall, cpu = time.perf_counter(), time.process_time()
    for z0 in z0s:
        kernel_row(model, z0, pts)
    wall, cpu = time.perf_counter() - wall, time.process_time() - cpu
    assert cpu <= 1.25 * wall, (cpu, wall)


def _dangelo_kernel(m, axes, z, w):
    """D'Angelo's closed Bergman kernel of {|z1/a1|^2 + |z2/a2|^(2m) < 1}, with
    nu(unit ball) = 1; the semi-axes enter by scaling z -> z/a."""
    x = z[:, 0] * np.conj(w[0]) / axes[0] ** 2
    y = z[:, 1] * np.conj(w[1]) / axes[1] ** 2
    u = y * (1.0 - x) ** (-1.0 / m)
    k = 0.5 * m * (1.0 - x) ** (-2.0 - 1.0 / m)
    k = k * ((1.0 + u) / (m**2 * (1.0 - u) ** 3) + 1.0 / (m * (1.0 - u) ** 2))
    return k / (axes[0] * axes[1]) ** 2


class TestSeriesEvaluation:
    """The chunked power-table evaluation against closed kernels."""

    @pytest.mark.parametrize(
        "m, axes, scale",
        [
            (2, (0.8, 1.3), 0.2),
            (3, (1.2, 0.7), 0.2),
            (2, (1.0, 1.0), 0.5),
            (2, (0.8, 1.3), 0.5),
            (3, (1.2, 0.7), 0.5),
        ],
        ids=["ELL12-scaled", "ELL13-scaled", "ELL12", "ELL12-scaled-half", "ELL13-scaled-half"],
    )
    def test_matches_dangelo_closed_form(self, m, axes, scale):
        spec = complex_ellipsoid((1, m), axes)
        model = reinhardt_series_model(spec, degree=60)
        chunk = bergman._EVAL_ENTRIES // 61
        pts = domains.quasi_uniform(spec, 2 * chunk + 17, seed=4)  # three chunks
        rng = np.random.default_rng(21)
        # the tail estimate works in the scaled variables z_i / a_i, so it
        # accepts centers at half the domain whatever the semi-axes
        for z0 in scale * domains.random_interior(spec, 3, rng):
            row = kernel_row(model, z0, pts)
            exact = _dangelo_kernel(m, axes, pts, z0)
            assert np.max(np.abs(row - exact) / np.abs(exact)) < 1e-10
            for i in (0, chunk - 1, chunk, len(pts) - 1):  # one-point batches
                one = kernel_row(model, z0, pts[i : i + 1])
                assert one.shape == (1,)
                assert abs(one[0] - row[i]) <= 1e-13 * abs(row[i])

    @pytest.mark.parametrize("m, axes", [(2, (0.8, 1.3)), (3, (1.2, 0.7))])
    def test_tail_covers_truncation_error(self, m, axes):
        # at degree 20 the truncation error is visible; the tail estimate
        # kernel_row takes for a one-point batch must not fall below it
        spec = complex_ellipsoid((1, m), axes)
        model = reinhardt_series_model(spec, degree=20)
        pts = domains.quasi_uniform(spec, 512, seed=4)
        checked = 0
        for z0 in 0.6 * domains.random_interior(spec, 3, np.random.default_rng(5)):
            exact = _dangelo_kernel(m, axes, pts, z0)
            err = np.abs(bergman._eval_cube(model.coeffs, pts * np.conj(z0)) - exact)
            for i in np.flatnonzero(err > 1e-11 * np.abs(exact)):
                # kernel_row's l1 norm of the pair in the scaled variables
                s = float((np.abs(pts[i] * np.conj(z0)) / np.square(model.table.semi_axes)).sum())
                assert bergman._series_tail(model, s) >= err[i]
                checked += 1
        assert checked > 100

    def test_three_ball_fold(self):
        ball3 = unit_ball(3)
        series = reinhardt_series_model(ball3, degree=40)
        closed = closed_ball_model(ball3)
        assert len(series.coeffs) ** 2 * 600 > 2 * bergman._EVAL_ENTRIES  # several chunks
        rng = np.random.default_rng(23)
        pts = 0.6 * domains.random_interior(ball3, 600, rng)
        for z0 in 0.6 * domains.random_interior(ball3, 3, rng):
            exact = kernel_row(closed, z0, pts)
            row = kernel_row(series, z0, pts)
            assert np.max(np.abs(row - exact) / np.abs(exact)) < 1e-10
            one = kernel_row(series, z0, pts[:1])
            assert abs(one[0] - exact[0]) < 1e-10 * abs(exact[0])

    def test_disk_one_coordinate(self):
        series = reinhardt_series_model(DISK, degree=60)
        pts = 0.7 * domains.random_interior(DISK, 9000, np.random.default_rng(29))
        z0 = np.array([0.4 - 0.3j])
        exact = (1.0 - pts[:, 0] * np.conj(z0[0])) ** -2.0
        row = kernel_row(series, z0, pts)
        assert np.max(np.abs(row - exact) / np.abs(exact)) < 1e-10

    def test_power_table(self):
        p = np.array([[0.5 + 0.5j, -0.9], [0.3j, 1.1]])
        for d in (1, 2, 3, 7, 8, 9, 61):
            v = bergman._power_table(p, d)
            assert v.shape == (2, d, 2) and v[1].flags.c_contiguous
            ref = p.T[:, None, :] ** np.arange(d)[None, :, None]
            np.testing.assert_allclose(v, ref, rtol=1e-14, atol=0)

    @pytest.mark.parametrize(
        "spec, degree",
        [(DISK, 60), (ELL12, 60), (complex_ellipsoid((1, 1, 2)), 40)],
        ids=["disk", "ELL12", "ELL112"],
    )
    def test_simplex_is_the_written_out_series(self, spec, degree):
        # the blocks of kernel_row's chunks cover every |alpha| <= degree once,
        # each product within the cap, and the evaluation is the sum of
        # c_alpha p^alpha term by term (math.fsum of the terms)
        model = reinhardt_series_model(spec, degree=degree)
        n, d = spec.dim, degree + 1
        for points in (bergman._chunk(n, d), 7):
            _, lead, blocks = bergman._simplex(n, d, points)
            covered = np.zeros((d,) * n, dtype=int)
            for first, end, cols in blocks:
                # a one-row product goes to gemv, which splits at fewer entries
                cap = bergman._PRODUCT // (2 if end - first == 1 else 1)
                assert (end - first) * cols * 2 * points <= cap
                for a in lead[first:end]:
                    covered[tuple(a)][:cols] += 1
            total = np.indices(covered.shape).sum(axis=0)
            assert np.all(covered[total <= degree] == 1)
        alpha = np.argwhere(np.indices((d,) * n).sum(axis=0) <= degree)
        coeffs = model.coeffs[tuple(alpha.T)]
        rng = np.random.default_rng(31)
        z0 = 0.4 * domains.random_interior(spec, 1, rng)[0]
        p = 0.5 * domains.random_interior(spec, 5, rng) * np.conj(z0)
        got = bergman._eval_cube(model.coeffs, p)
        for k, q in enumerate(p):
            terms = coeffs * np.prod(q ** alpha, axis=1)
            ref = complex(math.fsum(terms.real), math.fsum(terms.imag))
            assert abs(got[k] - ref) <= 1e-13 * abs(ref)


class TestReproduce:
    def test_disk_polynomial(self):
        model = kernel_model(DISK)
        p = HoloPolynomial(dim=1, coeffs={(0,): 1.0, (2,): 2.0 - 1j, (3,): 0.5})
        rep = reproduce_check(model, p, 0.4 + 0.2j, domains.quasi_uniform(DISK, 1 << 18, seed=3))
        assert rep.residual < 1e-3
        assert abs(rep.exact - (1.0 + (2 - 1j) * (0.4 + 0.2j) ** 2 + 0.5 * (0.4 + 0.2j) ** 3)) < 1e-12

    def test_ellipsoid_polynomial(self):
        model = kernel_model(ELL12)
        p = HoloPolynomial(dim=2, coeffs={(0, 0): 1.0, (1, 1): 1.0, (0, 2): -0.5j})
        pts = domains.quasi_uniform(ELL12, 1 << 18, seed=5)
        rep = reproduce_check(model, p, np.array([0.2, 0.3]), pts)
        assert rep.residual < 2e-3

    def test_shared_points(self):
        # one caller-drawn point set serves several checks; each estimate is
        # the mean of conj K(z, .) f over it, bit for bit
        model = kernel_model(DISK)
        pts = domains.quasi_uniform(DISK, 1 << 16, seed=7)
        for coeffs in ({(1,): 1.0}, {(2,): 1j}):
            p = HoloPolynomial(dim=1, coeffs=coeffs)
            rep = reproduce_check(model, p, 0.3, pts)
            vals = np.conj(kernel_row(model, 0.3, pts)) * poly_eval(p, pts)
            assert rep.estimate == complex(vals.mean())
            assert rep.samples == 1 << 16
            assert rep.residual < 1e-3


class TestBerezin:
    def test_atom_self_value(self):
        # Berezin of a unit atom at its own location is the kernel diagonal
        model = kernel_model(DISK)
        mu = atomic_measure(DISK, [0.5], [1.0])
        est = berezin(model, mu, 0.5)
        assert est.stderr == 0.0
        assert abs(est.value - 16.0 / 9.0) < 1e-12

    def test_atom_cross_value(self):
        model = kernel_model(DISK)
        mu = atomic_measure(DISK, [0.5], [1.0])
        est = berezin(model, mu, 0.0)
        # |k_{0}(0.5)|^2 = K(0.5,0)^2 / K(0,0) = 1
        assert abs(est.value - 1.0) < 1e-12

    def test_lebesgue_mobius_exact(self):
        # pulled back through the automorphism the density is constant, so the
        # estimator has zero variance and returns exactly 1
        model = kernel_model(DISK)
        base = _nu_base(DISK, lebesgue_measure(), 1 << 10, seed=1)
        for z in (0.0, 0.3, 0.9, 0.5j):
            est = berezin(model, lebesgue_measure(), z, base)
            assert est.method == "mobius"
            assert est.value == 1.0 and est.stderr == 0.0

    def test_qmc_agrees_with_mobius(self):
        # the 2-ball written as the (1,1) ellipsoid takes the quasi-uniform
        # path with the series kernel; the ball itself takes the Mobius path
        mu = DensityMeasure(lambda p: np.abs(p[:, 0]) ** 2 + 0.5, label="smooth")
        z = np.array([0.3, 0.2j])
        base = _nu_base(BALL2, mu, 1 << 16, seed=11)
        mob = berezin(kernel_model(BALL2), mu, z, base)
        qmc = berezin(kernel_model(complex_ellipsoid((1, 1))), mu, z, base)
        assert (mob.method, qmc.method) == ("mobius", "qmc")
        # the quasi-uniform error is far below the Mobius path's iid stderr
        assert abs(qmc.value - mob.value) < 4.0 * mob.stderr

    def test_ellipsoid_lebesgue_near_one(self):
        model = kernel_model(ELL12)
        base = _nu_base(ELL12, lebesgue_measure(), 1 << 16, seed=2)
        est = berezin(model, lebesgue_measure(), np.array([0.1, 0.3]), base)
        assert est.method == "qmc"
        assert abs(est.value - 1.0) < 4.0 * est.stderr

    def test_ellipsoid_lebesgue_qmc_accuracy(self):
        # B(nu) = 1 exactly; quasi-uniform points keep the error far below
        # the iid stderr
        model = kernel_model(ELL12)
        zs = np.array([[0.1, 0.3], [0.3, 0.2], [0.0, 0.4], [0.4, 0.0]])
        base = _nu_base(ELL12, lebesgue_measure(), 1 << 16, seed=0)
        for est in berezin_many(model, lebesgue_measure(), zs, base):
            assert abs(est.value - 1.0) <= 1e-3

    def test_ellipsoid_density_evaluated_inside(self):
        # 1 - delta is defined on D only; the estimator must not evaluate it
        # outside (boundary_distance raises there)
        mu = named_measure(ELL12, "density(1-d)")
        base = _nu_base(ELL12, mu, 1 << 9, seed=0)
        est = berezin(kernel_model(ELL12), mu, (0.1, 0.3), base)
        assert est.method == "qmc"
        assert 0.0 < est.value < 1.0

    def test_shared_stream_across_points(self):
        # one point set serves every z: a batch equals the one-point calls
        model = kernel_model(ELL12)
        mu = lebesgue_measure()
        zs = np.array([[0.1, 0.0], [0.5, 0.2], [0.0, 0.6j]])
        base = _nu_base(ELL12, mu, 1 << 12, seed=9)
        ests = berezin_many(model, mu, zs, base)
        singles = [berezin(model, mu, z, base) for z in zs]
        assert ests == singles

    def test_method_validation(self):
        # dispatch is automatic: atoms exact, disk/ball Mobius, else qmc
        disk_atoms = atomic_measure(DISK, [0.5], [1.0])
        assert berezin(kernel_model(DISK), disk_atoms, 0.1).method == "atomic"
        disk_base = _nu_base(DISK, lebesgue_measure(), 64, seed=0)
        assert berezin(kernel_model(DISK), lebesgue_measure(), 0.1, disk_base).method == "mobius"
        ell_base = _nu_base(ELL12, lebesgue_measure(), 64, seed=0)
        est = berezin(kernel_model(ELL12), lebesgue_measure(), (0.0, 0.0), ell_base)
        assert est.method == "qmc"
        with pytest.raises(InputError, match="unsupported measure type"):
            berezin(kernel_model(DISK), object(), 0.1)

    @pytest.mark.parametrize("spec", [BALL2, ELL12], ids=["ball2", "ell12"])
    def test_density_needs_a_base_of_the_domain_dimension(self, spec):
        # a bare point array is no base either: the weight is not on it
        model = kernel_model(spec)
        pts = domains.quasi_uniform(spec, 64, seed=0)
        weight = np.ones(len(pts))
        bad_points = (pts[:, :1], np.hstack([pts, pts[:, :1]]), pts[:, 0])
        for bad in (None, pts, *(measures.NuBase(p, weight) for p in bad_points)):
            with pytest.raises(InputError, match="base sample of shape"):
                berezin(model, lebesgue_measure(), anchor_point(spec), bad)

    def test_mobius_value_is_the_sample_mean(self):
        # mean and std/sqrt(n) of the density on the pulled-back points, bit
        # for bit; the caller's base sample serves every point.  The pull-back
        # runs block by block: a base of 3 blocks and a ragged 17 points
        # gives the values of one whole-base pass
        count = 3 * domains._BLOCK + 17
        for spec in (DISK, BALL2, BALL3):
            mu = named_measure(spec, "density(1-d)")
            rng = np.random.default_rng(spec.dim)
            zs = np.vstack([0.7 * domains.random_interior(spec, 2, rng), np.zeros((1, spec.dim))])
            base = _nu_base(spec, mu, count, seed=5)
            ests = berezin_many(kernel_model(spec), mu, zs, base)
            for z, est in zip(zs, ests):
                vals = mu.density(kobayashi.mobius_translation(spec, z)(base.points))
                assert est.value == float(vals.mean())
                assert est.stderr == float(vals.std(ddof=1)) / math.sqrt(count)
                assert (est.samples, est.method) == (count, "mobius")

    def test_qmc_value_is_the_sample_mean(self):
        # m_0 * density * |k_z|^2 on the caller's quasi_uniform set, mean and
        # std/sqrt(n), bit for bit
        model = kernel_model(ELL12)
        mu = DensityMeasure(lambda p: np.abs(p[:, 1]) ** 2 + 0.5, label="smooth")
        z = np.array([0.1, 0.3j])
        base = _nu_base(ELL12, mu, 1024, seed=4)
        pts = base.points
        est = berezin(model, mu, z, base)
        dens = moment(model.table, (0, 0)) * mu.density(pts)
        vals = dens * np.abs(normalized_kernel(model, z, pts)) ** 2
        assert est.value == float(vals.mean())
        assert est.stderr == float(vals.std(ddof=1)) / math.sqrt(1024)
        assert (est.samples, est.method) == (1024, "qmc")

    def test_atomic_is_exact(self):
        # an exact sum: no stderr and no Monte Carlo draws
        mu = atomic_measure(DISK, [0.5, -0.2j], [1.0, 3.0])
        est = berezin(kernel_model(DISK), mu, 0.1)
        assert (est.stderr, est.samples, est.method) == (0.0, 0, "atomic")
        empty = measures.AtomicMeasure(points=np.zeros((0, 1), dtype=complex), weights=np.zeros(0))
        assert berezin(kernel_model(DISK), empty, 0.1).value == 0.0

    def test_density_needs_two_samples(self):
        # one sample has no standard error; atoms ignore the base
        for spec in (DISK, ELL12):
            base = _nu_base(spec, lebesgue_measure(), 1, seed=0)
            with pytest.raises(InputError, match="samples >= 2"):
                berezin_many(kernel_model(spec), lebesgue_measure(), [anchor_point(spec)], base)
        atoms = atomic_measure(DISK, [0.5], [1.0])
        base = _nu_base(DISK, lebesgue_measure(), 1, seed=0)
        assert berezin(kernel_model(DISK), atoms, 0.1, base).method == "atomic"


class TestKernelFloors:
    def test_disk_diagonal_floor(self):
        # K(z,z) sigma(z)^2 = (1 - |z|)^2/(1 - |z|^2)^2 = 1/(1 + |z|)^2 >= 1/4
        model = kernel_model(DISK)
        pts = np.array([[0.0], [0.5], [0.9], [0.99j]])
        chk = kernel_lowerbound_check(DISK, model, 0.05, pts)
        assert len(chk.values) == 4
        assert chk.values.min() > 0.25 - 1e-12
        assert abs(chk.values[2] - 1.0 / 3.61) < 1e-9

    def test_offdiagonal_positive_at_small_radius(self):
        model = kernel_model(DISK)
        pts = np.array([[0.8], [0.9], [-0.85j]])
        chk = kernel_lowerbound_check(DISK, model, 0.05, pts, samples_per_point=16, seed=3)
        assert chk.re_constant > 0.0
        assert chk.k2_constant > 0.0
        assert chk.re_constant <= chk.k2_constant * 4.0  # same scale

    def test_offdiagonal_radius_guard(self):
        model = kernel_model(DISK)
        with pytest.raises(InputError):
            kernel_lowerbound_check(DISK, model, 0.5, np.array([[0.5]]))
