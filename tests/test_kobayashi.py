import math
import tracemalloc
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from criteria_checks import boundary_ray_samples, calibrate_log_envelope, exact_metric_model, metric_bounds
from hypothesis import example, given, settings, strategies as st

from carleson_lab import domains, geometry, kobayashi
from carleson_lab.domains import complex_ellipsoid, unit_ball, unit_disk
from carleson_lab.errors import CapabilityError, ConfigError, InputError
from carleson_lab.kobayashi import (
    ball_sandwich,
    ball_relation,
    bracket_tanh_distance,
    has_exact_distance,
    min_tanh_distance,
    mobius_translation,
    pseudo_distance_matrix,
    tanh_distance_bracket,
)

DISK = unit_disk()
BALL2 = unit_ball(2)
BALL3 = unit_ball(3)
ELL12 = complex_ellipsoid((1, 2), (1.0, 1.0))
ELL22 = complex_ellipsoid((2, 2), (1.0, 1.0))


def tanh_distance(spec, z, w):
    """tanh d_K of one pair on the disk/ball: the (closed) distance bracket."""
    return float(tanh_distance_bracket(spec, z, w)[0][0])


def tanh_distances(spec, z, pts):
    """tanh d_K from one point z to a batch on the disk/ball."""
    return tanh_distance_bracket(spec, z, pts)[0]


def _membership(spec, z0, r, z):
    """"inside", "outside" or "uncertain": z against B_D(z0, r), from
    ball_relation for one point and one center."""
    inside, maybe = ball_relation(
        spec, domains.as_point(spec, z)[None, :], domains.as_point(spec, z0)[None, :], r
    )
    if inside[0, 0]:
        return "inside"
    return "uncertain" if maybe[0, 0] else "outside"


def _random_disk_points(rng, count, rmax=0.95):
    radii = rmax * np.sqrt(rng.uniform(0, 1, count))
    phases = np.exp(2j * math.pi * rng.uniform(0, 1, count))
    return (radii * phases)[:, None]


def _stack(spec, frames):
    """One-point frames as one stack, as geometry.minimal_frames gives it."""
    n = spec.dim
    return geometry.MinimalFrame(
        np.array([f.center for f in frames], dtype=complex).reshape(-1, n),
        np.array([f.basis for f in frames], dtype=complex).reshape(-1, n, n),
        np.array([f.sigma for f in frames]).reshape(-1, n),
        np.array([f.unique for f in frames], dtype=bool),
    )


def _random_ball_points(rng, count, dim=2, rmax=0.95):
    g = rng.normal(size=(count, dim)) + 1j * rng.normal(size=(count, dim))
    g /= np.linalg.norm(g, axis=1, keepdims=True)
    radii = rmax * rng.uniform(0, 1, count) ** (1.0 / (2 * dim))
    return radii[:, None] * g


def _screened_reference(spec, z, w, r):
    """Per-pair (inside, maybe, opened) of paired batches z, w on a (1, m)
    ellipsoid, from the exact pair distance _ball_pd and _oracle_1m, in the
    order of ball_relation's screens: the ball distance of the Phi-images
    and the disc distance of the second coordinates (lower bounds), the
    unit-ball distance on B x B (an upper bound), and the oracle for the
    pairs those leave open (opened)."""
    zn, m = kobayashi._normalize_1m(spec, z)
    wn, _ = kobayashi._normalize_1m(spec, w)
    _, phi_z, _ = kobayashi._images(spec, z)
    _, phi_w, _ = kobayashi._images(spec, w)
    above = kobayashi._ball_pd(phi_z.T, phi_w.T) < r
    above &= kobayashi._ball_pd((zn[:, 1],), (wn[:, 1],)) < r
    both = (domains.squared_norm(zn) < 1.0) & (domains.squared_norm(wn) < 1.0)
    inside = above & both & (kobayashi._ball_pd(zn.T, wn.T) < r)
    maybe = inside.copy()
    opened = above & ~inside
    k = np.flatnonzero(opened)
    low, high, _ = kobayashi._oracle_1m(zn[k, 0], zn[k, 1], wn[k, 0], wn[k, 1], m, r)
    inside[k] = high < r
    maybe[k] = (low < r) | (high < r)
    return inside, maybe, opened


class TestMetricBounds:
    def test_disk_offcenter(self):
        b = metric_bounds(DISK, 0.5, 1.0)
        assert abs(b.lower - 1.0) < 1e-12 and abs(b.upper - 2.0) < 1e-12
        true = exact_metric_model(DISK, 0.5, 1.0)
        assert abs(true - 4.0 / 3.0) < 1e-12
        assert b.lower <= true <= b.upper

    def test_disk_center_upper_tight(self):
        b = metric_bounds(DISK, 0.0, 1.0)
        assert abs(b.lower - 0.5) < 1e-12 and abs(b.upper - 1.0) < 1e-12
        assert abs(exact_metric_model(DISK, 0.0, 1.0) - 1.0) < 1e-12

    def test_zero_vector(self):
        b = metric_bounds(BALL2, (0.1, 0.2), (0.0, 0.0))
        assert b.lower == 0.0 and b.upper == 0.0

    def test_factor_two_bracket(self):
        rng = np.random.default_rng(5)
        pts = _random_ball_points(rng, 50)
        vs = rng.normal(size=(50, 2)) + 1j * rng.normal(size=(50, 2))
        for z, v in zip(pts, vs):
            b = metric_bounds(BALL2, z, v)
            assert b.upper <= 2.0 * b.lower + 1e-12

    def test_bracket_validity_bulk(self):
        # convexity bracket contains the exact metric on disk and ball
        rng = np.random.default_rng(17)
        for spec, dim in ((DISK, 1), (BALL2, 2)):
            pts = _random_ball_points(rng, 2000, dim=dim)
            vs = rng.normal(size=(2000, dim)) + 1j * rng.normal(size=(2000, dim))
            for z, v in zip(pts, vs):
                b = metric_bounds(spec, z, v)
                true = exact_metric_model(spec, z, v)
                assert b.lower <= true * (1 + 1e-10) + 1e-12
                assert true <= b.upper * (1 + 1e-10) + 1e-12

    def test_exact_metric_rejects_generic(self):
        with pytest.raises(CapabilityError):
            exact_metric_model(ELL12, (0.0, 0.0), (1.0, 0.0))


def exact_distance_model(spec, z, w):
    """Kobayashi distance d_K on the disk/ball from the tanh distance."""
    return math.atanh(tanh_distance(spec, z, w))


class TestExactDistances:
    def test_disk_values(self):
        assert abs(exact_distance_model(DISK, 0.0, 0.5) - math.atanh(0.5)) < 1e-12
        assert abs(tanh_distance(DISK, 0.0, 0.5) - 0.5) < 1e-12
        # pseudohyperbolic distance of (0.5, -0.5) is |z-w|/|1-conj(z)w| = 0.8
        assert abs(tanh_distance(DISK, 0.5, -0.5) - 0.8) < 1e-12
        assert abs(exact_distance_model(DISK, 0.5, -0.5) - math.atanh(0.8)) < 1e-12

    def test_batch_matches_scalar(self):
        rng = np.random.default_rng(2)
        pts = _random_ball_points(rng, 64)
        z = np.array([0.3, -0.2j])
        batch = pseudo_distance_matrix(pts, z[None, :])[:, 0]
        for i, p in enumerate(pts):
            assert abs(batch[i] - tanh_distance(BALL2, z, p)) < 1e-12

    def test_symmetry_and_triangle(self):
        rng = np.random.default_rng(23)
        for spec, dim in ((DISK, 1), (BALL2, 2)):
            pts = _random_ball_points(rng, 3 * 300, dim=dim).reshape(300, 3, dim)
            for x, y, z in pts:
                dxy = exact_distance_model(spec, x, y)
                dyx = exact_distance_model(spec, y, x)
                assert abs(dxy - dyx) < 1e-10
                dxz = exact_distance_model(spec, x, z)
                dyz = exact_distance_model(spec, y, z)
                assert dxz <= dxy + dyz + 1e-10

    def test_slice_is_totally_geodesic(self):
        # the disk sits in the ball as {z2 = 0} without distortion
        rng = np.random.default_rng(31)
        for _ in range(50):
            a, b = _random_disk_points(rng, 2)[:, 0]
            d_disk = exact_distance_model(DISK, a, b)
            d_ball = exact_distance_model(BALL2, (a, 0.0), (b, 0.0))
            assert abs(d_disk - d_ball) < 1e-10

    def test_rejects_generic(self):
        with pytest.raises(CapabilityError):
            tanh_distance_bracket(ELL22, (0.0, 0.0), (0.0, 0.5))

    def test_tiny_distances_to_rounding(self):
        # reference: rho^2 = 1 - (1-|z|^2)(1-|w|^2)/|1-<z,w>|^2 in exact
        # rational arithmetic on the double inputs, one rounding at the end
        def exact(p, q):
            p = [(Fraction(c.real), Fraction(c.imag)) for c in p]
            q = [(Fraction(c.real), Fraction(c.imag)) for c in q]
            pp = sum(a * a + b * b for a, b in p)
            qq = sum(a * a + b * b for a, b in q)
            re = sum(a * c + b * d for (a, b), (c, d) in zip(p, q))
            im = sum(b * c - a * d for (a, b), (c, d) in zip(p, q))
            return math.sqrt(1 - (1 - pp) * (1 - qq) / ((1 - re) ** 2 + im**2))

        rng = np.random.default_rng(85)
        for spec in (DISK, BALL2):
            z = np.array([0.6 + 0.1j, 0.3 - 0.2j])[: spec.dim]
            v = rng.normal(size=(2000, spec.dim)) + 1j * rng.normal(size=(2000, spec.dim))
            w = z + 3e-9 * v / np.linalg.norm(v, axis=1, keepdims=True)
            ref = np.array([exact(wk, z) for wk in w])
            low, high = tanh_distance_bracket(spec, w, z)
            np.testing.assert_array_equal(low, high)
            assert np.all(low > 0.0)
            np.testing.assert_allclose(low, ref, rtol=1e-14, atol=0)
            # the tiled quotient form hands these pairs to _ball_pd
            batch = pseudo_distance_matrix(w, z[None, :])[:, 0]
            np.testing.assert_allclose(batch, ref, rtol=1e-14, atol=0)
            for k in range(0, 2000, 400):
                assert abs(tanh_distance(spec, w[k], z) - ref[k]) <= 1e-14 * ref[k]

    @pytest.mark.parametrize("dim", [1, 2])
    def test_ball_pd_near_the_sphere_against_mpmath(self, dim):
        # |p| = 1 - 10^-u, q = p + 10^-v noise: the relative error stays
        # within the docstring's eps / |1 - <p,q>| (times 4), against
        # 1 - (1-|p|^2)(1-|q|^2)/|1-<p,q>|^2 at 50 digits on the float inputs
        mpmath.mp.dps = 50
        rng = np.random.default_rng(140 + dim)
        eps, count = np.finfo(float).eps, 3000
        p, q = np.empty((count, dim), complex), np.empty((count, dim), complex)
        k = 0
        while k < count:
            g = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
            p[k] = g / np.linalg.norm(g) * (1.0 - 10.0 ** -rng.uniform(1.0, 12.0))
            h = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
            q[k] = p[k] + 10.0 ** -rng.uniform(1.0, 14.0) * h / np.linalg.norm(h)
            k += bool(np.vdot(q[k], q[k]).real < 1.0) and not np.array_equal(p[k], q[k])
        got = kobayashi._ball_pd(p.T, q.T)
        worst = 0.0
        for pk, qk, value in zip(p, q, got):
            a = [mpmath.mpc(complex(x)) for x in pk]
            b = [mpmath.mpc(complex(x)) for x in qk]
            one_minus = 1 - mpmath.fsum(mpmath.conj(y) * x for x, y in zip(a, b))  # 1 - <p,q>
            pp = mpmath.fsum(abs(x) ** 2 for x in a)
            qq = mpmath.fsum(abs(y) ** 2 for y in b)
            exact = mpmath.sqrt(1 - (1 - pp) * (1 - qq) / abs(one_minus) ** 2)
            unit = eps / float(abs(one_minus))
            worst = max(worst, float(abs(value - exact) / exact) / unit)
        assert worst <= 4.0

    def test_pair_value_does_not_depend_on_the_batch(self):
        # pairs within 1e-6 of the sphere, where the last bits of _ball_pd
        # are the most sensitive: a one-pair call and the same pair inside a
        # 400 x 300 batch (as the tile loops form it) agree bit for bit
        rng = np.random.default_rng(11)
        for dim in (1, 2):
            def cloud(k):
                g = rng.normal(size=(k, dim)) + 1j * rng.normal(size=(k, dim))
                g /= np.linalg.norm(g, axis=1, keepdims=True)
                return g * (1.0 - 1e-6 * rng.uniform(0.0, 1.0, (k, 1)))

            pts, centers = cloud(400), cloud(300)
            i, j = np.divmod(np.arange(400 * 300), 300)
            batch = kobayashi._ball_pd(pts[i].T, centers[j].T)
            for k in rng.integers(0, 400 * 300, 3000):
                one = kobayashi._ball_pd(pts[i[k] : i[k] + 1].T, centers[j[k] : j[k] + 1].T)
                assert one[0] == batch[k], (dim, k)


class TestMobius:
    def test_swaps_base_points(self):
        a = np.array([0.3, 0.4j])
        phi = mobius_translation(BALL2, a)
        np.testing.assert_allclose(phi(np.zeros(2)), a, atol=1e-12)
        np.testing.assert_allclose(phi(a), np.zeros(2), atol=1e-12)

    def test_involution_and_invariance(self):
        rng = np.random.default_rng(41)
        a = np.array([0.2, -0.3 + 0.1j])
        pts = _random_ball_points(rng, 200)
        phi = mobius_translation(BALL2, a)
        back = phi(phi(pts))
        np.testing.assert_allclose(back, pts, atol=1e-10)
        w = np.array([0.1 + 0.2j, 0.05])
        for z in pts[:50]:
            lhs = tanh_distance(BALL2, phi(z), phi(w))
            assert abs(lhs - tanh_distance(BALL2, z, w)) < 1e-10

    @pytest.mark.parametrize("spec", [DISK, BALL2, BALL3], ids=["disk", "ball2", "ball3"])
    def test_identities_on_the_disk_and_balls(self, spec):
        # phi_a swaps 0 and a, is an involution, keeps the pseudo-distance and
        # satisfies 1 - |phi_a(w)|^2 = (1 - |a|^2)(1 - |w|^2) / |1 - <w,a>|^2
        n = spec.dim
        rng = np.random.default_rng(50 + n)
        a = _random_ball_points(rng, 1, dim=n, rmax=0.8)[0]
        pts = _random_ball_points(rng, 300, dim=n, rmax=0.9)
        phi = mobius_translation(spec, a)
        np.testing.assert_allclose(phi(np.zeros(n)), a, atol=1e-15)
        np.testing.assert_allclose(phi(a), np.zeros(n), atol=1e-15)
        img = phi(pts)
        np.testing.assert_allclose(phi(img), pts, atol=1e-12)
        room = (1.0 - np.sum(np.abs(a) ** 2)) * (1.0 - np.sum(np.abs(pts) ** 2, axis=1))
        rhs = room / np.abs(1.0 - pts @ np.conj(a)) ** 2
        np.testing.assert_allclose(1.0 - np.sum(np.abs(img) ** 2, axis=1), rhs, rtol=1e-13, atol=0)
        for k in (0, 7, 299):
            # a single point (n,) keeps the identity
            one = phi(pts[k])
            assert one.shape == (n,)
            assert abs(1.0 - np.sum(np.abs(one) ** 2) - rhs[k]) <= 1e-13 * rhs[k]
        for z in pts[1:40]:
            lhs = tanh_distance(spec, phi(z), img[0])
            assert abs(lhs - tanh_distance(spec, z, pts[0])) < 1e-10

    @pytest.mark.parametrize("spec", [DISK, BALL2, BALL3], ids=["disk", "ball2", "ball3"])
    def test_row_does_not_depend_on_the_batch(self, spec):
        # a point mapped alone, as (n,) or (1, n), equals its row of a batch
        # bit for bit, near the sphere too
        n = spec.dim
        rng = np.random.default_rng(60 + n)
        a = _random_ball_points(rng, 1, dim=n, rmax=0.99)[0]
        pts = _random_ball_points(rng, 500, dim=n, rmax=1.0 - 1e-9)
        phi = mobius_translation(spec, a)
        batch = phi(pts)
        for k in rng.integers(0, 500, 60):
            np.testing.assert_array_equal(phi(pts[k : k + 1])[0], batch[k])
            np.testing.assert_array_equal(phi(pts[k]), batch[k])


class TestBallSandwich:
    def test_disk_center(self):
        sw = ball_sandwich(DISK, 0.0, 0.5)
        assert abs(sw.inner.radii[0] - 0.5) < 1e-12
        assert abs(sw.outer.radii[0] - 2.0) < 1e-12

    def test_ball_frozen_radii(self):
        sw = ball_sandwich(BALL2, (0.5, 0.0), 0.3)
        np.testing.assert_allclose(sw.inner.radii, [0.075, 0.12990381056766578], atol=1e-9)
        np.testing.assert_allclose(
            sw.outer.radii, (0.6 / 0.7) * np.array([0.5, math.sqrt(0.75)]), atol=1e-9
        )

    def test_radius_validation(self):
        with pytest.raises(InputError):
            ball_sandwich(DISK, 0.0, 1.0)

    def test_sandwich_soundness_models(self):
        # inner polydisk inside the true ball, true ball inside outer polydisk
        rng = np.random.default_rng(7)
        for spec, dim in ((DISK, 1), (BALL2, 2)):
            centers = _random_ball_points(rng, 20, dim=dim, rmax=0.9)
            queries = _random_ball_points(rng, 500, dim=dim, rmax=0.999)
            for z0 in centers:
                r = float(rng.uniform(0.05, 0.95))
                sw = ball_sandwich(spec, z0, r)
                rho = tanh_distances(spec, z0, queries)
                in_inner = geometry.polydisk_contains(sw.inner, queries)
                in_outer = geometry.polydisk_contains(sw.outer, queries)
                assert not np.any(in_inner & (rho >= r)), "inner polydisk leaked"
                assert not np.any((rho < r) & ~in_outer), "outer polydisk too small"


class TestBallMembership:
    def test_model_exact(self):
        assert _membership(DISK, 0.0, 0.5, 0.0) == "inside"
        assert _membership(DISK, 0.0, 0.5, 0.49) == "inside"
        assert _membership(DISK, 0.0, 0.5, 0.9 * np.exp(1.3j)) == "outside"

    def test_generic_trichotomy(self):
        # without the oracle the polydisk sandwich decides: between the
        # inner and the outer polydisk the answer is Uncertain
        z0 = np.array([0.0, 0.5])
        sw = ball_sandwich(ELL22, z0, 0.4)
        assert _membership(ELL22, z0, 0.4, z0) == "inside"
        far = np.array([0.0, -0.9])
        assert _membership(ELL22, z0, 0.4, far) == "outside"
        edge = z0 + 1.5 * sw.inner.radii[0] * sw.inner.basis[0]
        assert _membership(ELL22, z0, 0.4, edge) == "uncertain"

    def test_ellipsoid_membership_exact(self):
        # tanh k(0, z) is the Minkowski functional h(z) on the (1,2) ellipsoid
        z0 = np.array([0.0, 0.0])
        z = np.array([0.05, 0.05])
        h = float(_h12(z))
        assert _membership(ELL12, z0, h + 1e-9, z) == "inside"
        assert _membership(ELL12, z0, h - 1e-9, z) == "outside"

    def test_radius_validation(self):
        with pytest.raises(InputError):
            ball_relation(DISK, np.array([[0.2]]), np.array([[0.0]]), 0.0)


class TestBracket:
    def test_model_collapses_to_exact(self):
        low, high = bracket_tanh_distance(DISK, 0.1, 0.5)
        rho = tanh_distance(DISK, 0.1, 0.5)
        assert low == high == rho

    def test_ellipsoid_frozen_pair(self):
        # without the oracle: the frame bound below, nothing certified above.
        # The nearest boundary point to y lies near the steep end x2 -> 1 of
        # the moduli curve; its sigma_1 = 0.49958269431270913 agrees with a
        # 40-digit minimization to the last digit
        x = np.array([0.0, 0.5])
        y = np.array([0.2, 0.5])
        low, high = bracket_tanh_distance(ELL22, x, y)
        assert abs(low - 0.11300557401719515) < 1e-9
        assert high == 1.0

    def test_lower_bound_sound_on_models_in_disguise(self):
        # evaluate the generic frame bound on ball geometry where the exact
        # distance is known: the frame bound must stay below it
        rng = np.random.default_rng(19)
        pts = _random_ball_points(rng, 40, rmax=0.8)
        for i in range(0, 40, 2):
            x, y = pts[i], pts[i + 1]
            frx = geometry.minimal_frame(BALL2, x)
            m = float((np.abs(np.conj(frx.basis) @ (y - x)) / frx.sigma).max())
            low = m / (2.0 + m)
            assert low <= tanh_distance(BALL2, x, y) + 1e-10

    def test_delta_comparability_inside_balls(self):
        # boundary distances inside B(z0, r) vary by a bounded factor of 1/(1-r)
        rng = np.random.default_rng(29)
        r = 0.5
        ratios = []
        for _ in range(20):
            z0 = _random_ball_points(rng, 1, dim=1, rmax=0.9)[0]
            d0 = domains.boundary_distance(DISK, z0)
            queries = _random_disk_points(rng, 400, rmax=0.999)
            rho = tanh_distances(DISK, z0, queries)
            inside = queries[rho < r]
            for q in inside:
                ratios.append(domains.boundary_distance(DISK, q) / d0)
        ratios = np.array(ratios)
        C = 4.0
        assert np.all(ratios >= (1 - r) / C)
        assert np.all(ratios <= C / (1 - r))


def _h12(x):
    """Minkowski functional of {|z1|^2 + |z2|^4 < 1} in closed form."""
    a = np.abs(x[..., 0]) ** 2
    c = np.abs(x[..., 1]) ** 2
    return np.sqrt(0.5 * (a + np.sqrt(a * a + 4.0 * c * c)))


def _phi12(a, w):
    """Automorphism of the (1,2) ellipsoid sending (a, 0) to the origin."""
    d = 1.0 - np.conj(a) * w[..., 0]
    return np.stack([(w[..., 0] - a) / d, (1.0 - abs(a) ** 2) ** 0.25 * w[..., 1] / np.sqrt(d)], axis=-1)


class TestEllipsoidOracle:
    def test_frozen_pair_closed_form(self):
        # same z2: the lift of the ball geodesic in the slice {z2^2 = 0.25}
        x = np.array([0.0, 0.5])
        y = np.array([0.2, 0.5])
        low, high = tanh_distance_bracket(ELL12, x, y)
        exact = 0.2 / math.sqrt(0.9375)
        assert abs(low[0] - exact) < 1e-12 and abs(high[0] - exact) < 1e-12
        # the one-point bracket is the same oracle
        assert bracket_tanh_distance(ELL12, x, y) == (low[0], high[0])

    def test_z1_zero_slice_is_the_disc(self):
        # (z1, z2) -> z2 retracts E onto the slice {z1 = 0}, the unit disc
        rng = np.random.default_rng(51)
        s, t = _random_disk_points(rng, 2 * 200, rmax=0.99).reshape(2, 200)
        zeros = np.zeros(200)
        low, high = tanh_distance_bracket(
            ELL12, np.stack([zeros, s], axis=1), np.stack([zeros, t], axis=1)
        )
        exact = np.abs(s - t) / np.abs(1.0 - np.conj(s) * t)
        np.testing.assert_allclose(low, exact, rtol=0, atol=1e-12)
        np.testing.assert_allclose(high, exact, rtol=0, atol=1e-12)

    def test_axis_points_closed_form(self):
        # tanh k((a, 0), w) = h(phi_a(w)); just off the axis the general
        # solver must agree to first order in the offset
        rng = np.random.default_rng(53)
        a = _random_disk_points(rng, 300, rmax=0.95)[:, 0]
        w = domains.random_interior(ELL12, 300, rng)
        exact = _h12(_phi12(a, w))
        z = np.stack([a, np.zeros(300)], axis=1)
        for first, second in ((z, w), (w, z)):
            low, high = tanh_distance_bracket(ELL12, first, second)
            np.testing.assert_allclose(low, exact, rtol=0, atol=1e-12)
            np.testing.assert_allclose(high, exact, rtol=0, atol=1e-12)
        near = z + np.array([0.0, 1e-9])
        low, high = tanh_distance_bracket(ELL12, near, w)
        assert np.all(np.abs(low - exact) < 1e-7)
        assert np.all(np.abs(high - exact) < 1e-7)

    def test_m1_is_the_ball(self):
        ell11 = complex_ellipsoid((1, 1), (1.0, 1.0))
        rng = np.random.default_rng(57)
        z = _random_ball_points(rng, 300, rmax=0.99)
        w = _random_ball_points(rng, 300, rmax=0.99)
        low, high = tanh_distance_bracket(ell11, z, w)
        exact = np.array([tanh_distance(BALL2, p, q) for p, q in zip(z, w)])
        np.testing.assert_allclose(low, exact, rtol=0, atol=1e-12)
        np.testing.assert_allclose(high, exact, rtol=0, atol=1e-12)

    def test_scaling_and_coordinate_order(self):
        rng = np.random.default_rng(59)
        z = domains.random_interior(ELL12, 400, rng)
        w = domains.random_interior(ELL12, 400, rng)
        ref = tanh_distance_bracket(ELL12, z, w)
        stretched = complex_ellipsoid((1, 2), (2.0, 0.5))
        scale = np.array([2.0, 0.5])
        swapped = complex_ellipsoid((2, 1), (1.0, 1.0))
        for spec, zz, ww in (
            (stretched, z * scale, w * scale),
            (swapped, z[:, ::-1], w[:, ::-1]),
        ):
            got = tanh_distance_bracket(spec, zz, ww)
            np.testing.assert_allclose(got[0], ref[0], rtol=0, atol=1e-12)
            np.testing.assert_allclose(got[1], ref[1], rtol=0, atol=1e-12)

    def test_closes_and_is_symmetric(self):
        rng = np.random.default_rng(61)
        for exps in ((1, 2), (1, 4)):
            spec = complex_ellipsoid(exps, (1.0, 1.0))
            z = domains.random_interior(spec, 20000, rng)
            w = domains.random_interior(spec, 20000, rng)
            low, high = tanh_distance_bracket(spec, z, w)
            back_low, back_high = tanh_distance_bracket(spec, w, z)
            assert np.all((0.0 <= low) & (high <= 1.0))
            assert np.all(low <= high + 1e-10)
            closed = (high - low <= 1e-10) & (back_high - back_low <= 1e-10)
            assert closed.mean() >= 0.999
            # both brackets hold the same distance
            assert np.all(np.maximum(low, back_low) <= np.minimum(high, back_high) + 1e-10)
            np.testing.assert_allclose(low[closed], back_low[closed], rtol=0, atol=1e-10)

    def test_sandwich_soundness(self):
        # criterion 4 on the ellipsoid: inner-polydisk points are certified
        # members, so their lower bound is < r; outer-complement points are
        # not, so their upper bound is >= r
        rng = np.random.default_rng(np.random.SeedSequence(63))
        viol_inner = viol_outer = total = 0
        for _ in range(60):
            z0 = domains.random_interior(ELL12, 1, rng)[0]
            r = rng.uniform(0.05, 0.95)
            sw = ball_sandwich(ELL12, z0, r)
            zin = geometry.sample_polydisk(sw.inner, 100, rng)
            zin = zin[domains.contains(ELL12, zin)]
            low, _ = tanh_distance_bracket(ELL12, z0, zin)
            viol_inner += int((low >= r).sum())
            zg = domains.random_interior(ELL12, 300, rng)
            outside = ~np.asarray(geometry.polydisk_contains(sw.outer, zg))
            _, high = tanh_distance_bracket(ELL12, z0, zg)
            viol_outer += int(((high < r) & outside).sum())
            total += len(zin) + len(zg)
        assert total > 20000
        assert viol_inner == 0
        assert viol_outer == 0

    def test_ball_relation_matches_bracket(self):
        rng = np.random.default_rng(67)
        pts = domains.random_interior(ELL12, 300, rng)
        centers = domains.random_interior(ELL12, 200, rng)
        for r in (0.3, 0.65):
            inside, maybe = ball_relation(ELL12, pts, centers, r)
            low, high = tanh_distance_bracket(
                ELL12, np.repeat(pts, 200, axis=0), np.tile(centers, (300, 1))
            )
            low = low.reshape(300, 200)
            high = high.reshape(300, 200)
            assert np.all(maybe[inside])
            assert np.all(high[inside] < r + 1e-10)
            assert np.all(low[~maybe] >= r - 1e-10)
            assert np.all(maybe[high < r - 1e-10])
            assert not np.any(inside[low >= r + 1e-10])

    def test_capability(self):
        assert has_exact_distance(ELL12) and has_exact_distance(DISK)
        assert not has_exact_distance(ELL22)
        with pytest.raises(CapabilityError):
            tanh_distance_bracket(ELL22, (0.0, 0.0), (0.0, 0.5))

    def test_model_bracket_is_exact(self):
        rng = np.random.default_rng(69)
        z = _random_ball_points(rng, 200)
        w = _random_ball_points(rng, 200)
        low, high = tanh_distance_bracket(BALL2, z, w)
        exact = np.array([tanh_distance(BALL2, p, q) for p, q in zip(z, w)])
        np.testing.assert_allclose(low, exact, rtol=0, atol=1e-14)
        np.testing.assert_array_equal(low, high)


class TestOraclePass:
    """The thresholded (1, m) oracle against reference forms: the root test
    for lifts, a run from the start for pooled pairs, and the bracket with
    both ends."""

    @pytest.mark.parametrize("m", [2, 3, 4])
    def test_sector_lift_test_is_the_root_test(self, m):
        # a lift has |b0| >= 1, b0 the axis crossing of the line through the
        # Phi-images, and w2 / z2 in the sector |arg| < pi/m.  The reference
        # is the root test: b0 as z1 + p2 / (p2 - q2) (w1 - z1), and the
        # principal root (w2^m / z2^m)^(1/m) near w2 / z2.  Away from the
        # edge of either half they agree; with a threshold a lift reads [0, 0]
        spec = complex_ellipsoid((1, m), (1.0, 1.0))
        rng = np.random.default_rng(103 + m)
        z, w = (domains.random_interior(spec, 100000, rng) for _ in range(2))
        z1, z2, w1, w2 = z[:, 0], z[:, 1], w[:, 0], w[:, 1]
        p2, q2, ratio = z2**m, w2**m, w2 / z2
        b0 = np.abs(z1 + p2 / (p2 - q2) * (w1 - z1))
        lift = ~(b0 < 1.0) & (np.abs((q2 / p2) ** (1.0 / m) - ratio) < math.sin(math.pi / m) * np.abs(ratio))
        edge = (np.abs(b0 - 1.0) < 1e-12) | (np.abs(np.abs(np.angle(ratio)) - math.pi / m) < 1e-12)
        _, high, _ = kobayashi._oracle_1m(z1, z2, w1, w2, m, 0.5, kobayashi._EARLY_CHECKS)
        np.testing.assert_array_equal((high == 0.0)[~edge], lift[~edge])
        assert lift.sum() > 1000 and edge.sum() < 10

    def test_pooled_pairs_resume_where_the_first_pass_stopped(self, monkeypatch):
        # blocks of 64 open pairs; the pairs their first pass leaves open go
        # on from their iterates.  Each reads the bracket of a run from the
        # start, bit for bit, and so its decisions, and Newton saves at least
        # the first step of every pooled pair
        monkeypatch.setattr(kobayashi, "_ORACLE_CHUNK", 64)
        r = 0.65
        rng = np.random.default_rng(107)
        pts, centers = (domains.random_interior(ELL12, 200, rng) for _ in range(2))
        centers = pts + 0.4 * (centers - pts)  # nearer pairs, inside the convex domain
        steps, pooled = [0], []
        newton, resume = kobayashi._newton_step, kobayashi._resume

        def counted(*args):
            steps[0] += len(args[0])
            return newton(*args)

        def resumed(z1, z2, w1, w2, b, moving, m, r):
            start = steps[0]
            out = resume(z1, z2, w1, w2, b, moving, m, r)
            pooled.append(((z1, z2, w1, w2), moving, steps[0] - start, out))
            return out

        monkeypatch.setattr(kobayashi, "_newton_step", counted)
        monkeypatch.setattr(kobayashi, "_resume", resumed)
        inside, maybe = ball_relation(ELL12, pts, centers, r)
        count = len(pts)
        ref_inside, ref_maybe, _ = _screened_reference(
            ELL12, np.repeat(pts, count, axis=0), np.tile(centers, (count, 1)), r
        )
        np.testing.assert_array_equal(inside, ref_inside.reshape(count, count))
        np.testing.assert_array_equal(maybe, ref_maybe.reshape(count, count))
        assert sum(len(moving) for _, moving, _, _ in pooled) > 20
        for coords, moving, resumed_steps, (low, high) in pooled:
            start = steps[0]
            ref_low, ref_high, _ = kobayashi._oracle_1m(*coords, 2, r)
            restarted_steps = steps[0] - start
            np.testing.assert_array_equal(low, ref_low)
            np.testing.assert_array_equal(high, ref_high)
            assert moving.any() and 0 < resumed_steps <= restarted_steps - len(moving)

    def test_one_sided_bracket_decides_as_both_ends(self):
        # with a threshold the bracket takes its upper end only where the
        # lower end is below r.  Pairs planted at tanh-distance r +- 1e-13
        # (points lambda u, lambda' u of a linear disc of E, a geodesic, moved
        # by phi_{-c}, so that the geodesic crosses the axis at c) and random
        # pairs, bracketed at c and at iterates near it, read the same lower
        # end and the same decisions as with both ends
        r, count = 0.65, 4000
        rng = np.random.default_rng(109)
        share = rng.uniform(0.0, 1.0, count)  # |u1|^2, so h(u) = 1
        u = np.stack([np.sqrt(share), (1.0 - share) ** 0.25], axis=1)
        u = u * np.exp(2j * math.pi * rng.uniform(0.0, 1.0, (count, 2)))
        planted = r + rng.choice([-1e-13, 1e-13], count)
        lam = _random_disk_points(rng, count, rmax=0.9)[:, 0]
        turn = planted * np.exp(2j * math.pi * rng.uniform(0.0, 1.0, count))
        other = (lam + turn) / (1.0 + np.conj(lam) * turn)  # rho_D(lam, other) = planted
        c = _random_disk_points(rng, count, rmax=0.9)[:, 0]
        x, y = lam[:, None] * u, other[:, None] * u
        z1, z2, w1, w2 = kobayashi._phi_b(-c, 2, (x[:, 0], x[:, 1]), (y[:, 0], y[:, 1]))
        z, w = (domains.random_interior(ELL12, count, rng) for _ in range(2))
        pairs = [(z1, z2, w1, w2), (z[:, 0], z[:, 1], w[:, 0], w[:, 1])]
        for k, coords in enumerate(pairs):
            for shift in (0.0, 1e-9, 1e-6, 1e-3, 1e-1):
                b = c + shift * _random_disk_points(rng, count, rmax=1.0)[:, 0]
                low, high = kobayashi._crossing_bracket(*coords, b, 2, r)
                low2, high2 = kobayashi._crossing_bracket(*coords, b, 2)
                np.testing.assert_array_equal(low, low2)
                np.testing.assert_array_equal(high < r, high2 < r)
                np.testing.assert_array_equal(high[low < r], high2[low < r])
                if k == 0 and shift == 0.0:  # at the crossing, the planted side
                    np.testing.assert_array_equal(high < r, planted < r)
                    np.testing.assert_array_equal(low >= r, planted > r)


class TestFrameRelation:
    """Domains without the oracle answer from the polydisk sandwich."""

    def test_matches_ball_sandwich(self):
        rng = np.random.default_rng(71)
        centers = domains.random_interior(ELL22, 12, rng, level_floor=0.05)
        near = [geometry.sample_polydisk(ball_sandwich(ELL22, c, 0.3).inner, 10, rng) for c in centers]
        pts = np.vstack([domains.random_interior(ELL22, 400, rng)] + near)
        for r in (0.3, 0.7):
            inside, maybe = ball_relation(ELL22, pts, centers, r)
            for k, c in enumerate(centers):
                sw = ball_sandwich(ELL22, c, r)
                np.testing.assert_array_equal(inside[:, k], geometry.polydisk_contains(sw.inner, pts))
                np.testing.assert_array_equal(maybe[:, k], geometry.polydisk_contains(sw.outer, pts))
            assert inside.any() and (maybe & ~inside).any() and not maybe.all()

    def test_min_distance_is_the_pair_bound(self):
        rng = np.random.default_rng(73)
        pts = domains.random_interior(ELL22, 6, rng, level_floor=0.05)
        pairs = [
            bracket_tanh_distance(ELL22, pts[i], pts[j])[0]
            for i in range(6)
            for j in range(i + 1, 6)
        ]
        assert min_tanh_distance(ELL22, pts) == pytest.approx(min(pairs), rel=1e-12)
        assert min_tanh_distance(ELL22, pts[:1]) == math.inf


class TestRelationLayer:
    """ball_relation, greedy_separated and ball_counts against references
    that answer every pair, one point at a time, or from the dense relation."""

    @pytest.mark.parametrize("r", [0.3, 0.65])
    def test_relation_matches_all_pairs_reference(self, r):
        rng = np.random.default_rng(81)
        scaled = complex_ellipsoid((1, 2), (1.2, 0.7))
        samplers = {
            DISK: lambda k: _random_disk_points(rng, k),
            BALL2: lambda k: _random_ball_points(rng, k),
            ELL12: lambda k: domains.random_interior(ELL12, k, rng),
            scaled: lambda k: domains.random_interior(scaled, k, rng),
        }
        for spec, sample in samplers.items():
            pts, centers = sample(300), sample(300)
            p_all, c_all = np.repeat(pts, 300, axis=0), np.tile(centers, (300, 1))
            inside, maybe = ball_relation(spec, pts, centers, r)
            if spec.kind == "ellipsoid":
                ref_inside, ref_maybe, _ = _screened_reference(spec, p_all, c_all, r)
                # and the full bracket, without the shortcuts of a threshold,
                # decides every pair it closes clear of r the same way
                low, high = tanh_distance_bracket(spec, p_all, c_all)
                clear = ((high - low <= 1e-12) & (np.abs(low - r) > 1e-9)).reshape(300, 300)
                assert clear.mean() > 0.99
                np.testing.assert_array_equal(inside[clear], (high < r).reshape(300, 300)[clear])
                np.testing.assert_array_equal(maybe[clear], (low < r).reshape(300, 300)[clear])
            else:
                assert inside is maybe
                ref_inside = ref_maybe = kobayashi._ball_pd(p_all.T, c_all.T) < r
            np.testing.assert_array_equal(inside, ref_inside.reshape(300, 300))
            np.testing.assert_array_equal(maybe, ref_maybe.reshape(300, 300))
            assert 0 < maybe.sum() < maybe.size

    def test_pooled_stragglers_keep_their_decisions(self, monkeypatch):
        # pairs that need more than _EARLY_CHECKS Newton steps are pooled
        # across the call's blocks (small ones here) and bracketed again from
        # scratch; picked as the pairs Inside whose shortened bracket reads
        # nan, they read the decisions of tanh_distance_bracket, pair by pair
        monkeypatch.setattr(kobayashi, "_ORACLE_CHUNK", 16)
        r = 0.65
        rng = np.random.default_rng(89)
        z, w = (domains.random_interior(ELL12, 40000, rng) for _ in range(2))
        w = z + 0.4 * (w - z)  # nearer pairs, inside the convex domain
        zn, m = kobayashi._normalize_1m(ELL12, z)
        wn, _ = kobayashi._normalize_1m(ELL12, w)
        cut = kobayashi._oracle_1m(zn[:, 0], zn[:, 1], wn[:, 0], wn[:, 1], m, r, kobayashi._EARLY_CHECKS)[0]
        low, high = tanh_distance_bracket(ELL12, z, w)
        opened = _screened_reference(ELL12, z, w, r)[2]  # the pairs the tiles leave to the oracle
        slow = np.flatnonzero(np.isnan(cut) & opened & (high < r - 1e-9))[:40]
        assert len(slow) >= 20
        pts, centers = z[slow], w[slow]
        inside, maybe = ball_relation(ELL12, pts, centers, r)
        count = len(slow)
        low, high = tanh_distance_bracket(
            ELL12, np.repeat(pts, count, axis=0), np.tile(centers, (count, 1))
        )
        low, high = low.reshape(count, count), high.reshape(count, count)
        assert np.all(np.diag(inside))
        clear = (high - low <= 1e-12) & (np.abs(low - r) > 1e-9)
        assert clear.mean() > 0.99
        np.testing.assert_array_equal(inside[clear], (high < r)[clear])
        np.testing.assert_array_equal(maybe[clear], (low < r)[clear])

    @pytest.mark.parametrize("spec", [BALL2, ELL12, ELL22], ids=["BALL2", "ELL12", "ELL22"])
    def test_greedy_matches_one_point_loop(self, spec):
        # ELL22 has no oracle: there the relation comes from the frames of
        # the kept points, each computed once
        pts = domains.quasi_interior(spec, 2000, seed=13, level_floor=0.02)
        r = 0.4
        exact = kobayashi.has_exact_distance(spec)
        kept: list[int] = []
        own: list[geometry.MinimalFrame] = []
        for k, p in enumerate(pts):
            frames = None if exact else _stack(spec, own)
            if not kept or not kobayashi._relate(spec, p[None, :], pts[kept], r, frames)[1].any():
                kept.append(k)
                if not exact:
                    own.append(geometry.minimal_frame(spec, p))
        got, covered = kobayashi.greedy_separated(spec, pts, r)
        np.testing.assert_array_equal(got, kept)
        assert 50 < len(kept) < 2000
        # the coverage mask reads Inside only where the relation to the kept
        # points does; it holds every kept point and, here, most of the others
        inside, _ = ball_relation(spec, pts, pts[kept], r)
        assert np.all(inside.any(axis=1)[covered])
        assert covered[kept].all()
        assert covered.mean() > (0.5 if exact else 0.02)

    @pytest.mark.parametrize("spec", [DISK, BALL2, ELL12, ELL22], ids=["DISK", "BALL2", "ELL12", "ELL22"])
    def test_counts_are_row_sums(self, spec, monkeypatch):
        rng = np.random.default_rng(83)
        pts = domains.random_interior(spec, 2 * kobayashi._COUNT_CHUNK + 300, rng)
        centers = domains.random_interior(spec, 250, rng)
        r = 0.65
        inside, maybe = ball_relation(spec, pts, centers, r)
        if spec is ELL12:  # the pairs the screens leave open
            pairs = np.repeat(pts, len(centers), axis=0), np.tile(centers, (len(pts), 1))
            opened = _screened_reference(spec, *pairs, r)[2]
        # oracle blocks of 1000 pairs (the screens leave about 1100 pairs of
        # each of the 12 tiles open), and stragglers pooled across them
        monkeypatch.setattr(kobayashi, "_ORACLE_CHUNK", 1000)
        bracketed = {kobayashi._EARLY_CHECKS: [], kobayashi._NEWTON_STEPS: [], "resumed": []}
        oracle, resume = kobayashi._oracle_1m, kobayashi._resume

        def counted(z1, z2, w1, w2, m, r, steps=kobayashi._NEWTON_STEPS):
            bracketed[steps].append(len(z1))
            return oracle(z1, z2, w1, w2, m, r, steps)

        def resumed(z1, z2, w1, w2, b, moving, m, r):
            bracketed["resumed"].append(len(z1))
            return resume(z1, z2, w1, w2, b, moving, m, r)

        monkeypatch.setattr(kobayashi, "_oracle_1m", counted)
        monkeypatch.setattr(kobayashi, "_resume", resumed)
        inside_n, maybe_n = kobayashi.ball_counts(spec, pts, centers, r)
        np.testing.assert_array_equal(inside_n, inside.sum(axis=1))
        np.testing.assert_array_equal(maybe_n, maybe.sum(axis=1))
        if spec is ELL12:
            first, last, pooled = bracketed.values()
            assert first == [1000] * len(first) and len(first) > 10
            assert len(last) == 1 and 0 < last[0] <= 1000
            assert pooled and max(pooled) <= 500
            # each pair the screens leave open reaches the oracle once, and
            # only the pooled ones go on
            assert sum(first) + sum(last) == opened.sum()
            np.testing.assert_array_equal(ball_relation(spec, pts, centers, r), (inside, maybe))
        # a cover whose greedy certified its whole sample counts no query
        for p, c in ((pts[:0], centers), (pts, centers[:0])):
            for counts in kobayashi.ball_counts(spec, p, c, r):
                np.testing.assert_array_equal(counts, np.zeros(len(p), dtype=int))

    def test_counts_hold_no_relation(self):
        # 1024 x 40000 pairs, whose dense bool relation alone takes 41 MB
        rng = np.random.default_rng(91)
        pts, centers = (domains.random_interior(BALL2, k, rng) for k in (1024, 40000))
        tracemalloc.start()
        try:
            kobayashi.ball_counts(BALL2, pts, centers, 0.3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20

    def test_ellipsoid_counts_peak_memory(self):
        # one R = 0.65 count on the (1,2) ellipsoid, 2000 queries x 3000
        # centers: with nine-pass tiles, and each oracle pair's coordinates
        # copied up to four times, it peaked at 7.06 MB; with one block of
        # lifted columns at a time, and each open pair's coordinates gathered
        # once, it peaks at about 5.5 MB
        rng = np.random.default_rng(93)
        pts, centers = (domains.random_interior(ELL12, k, rng) for k in (2000, 3000))
        tracemalloc.start()
        try:
            inside_n, maybe_n = kobayashi.ball_counts(ELL12, pts, centers, 0.65)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert inside_n.sum() > 10**5
        assert peak < 7 * 2**20

    def test_ellipsoid_count_work_stays_bounded(self, monkeypatch):
        # the count of test_ellipsoid_counts_peak_memory sends 147296 open
        # pairs to the oracle, pools 3678 of them, and takes 184485 Newton
        # pair-steps; a change that sends more work to the oracle fails here
        # (bounds 2 % above those counts)
        rng = np.random.default_rng(93)
        pts, centers = (domains.random_interior(ELL12, k, rng) for k in (2000, 3000))
        work = {"_oracle_1m": 0, "_resume": 0, "_newton_step": 0}
        for name in work:

            def counted(*args, name=name, call=getattr(kobayashi, name)):
                work[name] += len(args[0])
                return call(*args)

            monkeypatch.setattr(kobayashi, name, counted)
        inside_n, _ = kobayashi.ball_counts(ELL12, pts, centers, 0.65)
        assert inside_n.sum() > 10**5
        assert work["_oracle_1m"] <= 1.02 * 147296
        assert work["_resume"] <= 1.02 * 3678
        assert work["_newton_step"] <= 1.02 * 184485

    @pytest.mark.parametrize("r", [0.3, 0.65, 0.9])
    def test_ellipsoid_screens_match_pair_decisions(self, r):
        # ball_relation and ball_counts on the (1,2) ellipsoid against each
        # pair decided on its own by _screened_reference: random pairs (with
        # 15-20 % of the points outside B), and pairs planted at distance r to
        # rounding in each screen, so that their margins fall within its
        # slack: the Phi-images, the second coordinates (with z1 = w1, so that
        # some pass the Phi screen; on the slice z1 = 0 all do), and points of
        # B (also on the axis z2 = 0, where the ball distance is k_E).  Last,
        # pairs outside B whose unit-ball margin, read without the B mask,
        # would certify Inside at r = 0.65 and 0.9 (tanh k_E 0.65009, 0.98561,
        # 0.99639; found among 4e5 random pairs outside B)
        outer = np.array([
            [0.5595812110357138 - 0.661997869293945j, -0.22563716566025194 + 0.609730563559279j],
            [0.6027790365554849 - 0.6684819628652882j, -0.08639459031308526 + 0.476762242878675j],
            [0.20782139688518353 - 0.962320826244623j, -0.2669236386486232 - 0.0783793742334377j],
            [0.23468989231529253 - 0.9298128845643306j, 0.46976209540656855 + 0.13465943051146304j],
            [-0.7191685379271529 + 0.6542625359488496j, -0.1665850676886921 - 0.42789520490738964j],
            [-0.6906948432529402 + 0.6762741190502468j, -0.03611374994308141 + 0.43352184841532254j],
        ])
        rng = np.random.default_rng(97)
        count = 100

        def unit(k):
            v = _random_ball_points(rng, k, dim=2, rmax=1.0)
            return v / np.linalg.norm(v, axis=1, keepdims=True)

        def disc_partner(z2):  # rho_D(z2, w2) = r
            turn = r * np.exp(2j * math.pi * rng.uniform(0, 1, len(z2)))
            return (z2 + turn) / (1.0 + np.conj(z2) * turn)

        z = domains.random_interior(ELL12, 2 * count, rng)
        # Phi w = phi_{Phi z}(r v), then w = (., sqrt)
        phi_z = np.stack([z[:count, 0], z[:count, 1] ** 2], axis=1)
        phi_w = np.array([mobius_translation(BALL2, a)(r * v) for a, v in zip(phi_z, unit(count))])
        w_phi = np.stack([phi_w[:, 0], np.sqrt(phi_w[:, 1])], axis=1)
        z_disc = z[count:].copy()
        z_disc[: count // 2, 0] = 0.0
        w_disc = np.stack([z_disc[:, 0], disc_partner(z_disc[:, 1])], axis=1)
        z_ball = _random_ball_points(rng, count, dim=2, rmax=0.9)
        z_ball[: count // 2, 1] = 0.0
        w_ball = np.array([mobius_translation(BALL2, a)(r * v) for a, v in zip(z_ball, unit(count))])
        w_ball[: count // 2] = np.stack([disc_partner(z_ball[: count // 2, 0]), np.zeros(count // 2)], axis=1)
        keep = domains.contains(ELL12, w_disc)
        pts = np.concatenate([z[:count], z_disc[keep], z_ball, outer[::2], domains.random_interior(ELL12, count, rng)])
        centers = np.concatenate([w_phi, w_disc[keep], w_ball, outer[1::2], domains.random_interior(ELL12, count, rng)])
        assert np.all(domains.contains(ELL12, pts)) and np.all(domains.contains(ELL12, centers))
        outside = (domains.squared_norm(pts) >= 1.0).mean(), (domains.squared_norm(centers) >= 1.0).mean()
        assert min(outside) > 0.1
        # the planted pairs do sit on the threshold of their screen
        planted = np.arange(len(pts) - count - 3)
        groups = np.split(planted, [count, count + keep.sum()])
        _, phi_p, _ = kobayashi._images(ELL12, pts[groups[0]])
        _, phi_c, _ = kobayashi._images(ELL12, centers[groups[0]])
        for rho in (
            kobayashi._ball_pd(phi_p.T, phi_c.T),
            kobayashi._ball_pd((pts[groups[1], 1],), (centers[groups[1], 1],)),
            kobayashi._ball_pd(pts[groups[2]].T, centers[groups[2]].T),
        ):
            assert np.count_nonzero(np.abs(rho - r) < 1e-15) > len(rho) // 2
            assert 0 < np.count_nonzero(rho < r) < len(rho)
        k = len(pts)
        inside_ref, maybe_ref, _ = _screened_reference(ELL12, np.repeat(pts, k, axis=0), np.tile(centers, (k, 1)), r)
        inside_ref, maybe_ref = inside_ref.reshape(k, k), maybe_ref.reshape(k, k)
        if r > 0.5:
            p, c = outer[::2], outer[1::2]
            margin = (1.0 - domains.squared_norm(p)) * (1.0 - domains.squared_norm(c))
            margin -= (1.0 - r * r) * np.abs(1.0 - (p * np.conj(c)).sum(axis=1)) ** 2
            i = len(planted) + np.arange(3)
            assert np.any((margin > 1e-9) & ~inside_ref[i, i])
        inside, maybe = ball_relation(ELL12, pts, centers, r)
        np.testing.assert_array_equal(inside, inside_ref)
        np.testing.assert_array_equal(maybe, maybe_ref)
        inside_n, maybe_n = kobayashi.ball_counts(ELL12, pts, centers, r)
        np.testing.assert_array_equal(inside_n, inside_ref.sum(axis=1))
        np.testing.assert_array_equal(maybe_n, maybe_ref.sum(axis=1))

    @pytest.mark.skipif(
        np.finfo(np.longdouble).eps >= np.finfo(float).eps, reason="no extended precision"
    )
    def test_margin_error_within_slack(self):
        # the threshold test trusts its lifted margin (1-|p|^2)(1-|c|^2) -
        # t^2 |1-<p,c>|^2 to _margin_error(n), and pseudo_distance_matrix its
        # |1-<p,c>|^2 as well; check both against extended precision, also
        # near the sphere
        rng = np.random.default_rng(87)
        ld = np.longdouble
        worst = {}
        for n in (1, 2, 3):
            bound = kobayashi._margin_error(n)
            for near_sphere, r in ((False, 0.3), (True, 0.65), (True, 1e-6), (False, 0.999)):
                pts, centers = (_random_ball_points(rng, 200, dim=n, rmax=1.0) for _ in range(2))
                if near_sphere:
                    pts /= np.linalg.norm(pts, axis=1, keepdims=True)
                    pts *= (1.0 - 10.0 ** rng.uniform(-12, 0, 200))[:, None]
                got, den = np.empty((200, 200)), np.empty((200, 200))
                for rows, cols, [(f, g)] in kobayashi._lifted_tiles([(pts, centers)], 1.0 - r * r):
                    got[rows, cols] = f @ g
                for rows, cols, [(f, g)] in kobayashi._lifted_tiles([(pts, centers)], 1.0):
                    den[rows, cols] = -(f[:, 1:] @ g[1:])
                pr, pi, cr, ci = (a.astype(ld) for a in (pts.real, pts.imag, centers.real, centers.imag))
                re, im = pr @ cr.T + pi @ ci.T, pi @ cr.T - pr @ ci.T
                num = np.multiply.outer(1 - (pr**2 + pi**2).sum(1), 1 - (cr**2 + ci**2).sum(1))
                ref_den = (1 - re) ** 2 + im**2
                ref = num - (1 - ld(r) * ld(r)) * ref_den
                err = np.abs(got - ref.astype(float)).max()
                err_den = np.abs(den - ref_den.astype(float)).max()
                assert err <= bound and err_den <= bound, (n, r, err / bound, err_den / bound)
                worst[n] = max(worst.get(n, 0.0), err / bound)
        # the errors seen reach 12-15 % of the bound in each dimension: a
        # bound ten times smaller fails here
        assert min(worst.values()) > 0.1

    def test_tiny_radius_is_sound(self):
        # the quotient form 1 - num/|1-<p,c>|^2 has an absolute error of about
        # 1e-8 in rho here, far above the radii tested
        rng = np.random.default_rng(85)
        for spec in (DISK, BALL2, ELL12):
            z = np.array([0.6 + 0.1j, 0.3 - 0.2j])[: spec.dim]
            v = rng.normal(size=(2000, spec.dim)) + 1j * rng.normal(size=(2000, spec.dim))
            w = z + 3e-9 * v / np.linalg.norm(v, axis=1, keepdims=True)
            if spec is ELL12:
                # the prefilter tests the ball distance of the Phi-images, the
                # 2-ball's relation on them
                _, phi_w, _ = kobayashi._images(spec, w)
                _, phi_z, _ = kobayashi._images(spec, z[None, :])
                lower = kobayashi._ball_pd(phi_w.T, phi_z.T)
                for k in range(len(w)):
                    assert ball_relation(BALL2, phi_w[k : k + 1], phi_z, 1.05 * lower[k])[1][0, 0]
                    assert not ball_relation(BALL2, phi_w[k : k + 1], phi_z, 0.95 * lower[k])[1][0, 0]
                exact = tanh_distance_bracket(spec, w, z)[1]
            else:
                # cancellation-free: |w-z|^2 - |w ^ z|^2 over |1 - <w,z>|^2
                wedge = np.abs(w[:, 0] * z[-1] - w[:, -1] * z[0]) ** 2
                diff = (np.abs(w - z) ** 2).sum(axis=1)
                exact = np.sqrt(diff - wedge) / np.abs(1.0 - w @ np.conj(z))
            assert np.all((exact > 2e-9) & (exact < 1e-8))
            for k in range(len(w)):
                inside, maybe = ball_relation(spec, w[k : k + 1], z[None, :], 1.05 * exact[k])
                assert maybe[0, 0]
                if spec is not ELL12:
                    assert inside[0, 0]
                    inside, maybe = ball_relation(spec, w[k : k + 1], z[None, :], 0.95 * exact[k])
                    assert not maybe[0, 0]


class TestLogEnvelope:
    def test_disk_radial_envelope(self):
        # residual atanh(1-delta) + 0.5 log delta = 0.5 log(2 - delta)
        deltas = np.geomspace(1e-5, 0.9999999, 40)
        pts = boundary_ray_samples(DISK, 1.0, deltas)
        env = calibrate_log_envelope(DISK, 0.0, pts)
        assert abs(env.c1) < 1e-6
        assert abs(env.c2 - 0.5 * math.log(2.0)) < 1e-5

    def test_disk_acceptance_band(self):
        deltas = np.geomspace(1e-6, 1e-1, 40)
        pts = boundary_ray_samples(DISK, 1.0, deltas)
        env = calibrate_log_envelope(DISK, 0.0, pts)
        assert abs(env.c1 - 0.3209269430861974) < 1e-9
        assert abs(env.c2 - 0.34657334027991027) < 1e-9

    def test_ball_radial_matches_disk(self):
        deltas = np.geomspace(1e-5, 0.5, 24)
        d_pts = boundary_ray_samples(DISK, 1.0, deltas)
        b_pts = boundary_ray_samples(BALL2, (1.0, 0.0), deltas)
        env_d = calibrate_log_envelope(DISK, 0.0, d_pts)
        env_b = calibrate_log_envelope(BALL2, (0.0, 0.0), b_pts)
        assert abs(env_d.c1 - env_b.c1) < 1e-8
        assert abs(env_d.c2 - env_b.c2) < 1e-8

    def test_duplicate_samples_invariant(self):
        deltas = np.geomspace(1e-5, 0.5, 16)
        pts = boundary_ray_samples(DISK, 1.0, deltas)
        env1 = calibrate_log_envelope(DISK, 0.0, pts)
        env2 = calibrate_log_envelope(DISK, 0.0, np.vstack([pts, pts]))
        assert env1.c1 == env2.c1 and env1.c2 == env2.c2

    def test_sample_validation(self):
        deltas = np.geomspace(1e-5, 0.5, 5)
        pts = boundary_ray_samples(DISK, 1.0, deltas)
        with pytest.raises(ConfigError):
            calibrate_log_envelope(DISK, 0.0, pts)
        narrow = boundary_ray_samples(DISK, 1.0, np.geomspace(0.2, 0.5, 12))
        with pytest.raises(ConfigError):
            calibrate_log_envelope(DISK, 0.0, narrow)

    @pytest.mark.parametrize("direction", [(1.0, 0.0), (0.0, 1.0)])
    def test_ellipsoid_axes_match_disk(self, direction):
        # both coordinate discs of the (1,2) ellipsoid are holomorphic
        # retracts isometric to the unit disc, so the envelope along an axis
        # is the disk's (test_disk_acceptance_band)
        deltas = np.geomspace(1e-6, 1e-1, 40)
        pts = boundary_ray_samples(ELL12, direction, deltas)
        env = calibrate_log_envelope(ELL12, (0.0, 0.0), pts)
        assert abs(env.c1 - 0.3209269430861974) < 1e-9
        assert abs(env.c2 - 0.34657334027991027) < 1e-9

    def test_ellipsoid_oblique_ray_certified(self):
        deltas = np.geomspace(1e-6, 1e-1, 40)
        pts = boundary_ray_samples(ELL12, (0.6, 0.8), deltas)
        low, high = tanh_distance_bracket(ELL12, np.zeros(2), pts)
        assert np.all(high - low <= 1e-12)  # every bracket closed
        env = calibrate_log_envelope(ELL12, (0.0, 0.0), pts)
        assert np.all(env.low <= env.high)
        assert env.c1 == env.low.min() and env.c2 == env.high.max()
        assert math.isfinite(env.c2)

    def test_no_envelope_without_oracle(self):
        deltas = np.geomspace(1e-5, 1e-1, 12)
        pts = boundary_ray_samples(ELL22, (0.0, 1.0), deltas)
        with pytest.raises(CapabilityError):
            calibrate_log_envelope(ELL22, (0.0, 0.0), pts)

    def test_ray_placement_error(self):
        # worst relative error of delta over the rays of the tests above
        # (8.2e-11, set by the rounding of the point near the boundary, when
        # each sample was placed by bisection in t)
        worst = 0.0
        for spec, direction, deltas in (
            (ELL12, (1.0, 0.0), np.geomspace(1e-6, 1e-1, 40)),
            (ELL12, (0.0, 1.0), np.geomspace(1e-6, 1e-1, 40)),
            (ELL12, (0.6, 0.8), np.geomspace(1e-6, 1e-1, 40)),
            (ELL22, (0.0, 1.0), np.geomspace(1e-5, 1e-1, 12)),
        ):
            pts = boundary_ray_samples(spec, direction, deltas)
            got = np.array([domains.boundary_distance(spec, p) for p in pts])
            worst = max(worst, float(np.max(np.abs(got - deltas) / deltas)))
        assert worst < 1e-10

    def test_boundary_ray_samples_hit_deltas(self):
        deltas = np.array([0.3, 0.05, 1e-3])
        pts = boundary_ray_samples(ELL12, (0.0, 1.0), deltas)
        for p, d in zip(pts, deltas):
            assert abs(domains.boundary_distance(ELL12, p) - d) < 1e-7


@given(st.floats(-0.9, 0.9), st.floats(-0.9, 0.9), st.floats(0.05, 0.9))
@settings(max_examples=60, deadline=None)
def test_membership_consistent_with_exact_disk(x, y, r):
    if x * x + y * y >= 0.98:
        return
    z = complex(x, y)
    got = _membership(DISK, 0.1, r, z)
    rho = tanh_distance(DISK, 0.1, z)
    assert got == ("inside" if rho < r else "outside")


@given(st.integers(0, 2**31 - 1))
@settings(max_examples=20, deadline=None)
def test_bracket_sound_on_ellipsoid_property(seed):
    rng = np.random.default_rng(seed)
    pts = domains.random_interior(ELL12, 2, rng, level_floor=0.1)
    low, high = bracket_tanh_distance(ELL12, pts[0], pts[1])
    assert 0.0 <= low <= high <= 1.0


@given(st.integers(0, 2**31 - 1), st.sampled_from([2, 4]))
@example(11325, 4)  # pair 58 crosses the axis at |b| = 0.99998: its images lie near the sphere
@settings(max_examples=20, deadline=None)
def test_shortcut_bounds_sound_on_ellipsoid_property(seed, m):
    # the normalized (1, m) ellipsoid contains the unit ball, so on B x B the
    # ball distance bounds tanh k_E from above: it must never undercut a
    # closed bracket; with a threshold r the screens settle pairs on it and
    # on the disc distance of the second coordinates (a lower bound) before
    # the oracle, whose ends must still hold the closed value
    spec = complex_ellipsoid((1, m), (1.0, 1.0))
    rng = np.random.default_rng(seed)
    z = _random_ball_points(rng, 300, rmax=0.99)
    w = _random_ball_points(rng, 300, rmax=0.99)
    low, high = tanh_distance_bracket(spec, z, w)
    closed = high - low <= 1e-12
    assert closed.mean() > 0.9
    rho_b = kobayashi._ball_pd(z.T, w.T)
    assert np.all(rho_b[closed] >= low[closed] - 1e-12)
    # the oracle takes that bound only where Newton left the bracket open;
    # with every bracket counted open, its high end must still hold
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(kobayashi, "_CLOSED", -1.0)
        _, high_all = tanh_distance_bracket(spec, z, w)
    assert np.all(high_all[closed] >= low[closed] - 1e-12)
    for r in (0.3, 0.65):
        # the oracle with a threshold takes the pairs whose Phi distance is
        # below r; what its ends decide must hold for the closed value
        phi = kobayashi._ball_pd((z[:, 0], z[:, 1] ** m), (w[:, 0], w[:, 1] ** m)) < r
        low_r, high_r, _ = kobayashi._oracle_1m(z[phi, 0], z[phi, 1], w[phi, 0], w[phi, 1], m, r)
        assert np.all(low[phi][closed[phi] & (high_r < r)] < r + 1e-12)
        assert np.all(high[phi][closed[phi] & (low_r >= r)] >= r - 1e-12)
        # and the screens with it decide every closed pair clear of r as the
        # full bracket does
        inside, maybe, _ = _screened_reference(spec, z, w, r)
        clear = closed & (np.abs(low - r) > 1e-9)
        np.testing.assert_array_equal(inside[clear], (high < r)[clear])
        np.testing.assert_array_equal(maybe[clear], (low < r)[clear])


@given(st.integers(0, 2**31 - 1), st.sampled_from([2, 4]))
@settings(max_examples=20, deadline=None)
def test_certificates_hold_on_closed_brackets(seed, m):
    # the certificates the screens of _settled_pairs take before the oracle
    # for a threshold: (z1, z2) -> z2 maps E into the disc, so the disc distance of
    # the second coordinates is a lower bound; E contains the unit ball B, so
    # on B x B the ball distance is an upper bound
    spec = complex_ellipsoid((1, m), (1.0, 1.0))
    rng = np.random.default_rng(seed)
    z = domains.random_interior(spec, 400, rng)
    w = domains.random_interior(spec, 400, rng)
    near = z + 0.05 * _random_ball_points(rng, 400, rmax=1.0)  # half the pairs close
    near[:200] = w[:200]
    w = np.where(domains.contains(spec, near)[:, None], near, w)
    low, high = tanh_distance_bracket(spec, z, w)
    closed = high - low <= 1e-12
    assert closed.mean() > 0.9
    disc = kobayashi._ball_pd((z[:, 1],), (w[:, 1],))
    assert np.all(disc[closed] <= low[closed] + 1e-12)
    both = closed & (domains.squared_norm(z) < 1.0) & (domains.squared_norm(w) < 1.0)
    assert both.any() and (closed & ~both).any()
    rho_b = kobayashi._ball_pd(z[both].T, w[both].T)
    assert np.all(rho_b >= high[both] - 1e-12)
