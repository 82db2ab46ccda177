import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from carleson_lab import domains, geometry, kobayashi
from carleson_lab.domains import complex_ellipsoid, unit_ball, unit_disk
from carleson_lab.errors import CapabilityError, ConfigError, InputError
from carleson_lab.kobayashi import (
    INSIDE,
    OUTSIDE,
    UNCERTAIN,
    ball_membership,
    ball_sandwich,
    boundary_ray_samples,
    ball_relation,
    bracket_tanh_distance,
    calibrate_log_envelope,
    distance_upper,
    exact_distance_model,
    exact_metric_model,
    has_exact_distance,
    metric_bounds,
    min_tanh_distance,
    mobius_translation,
    tanh_distance_bracket,
    tanh_distance_model,
    tanh_distance_model_batch,
)

DISK = unit_disk()
BALL2 = unit_ball(2)
ELL12 = complex_ellipsoid((1, 2), (1.0, 1.0))
ELL22 = complex_ellipsoid((2, 2), (1.0, 1.0))


def _random_disk_points(rng, count, rmax=0.95):
    radii = rmax * np.sqrt(rng.uniform(0, 1, count))
    phases = np.exp(2j * math.pi * rng.uniform(0, 1, count))
    return (radii * phases)[:, None]


def _random_ball_points(rng, count, dim=2, rmax=0.95):
    g = rng.normal(size=(count, dim)) + 1j * rng.normal(size=(count, dim))
    g /= np.linalg.norm(g, axis=1, keepdims=True)
    radii = rmax * rng.uniform(0, 1, count) ** (1.0 / (2 * dim))
    return radii[:, None] * g


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


class TestExactDistances:
    def test_disk_values(self):
        assert abs(exact_distance_model(DISK, 0.0, 0.5) - math.atanh(0.5)) < 1e-12
        assert abs(tanh_distance_model(DISK, 0.0, 0.5) - 0.5) < 1e-12
        # pseudohyperbolic distance of (0.5, -0.5) is |z-w|/|1-conj(z)w| = 0.8
        assert abs(tanh_distance_model(DISK, 0.5, -0.5) - 0.8) < 1e-12
        assert abs(exact_distance_model(DISK, 0.5, -0.5) - math.atanh(0.8)) < 1e-12

    def test_batch_matches_scalar(self):
        rng = np.random.default_rng(2)
        pts = _random_ball_points(rng, 64)
        z = np.array([0.3, -0.2j])
        batch = tanh_distance_model_batch(BALL2, z, pts)
        for i, p in enumerate(pts):
            assert abs(batch[i] - tanh_distance_model(BALL2, z, p)) < 1e-12

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
            tanh_distance_model(ELL12, (0.0, 0.0), (0.0, 0.5))


class TestMobius:
    def test_swaps_base_points(self):
        a = np.array([0.3, 0.4j])
        np.testing.assert_allclose(mobius_translation(BALL2, a, np.zeros(2)), a, atol=1e-12)
        np.testing.assert_allclose(
            mobius_translation(BALL2, a, a), np.zeros(2), atol=1e-12
        )

    def test_involution_and_invariance(self):
        rng = np.random.default_rng(41)
        a = np.array([0.2, -0.3 + 0.1j])
        pts = _random_ball_points(rng, 200)
        back = mobius_translation(BALL2, a, mobius_translation(BALL2, a, pts))
        np.testing.assert_allclose(back, pts, atol=1e-10)
        w = np.array([0.1 + 0.2j, 0.05])
        for z in pts[:50]:
            lhs = tanh_distance_model(
                BALL2, mobius_translation(BALL2, a, z), mobius_translation(BALL2, a, w)
            )
            assert abs(lhs - tanh_distance_model(BALL2, z, w)) < 1e-10


class TestDistanceUpper:
    def test_disk_straight_segment_value(self):
        # upper metric along [0, 0.5] integrates to log 2, above the true
        # Poincare distance atanh(0.5)
        got = distance_upper(DISK, 0.0, 0.5, refinement=0)
        assert abs(got - math.log(2.0)) < 1e-10
        assert got >= math.atanh(0.5)

    def test_coincident_points(self):
        assert distance_upper(DISK, 0.3, 0.3) == 0.0

    def test_refinement_monotone(self):
        r0 = distance_upper(DISK, 0.0, 0.5, refinement=0)
        r2 = distance_upper(DISK, 0.0, 0.5, refinement=2)
        assert r2 <= r0 + 1e-12
        assert r2 >= math.atanh(0.5)

    def test_ball_slice_matches_disk(self):
        d1 = distance_upper(DISK, 0.0, 0.5, refinement=1)
        d2 = distance_upper(BALL2, (0.0, 0.0), (0.5, 0.0), refinement=1)
        assert abs(d1 - d2) < 1e-9

    def test_ellipsoid_axis_value(self):
        # straight segment along the z2 axis: integral of dt/(1-t) on [0, 0.8]
        got = distance_upper(ELL12, (0.0, 0.0), (0.0, 0.8), refinement=0)
        assert abs(got - math.log(5.0)) < 1e-5

    def test_exterior_endpoint_rejected(self):
        with pytest.raises(InputError):
            distance_upper(DISK, 0.0, 1.5)

    def test_negative_refinement_rejected(self):
        with pytest.raises(ConfigError):
            distance_upper(DISK, 0.0, 0.5, refinement=-1)


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
                rho = tanh_distance_model_batch(spec, z0, queries)
                in_inner = geometry.polydisk_contains(sw.inner, queries)
                in_outer = geometry.polydisk_contains(sw.outer, queries)
                assert not np.any(in_inner & (rho >= r)), "inner polydisk leaked"
                assert not np.any((rho < r) & ~in_outer), "outer polydisk too small"


class TestBallMembership:
    def test_model_exact(self):
        assert ball_membership(DISK, 0.0, 0.5, 0.0) == INSIDE
        assert ball_membership(DISK, 0.0, 0.5, 0.49) == INSIDE
        assert ball_membership(DISK, 0.0, 0.5, 0.9 * np.exp(1.3j)) == OUTSIDE

    def test_generic_trichotomy(self):
        # without the oracle the polydisk sandwich decides: between the
        # inner and the outer polydisk the answer is Uncertain
        z0 = np.array([0.0, 0.5])
        sw = ball_sandwich(ELL22, z0, 0.4)
        assert ball_membership(ELL22, z0, 0.4, z0) == INSIDE
        far = np.array([0.0, -0.9])
        assert ball_membership(ELL22, z0, 0.4, far) == OUTSIDE
        edge = z0 + 1.5 * sw.inner.radii[0] * sw.inner.basis[0]
        assert ball_membership(ELL22, z0, 0.4, edge) == UNCERTAIN

    def test_ellipsoid_membership_exact(self):
        # tanh k(0, z) is the Minkowski functional h(z) on the (1,2) ellipsoid
        z0 = np.array([0.0, 0.0])
        z = np.array([0.05, 0.05])
        h = float(_h12(z))
        assert ball_membership(ELL12, z0, h + 1e-9, z) == INSIDE
        assert ball_membership(ELL12, z0, h - 1e-9, z) == OUTSIDE

    def test_radius_validation(self):
        with pytest.raises(InputError):
            ball_membership(DISK, 0.0, 0.0, 0.2)


class TestBracket:
    def test_model_collapses_to_exact(self):
        low, high = bracket_tanh_distance(DISK, 0.1, 0.5)
        rho = tanh_distance_model(DISK, 0.1, 0.5)
        assert low == high == rho

    def test_ellipsoid_frozen_pair(self):
        # without the oracle: the frame bound below, the straight-segment
        # path length above
        x = np.array([0.0, 0.5])
        y = np.array([0.2, 0.5])
        low, high = bracket_tanh_distance(ELL22, x, y, with_upper=True)
        assert abs(low - 0.11300556870134239) < 1e-9
        assert abs(high - 0.22338703197464416) < 1e-6
        assert low < high
        assert bracket_tanh_distance(ELL22, x, y) == (low, 1.0)

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
            assert low <= tanh_distance_model(BALL2, x, y) + 1e-10

    def test_delta_comparability_inside_balls(self):
        # boundary distances inside B(z0, r) vary by a bounded factor of 1/(1-r)
        rng = np.random.default_rng(29)
        r = 0.5
        ratios = []
        for _ in range(20):
            z0 = _random_ball_points(rng, 1, dim=1, rmax=0.9)[0]
            d0 = domains.boundary_distance(DISK, z0)
            queries = _random_disk_points(rng, 400, rmax=0.999)
            rho = tanh_distance_model_batch(DISK, z0, queries)
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
        # the one-point bracket is the same oracle, with no path bound
        assert bracket_tanh_distance(ELL12, x, y, with_upper=True) == (low[0], high[0])

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
        exact = np.array([tanh_distance_model(BALL2, p, q) for p, q in zip(z, w)])
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
        exact = np.array([tanh_distance_model(BALL2, p, q) for p, q in zip(z, w)])
        np.testing.assert_allclose(low, exact, rtol=0, atol=1e-14)
        np.testing.assert_array_equal(low, high)


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
        samplers = {
            DISK: lambda k: _random_disk_points(rng, k),
            BALL2: lambda k: _random_ball_points(rng, k),
            ELL12: lambda k: domains.random_interior(ELL12, k, rng),
        }
        for spec, sample in samplers.items():
            pts, centers = sample(300), sample(300)
            p_all, c_all = np.repeat(pts, 300, axis=0), np.tile(centers, (300, 1))
            inside, maybe = ball_relation(spec, pts, centers, r)
            if spec is ELL12:
                zn, m = kobayashi._normalize_1m(spec, p_all)
                cn, _ = kobayashi._normalize_1m(spec, c_all)
                low, high = kobayashi._bracket_1m(zn, cn, m, r)  # no prefilter
                ref_inside, ref_maybe = high < r, (low < r) | (high < r)
            else:
                assert inside is maybe
                ref_inside = ref_maybe = kobayashi._pair_pd(p_all, c_all) < r
            np.testing.assert_array_equal(inside, ref_inside.reshape(300, 300))
            np.testing.assert_array_equal(maybe, ref_maybe.reshape(300, 300))
            assert 0 < maybe.sum() < maybe.size

    @pytest.mark.parametrize("spec", [BALL2, ELL12, ELL22], ids=["BALL2", "ELL12", "ELL22"])
    def test_greedy_matches_one_point_loop(self, spec):
        # ELL22 has no oracle: there the relation comes from the frames of
        # the kept points, each computed once
        pts = domains.quasi_interior(spec, 2000, seed=13, level_floor=0.02)
        r = 0.4
        exact = kobayashi.has_exact_distance(spec)
        kept: list[int] = []
        frames: list[geometry.MinimalFrame] = []
        for k, p in enumerate(pts):
            stack = None if exact else kobayashi._stack(pts[kept], frames)
            if not kept or not kobayashi._relate(spec, p[None, :], pts[kept], r, stack)[1].any():
                kept.append(k)
                if not exact:
                    frames.append(geometry.minimal_frame(spec, p))
        got = kobayashi.greedy_separated(spec, pts, r)
        np.testing.assert_array_equal(got, kept)
        assert 50 < len(kept) < 2000

    @pytest.mark.parametrize("spec", [BALL2, ELL12], ids=["BALL2", "ELL12"])
    def test_counts_are_row_sums(self, spec):
        rng = np.random.default_rng(83)
        pts = domains.random_interior(spec, 2 * kobayashi._COUNT_CHUNK + 300, rng)
        centers = domains.random_interior(spec, 250, rng)
        inside, maybe = ball_relation(spec, pts, centers, 0.65)
        inside_n, maybe_n = kobayashi.ball_counts(spec, pts, centers, 0.65)
        np.testing.assert_array_equal(inside_n, inside.sum(axis=1))
        np.testing.assert_array_equal(maybe_n, maybe.sum(axis=1))

    @pytest.mark.skipif(
        np.finfo(np.longdouble).eps >= np.finfo(float).eps, reason="no extended precision"
    )
    def test_margin_error_within_slack(self):
        # the threshold test trusts its margin (1-|p|^2)(1-|c|^2) - t^2 |1-<p,c>|^2
        # to (24n + 58) eps; check against extended precision, also near the sphere
        rng = np.random.default_rng(87)
        ld = np.longdouble
        for n in (1, 2, 3):
            for near_sphere, r in ((False, 0.3), (True, 0.65), (True, 1e-6), (False, 0.999)):
                pts, centers = (_random_ball_points(rng, 200, dim=n, rmax=1.0) for _ in range(2))
                if near_sphere:
                    pts /= np.linalg.norm(pts, axis=1, keepdims=True)
                    pts *= (1.0 - 10.0 ** rng.uniform(-12, 0, 200))[:, None]
                t = math.sqrt(1.0 - r * r)
                got = np.empty((200, 200))
                for rows, cols, num, den in kobayashi._pair_tiles(pts, centers, t):
                    got[rows, cols] = num - den
                pr, pi, cr, ci = (a.astype(ld) for a in (pts.real, pts.imag, centers.real, centers.imag))
                re, im = pr @ cr.T + pi @ ci.T, pi @ cr.T - pr @ ci.T
                num = np.multiply.outer(1 - (pr**2 + pi**2).sum(1), 1 - (cr**2 + ci**2).sum(1))
                ref = num - (1 - ld(r) * ld(r)) * ((1 - re) ** 2 + im**2)
                err = np.abs(got - ref.astype(float)).max()
                assert err <= (24 * n + 58) * np.finfo(float).eps

    def test_tiny_radius_is_sound(self):
        # the quotient form 1 - num/|1-<p,c>|^2 has an absolute error of about
        # 1e-8 in rho here, far above the radii tested
        rng = np.random.default_rng(85)
        for spec in (DISK, BALL2, ELL12):
            z = np.array([0.6 + 0.1j, 0.3 - 0.2j])[: spec.dim]
            v = rng.normal(size=(2000, spec.dim)) + 1j * rng.normal(size=(2000, spec.dim))
            w = z + 3e-9 * v / np.linalg.norm(v, axis=1, keepdims=True)
            if spec is ELL12:
                # the prefilter tests the ball distance of the Phi-images
                _, phi_w, _ = kobayashi._images(spec, w)
                _, phi_z, _ = kobayashi._images(spec, z[None, :])
                lower = kobayashi._ball_pd(phi_w.T, phi_z.T)
                for k in range(len(w)):
                    assert kobayashi._within(phi_w[k : k + 1], phi_z, 1.05 * lower[k])[0, 0]
                    assert not kobayashi._within(phi_w[k : k + 1], phi_z, 0.95 * lower[k])[0, 0]
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
    got = ball_membership(DISK, 0.1, r, z)
    rho = tanh_distance_model(DISK, 0.1, z)
    assert got == (INSIDE if rho < r else OUTSIDE)


@given(st.integers(0, 2**31 - 1))
@settings(max_examples=20, deadline=None)
def test_bracket_sound_on_ellipsoid_property(seed):
    rng = np.random.default_rng(seed)
    pts = domains.random_interior(ELL12, 2, rng, level_floor=0.1)
    low, high = bracket_tanh_distance(ELL12, pts[0], pts[1], with_upper=True)
    assert 0.0 <= low <= high <= 1.0


@given(st.integers(0, 2**31 - 1), st.sampled_from([2, 4]))
@settings(max_examples=20, deadline=None)
def test_shortcut_bounds_sound_on_ellipsoid_property(seed, m):
    # the normalized (1, m) ellipsoid contains the unit ball, so on B x B the
    # ball distance bounds tanh k_E from above: it must never undercut a
    # closed bracket; with a threshold r the oracle also skips Newton on the
    # disc distance of the second coordinates (a lower bound), and its ends
    # must still hold the closed value
    rng = np.random.default_rng(seed)
    z = _random_ball_points(rng, 300, rmax=0.99)
    w = _random_ball_points(rng, 300, rmax=0.99)
    low, high = kobayashi._bracket_1m(z, w, m)
    closed = high - low <= 1e-12
    assert closed.mean() > 0.9
    rho_b = kobayashi._ball_pd(z.T, w.T)
    assert np.all(rho_b[closed] >= low[closed] - 1e-12)
    # the oracle takes that bound only where Newton left the bracket open;
    # with every bracket counted open, its high end must still hold
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(kobayashi, "_CLOSED", -1.0)
        _, high_all = kobayashi._bracket_1m(z, w, m)
    assert np.all(high_all[closed] >= low[closed] - 1e-12)
    for r in (0.3, 0.65):
        low_r, high_r = kobayashi._bracket_1m(z, w, m, r)
        assert np.all(high_r[closed] >= low[closed] - 1e-12)
        assert np.all(low_r[closed] <= high[closed] + 1e-12)
        # and they decide every closed pair clear of r as the full bracket does
        clear = closed & (np.abs(low - r) > 1e-9)
        np.testing.assert_array_equal((high_r < r)[clear], (high < r)[clear])
        np.testing.assert_array_equal((low_r < r)[clear], (low < r)[clear])
