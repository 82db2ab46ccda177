import dataclasses
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import special

from carleson_lab import bergman, domains
from carleson_lab.domains import (
    DomainSpec,
    anchor_point,
    boundary_distance,
    complex_ellipsoid,
    contains,
    defining_gradient,
    defining_value,
    line_level_distance,
    load_spec,
    project_to_level,
    quasi_interior,
    random_interior,
    save_spec,
    spec_from_json,
    spec_to_json,
    to_complex,
    to_real,
    unit_ball,
    unit_disk,
)
from carleson_lab.errors import ConfigError, InputError

DISK = unit_disk()
BALL2 = unit_ball(2)
BALL3 = unit_ball(3)
ELL12 = complex_ellipsoid((1, 2), (1.0, 1.0))
ELL22 = complex_ellipsoid((2, 2))
# three coordinates: projections take the SLSQP path
ELL112 = complex_ellipsoid((1, 1, 2))

ALL_SPECS = [DISK, BALL2, ELL12, ELL112]


def _dense_projection_oracle(spec, q, level=0.0, sweeps=4000, seed=11):
    """Independent upper bound on the projection distance: best of many rays,
    their roots taken in one batch."""
    rng = np.random.default_rng(seed)
    dirs = []
    for _ in range(sweeps):
        v = rng.standard_normal(spec.dim) + 1j * rng.standard_normal(spec.dim)
        dirs.append(v / np.linalg.norm(v))
    return float(domains.level_roots(spec, q, np.array(dirs), level).min())


class TestSpecs:
    def test_factories(self):
        assert DISK.kind == "disk" and DISK.dim == 1
        assert BALL2.kind == "ball" and BALL2.dim == 2
        assert ELL12.kind == "ellipsoid" and tuple(ELL12.exponents) == (1, 2)
        assert ELL112.kind == "ellipsoid" and ELL112.dim == 3
        # four fields; the box 1.05 a_i is derived from them
        assert [f.name for f in dataclasses.fields(DomainSpec)] == [
            "kind", "dim", "exponents", "semi_axes"
        ]
        assert DISK.box == (1.05,) and BALL2.box == (1.05, 1.05)
        assert complex_ellipsoid((1, 2), (2.0, 0.5)).box == (1.05 * 2.0, 1.05 * 0.5)

    def test_r_is_minus_one_at_the_anchor(self):
        # the grid levels, the cover's core level and dyadic_ray take
        # |r(anchor)| = 1 as a constant
        for spec in ALL_SPECS + [complex_ellipsoid((2, 2), (2.0, 0.5))]:
            assert not anchor_point(spec).any()
            assert defining_value(spec, anchor_point(spec)) == -1.0

    def test_ellipsoid_validation(self):
        with pytest.raises(ConfigError):
            complex_ellipsoid((0, 2), (1.0, 1.0))  # exponents must be >= 1
        with pytest.raises(ConfigError):
            complex_ellipsoid((1, 2), (1.0, -1.0))
        # r divides by a^2, which must be finite and positive as well as a
        for a in (math.inf, math.nan, 1e300, 1e-300):
            with pytest.raises(ConfigError, match="semi_axes"):
                complex_ellipsoid((1, 2), (1.0, a))
        # r is finite on this box, but the product of the (2b)^2 is not:
        # the volume reads inf
        assert domains.box_nu_volume(complex_ellipsoid((1, 2), (1.0, 5e153))) == math.inf

    def test_r_is_checked_at_the_box_corner(self):
        # r grows with every |z_i|, so the corner 1.05 a (1 + i) holds its
        # largest value on the box, where |z_2|^2 / a_2^2 = 2.205: 2.205^897
        # is finite and 2.205^898 is not; with a_2 = 1e154, |z_2|^2 overflows
        # at the corner, though a^2 is finite
        spec = complex_ellipsoid((1, 897))
        corner = np.asarray(spec.box) * (1.0 + 1.0j)
        assert 1e307 < defining_value(spec, corner) < math.inf
        for exps, axes in (((1, 898), (1.0, 1.0)), ((1, 2), (1.0, 1e154))):
            with pytest.raises(InputError, match="r overflows on the validation box"):
                complex_ellipsoid(exps, axes)

    def test_defining_values(self):
        assert defining_value(DISK, [0.0]) == -1.0
        assert defining_value(DISK, [0.6]) == pytest.approx(-0.64)
        assert defining_value(BALL2, [0.6, 0.0]) == pytest.approx(-0.64)
        # (0, 0.9): 0.9^4 - 1
        assert defining_value(ELL12, [0.0, 0.9]) == pytest.approx(0.9**4 - 1.0)

    def test_gradient_matches_fd(self):
        rng = np.random.default_rng(0)
        for spec in ALL_SPECS:
            z = random_interior(spec, 1, rng)[0] * 0.8
            g = defining_gradient(spec, z)
            x = to_real(z)
            h = 1e-7
            for j in range(2 * spec.dim):
                xp = x.copy()
                xp[j] += h
                xm = x.copy()
                xm[j] -= h
                fd = (
                    defining_value(spec, to_complex(xp)) - defining_value(spec, to_complex(xm))
                ) / (2 * h)
                assert g[j] == pytest.approx(fd, abs=1e-5)

    def test_contains_batch(self):
        pts = np.array([[0.2 + 0.1j], [0.99 + 0.0j], [1.1 + 0.0j]])
        assert contains(DISK, pts).tolist() == [True, True, False]


class TestProjection:
    def test_disk_closed_form(self):
        res = project_to_level(DISK, [0.3 + 0.4j])
        assert res.distance == pytest.approx(0.5)
        assert abs(res.point[0]) == pytest.approx(1.0)
        assert res.unique

    def test_center_tie(self):
        res = project_to_level(BALL2, [0.0, 0.0])
        assert res.distance == pytest.approx(1.0)
        assert not res.unique

    def test_ellipsoid_fast_path_against_ray_oracle(self):
        rng = np.random.default_rng(5)
        for trial in range(8):
            q = random_interior(ELL12, 1, rng)[0] * 0.9
            res = project_to_level(ELL12, q)
            oracle = _dense_projection_oracle(ELL12, q, seed=trial)
            assert res.distance <= oracle + 1e-6
            assert abs(defining_value(ELL12, res.point)) < 1e-9
            assert np.linalg.norm(res.point - q) == pytest.approx(res.distance, abs=1e-9)

    @pytest.mark.parametrize(
        "axes, q",
        [((1.0, 1.0), (0.003, 0.7)), ((1.0, 1.0), (0.01, 0.5)), ((1.0, 2.0), (0.003, 1.3))],
    )
    def test_ellipsoid_projection_near_the_steep_end(self, axes, q):
        # on {|z1/a1|^4 + |z2/a2|^4 < 1} the nearest point from q lies within
        # ~1e-9 of x2 = a2, where x1(x2) is steep; the projection must come
        # out no farther than the boundary point above q
        spec = complex_ellipsoid((2, 2), axes)
        x2 = axes[1] * (1.0 - (q[0] / axes[0]) ** 4) ** 0.25
        explicit = abs(x2 - q[1])
        assert project_to_level(spec, np.array(q, dtype=complex)).distance <= explicit + 1e-15

    def test_ellipsoid_anchor_axis_tie(self):
        res = project_to_level(ELL12, [0.0, 0.0])
        assert res.distance == pytest.approx(1.0)
        assert not res.unique
        # canonical winner is the first axis
        assert res.point[0] == pytest.approx(1.0)
        assert res.point[1] == pytest.approx(0.0)

    def test_slsqp_generic_path(self):
        q = np.array([0.1 + 0.2j, -0.3 + 0.1j, 0.2 - 0.1j])
        res = project_to_level(ELL112, q)
        oracle = _dense_projection_oracle(ELL112, q)
        assert res.distance <= oracle + 1e-5
        assert abs(defining_value(ELL112, res.point)) < 1e-8

    def test_interior_precondition(self):
        with pytest.raises(InputError):
            project_to_level(DISK, [1.5])


class TestDistances:
    def test_boundary_distance_disk(self):
        assert boundary_distance(DISK, [0.3 + 0.4j]) == pytest.approx(0.5)

    def test_boundary_distance_batch(self):
        pts = np.array([[0.0], [0.5 + 0.0j], [0.0 + 0.8j]])
        got = domains.boundary_distance_batch(DISK, pts)
        assert got == pytest.approx([1.0, 0.5, 0.2])

    @pytest.mark.parametrize("spec", [DISK, BALL2, BALL3], ids=["disk", "ball2", "ball3"])
    def test_squared_norm_does_not_depend_on_the_batch(self, spec):
        # r and the boundary distance of one point equal its entries in a
        # batch bit for bit, and r equals the sum over the coordinate axis
        rng = np.random.default_rng(80 + spec.dim)
        pts = domains.random_interior(spec, 500, rng)
        values = domains._value_batch(spec, pts)
        dists = domains.boundary_distance_batch(spec, pts)
        np.testing.assert_array_equal(values, (pts.real**2 + pts.imag**2).sum(axis=-1) - 1.0)
        for k in rng.integers(0, 500, 60):
            assert domains._value_batch(spec, pts[k : k + 1])[0] == values[k]
            assert defining_value(spec, pts[k]) == values[k]
            assert domains.boundary_distance_batch(spec, pts[k : k + 1])[0] == dists[k]

    @pytest.mark.parametrize(
        "spec",
        [ELL12, ELL22, ELL112, complex_ellipsoid((1, 4), (1.2, 0.7))],
        ids=["ELL12", "ELL22", "ELL112", "ELL14"],
    )
    def test_ellipsoid_value_is_the_sum_over_the_coordinate_axis(self, spec):
        # r adds its terms one coordinate at a time; numpy's sum over a last
        # axis of length < 8 adds them in the same order, so r is bit for bit
        # that sum, on 2-D and 3-D batches, inside and outside the domain
        rng = np.random.default_rng(70 + spec.dim)
        box = np.repeat(np.asarray(spec.box), 2)
        pts = to_complex(rng.uniform(-1.0, 1.0, (4096, 2 * spec.dim)) * box)
        a2 = np.asarray(spec.semi_axes) ** 2
        m = np.asarray(spec.exponents)
        for z in (pts, pts.reshape(64, 64, spec.dim)):
            want = (((z.real**2 + z.imag**2) / a2) ** m).sum(axis=-1) - 1.0
            np.testing.assert_array_equal(domains._value_batch(spec, z), want)

    @pytest.mark.parametrize("spec", [DISK, BALL2, BALL3], ids=["disk", "ball2", "ball3"])
    def test_single_point_distance_is_the_batch_value(self, spec):
        # a grid point's delta and the density 1 - delta at that point agree
        pts = domains.random_interior(spec, 2000, np.random.default_rng(90 + spec.dim))
        single = np.array([boundary_distance(spec, p) for p in pts])
        np.testing.assert_array_equal(single, domains.boundary_distance_batch(spec, pts))

    @pytest.mark.parametrize("spec", [DISK, BALL2, BALL3], ids=["disk", "ball2", "ball3"])
    def test_ray_root_against_mpmath(self, spec):
        # the closed-form root against the exact root of |q + t d|^2 - 1 = level
        # for the float q, d and level as given, |d| = 1 + O(eps) included:
        # from the anchor and from q near the sphere, whose outward rays are
        # short and need b and c summed exactly
        mpmath.mp.dps = 50
        rng = np.random.default_rng(120 + spec.dim)
        n, eps, worst = spec.dim, np.finfo(float).eps, 0.0
        for i in range(400):
            level = 0.0 if i % 4 == 0 else -(2.0 ** -int(rng.integers(1, 41)))
            d = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            d /= np.linalg.norm(d)
            u = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            shrink = 1.0 - 10.0 ** rng.uniform(-12.0, -0.1)
            q = np.zeros(n, complex) if i % 7 == 0 else u / np.linalg.norm(u) * shrink * math.sqrt(1.0 + level)
            x = [mpmath.mpf(v) for v in to_real(q)]
            e = [mpmath.mpf(v) for v in to_real(d)]
            a = mpmath.fsum(v * v for v in e)
            b = mpmath.fsum(s * v for s, v in zip(x, e))
            c = mpmath.fsum(v * v for v in x) - 1 - mpmath.mpf(level)
            assert c < 0
            exact = (-b + mpmath.sqrt(b * b - a * c)) / a
            worst = max(worst, float(abs(domains._ray_root(spec, q, d, level) - exact) / exact))
        assert worst <= 4.0 * eps

    def test_ray_root_outside_the_level_set_raises(self):
        d = np.array([1.0 + 0j, 0.0])
        for spec, q in ((DISK, [0.9 + 0j]), (BALL2, [0.9 + 0j, 0.0]), (ELL12, [0.9 + 0j, 0.0])):
            with pytest.raises(ValueError):
                domains._ray_root(spec, np.asarray(q), d[: spec.dim], -0.5)

    @pytest.mark.parametrize(
        "exponents, axes",
        [((1, 1, 2), (1.0, 1.0, b)) for b in (1e10, 1e20, 1e60, 1e100)] + [((1, 2), (1.0, 1e150))],
        ids=["box1e10", "box1e20", "box1e60", "box1e100", "axes1e150"],
    )
    def test_level_roots_on_wide_boxes(self, exponents, axes):
        # the bracket grows with the box and the bisection's budget with the
        # bracket (about 550 passes at 1e150); far outside, r overflows to
        # inf with no warning
        spec = complex_ellipsoid(exponents, axes)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = domains.level_roots(spec, anchor_point(spec), np.eye(spec.dim, dtype=complex), 0.0)
        np.testing.assert_allclose(got, axes, rtol=2e-14, atol=0.0)

    @pytest.mark.parametrize("spec", [ELL12, ELL22, ELL112], ids=["ELL12", "ELL22", "ELL112"])
    def test_level_roots_are_outer_ends_and_one_ray_rows(self, spec):
        # each root has r > level and lies within 1e-14 + 1e-15 t of the
        # crossing, and row k of a batch is the one-ray root bit for bit
        rng = np.random.default_rng(31 + spec.dim)
        q = random_interior(spec, 300, rng, level_floor=0.3)
        d = rng.standard_normal(q.shape) + 1j * rng.standard_normal(q.shape)
        d /= np.linalg.norm(d, axis=1, keepdims=True)
        level = -(2.0 ** -rng.integers(2, 40, len(q)).astype(float))
        t = domains.level_roots(spec, q, d, level)
        assert np.all(defining_value(spec, q + t[:, None] * d) > level)
        inner = t - (1e-14 + 1e-15 * t)
        assert np.all(defining_value(spec, q + inner[:, None] * d) <= level)
        for k in range(len(q)):
            assert domains._ray_root(spec, q[k], d[k], level[k]) == t[k]

    def test_line_distance_disk_closed_form(self):
        # line through z in direction v: sqrt(|<z,v>|^2 + 1 - |z|^2) - |<z,v>|
        z = np.array([0.5 + 0.0j])
        got = line_level_distance(DISK, z, np.array([1.0 + 0.0j]))
        assert got == pytest.approx(0.5)

    @pytest.mark.parametrize("b", [1e10, 1e14, 5e16, 2e17])
    def test_line_distance_on_a_wide_box(self, b):
        # along e_1 the section is the unit disk, but the box is 1.05 b wide:
        # the bisection's resolution grows with the box, and its outer end
        # stays an upper bound
        spec = complex_ellipsoid((1, 2), (1.0, b))
        got = line_level_distance(spec, np.array([0.5 + 0j, 0.0]), np.array([1.0 + 0j, 0.0]))
        assert got == pytest.approx(0.5, abs=1e-12)

    @pytest.mark.parametrize(
        "spec", [ELL12, ELL22, complex_ellipsoid((1, 4), (1.2, 0.7))], ids=["ELL12", "ELL22", "ELL14"]
    )
    def test_line_distances_against_a_dense_phase_oracle(self, spec):
        # the 64-phase grid alone lies about 2e-4 above the least root in the
        # median; refined, no distance lies 1e-12 above the least root on the
        # 2^14 phases of the windows +-2 cells around the best phase of a
        # 2^8-phase scan.  Row k is the one-row distance bit for bit
        rng = np.random.default_rng(47)
        z = quasi_interior(spec, 200, seed=8, level_floor=0.02)
        v = rng.standard_normal(z.shape) + 1j * rng.standard_normal(z.shape)
        got = domains.line_level_distances(spec, z, v)
        v /= np.linalg.norm(v, axis=1, keepdims=True)

        def roots(steps):  # at the phases 2 pi steps / 2^14
            phases = np.exp(2j * math.pi * steps / 2**14)
            return domains.level_roots(spec, z[:, None], phases[..., None] * v[:, None], 0.0)

        scan = np.argmin(roots(64 * np.arange(256)[None]), axis=1)
        oracle = roots(64 * scan[:, None] + np.arange(-128, 129)).min(axis=1)
        assert np.all(got <= oracle * (1.0 + 1e-12))
        for k in range(20):
            assert line_level_distance(spec, z[k], v[k]) == got[k]

    def test_line_distance_ellipsoid_axis(self):
        # along e2 from (0, t): remaining quartic room is 1 - t
        got = line_level_distance(ELL12, np.array([0.0, 0.3 + 0j]), np.array([0.0, 1.0 + 0j]))
        assert got == pytest.approx(0.7, abs=1e-9)


class TestSampling:
    def test_random_interior_inside(self):
        rng = np.random.default_rng(1)
        for spec in ALL_SPECS:
            pts = random_interior(spec, 200, rng)
            assert contains(spec, pts).all()

    def test_quasi_interior_deterministic(self):
        a = quasi_interior(DISK, 64, seed=3)
        b = quasi_interior(DISK, 64, seed=3)
        np.testing.assert_array_equal(a, b)
        c = quasi_interior(DISK, 64, seed=4)
        assert not np.array_equal(a, c)

    def test_quasi_interior_level_floor(self):
        pts = quasi_interior(ELL12, 128, seed=0, level_floor=0.2)
        assert (defining_value(ELL12, pts) <= -0.2 + 1e-12).all()

    @pytest.mark.parametrize("level", [-0.5, float("nan"), float("inf")])
    def test_level_floor_must_be_finite_and_nonnegative(self, level):
        # a negative floor admits points outside D; nan admits none
        with pytest.raises(InputError, match="level_floor must be"):
            quasi_interior(DISK, 5, seed=0, level_floor=level)
        with pytest.raises(InputError, match="level_floor must be"):
            random_interior(DISK, 5, np.random.default_rng(0), level_floor=level)

    @pytest.mark.parametrize(
        "spec", [DISK, BALL2, ELL12, ELL22], ids=["disk", "ball2", "ell12", "ell22"]
    )
    def test_level_floor_below_the_center_level(self, spec):
        # r >= r(0) = -1 on every model: a floor of 1 or more is refused
        # before any draw, a floor just under 1 still fills the count
        rng, ref = np.random.default_rng(0), np.random.default_rng(0)
        for level in (1.0, 1.5):
            with pytest.raises(InputError, match="level_floor must be < 1 "):
                random_interior(spec, 5, rng, level_floor=level)
        assert rng.random() == ref.random()
        pts = quasi_interior(spec, 3, seed=0, level_floor=0.99)
        assert (defining_value(spec, pts) <= -0.99).all()

    def test_counts(self):
        assert quasi_interior(DISK, 17, seed=0).shape == (17, 1)

    def test_closed_gamma_quantiles(self):
        u = np.concatenate([
            domains.Halton(1, 0).random(1 << 14)[:, 0],
            np.geomspace(1e-12, 0.5, 50),
            1.0 - np.geomspace(1e-12, 0.5, 50),
        ])
        for a in (1.0, 0.5):
            ref = special.gammaincinv(a, u)
            np.testing.assert_allclose(domains._gamma_quantile(a, u), ref, rtol=1e-13, atol=0)
        np.testing.assert_array_equal(
            domains._gamma_quantile(0.25, u), special.gammaincinv(0.25, u)
        )

    def test_quasi_uniform_second_moments(self):
        # E|z_i|^2 = m_{e_i} / m_0 under the normalized volume
        spec = complex_ellipsoid((1, 2), (0.8, 1.3))
        tab = bergman.moments(spec, 1)
        pts = domains.quasi_uniform(spec, 1 << 16, seed=2)
        assert contains(spec, pts).all()
        for i, e in enumerate([(1, 0), (0, 1)]):
            expected = bergman.moment(tab, e) / bergman.moment(tab, (0, 0))
            assert abs(np.mean(np.abs(pts[:, i]) ** 2) - expected) < 2e-4 * expected

    @pytest.mark.parametrize("seed", [0, 5])
    def test_quasi_uniform_blocks_equal_one_draw(self, seed):
        # the stream is drawn and mapped block by block into one output; the
        # points are those of a single draw mapped in one pass, bit for bit,
        # at counts around block multiples
        block = domains._BLOCK
        specs = [DISK, BALL2, BALL3, ELL12, complex_ellipsoid((1, 3)), complex_ellipsoid((2, 2))]
        for spec in specs:
            n = spec.dim
            exponents = np.asarray(spec.exponents or (1,) * n, dtype=float)
            shapes = [1.0 / m for m in exponents] + [1.0]
            for count in (1, 17, block - 1, block, block + 1, 3 * block + 17):
                u = domains.Halton(2 * n + 1, seed).random(count)
                g = np.stack([domains._gamma_quantile(a, u[:, i]) for i, a in enumerate(shapes)], axis=1)
                t = g[:, :n] / g.sum(axis=1, keepdims=True)
                radii = np.asarray(spec.semi_axes or (1.0,) * n) * t ** (0.5 / exponents)
                expected = radii * np.exp(2j * np.pi * u[:, n + 1 :])
                got = domains.quasi_uniform(spec, count, seed)
                assert got.shape == (count, n)
                assert got.tobytes() == expected.tobytes(), (spec.kind, spec.exponents, count)


def _ulps(got: np.ndarray, ref: np.ndarray) -> np.ndarray:
    return np.abs(got - ref) / np.spacing(np.abs(ref))


class TestErfinv:
    def test_against_mpmath(self):
        # within 2 ulp of the 40-digit inverse, from 1e-300 up to 1 - 2^-53,
        # on both sides of each range's start in w = -log((1 - x)(1 + x))
        starts = np.sqrt(-np.expm1(-np.array([6.25, 16.0])))
        steps = np.arange(-40, 41)
        near = np.concatenate([s + steps * np.spacing(s) for s in starts])
        x = np.concatenate([
            [0.0],
            np.geomspace(1e-300, 0.5, 1000),
            np.linspace(0.0, 1.0, 1000, endpoint=False)[1:],
            1.0 - np.geomspace(2.0**-53, 0.5, 1000),
            1.0 - 2.0 ** -np.arange(1.0, 54.0),
            near,
        ])
        w = -np.log((1.0 - near) * (1.0 + near))
        for start in (6.25, 16.0):
            assert (w < start).any() and (w >= start).any()
        with mpmath.workdps(40):
            ref = np.array([float(mpmath.erfinv(mpmath.mpf(float(v)))) for v in x])
        assert len(x) >= 3000
        assert _ulps(domains._erfinv(x), ref).max() <= 2.0

    def test_against_scipy(self):
        u = domains.Halton(1, 4).random(1 << 20)[:, 0]
        assert _ulps(domains._erfinv(u), special.erfinv(u)).max() <= 4.0

    def test_odd_and_zero_at_zero(self):
        u = domains.Halton(1, 5).random(1 << 12)[:, 0]
        np.testing.assert_array_equal(domains._erfinv(-u), -domains._erfinv(u))
        assert domains._erfinv(0.0) == 0.0


PRIMES = (2, 3, 5, 7, 11, 13, 17)


def _split_sizes(d: int, total: int) -> np.ndarray:
    """Draw sizes whose running totals are b^k - 1, b^k and b^k + 1 for the
    bases b of the first d coordinates, up to total: each draw then starts
    just before, at or just after a new leading digit."""
    ends = {b**k + e for b in PRIMES[:d] for k in range(1, 20) if b**k < total for e in (-1, 0, 1)}
    return np.diff([0] + sorted(ends | {total}))


class TestHalton:
    @pytest.mark.parametrize("d", range(1, 8))
    def test_equals_scipy_bit_for_bit(self, d):
        from scipy.stats import qmc  # the reference, imported by this test only

        for seed in (0, 7, 16020):
            ref = qmc.Halton(d=d, scramble=True, seed=seed)
            ours = domains.Halton(d, seed)
            parts = [ours.random(int(n)) for n in _split_sizes(d, 5000)]
            np.testing.assert_array_equal(np.concatenate(parts), ref.random(5000))
            # past every split, one long draw reaches the deeper digits
            np.testing.assert_array_equal(ours.random(1 << 16), ref.random(1 << 16))
            assert ours.random(0).shape == (0, d)

    @pytest.mark.parametrize("d", [1, 3, 7])
    def test_single_first_point_and_digit_boundaries(self, d):
        # count 1 at index 0 has no nonzero digit; a draw from b^k - 1 to
        # b^k needs one digit more than the draw before it
        from scipy.stats import qmc

        ref = qmc.Halton(d=d, scramble=True, seed=3)
        ours = domains.Halton(d, 3)
        np.testing.assert_array_equal(ours.random(1), ref.random(1))
        for b in PRIMES[:d]:
            ref = qmc.Halton(d=d, scramble=True, seed=3)
            ours = domains.Halton(d, 3)
            k = math.ceil(math.log(3000, b))
            np.testing.assert_array_equal(ours.random(b**k - 1), ref.random(b**k - 1))
            np.testing.assert_array_equal(ours.random(2), ref.random(2))

    def test_import_leaves_scipy_stats_out(self):
        # scipy.stats alone took about 0.5 s of a command's start-up,
        # scipy.optimize, which pulls in scipy.linalg, about 0.4 s, and
        # scipy.special about 0.2 s; the package loads each where it computes
        code = "import sys, carleson_lab, carleson_lab.cli; print([m for m in sys.modules if m.split('.')[0] == 'scipy'])"
        assert _run_python(code) == "[]"

    def test_scipy_optimize_loads_only_where_a_solver_runs(self, tmp_path):
        # one fresh interpreter per command, since a module once loaded stays.
        # Ray roots and line distances are bisections on arrays, and the
        # oracle's covers and packings and the golden-section projection on
        # ELL12 run no solver, so frame on ELL12 loads no scipy; SLSQP, which
        # projects in C^3, is the one solver, so frame on the (1,1,2)
        # ellipsoid loads scipy.optimize (and with it scipy.special).  Moment
        # tables (criterion (1), nu(D), the series kernel) take math.lgamma,
        # and the quasi-uniform sample's gamma quantiles are closed forms in
        # numpy for exponents 1 and 2, so kernel-check loads no scipy on the
        # disk, the ball or ELL12; scipy.special loads only for gammaincinv,
        # the quantile of an exponent >= 3, as on the (1,3) ellipsoid
        for name, spec in (
            ("disk", DISK),
            ("ball2", BALL2),
            ("ell12", ELL12),
            ("ell13", complex_ellipsoid((1, 3))),
            ("ell112", ELL112),
        ):
            save_spec(spec, tmp_path / f"{name}.json")
        runs = [
            (["cover", "--domain", "ell12.json", "--samples", "500"], "False False"),
            (["cover", "--domain", "ball2.json", "--samples", "500"], "False False"),
            (["pack", "--domain", "disk.json", "--samples", "500"], "False False"),
            (["domain-info", "--domain", "ell12.json"], "False False"),
            (["carleson", "--domain", "disk.json", "--samples", "4096"], "False False"),
            (["thm42", "--domain", "ball2.json", "--samples", "4096"], "False False"),
            (["kernel-check", "--domain", "disk.json", "--samples", "4096"], "False False"),
            (["berezin", "--domain", "ball2.json", "--samples", "4096"], "False False"),
            (["kernel-check", "--domain", "ell12.json", "--samples", "4096"], "False False"),
            (["kernel-check", "--domain", "ell13.json", "--samples", "4096"], "False True"),
            (["frame", "--domain", "ell12.json", "--point", "0.1,0,0.2,0"], "False False"),
            (["frame", "--domain", "ell112.json", "--point", "0.1,0,0.2,0,0.1,0"], "True True"),
        ]
        out = str(tmp_path / "out")
        seen, wanted = [], []
        for argv, want in runs:
            code = f"""
import sys
from carleson_lab import cli
assert cli.main({[*argv, "--out", out]!r}) == 0
print(*(m in sys.modules for m in ('scipy.optimize', 'scipy.special')), file=sys.stderr)
"""
            seen.append(f"{argv[0]} {argv[2]} {_run_python(code, cwd=tmp_path, stream='stderr')}")
            wanted.append(f"{argv[0]} {argv[2]} {want}")
        assert seen == wanted

    def test_ell12_kernel_integrals_load_no_scipy(self):
        # the degree-60 series model, its nu-uniform sample and one
        # reproducing integral on ELL12, in one fresh interpreter
        code = """
import sys
import numpy as np
from carleson_lab import bergman, domains
from carleson_lab.polynomials import random_polynomial
spec = domains.complex_ellipsoid((1, 2))
model = bergman.kernel_model(spec, degree=60)
pts = domains.quasi_uniform(spec, 4096, seed=0)
poly = random_polynomial(2, 5, np.random.default_rng(0))
bergman.reproduce_check(model, poly, np.array([0.3, 0.2j]), pts)
print([m for m in sys.modules if m.split('.')[0] == 'scipy'])
"""
        assert _run_python(code) == "[]"


def _run_python(code: str, cwd=None, stream: str = "stdout") -> str:
    """One stream of a fresh interpreter running code on this source tree."""
    src = Path(domains.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src)}
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, cwd=cwd, capture_output=True, text=True, check=True
    )
    return getattr(out, stream).strip()


class TestIO:
    def test_roundtrip(self, tmp_path):
        for spec in ALL_SPECS:
            path = tmp_path / f"{spec.kind}.json"
            save_spec(spec, path)
            again = load_spec(path)
            assert again == spec

    def test_unknown_key_rejected(self, tmp_path):
        data = spec_to_json(DISK)
        data["frobnicate"] = 1
        with pytest.raises(ConfigError):
            spec_from_json(data)

    @pytest.mark.parametrize(
        "spec, key",
        [(DISK, "dimension"), (DISK, "collar"), (BALL2, "exponents"), (BALL2, "collar"),
         (ELL12, "dimension"), (ELL12, "box"), (DISK, "box"), (BALL2, "anchor"),
         (ELL12, "terms")],
        ids=lambda v: v if isinstance(v, str) else v.kind,
    )
    def test_a_key_the_kind_does_not_read_is_rejected(self, spec, key):
        # {"kind": "disk", "dimension": 3} once loaded the unit disk
        values = {"dimension": 3, "collar": 0.2, "exponents": [1, 2], "semi_axes": [1.0, 1.0],
                  "box": [1.05, 1.05], "anchor": [0.0] * 4, "terms": []}
        data = {**spec_to_json(spec), key: values[key]}
        with pytest.raises(ConfigError, match=f"unknown keys in {spec.kind} domain spec: "
                                               rf"\['{key}'\]"):
            spec_from_json(data)

    @pytest.mark.parametrize(
        "data, what",
        [({"kind": "ball", "dimension": 2.7}, "an integer"),
         ({"kind": "ball", "dimension": True}, "an integer"),
         ({"kind": "ball", "dimension": "3"}, "an integer"),
         ({"kind": "ellipsoid", "exponents": [1.9, 2.2]}, "an integer"),
         ({"kind": "ellipsoid", "exponents": "12"}, "an integer"),
         ({"kind": "ellipsoid", "exponents": [1, 2], "semi_axes": ["1", True]}, "a real number")],
        ids=["ball-float", "ball-bool", "ball-string", "ellipsoid-floats", "ellipsoid-string",
             "ellipsoid-string-bool-axes"],
    )
    def test_a_non_integer_is_rejected(self, data, what):
        # each of these once loaded a different domain without a word
        with pytest.raises(InputError, match=f"malformed .* must be {what}"):
            spec_from_json(data)

    def test_constructors_take_integers_only(self):
        with pytest.raises(TypeError, match="dimension must be an integer"):
            unit_ball(2.7)
        with pytest.raises(TypeError, match="an exponent must be an integer"):
            complex_ellipsoid((1.9, 2.2))
        assert unit_ball(np.int64(2)) == BALL2
        # the semi-axes, the one real-valued field, take numbers only
        for bad in ("1", True):
            with pytest.raises(TypeError, match="a semi-axis must be a real number"):
                complex_ellipsoid((1, 2), (1.0, bad))
        assert complex_ellipsoid((1, 2), (1, np.float32(1.0))) == ELL12

    def test_infinite_dimension_rejected(self):
        with pytest.raises(InputError, match="malformed"):
            spec_from_json({"kind": "ball", "dimension": math.inf})

    def test_bad_file(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text(json.dumps({"kind": "disk"})[:-3])
        with pytest.raises(ConfigError):
            load_spec(path)


@given(x=st.floats(-0.99, 0.99), y=st.floats(-0.99, 0.99))
@settings(max_examples=50, deadline=None)
def test_disk_membership_property(x, y):
    inside = x * x + y * y < 1.0
    assert bool(contains(DISK, np.array([[complex(x, y)]]))[0]) == inside


@given(seed=st.integers(0, 10), level=st.floats(0.0, 0.5))
@settings(max_examples=20, deadline=None)
def test_quasi_interior_respects_floor_property(seed, level):
    pts = quasi_interior(BALL2, 32, seed=seed, level_floor=level)
    assert (defining_value(BALL2, pts) <= -level + 1e-12).all()


@given(
    re=st.floats(-0.7, 0.7),
    im=st.floats(-0.7, 0.7),
)
@settings(max_examples=40, deadline=None)
def test_projection_distance_bounds_boundary_distance(re, im):
    q = np.array([complex(re, im)])
    if not float(defining_value(DISK, q)) < 0.0:
        return
    # projection to the zero level IS the boundary distance on the disk
    res = project_to_level(DISK, q)
    assert res.distance == pytest.approx(1.0 - abs(q[0]), abs=1e-12)
