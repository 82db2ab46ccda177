import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from carleson_lab import domains, geometry
from carleson_lab.domains import (
    complex_ellipsoid,
    unit_ball,
    unit_disk,
)
from carleson_lab.errors import InputError
from carleson_lab.geometry import (
    frame_polydisk,
    minimal_frame,
    polydisk_contains,
    polydisk_coordinates,
    polydisk_nu_volume,
    sample_polydisk,
)

DISK = unit_disk()
BALL2 = unit_ball(2)
BALL3 = unit_ball(3)
ELL12 = complex_ellipsoid((1, 2), (1.0, 1.0))
ELL22 = complex_ellipsoid((2, 2))
# three coordinates: projections and slices take the SLSQP path
ELL112 = complex_ellipsoid((1, 1, 2))


def _assert_orthonormal(basis):
    gram = basis @ np.conj(basis).T
    np.testing.assert_allclose(gram, np.eye(basis.shape[0]), atol=1e-10)


def _axis_sharpness_oracle(spec, q, basis, radii, phases=64):
    """Each radius is the slice distance to the boundary: the open axis
    segment stays strictly inside, and some phase at 1.001 * radius has left
    the domain."""
    grid = np.exp(2j * math.pi * np.arange(phases) / phases)
    for i in range(len(radii)):
        inside_pts = q[None, :] + (0.999 * radii[i]) * grid[:, None] * basis[i][None, :]
        vals = domains._value_batch(spec, inside_pts)
        assert vals.max() < 1e-9, f"axis {i} exits the domain early"
        outside_pts = q[None, :] + (1.001 * radii[i]) * grid[:, None] * basis[i][None, :]
        vals = domains._value_batch(spec, outside_pts)
        assert vals.max() > -1e-6, f"axis {i} never reaches the boundary"


class TestMinimalFrame:
    def test_disk_frame_closed_form(self):
        fr = minimal_frame(DISK, 0.3 + 0.4j)
        assert fr.sigma.shape == (1,)
        assert abs(fr.sigma[0] - 0.5) < 1e-12
        # radial direction up to the recorded phase convention
        assert abs(abs(fr.basis[0, 0]) - 1.0) < 1e-12
        _assert_orthonormal(fr.basis)

    def test_ball_frame_closed_form(self):
        q = np.array([0.6, 0.0], dtype=complex)
        fr = minimal_frame(BALL2, q)
        assert abs(fr.sigma[0] - 0.4) < 1e-12
        assert abs(fr.sigma[1] - 0.8) < 1e-12
        _assert_orthonormal(fr.basis)
        # first axis is radial
        assert abs(abs(np.vdot(fr.basis[0], q / np.linalg.norm(q))) - 1.0) < 1e-10

    def test_ball_frame_center_is_isotropic(self):
        fr = minimal_frame(BALL2, (0.0, 0.0))
        np.testing.assert_allclose(fr.sigma, [1.0, 1.0])
        assert fr.unique is False

    def test_ellipsoid_frame_frozen_point(self):
        # at (0, 0.9): nearest boundary point is (0, 1); the orthogonal slice
        # {(t, 0.9)} meets the boundary at |t| = sqrt(1 - 0.9^4)
        fr = minimal_frame(ELL12, (0.0, 0.9))
        assert abs(fr.sigma[0] - 0.1) < 1e-9
        assert abs(fr.sigma[1] - math.sqrt(1.0 - 0.9**4)) < 1e-9
        assert abs(abs(fr.basis[0, 1]) - 1.0) < 1e-9
        assert abs(abs(fr.basis[1, 0]) - 1.0) < 1e-9
        _assert_orthonormal(fr.basis)

    def test_sigma_nondecreasing(self):
        for spec, pts in (
            (ELL12, domains.quasi_interior(ELL12, 40, seed=3, level_floor=0.05)),
            (ELL22, domains.quasi_interior(ELL22, 12, seed=4, level_floor=0.05)),
        ):
            for q in pts:
                fr = minimal_frame(spec, q)
                assert np.all(np.diff(fr.sigma) >= -1e-8)
                _assert_orthonormal(fr.basis)

    def test_first_sigma_is_boundary_distance(self):
        for spec, q in (
            (ELL12, (0.2 + 0.1j, 0.5)),
            (ELL112, (0.3, 0.2j, 0.1)),
            (BALL2, (0.1, 0.2 - 0.3j)),
        ):
            fr = minimal_frame(spec, q)
            d = domains.boundary_distance(spec, q)
            assert abs(fr.sigma[0] - d) < 1e-7

    def test_frame_axis_sharpness_generic(self):
        for spec, q in ((ELL12, (0.25 + 0.1j, 0.55)), (ELL112, (0.35, 0.15 + 0.2j, 0.1))):
            fr = minimal_frame(spec, np.asarray(q, dtype=complex))
            _axis_sharpness_oracle(spec, fr.center, fr.basis, fr.sigma)

    def test_frame_near_the_slice_z2_zero(self):
        # the first frame direction is within 1e-7 of e_1 here, so one
        # projected basis row nearly vanishes
        for q in ((0.5, 0.003), (0.9, 0.001)):
            fr = minimal_frame(ELL12, q)
            _assert_orthonormal(fr.basis)
            assert abs(fr.sigma[0] - domains.boundary_distance(ELL12, q)) < 1e-7
            _axis_sharpness_oracle(ELL12, fr.center, fr.basis, fr.sigma)

    def test_exterior_point_rejected(self):
        with pytest.raises(InputError):
            minimal_frame(DISK, 1.2)
        with pytest.raises(InputError):
            minimal_frame(ELL12, (0.0, 1.0))

    def test_one_row_complement_moves_with_direction(self):
        # a one-row complement is unique up to phase, and that phase is
        # fixed (first entry of largest modulus real and positive): a 1e-12
        # change of direction moves the row by about as much.  The SVD's own
        # phase jumped by up to 2 on the real directions against two axes of
        # C^3 (46 of 200 draws), the slice of a frame's last row in C^3
        rng = np.random.default_rng(101)
        eye2, eye3 = np.eye(2, dtype=complex), np.eye(3, dtype=complex)
        for basis, real in ((eye2, False), (eye2, True), (eye3[:2], False), (eye3[:2], True)):
            n = basis.shape[1]
            for _ in range(100):
                d = rng.normal(size=n) + (0.0 if real else 1j) * rng.normal(size=n)
                e = rng.normal(size=n) + 1j * rng.normal(size=n)
                rows = geometry._orthonormal_complement(basis, d)
                moved = geometry._orthonormal_complement(basis, d + 1e-12 * e)
                assert np.abs(rows - moved).max() < 1e-9
                lead = rows[0, np.argmax(np.abs(rows[0]))]
                assert abs(lead.imag) < 1e-15 and lead.real > 0.0
                _assert_orthonormal(np.vstack([d / np.linalg.norm(d), rows]))


def _reference_ball_frame(q):
    """The disk's or ball's frame at one point by the per-point construction:
    e_1 = q / |q|, then Gram-Schmidt of the coordinate axes in order,
    skipping an axis whose residual is at most 1e-8."""
    n = len(q)
    nq = float(np.linalg.norm(q))
    sigma = np.array([1.0 - nq] + [math.sqrt(1.0 - nq * nq)] * (n - 1))
    if nq < 1e-12:
        return np.eye(n, dtype=complex), np.ones(n)
    basis = [q / nq]
    for j in range(n):
        if len(basis) == n:
            break
        e = np.eye(n, dtype=complex)[j]
        for b in list(basis):
            e = e - b * (np.conj(b) @ e)
        if np.linalg.norm(e) > 1e-8:
            basis.append(e / np.linalg.norm(e))
    return np.array(basis), sigma


def _equal_frames(a, b):
    for name in ("center", "basis", "sigma", "unique"):
        np.testing.assert_array_equal(getattr(a, name), getattr(b, name), err_msg=name)


class TestMinimalFrames:
    @pytest.mark.parametrize("spec", [DISK, BALL2, BALL3], ids=["DISK", "BALL2", "BALL3"])
    def test_one_closed_form_per_batch(self, spec, monkeypatch):
        # 10^4 points, one call of the closed form and no per-point frame
        calls = {"batch": 0}
        closed_form = geometry._ball_frames

        def batch(pts):
            calls["batch"] += 1
            return closed_form(pts)

        def per_point(*args):
            raise AssertionError("per-point frame on a closed-form domain")

        monkeypatch.setattr(geometry, "_ball_frames", batch)
        monkeypatch.setattr(geometry, "minimal_frame", per_point)
        monkeypatch.setattr(geometry, "_projected_slices", per_point)
        pts = domains.quasi_interior(spec, 10_000, seed=5)
        frames = geometry.minimal_frames(spec, pts)
        assert calls["batch"] == 1
        assert frames.basis.shape == (10_000, spec.dim, spec.dim)
        assert frames.sigma.shape == (10_000, spec.dim) and frames.unique.shape == (10_000,)

    @pytest.mark.parametrize("spec", [DISK, BALL2, BALL3], ids=["DISK", "BALL2", "BALL3"])
    def test_rows_are_the_one_point_frames(self, spec):
        # row k of a batch is minimal_frame at point k, bit for bit, and so
        # does not depend on the rest of the batch; the origin and a point on
        # an axis are among the rows
        pts = domains.quasi_interior(spec, 300, seed=7)
        pts[0] = 0.0
        pts[1] = 0.0
        pts[1, -1] = 0.5
        frames = geometry.minimal_frames(spec, pts)
        for k in range(len(pts)):
            _equal_frames(frames[k], minimal_frame(spec, pts[k]))
            _equal_frames(frames[k], geometry.minimal_frames(spec, pts[k][None])[0])
        assert frames[0].unique is False and frames.unique[1:].all()
        np.testing.assert_array_equal(frames.basis[0], np.eye(spec.dim))
        np.testing.assert_array_equal(frames.sigma[0], np.ones(spec.dim))

    @pytest.mark.parametrize("spec", [DISK, BALL2, BALL3], ids=["DISK", "BALL2", "BALL3"])
    def test_closed_form_against_the_per_point_construction(self, spec):
        pts = domains.quasi_interior(spec, 2000, seed=9)
        pts[:3] = 0.0
        pts[1, 0] = 1e-13  # below the isotropic cut
        pts[2, 0] = 0.3j  # on an axis: that axis is the one skipped
        frames = geometry.minimal_frames(spec, pts)
        for k, q in enumerate(pts):
            basis, sigma = _reference_ball_frame(q)
            np.testing.assert_allclose(frames.sigma[k], sigma, rtol=0, atol=1e-13)
            np.testing.assert_allclose(frames.basis[k], basis, rtol=0, atol=1e-13)
            _assert_orthonormal(frames.basis[k])

    def test_disk_frame_is_exact_division(self):
        # on the disk, sigma = 1 - |z| and e_1 = z / |z| as numpy's complex
        # division by the real |z| rounds it
        pts = domains.quasi_interior(DISK, 5000, seed=11)
        nq = np.array([np.linalg.norm(q) for q in pts])
        frames = geometry.minimal_frames(DISK, pts)
        np.testing.assert_array_equal(frames.sigma[:, 0], 1.0 - nq)
        np.testing.assert_array_equal(frames.basis[:, 0, 0], np.array([q[0] / r for q, r in zip(pts, nq)]))

    @pytest.mark.parametrize(
        "spec, count",
        [(ELL12, 200), (ELL22, 6), (ELL112, 30)],
        ids=["ELL12", "ELL22", "ELL112"],
    )
    def test_other_domains_stack_the_per_point_frames(self, spec, count):
        # the last radii of a batch come from one line_level_distances call,
        # and row k is the one-point frame bit for bit
        pts = domains.quasi_interior(spec, count, seed=13, level_floor=0.05)
        frames = geometry.minimal_frames(spec, pts)
        for k, q in enumerate(pts):
            _equal_frames(frames[k], minimal_frame(spec, q))
        empty = geometry.minimal_frames(spec, pts[:0])
        assert empty.basis.shape == (0, spec.dim, spec.dim) and empty.basis.dtype == complex
        assert empty.sigma.shape == (0, spec.dim) and empty.unique.dtype == bool

    def test_exterior_point_rejected(self):
        for spec, pts in ((DISK, [0.5, 1.2]), (BALL2, [(0.1, 0.2), (0.8, 0.8)]), (ELL12, [(0.0, 1.0)])):
            with pytest.raises(InputError):
                geometry.minimal_frames(spec, pts)


class TestPolydisks:
    def _sample_polydisk(self):
        basis = np.array([[1.0, 0.0], [0.0, 1.0]], dtype=complex)
        return geometry.Polydisk(
            center=np.array([0.1, 0.2j]), basis=basis, radii=np.array([0.3, 0.5])
        )

    def test_nu_volume_formula(self):
        P = self._sample_polydisk()
        assert abs(polydisk_nu_volume(P) - 2.0 * 0.09 * 0.25) < 1e-15

    def test_nu_volume_vs_monte_carlo(self):
        # nu-volume of the polydisk relative to a bounding polydisk equals
        # the containment fraction of a uniform sample
        P = self._sample_polydisk()
        big = geometry.Polydisk(center=P.center, basis=P.basis, radii=2.0 * P.radii)
        rng = np.random.default_rng(7)
        pts = sample_polydisk(big, 1 << 16, rng)
        frac = float(np.mean(polydisk_contains(P, pts)))
        expected = polydisk_nu_volume(P) / polydisk_nu_volume(big)
        assert abs(frac - expected) < 4.0 * math.sqrt(expected * (1 - expected) / (1 << 16))

    def test_sample_polydisk_inside_and_uniform(self):
        P = self._sample_polydisk()
        rng = np.random.default_rng(11)
        pts = sample_polydisk(P, 1 << 14, rng)
        assert bool(np.all(polydisk_contains(P, pts)))
        u = polydisk_coordinates(P, pts) / P.radii
        # uniform disk: E|u|^2 = 1/2 per coordinate
        second = (np.abs(u) ** 2).mean(axis=0)
        np.testing.assert_allclose(second, 0.5, atol=0.01)

    def test_coordinates_roundtrip(self):
        P = self._sample_polydisk()
        rng = np.random.default_rng(3)
        pts = sample_polydisk(P, 64, rng)
        coords = polydisk_coordinates(P, pts)
        back = P.center + coords @ P.basis
        np.testing.assert_allclose(back, pts, atol=1e-12)

    @pytest.mark.parametrize("spec", [DISK, BALL2, BALL3], ids=["disk", "ball2", "ball3"])
    def test_sample_stream_matches_the_matrix_form(self, spec):
        # the sampler draws the same numbers in the same order as
        # center + (u phase radii) @ basis, and lands on the same points
        rng = np.random.default_rng(90 + spec.dim)
        P = frame_polydisk(minimal_frame(spec, 0.8 * domains.random_interior(spec, 1, rng)[0]), 0.7)
        got_rng, ref_rng = np.random.default_rng(5), np.random.default_rng(5)
        got = sample_polydisk(P, 4096, got_rng)
        u = np.sqrt(ref_rng.uniform(0.0, 1.0, size=(4096, spec.dim)))
        phase = np.exp(2j * math.pi * ref_rng.uniform(0.0, 1.0, size=(4096, spec.dim)))
        ref = P.center + (u * phase * P.radii) @ P.basis
        assert np.max(np.abs(got - ref)) <= 1e-15
        assert got_rng.uniform() == ref_rng.uniform()

    def test_one_base_maps_into_every_polydisk(self):
        # sample_polydisk is the base mapped by polydisk_points, bit for bit;
        # the frame coordinates of the mapped points are the base times radii
        base = geometry.unit_polydisk_sample(2, 512, np.random.default_rng(4))
        assert base.shape == (512, 2) and np.all(np.abs(base) <= 1.0)
        for scale in (0.3, 0.9):
            P = frame_polydisk(minimal_frame(BALL2, (0.5, 0.2j)), scale)
            pts = geometry.polydisk_points(P, base)
            np.testing.assert_array_equal(pts, sample_polydisk(P, 512, np.random.default_rng(4)))
            np.testing.assert_allclose(polydisk_coordinates(P, pts), base * P.radii, atol=1e-15)

    def test_frame_polydisk_and_scaling(self):
        fr = minimal_frame(BALL2, (0.6, 0.0))
        P = frame_polydisk(fr, 0.5)
        np.testing.assert_allclose(P.radii, 0.5 * fr.sigma)
        with pytest.raises(InputError):
            frame_polydisk(fr, 0.0)

    def test_stacked_polydisks(self):
        # a stack of K polydisks answers (..., K) at once, like K single calls
        frames = [minimal_frame(ELL12, q) for q in ((0.0, 0.5), (0.3j, -0.2), (0.6, 0.1))]
        stack = geometry.Polydisk(
            center=np.array([f.center for f in frames]),
            basis=np.array([f.basis for f in frames]),
            radii=np.array([2.0 * f.sigma for f in frames]),
        )
        pts = domains.quasi_interior(ELL12, 200, seed=9)
        got = polydisk_contains(stack, pts)
        assert got.shape == (200, 3) and got.any() and not got.all()
        for k, f in enumerate(frames):
            np.testing.assert_array_equal(got[:, k], polydisk_contains(frame_polydisk(f, 2.0), pts))

    def test_contains_boundary_closed(self):
        basis = np.eye(2, dtype=complex)
        P = geometry.Polydisk(
            center=np.array([0.125, 0.25j]), basis=basis, radii=np.array([0.25, 0.5])
        )
        edge = P.center + P.radii[0] * P.basis[0]
        assert polydisk_contains(P, edge)
        assert not polydisk_contains(P, P.center + 1.0001 * P.radii[0] * P.basis[0])


@given(
    st.floats(-0.85, 0.85),
    st.floats(-0.85, 0.85),
)
@settings(max_examples=60, deadline=None)
def test_disk_frame_property(x, y):
    if x * x + y * y >= 0.98:
        return
    q = complex(x, y)
    fr = minimal_frame(DISK, q)
    assert abs(fr.sigma[0] - (1.0 - abs(q))) < 1e-10


@given(st.integers(0, 2**31 - 1))
@settings(max_examples=25, deadline=None)
def test_ball3_frame_property(seed):
    rng = np.random.default_rng(seed)
    q = rng.normal(size=3) + 1j * rng.normal(size=3)
    q *= rng.uniform(0.05, 0.9) / np.linalg.norm(q)
    fr = minimal_frame(BALL3, q)
    nq = float(np.linalg.norm(q))
    assert abs(fr.sigma[0] - (1.0 - nq)) < 1e-10
    np.testing.assert_allclose(fr.sigma[1:], math.sqrt(1.0 - nq * nq), atol=1e-10)
    _assert_orthonormal(fr.basis)
