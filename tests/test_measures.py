import math

import numpy as np
import pytest

from carleson_lab import domains, geometry, kobayashi, measures
from carleson_lab.domains import unit_ball, unit_disk
from carleson_lab.errors import InputError
from carleson_lab.measures import (
    AtomicMeasure,
    DensityMeasure,
    atomic_measure,
    atoms_from_csv,
    atoms_to_csv,
    lebesgue_measure,
    mass,
    square_integrals,
)
from carleson_lab.polynomials import poly_eval, random_polynomial
from carleson_lab.sequences import named_measure

DISK = unit_disk()
BALL2 = unit_ball(2)


def _base(dim, samples, seed):
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    return geometry.unit_polydisk_sample(dim, samples, rng)


def _centered_polydisk(dim, radii):
    return geometry.Polydisk(
        center=np.zeros(dim, dtype=complex),
        basis=np.eye(dim, dtype=complex),
        radii=np.asarray(radii, dtype=float),
    )


class TestConstruction:
    def test_atoms_validated(self):
        mu = atomic_measure(DISK, [0.0, 0.5], [1.0, 2.0])
        assert mu.count == 2
        with pytest.raises(InputError):
            atomic_measure(DISK, [0.0], [1.0, 2.0])
        with pytest.raises(InputError):
            atomic_measure(DISK, [0.0], [0.0])
        with pytest.raises(InputError):
            atomic_measure(DISK, [1.5], [1.0])

    def test_catalog_names(self):
        # the suite's densities keep the labels their artifacts print
        names = ("lebesgue", "density(1-d)", "density(1/(1-d))")
        cat = {name: named_measure(DISK, name) for name in names}
        assert [mu.label for mu in cat.values()] == [
            "lebesgue", "one_minus_delta", "inv_one_minus_delta"
        ]
        pts = np.array([[0.0], [0.9]], dtype=complex)
        np.testing.assert_allclose(cat["lebesgue"].density(pts), [1.0, 1.0])
        np.testing.assert_allclose(cat["density(1-d)"].density(pts), [0.0, 0.9], atol=1e-12)
        # 1 - delta vanishes at the center, so the reciprocal is capped there
        np.testing.assert_allclose(
            cat["density(1/(1-d))"].density(pts), [10.0, 1.0 / 0.9], atol=1e-9
        )

    def test_density_cap(self):
        mu = named_measure(DISK, "density(1/(1-d))")
        pts = np.array([[1e-9 + 0j]], dtype=complex)
        assert mu.density(pts)[0] == 10.0


class TestAtomicMass:
    def test_exact_counting(self):
        mu = atomic_measure(DISK, [0.0, 0.5, -0.8], [1.0, 2.0, 4.0])
        P = _centered_polydisk(1, [0.6])
        est = mass(DISK, mu, P)
        assert est.method == "atomic" and est.stderr == 0.0 and est.samples == 0
        assert est.value == 3.0  # atoms at 0 and 0.5

    def test_empty_measure(self):
        mu = AtomicMeasure(points=np.zeros((0, 1), dtype=complex), weights=np.zeros(0))
        est = mass(DISK, mu, _centered_polydisk(1, [0.5]))
        assert est.value == 0.0 and est.method == "atomic"

    def test_total_mass_atoms(self):
        # a polydisk holding every atom carries the whole mass, exactly
        mu = atomic_measure(DISK, [0.1, 0.2], [1.5, 2.5])
        est = mass(DISK, mu, _centered_polydisk(1, [1.0]))
        assert est.value == 4.0 and est.method == "atomic"


class TestDensityMass:
    def test_lebesgue_polydisk_exact_volume(self):
        # nu(full polydisk inside D) equals the closed-form polydisk volume
        P = _centered_polydisk(1, [0.5])
        est = mass(DISK, lebesgue_measure(), P, _base(1, 1 << 14, 3))
        assert est.method == "polydisk" and est.samples == 1 << 14
        expected = geometry.polydisk_nu_volume(P)  # 0.25
        assert abs(est.value - expected) < 1e-12  # every sample lies inside D
        assert est.stderr == 0.0

    def test_lebesgue_truncated_by_domain(self):
        # polydisk poking outside the disk: mass is the overlap area ratio
        P = geometry.Polydisk(
            center=np.array([0.8 + 0.0j]),
            basis=np.eye(1, dtype=complex),
            radii=np.array([0.4]),
        )
        est = mass(DISK, lebesgue_measure(), P, _base(1, 1 << 16, 5))
        # oracle: area of intersection of disks |z|<1 and |z-0.8|<0.4, over pi
        d, r1, r2 = 0.8, 1.0, 0.4
        a1 = r1 * r1 * math.acos((d * d + r1 * r1 - r2 * r2) / (2 * d * r1))
        a2 = r2 * r2 * math.acos((d * d + r2 * r2 - r1 * r1) / (2 * d * r2))
        a3 = 0.5 * math.sqrt((-d + r1 + r2) * (d + r1 - r2) * (d - r1 + r2) * (d + r1 + r2))
        expected = (a1 + a2 - a3) / math.pi
        assert abs(est.value - expected) < 4.0 * est.stderr + 1e-9

    def test_restricted_density(self):
        mu = DensityMeasure(density=lambda pts: (pts[:, 0].real > 0).astype(float), label="halfplane")
        P = _centered_polydisk(1, [0.5])
        est = mass(DISK, mu, P, _base(1, 1 << 16, 9))
        assert abs(est.value - 0.125) < 4.0 * est.stderr

    def test_ball_total_mass(self):
        # nu is normalized so nu(unit ball) = 1 in every dimension; the mass
        # of a polydisk holding the whole domain is its total mass
        bidisk = _centered_polydisk(2, [1.0, 1.0])
        est = mass(BALL2, lebesgue_measure(), bidisk, _base(2, 1 << 18, 1))
        assert abs(est.value - 1.0) < 4.0 * est.stderr
        est1 = mass(DISK, lebesgue_measure(), _centered_polydisk(1, [1.2]), _base(1, 1 << 18, 2))
        assert abs(est1.value - 1.0) < 4.0 * est1.stderr

    def test_seeded_determinism(self):
        P = _centered_polydisk(2, [0.3, 0.4])
        a = mass(BALL2, lebesgue_measure(), P, _base(2, 1 << 12, 7))
        b = mass(BALL2, lebesgue_measure(), P, _base(2, 1 << 12, 7))
        assert a.value == b.value and a.stderr == b.stderr

    def test_value_and_stderr_are_the_sample_mean(self):
        # vol * mean and (vol * std) / sqrt(n) of the same sample_polydisk
        # draws, bit for bit
        P = geometry.Polydisk(
            center=np.array([0.3 + 0.1j, -0.2j]),
            basis=np.eye(2, dtype=complex),
            radii=np.array([0.6, 0.5]),
        )
        mu = named_measure(BALL2, "density(1-d)")
        est = mass(BALL2, mu, P, _base(2, 3000, 21))
        pts = geometry.sample_polydisk(P, 3000, np.random.default_rng(np.random.SeedSequence(21)))
        inside = domains.contains(BALL2, pts)
        vals = np.zeros(3000)
        vals[inside] = mu.density(pts[inside])
        vol = geometry.polydisk_nu_volume(P)
        assert 0 < inside.sum() < 3000  # the polydisk reaches outside the ball
        assert est.value == vol * float(vals.mean())
        assert est.stderr == vol * float(vals.std(ddof=1)) / math.sqrt(3000)

    def test_density_needs_two_samples(self):
        # one sample has no standard error; atoms are summed exactly
        P = _centered_polydisk(1, [0.5])
        for samples in (0, 1):
            with pytest.raises(InputError, match="samples >= 2"):
                mass(DISK, lebesgue_measure(), P, _base(1, samples, 0))
        assert mass(DISK, atomic_measure(DISK, [0.1], [2.0]), P).value == 2.0

    def test_density_needs_a_base_of_the_polydisk_dimension(self):
        P = _centered_polydisk(2, [0.3, 0.4])
        for base in (None, _base(1, 64, 0), _base(3, 64, 0), _base(2, 64, 0)[:, 0]):
            with pytest.raises(InputError, match="base sample of shape"):
                mass(BALL2, lebesgue_measure(), P, base)

    def test_unsupported_inputs(self):
        with pytest.raises(InputError):
            mass(DISK, lebesgue_measure(), "not a region")
        # a Kobayashi-ball sandwich is two polydisks, each its own mass call
        with pytest.raises(InputError, match="unsupported region"):
            mass(DISK, lebesgue_measure(), kobayashi.ball_sandwich(DISK, 0.2, 0.3))
        with pytest.raises(InputError):
            mass(DISK, object(), _centered_polydisk(1, [0.5]))


class TestSquareIntegrals:
    # integral |f|^2 dmu for a list of f: the Berezin transform (f = k_z)
    # takes it from here
    @staticmethod
    def _fs(dim):
        rng = np.random.default_rng(3)
        polys = [random_polynomial(dim, 3, rng) for _ in range(2)]
        return [lambda p, q=q: poly_eval(q, p) for q in polys] + [lambda p: np.exp(p[:, 0])]

    def test_atoms_are_the_exact_sum(self):
        mu = atomic_measure(BALL2, [[0.1, 0.2j], [-0.3, 0.0], [0.0, 0.5 + 0.1j]], [1.0, 0.25, 3.0])
        fs = self._fs(2)
        ests = square_integrals(mu, fs, None)
        for f, est in zip(fs, ests):
            total = sum(w * abs(f(z[None, :])[0]) ** 2 for z, w in zip(mu.points, mu.weights))
            assert est.value == pytest.approx(total, rel=1e-14)
            assert est.value == float(np.sum(mu.weights * np.abs(f(mu.points)) ** 2))
            assert (est.stderr, est.samples, est.method) == (0.0, 0, "atomic")
        empty = AtomicMeasure(points=np.zeros((0, 2), dtype=complex), weights=np.zeros(0))
        assert [e.value for e in square_integrals(empty, fs, None)] == [0.0] * len(fs)

    def test_density_is_the_mean_of_volume_density_f2(self):
        # volume * density * |f|^2 on the caller's base: mean and
        # std/sqrt(n), bit for bit; the volume is nu(D), not 1
        ell = domains.complex_ellipsoid((1, 2))
        mu = DensityMeasure(lambda p: np.abs(p[:, 1]) ** 2 + 0.5)
        pts = domains.quasi_uniform(ell, 1000, seed=2)
        volume = 0.75
        base = measures.NuBase(pts, volume * mu.density(pts))
        fs = self._fs(2)
        ests = square_integrals(mu, fs, base)
        for f, est in zip(fs, ests):
            vals = volume * mu.density(pts) * np.abs(f(pts)) ** 2
            assert est.value == float(vals.mean())
            assert est.stderr == float(vals.std(ddof=1)) / math.sqrt(1000)
            assert (est.samples, est.method) == (1000, "qmc")

    def test_density_is_evaluated_once_per_call(self):
        # the base carries the density's values: the integrals read them
        # and evaluate the density no more
        calls = []

        def density(pts):
            calls.append(len(pts))
            return np.ones(len(pts))

        mu = DensityMeasure(density)
        pts = domains.quasi_uniform(BALL2, 256, seed=1)
        base = measures.NuBase(pts, mu.density(pts))
        ests = square_integrals(mu, self._fs(2), base)
        assert len(ests) == 3
        assert calls == [256]

    def test_density_needs_two_samples_and_a_known_type(self):
        base = measures.NuBase(domains.quasi_uniform(DISK, 1, seed=0), np.ones(1))
        with pytest.raises(InputError, match="samples >= 2"):
            square_integrals(lebesgue_measure(), self._fs(1), base)
        with pytest.raises(InputError, match="unsupported measure type"):
            square_integrals(object(), self._fs(1), base)


class TestSandwichBracket:
    # the two polydisks of a Kobayashi-ball sandwich, each with its own mass
    # call on one shared base sample, as criterion_geometric takes them
    @staticmethod
    def _masses(spec, mu, sw, samples=1 << 14, seed=0):
        base = _base(spec.dim, samples, seed)
        return mass(spec, mu, sw.inner, base), mass(spec, mu, sw.outer, base)

    def test_bracket_orders_masses(self):
        sw = kobayashi.ball_sandwich(DISK, 0.2, 0.4)
        inner, outer = self._masses(DISK, lebesgue_measure(), sw, seed=11)
        assert inner.value <= outer.value
        # disk: inner polydisk is exactly B(0.2, 0.4) cap-scaled; both positive
        assert inner.value > 0.0

    def test_density_evaluated_inside_only(self):
        # the outer polydisk at (0, 0.9) reaches outside the (1,2) ellipsoid,
        # where boundary_distance (hence 1 - delta) is undefined
        ell = domains.complex_ellipsoid((1, 2))
        mu = named_measure(ell, "density(1-d)")
        sw = kobayashi.ball_sandwich(ell, (0.0, 0.9), 0.3)
        inner, outer = self._masses(ell, mu, sw, samples=1 << 8)
        assert 0.0 < inner.value <= outer.value

    def test_atomic_bracket_exact(self):
        mu = atomic_measure(DISK, [0.2, 0.9], [1.0, 5.0])
        sw = kobayashi.ball_sandwich(DISK, 0.2, 0.3)
        inner, outer = self._masses(DISK, mu, sw)
        assert inner.method == outer.method == "atomic"
        assert inner.stderr == outer.stderr == 0.0
        assert inner.value >= 1.0  # center atom always inside
        assert outer.value >= inner.value


class TestCsv:
    def test_roundtrip(self, tmp_path):
        mu = atomic_measure(
            BALL2,
            [[0.1 + 0.2j, -0.3j], [0.25, 0.125 + 0.5j]],
            [1.0, 0.5],
            label="pair",
        )
        path = tmp_path / "atoms.csv"
        atoms_to_csv(mu, path)
        back = atoms_from_csv(BALL2, path)
        np.testing.assert_array_equal(back.points, mu.points)
        np.testing.assert_array_equal(back.weights, mu.weights)
        assert back.label == str(path)

    def test_column_mismatch(self, tmp_path):
        mu = atomic_measure(DISK, [0.1], [1.0])
        path = tmp_path / "atoms.csv"
        atoms_to_csv(mu, path)
        with pytest.raises(InputError):
            atoms_from_csv(BALL2, path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(InputError):
            atoms_from_csv(DISK, path)
