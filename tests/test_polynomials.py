import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from carleson_lab import domains
from carleson_lab.errors import InputError
from carleson_lab.polynomials import HoloPolynomial, poly_eval, random_polynomial


class TestConstruction:
    def test_degree(self):
        p = HoloPolynomial(dim=2, coeffs={(0, 0): 1.0, (2, 3): -1j})
        assert p.degree == 5
        assert HoloPolynomial(dim=1).degree == 0

    def test_bad_multi_index(self):
        with pytest.raises(InputError):
            HoloPolynomial(dim=2, coeffs={(1,): 1.0})
        with pytest.raises(InputError):
            HoloPolynomial(dim=1, coeffs={(-1,): 1.0})

    def test_monomial(self):
        m = HoloPolynomial(dim=2, coeffs={(1, 2): 3.0})
        assert poly_eval(m, np.array([2.0, 1j])) == pytest.approx(3.0 * 2.0 * (1j) ** 2)


class TestEval:
    def test_scalar_shape(self):
        p = HoloPolynomial(dim=1, coeffs={(2,): 1.0})
        out = poly_eval(p, np.array([0.5j]))
        assert np.ndim(out) == 0
        assert out == pytest.approx(-0.25)

    def test_batch_shape(self):
        p = HoloPolynomial(dim=2, coeffs={(1, 0): 1.0, (0, 1): 1.0})
        pts = np.array([[1.0, 2.0], [1j, 0.0], [0.0, 0.0]])
        np.testing.assert_allclose(poly_eval(p, pts), [3.0, 1j, 0.0])

    def test_dimension_mismatch(self):
        with pytest.raises(InputError):
            poly_eval(HoloPolynomial(dim=2, coeffs={(1, 0): 1.0}), np.array([1.0]))

    def test_empty_polynomial_is_zero(self):
        p = HoloPolynomial(dim=3)
        assert poly_eval(p, np.zeros((4, 3), dtype=complex)).tolist() == [0, 0, 0, 0]


def _sum_of_monomials(poly, pts):
    """sum_alpha c_alpha z^alpha term by term: the reference for poly_eval."""
    terms = [c * np.prod(pts ** np.array(alpha), axis=1) for alpha, c in poly.coeffs.items()]
    scale = sum(np.abs(t) for t in terms)
    return sum(terms), scale


@pytest.mark.parametrize("dim, degree", [(1, 12), (2, 6), (3, 4)])
def test_eval_matches_the_sum_of_monomials(dim, degree):
    # Horner's rule rounds in another order than the term-by-term sum; both
    # err by a few eps times the sum of the terms' moduli
    rng = np.random.default_rng(dim)
    pts = 1.2 * (rng.uniform(-1, 1, (2000, dim)) + 1j * rng.uniform(-1, 1, (2000, dim)))
    poly = random_polynomial(dim, degree, rng)
    ref, scale = _sum_of_monomials(poly, pts)
    assert np.all(np.abs(poly_eval(poly, pts) - ref) <= 1e-13 * scale)


def test_eval_does_not_depend_on_the_split():
    # Horner's rule runs per block of domains._BLOCK points; a batch of a few
    # blocks and its concatenated uneven parts agree bit for bit
    block = domains._BLOCK
    rng = np.random.default_rng(17)
    count = 2 * block + 17
    pts = rng.uniform(-1, 1, (count, 2)) + 1j * rng.uniform(-1, 1, (count, 2))
    poly = random_polynomial(2, 6, rng)
    whole = poly_eval(poly, pts)
    assert whole.shape == (count,)
    for cuts in ([1, block - 1, block + 2], [block + 1], [17, 2 * block], [count - 1]):
        parts = np.concatenate([poly_eval(poly, part) for part in np.split(pts, cuts)])
        assert parts.tobytes() == whole.tobytes(), cuts
    ref, scale = _sum_of_monomials(poly, pts)
    assert np.all(np.abs(whole - ref) <= 1e-13 * scale)


class TestRandom:
    def test_deterministic_and_degree(self):
        a = random_polynomial(2, 3, np.random.default_rng(9))
        b = random_polynomial(2, 3, np.random.default_rng(9))
        assert a.coeffs == b.coeffs
        assert a.degree <= 3
        assert len(a.coeffs) == 10  # multi-indices with |alpha| <= 3 in dim 2

    def test_negative_degree(self):
        with pytest.raises(InputError):
            random_polynomial(1, -1, np.random.default_rng(0))


@given(
    st.floats(-2, 2), st.floats(-2, 2), st.floats(-2, 2), st.floats(-2, 2),
)
@settings(max_examples=50, deadline=None)
def test_eval_linearity_property(ar, ai, br, bi):
    z = np.array([complex(ar, ai), complex(br, bi)])
    p = HoloPolynomial(dim=2, coeffs={(1, 1): 2.0, (0, 2): -1.0})
    q = HoloPolynomial(dim=2, coeffs={(1, 1): -2.0, (0, 2): 1.0, (0, 0): 5.0})
    s = HoloPolynomial(dim=2, coeffs={(0, 0): 5.0})
    assert poly_eval(p, z) + poly_eval(q, z) == pytest.approx(poly_eval(s, z))
