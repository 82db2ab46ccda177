"""Holomorphic polynomials in several variables as sparse multi-index maps."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InputError


@dataclass(frozen=True)
class HoloPolynomial:
    """Polynomial sum_alpha c_alpha z^alpha with alpha a length-dim multi-index."""

    dim: int
    coeffs: dict[tuple[int, ...], complex] = field(default_factory=dict)

    def __post_init__(self):
        for alpha in self.coeffs:
            if len(alpha) != self.dim or any(a < 0 for a in alpha):
                raise InputError(f"bad multi-index {alpha} for dimension {self.dim}")

    @property
    def degree(self) -> int:
        if not self.coeffs:
            return 0
        return max(sum(alpha) for alpha in self.coeffs)


def poly_eval(poly: HoloPolynomial, pts) -> np.ndarray:
    """Evaluate on a batch of points (..., dim); scalar input gives a scalar shape."""
    pts = np.asarray(pts, dtype=complex)
    single = pts.ndim == 1
    if single:
        pts = pts[None, :]
    if pts.shape[-1] != poly.dim:
        raise InputError(f"points have dimension {pts.shape[-1]}, polynomial {poly.dim}")
    out = np.zeros(pts.shape[:-1], dtype=complex)
    for alpha, c in poly.coeffs.items():
        term = np.full(pts.shape[:-1], c, dtype=complex)
        for i, a in enumerate(alpha):
            if a:
                term = term * pts[..., i] ** a
        out += term
    return out[0] if single else out


def random_polynomial(dim: int, degree: int, rng: np.random.Generator) -> HoloPolynomial:
    """Standard complex Gaussian coefficients over all |alpha| <= degree."""
    if degree < 0:
        raise InputError(f"degree must be >= 0, got {degree}")
    coeffs: dict[tuple[int, ...], complex] = {}
    for alpha in np.ndindex(*([degree + 1] * dim)):
        if sum(alpha) <= degree:
            re, im = rng.standard_normal(2)
            coeffs[tuple(int(a) for a in alpha)] = complex(re, im) / np.sqrt(2.0)
    return HoloPolynomial(dim=dim, coeffs=coeffs)
