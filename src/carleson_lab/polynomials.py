"""Holomorphic polynomials in several variables as sparse multi-index maps."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .domains import _blocks
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
    """Evaluate on a batch of points (..., dim); scalar input gives a scalar shape.

    Horner's rule runs on _BLOCK points at a time (see domains._blocks), so
    its temporaries stay in cache; each value is that of a whole-batch pass.
    """
    pts = np.asarray(pts, dtype=complex)
    single = pts.ndim == 1
    if single:
        pts = pts[None, :]
    if pts.shape[-1] != poly.dim:
        raise InputError(f"points have dimension {pts.shape[-1]}, polynomial {poly.dim}")
    flat = pts.reshape(-1, poly.dim)
    out = np.zeros(len(flat), dtype=complex)
    for block in _blocks(len(flat)):
        cols = [np.ascontiguousarray(flat[block, i]) for i in range(poly.dim)]
        out[block] += _horner(poly.coeffs, cols)
    out = out.reshape(pts.shape[:-1])
    return out[0] if single else out


def _horner(coeffs: dict, cols: list):
    """sum_alpha c_alpha prod_i cols[i]^alpha_i by Horner's rule in the first
    coordinate, each of its coefficients a polynomial in the others: no power
    table, and a few arrays alive at a time.  A constant comes back a scalar."""
    if not cols or not coeffs:
        return sum(coeffs.values())
    parts: dict[int, dict] = {}
    for alpha, c in coeffs.items():
        parts.setdefault(alpha[0], {})[alpha[1:]] = c
    top = max(parts)
    acc = _horner(parts[top], cols[1:])
    for a in range(top - 1, -1, -1):
        acc = acc * cols[0]
        if a in parts:
            acc = acc + _horner(parts[a], cols[1:])
    return acc


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
