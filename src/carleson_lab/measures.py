"""Finite positive Borel measures as data: atom lists and densities against nu.

Densities are taken with respect to the normalized Lebesgue measure nu
(nu of the unit Euclidean ball = 1) restricted to the domain; the plain
Lebesgue measure is the constant density 1.  An integral against a measure
is an Estimate: exact for atomic measures, a seeded Monte Carlo mean with
its standard error for densities (mean_estimate).  square_integrals
integrates |f|^2, the numerator of the operator quotient, over a nu-uniform
base of D (a NuBase); mass evaluates the measure of a polydisk on a
unit-polydisk base sample that the caller draws once and maps into every polydisk.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import domains, geometry, tables
from .domains import DomainSpec
from .errors import InputError
from .geometry import Polydisk


@dataclass(frozen=True)
class AtomicMeasure:
    """Sum of point masses w_k at interior points z_k."""

    points: np.ndarray  # (m, n) complex
    weights: np.ndarray  # (m,) positive
    label: str = "atomic"

    @property
    def count(self) -> int:
        return len(self.weights)


@dataclass(frozen=True)
class DensityMeasure:
    """Measure g dnu|_D for a nonnegative density g evaluated on point batches."""

    density: Callable[[np.ndarray], np.ndarray]
    label: str = "density"


def atomic_measure(spec: DomainSpec, points, weights, label: str = "atomic") -> AtomicMeasure:
    pts = domains.as_points(spec, points)
    w = np.asarray(weights, dtype=float)
    if len(pts) != len(w):
        raise InputError(f"{len(pts)} atoms but {len(w)} weights")
    if len(w) and not np.all(w > 0.0):
        raise InputError("atom weights must be strictly positive")
    if len(pts) and not np.all(domains.contains(spec, pts)):
        raise InputError("all atoms must lie inside the domain")
    return AtomicMeasure(points=pts, weights=w, label=label)


def lebesgue_measure() -> DensityMeasure:
    return DensityMeasure(density=lambda pts: np.ones(len(pts)), label="lebesgue")


# ---------------------------------------------------------------------------
# estimates of integrals against a measure, and polydisk mass


@dataclass(frozen=True)
class Estimate:
    """An integral against a measure.  An exact sum ("atomic") has stderr 0
    and samples 0; a Monte Carlo estimate ("mobius", "qmc" or "polydisk") is
    a sample mean whose stderr is the iid formula std/sqrt(samples).  The
    estimates of one call share the base its caller drew (the Berezin
    transform's nu-uniform base, the geometric criterion's unit polydisk),
    so each is unbiased with its own stderr but they are correlated across
    points.  "mobius" and "qmc" run on a scrambled-Halton base
    (domains.quasi_uniform), where the iid stderr is a scale, not a bound.
    For "mobius" it is conservative: against a 2^21-point reference on the
    default disk and 2-ball grids (densities 1 - delta and 1/(1 - delta),
    seeds 0-2, 2^16 points) the largest error was 2.7e-5 to 8.3e-4, at most
    1.31 stderr, where an iid base reached 8.0e-4 to 1.1e-2, up to 4.27.
    For "qmc" it is no bound: near the boundary of the (1,2) ellipsoid
    |B(nu) - 1| reached 676 times it at 2^16 points."""

    value: float
    stderr: float
    samples: int
    method: str  # "atomic" | "mobius" | "qmc" | "polydisk"


def mean_estimate(vals: np.ndarray, method: str, scale: float = 1.0) -> Estimate:
    """scale times the sample mean of the integrand values, with its iid
    standard error."""
    samples = len(vals)
    if samples < 2:
        raise InputError(f"a density needs samples >= 2 for a standard error, got {samples}")
    value = scale * float(vals.mean())
    stderr = scale * float(vals.std(ddof=1)) / math.sqrt(samples)
    return Estimate(value, stderr, samples, method)


@dataclass(frozen=True)
class NuBase:
    """A caller's nu-uniform sample of D and weight = nu(D) * density on it."""

    points: np.ndarray
    weight: np.ndarray


def _check_base(base: np.ndarray | None, n: int) -> None:
    if base is None or base.ndim != 2 or base.shape[1] != n:
        raise InputError(f"a density needs a base sample of shape (samples, {n})")


def square_integrals(mu, fs, base: NuBase | None) -> list[Estimate]:
    """Integral of |f|^2 dmu for every f in ``fs``, each a function of a point
    batch: the exact sum of w_k |f(z_k)|^2 over the atoms, or the mean of
    weight * |f|^2 over the points of ``base`` ("qmc").  Atoms ignore it."""
    if isinstance(mu, AtomicMeasure):
        return [
            Estimate(float(np.sum(mu.weights * np.abs(f(mu.points)) ** 2)), 0.0, 0, "atomic")
            for f in fs
        ]
    if not isinstance(mu, DensityMeasure):
        raise InputError(f"unsupported measure type {type(mu).__name__}")
    return [mean_estimate(base.weight * np.abs(f(base.points)) ** 2, "qmc") for f in fs]


def mass(spec: DomainSpec, mu, region: Polydisk, base: np.ndarray | None = None) -> Estimate:
    """Measure of a polydisk intersected with D: the exact atom sum, or the
    polydisk's nu-volume times the mean density over ``base`` mapped into it.
    ``base`` is a uniform sample of the unit polydisk in frame coordinates,
    geometry.unit_polydisk_sample(region.n, samples, rng), which can serve
    many polydisks; atoms ignore it."""
    if not isinstance(region, Polydisk):
        raise InputError(f"unsupported region type {type(region).__name__}")
    if isinstance(mu, AtomicMeasure):
        inside = geometry.polydisk_contains(region, mu.points)
        return Estimate(float(mu.weights[inside].sum()), 0.0, 0, "atomic")
    if not isinstance(mu, DensityMeasure):
        raise InputError(f"unsupported measure type {type(mu).__name__}")
    _check_base(base, region.n)

    pts = geometry.polydisk_points(region, base)
    # the density is only defined on D, and the polydisk may reach outside;
    # compress/place cost less than boolean indexing here
    inside = domains.contains(spec, pts)
    vals = np.zeros(len(base))
    np.place(vals, inside, mu.density(np.compress(inside, pts, axis=0)))
    return mean_estimate(vals, "polydisk", geometry.polydisk_nu_volume(region))


# ---------------------------------------------------------------------------
# atom tables: coordinate columns and a weight column (tables)


def atoms_to_csv(mu: AtomicMeasure, path) -> None:
    """Write the atom table that atoms_from_csv, and so the CLI's --measure,
    reads back."""
    rows = np.column_stack([domains.to_real(mu.points), mu.weights])
    tables.write(path, tables.coord_header(mu.points.shape[1]) + ["weight"], rows)


def atoms_from_csv(spec: DomainSpec, path) -> AtomicMeasure:
    """The atom table at ``path`` as a measure labelled by the path."""
    vals = tables.read(path, "atom", 2 * spec.dim + 1, f" for dimension {spec.dim}")
    return atomic_measure(spec, domains.to_complex(vals[:, :-1]), vals[:, -1], label=str(path))
