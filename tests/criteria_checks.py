"""The checks of acceptance criteria 5 and 7, which no library code calls.

Criterion 5 brackets the infinitesimal Kobayashi metric by the convexity
estimate |v|/(2 delta(z;v)) <= k_D(z;v) <= |v|/delta(z;v), checked against
the closed metric of the disk and the ball, and bounds the boundary log
envelope d_K(z0, z) + 0.5 log delta(z) along rays into the boundary, from the
distance brackets of kobayashi.tanh_distance_bracket.  Criterion 7 checks the
plurisubharmonic sub-mean-value inequalities for |f|^2 through the polydisk
sandwich of kobayashi.ball_sandwich and the masses of measures.mass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from carleson_lab import domains, geometry, kobayashi, measures
from carleson_lab.domains import DomainSpec, as_point
from carleson_lab.errors import CapabilityError, ConfigError, InputError
from carleson_lab.kobayashi import has_exact_distance, tanh_distance_bracket
from carleson_lab.measures import DensityMeasure
from carleson_lab.polynomials import HoloPolynomial, poly_eval


# ---------------------------------------------------------------------------
# infinitesimal bounds


@dataclass(frozen=True)
class MetricBound:
    lower: float
    upper: float


def metric_bounds(spec: DomainSpec, z, v) -> MetricBound:
    """Two-sided convexity estimate |v|/(2 delta(z;v)) <= k_D(z;v) <= |v|/delta(z;v).

    Backs acceptance criterion 5 (the metric bracket), checked there against
    exact_metric_model."""
    z = as_point(spec, z)
    v = np.asarray(v, dtype=complex)
    nv = float(np.linalg.norm(v))
    if nv == 0.0:
        return MetricBound(0.0, 0.0)
    delta = domains.line_level_distance(spec, z, v)
    return MetricBound(lower=nv / (2.0 * delta), upper=nv / delta)


def exact_metric_model(spec: DomainSpec, z, v) -> float:
    """Kobayashi metric of the disk/ball (closed form); capability error
    elsewhere.  The reference of acceptance criterion 5."""
    if not domains.is_ball(spec):
        raise CapabilityError(f"no exact Kobayashi metric for kind {spec.kind!r}")
    z = as_point(spec, z)
    v = np.asarray(v, dtype=complex)
    zz = float(np.vdot(z, z).real)
    vz = complex(np.sum(v * np.conj(z)))
    s = 1.0 - zz
    return math.sqrt(float(np.vdot(v, v).real) / s + abs(vz) ** 2 / s**2)


# ---------------------------------------------------------------------------
# log-envelope calibration


@dataclass(frozen=True)
class LogEnvelope:
    """Residuals d_K(z0, z) + 0.5 log delta(z) from the low and high ends of
    the distance brackets, and the envelope c1 = min low, c2 = max high."""

    c1: float
    c2: float
    low: np.ndarray
    high: np.ndarray


def boundary_ray_samples(spec: DomainSpec, direction, deltas) -> np.ndarray:
    """Points along the chord anchor -> boundary with prescribed boundary distances.

    The point at s is b + e^s (anchor - b), with b the boundary point of the
    chord.  Near b the distance delta is nearly proportional to e^s, so
    log delta is nearly linear in s; on the models it is exact (the anchor is
    the origin), elsewhere each sample is placed by a bracketed secant
    (Illinois) on log delta(s) - log d over s in [log 1e-12, 0].  These are
    the calibration rays of acceptance criterion 5.
    """
    anchor = domains.anchor_point(spec)
    v = np.asarray(direction, dtype=complex)
    v = v / np.linalg.norm(v)
    t_b = domains._ray_root(spec, anchor, v, 0.0)
    bpt = anchor + t_b * v
    deltas = np.asarray(deltas, dtype=float)
    if domains.is_ball(spec):
        return bpt * (1.0 - deltas)[:, None]  # anchor is the origin for the models
    chord = anchor - bpt
    point = lambda s: bpt + math.exp(s) * chord
    log_delta = lambda s: math.log(domains.boundary_distance(spec, point(s)))
    ends = (math.log(1e-12), 0.0)
    end_values = [log_delta(s) for s in ends]
    out = np.empty((len(deltas), spec.dim), dtype=complex)
    for i, d in enumerate(deltas):
        log_d = math.log(d)
        (a, b), (fa, fb) = ends, (value - log_d for value in end_values)
        if fa >= 0.0 or fb <= 0.0:  # d outside the chord's range: nearest end
            out[i] = point(a if fa >= 0.0 else b)
            continue
        for _ in range(60):
            s = b - fb * (b - a) / (fb - fa)
            fs = log_delta(s) - log_d
            if fs == 0.0 or abs(s - b) <= 1e-13:  # delta settled to 1e-13 relative
                break
            if (fs > 0.0) != (fb > 0.0):
                a, fa = b, fb
            else:
                fa *= 0.5  # Illinois: keep the stale end from stalling the secant
            b, fb = s, fs
        out[i] = point(s)
    return out


def calibrate_log_envelope(spec: DomainSpec, z0, points) -> LogEnvelope:
    """Residuals d_K(z0, z) + 0.5 log delta_D(z) over boundary-approaching samples.

    One batched tanh_distance_bracket from z0 to all points gives a low and a
    high residual per point; c1 is the least low residual and c2 the largest
    high one, so every residual lies in [c1, c2] (up to the accuracy of
    delta).  An open bracket makes c2 = +inf.  Only the disk, the ball and the
    (1, m) ellipsoid have the bracket; other domains raise CapabilityError.
    The envelope is the one acceptance criterion 5 bounds.
    """
    if not has_exact_distance(spec):
        raise CapabilityError(f"no certified log envelope for {spec.kind!r} {spec.exponents}")
    z0 = as_point(spec, z0)
    pts = np.atleast_2d(np.asarray(points, dtype=complex))
    if len(pts) < 10:
        raise ConfigError(f"need at least 10 calibration samples, got {len(pts)}")
    deltas = np.array([domains.boundary_distance(spec, p) for p in pts])
    if deltas.max() / deltas.min() < 1e4:
        raise ConfigError(
            f"calibration samples must span >= 4 decades of delta, got "
            f"[{deltas.min():.3g}, {deltas.max():.3g}]"
        )
    low, high = tanh_distance_bracket(spec, z0, pts)
    low = np.minimum(low, high)  # a closed bracket may cross by a rounding error
    with np.errstate(divide="ignore"):  # an open high end of 1 gives +inf
        low, high = (np.arctanh(end) + 0.5 * np.log(deltas) for end in (low, high))
    return LogEnvelope(c1=float(low.min()), c2=float(high.max()), low=low, high=high)


# ---------------------------------------------------------------------------
# sub-mean-value checks


@dataclass(frozen=True)
class SubmeanReport:
    value: float  # |f(z0)|^2
    margin_mean: float  # (2n/(1-r)) average over the r-ball bracket, minus value
    passed: bool  # value below that bound and the (8 n^2 r/(1-r)^3) one at R = (1+r)/2
    samples: int


def submean_check(
    spec: DomainSpec,
    f: HoloPolynomial,
    z0,
    r: float,
    samples: int = 1 << 14,
    seed: int = 0,
) -> SubmeanReport:
    """Certified-direction check of the sub-mean-value inequalities for |f|^2.

    The unknown Kobayashi ball is replaced by the outer polydisk in the
    integral and the inner polydisk in the normalizing volume, which can only
    increase the right-hand sides, so a failure would falsify the inequality
    itself (up to MC error on the integral).  The integrals are
    measures.mass of the density |f|^2 on the two outer polydisks, on one
    unit-polydisk sample of ``samples`` points drawn from ``seed``.
    """
    if not 0.0 < r < 1.0:
        raise InputError(f"r must lie in (0,1), got {r}")
    z0 = as_point(spec, z0)
    n = spec.dim
    phi0 = float(abs(poly_eval(f, z0)) ** 2)
    f_sq = DensityMeasure(density=lambda pts: np.abs(poly_eval(f, pts)) ** 2, label="|f|^2")

    frame = geometry.minimal_frame(spec, z0)
    sw_r = kobayashi.ball_sandwich(spec, z0, r, frame=frame)
    big_r = 0.5 * (1.0 + r)
    sw_big = kobayashi.ball_sandwich(spec, z0, big_r, frame=frame)
    vol_inner = geometry.polydisk_nu_volume(sw_r.inner)

    rng = np.random.default_rng(np.random.SeedSequence(seed))
    base = geometry.unit_polydisk_sample(n, samples, rng)
    integral_r = measures.mass(spec, f_sq, sw_r.outer, base).value
    integral_big = measures.mass(spec, f_sq, sw_big.outer, base).value
    bound_mean = (2.0 * n / (1.0 - r)) * integral_r / vol_inner
    bound_shifted = (8.0 * n**2 * r / (1.0 - r) ** 3) * integral_big / vol_inner
    return SubmeanReport(
        value=phi0,
        margin_mean=bound_mean - phi0,
        passed=phi0 <= bound_mean and phi0 <= bound_shifted,
        samples=samples,
    )
