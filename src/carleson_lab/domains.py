"""Bounded convex model domains in C^n with global polynomial defining functions.

A domain is D = {r < 0} for a smooth convex polynomial r on R^(2n).  Three
kinds are supported:

* ``disk``        r(z) = |z|^2 - 1 in C^1
* ``ball``        r(z) = |z|^2 - 1 in C^n
* ``ellipsoid``   r(z) = sum_i (|z_i|^2 / a_i^2)^(m_i) - 1

Points are numpy arrays of shape (n,) with dtype complex128.  Real coordinates
are interleaved (x_1, y_1, ..., x_n, y_n), matching the CLI point syntax.

Each kind is convex and bounded by construction, and r takes its least value
-1 at the origin.  Construction checks one thing: that r is finite on the box
{|x_i| <= 1.05 a_i, |y_i| <= 1.05 a_i} (a_i = 1 on the disk and the ball).  r
grows with every |z_i|, so its largest value on the box is the one at a
corner, and a spec whose r overflows there is refused.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

from .errors import ConfigError, InputError, NumericError

KINDS = ("disk", "ball", "ellipsoid")

_PROJECTION_STARTS = 8
_LINE_PHASES = 64

# ---------------------------------------------------------------------------
# spec


@dataclass(frozen=True)
class DomainSpec:
    """Immutable description of a model domain; the disk and the ball leave
    exponents and semi_axes empty."""

    kind: str
    dim: int
    exponents: tuple[int, ...] = ()
    semi_axes: tuple[float, ...] = ()

    def __post_init__(self):
        _validate(self)

    @property
    def box(self) -> tuple[float, ...]:
        """One half-width 1.05 a_i per complex coordinate: the box around D
        is the polydisk of squares {|x_i| <= box_i, |y_i| <= box_i}."""
        return tuple(1.05 * a for a in self.semi_axes) if self.semi_axes else (1.05,) * self.dim


def _integer(value, what: str) -> int:
    """An int or numpy integer as an int; a bool, a float or a string is a
    TypeError, which spec_from_json reports as a malformed spec."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise TypeError(f"{what} must be an integer, got {value!r}")
    return int(value)


def _real(value, what: str) -> float:
    """An int, a float or a numpy number as a float; a bool or a string is a
    TypeError, as in _integer."""
    if isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating)):
        raise TypeError(f"{what} must be a real number, got {value!r}")
    return float(value)


def unit_disk() -> DomainSpec:
    return DomainSpec(kind="disk", dim=1)


def unit_ball(dim: int) -> DomainSpec:
    dim = _integer(dim, "dimension")
    if dim < 1:
        raise ConfigError(f"ball dimension must be >= 1, got {dim}")
    return DomainSpec(kind="ball", dim=dim)


def complex_ellipsoid(
    exponents: Sequence[int], semi_axes: Sequence[float] | None = None
) -> DomainSpec:
    exps = tuple(_integer(m, "an exponent") for m in exponents)
    if not exps or any(m < 1 for m in exps):
        raise ConfigError(f"ellipsoid exponents must be positive integers, got {exponents}")
    if semi_axes is None:
        semi_axes = (1.0,) * len(exps)
    axes = tuple(_real(a, "a semi-axis") for a in semi_axes)
    # r divides by a^2: an a whose square overflows or underflows leaves r inf or nan
    if len(axes) != len(exps) or not all(a > 0.0 and 0.0 < a * a < math.inf for a in axes):
        raise ConfigError(
            f"semi_axes must match exponents, each a and a^2 finite and positive, got {semi_axes}"
        )
    return DomainSpec(kind="ellipsoid", dim=len(exps), exponents=exps, semi_axes=axes)


def is_ball(spec: DomainSpec) -> bool:
    """The unit disk or a unit ball, the models with closed forms throughout."""
    return spec.kind in ("disk", "ball")


# ---------------------------------------------------------------------------
# point helpers


def as_point(spec: DomainSpec, z) -> np.ndarray:
    """Coerce scalars/sequences to a complex (n,) array and check finiteness."""
    arr = np.atleast_1d(np.asarray(z, dtype=complex))
    if arr.shape != (spec.dim,):
        raise InputError(f"expected a point in C^{spec.dim}, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise InputError(f"point has non-finite entries: {arr}")
    return arr


def as_points(spec: DomainSpec, points) -> np.ndarray:
    """Coerce a batch to a complex (m, n) array; flat input is a list of
    scalars on a 1-dim domain, else a single point."""
    pts = np.asarray(points, dtype=complex)
    if pts.ndim == 0:
        pts = pts.reshape(1, 1)
    elif pts.ndim == 1:
        pts = pts.reshape(-1, 1) if spec.dim == 1 else pts.reshape(1, -1)
    if pts.ndim != 2 or (len(pts) and pts.shape[1] != spec.dim):
        raise InputError(f"point array of shape {pts.shape} does not match dimension {spec.dim}")
    return pts


def to_real(z: np.ndarray) -> np.ndarray:
    """Interleave (..., n) complex into (..., 2n) reals (x1, y1, x2, y2, ...)."""
    z = np.asarray(z, dtype=complex)
    out = np.empty(z.shape[:-1] + (2 * z.shape[-1],), dtype=float)
    out[..., 0::2] = z.real
    out[..., 1::2] = z.imag
    return out


def to_complex(x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    return x[..., 0::2] + 1j * x[..., 1::2]


def coordinate_sum(cols, weights) -> np.ndarray:
    """sum_j weights[j] * cols[j] over the n coordinate arrays cols[j] (a
    list, or an array whose first axis runs over the coordinates).

    Products over the n <= 3 coordinates are taken one coordinate at a time,
    with long 1-D operations in each pass: as a matrix product OpenBLAS
    splits them across the cores and its worker spins for no gain, and a
    broadcast over a last axis of length n costs numpy one inner-loop call
    per point.
    """
    out = cols[0] * weights[0]
    for j in range(1, len(weights)):
        out += cols[j] * weights[j]
    return out


# points per block of the long elementwise passes over a sample (quasi_uniform,
# the Mobius pull-back of berezin_many, reproduce_check and poly_eval): a
# block's temporaries stay in the L2 cache, where a pass over the whole
# sample allocates, page-faults and streams arrays of up to 40 MB.  Medians
# on 2 shared cores (2 MB L2 per core):
#   block     quasi_uniform    Berezin per z, 2^16    8 degree-5 poly_eval
#             ELL12, 2^18      disk / 2-ball          ELL12, 2^18
#   1024      489 ms           3.8 / 5.5 ms           324 ms
#   4096      240-280 ms       1.9-2.2 / 3.2-3.9 ms   156-193 ms
#   8192      165-244 ms       1.9-2.0 / 2.4-3.5 ms   123-148 ms
#   16384     190-236 ms       1.5-2.3 / 2.9-3.2 ms   105-138 ms
#   65536     218 ms           2.5 / 4.3 ms           213 ms
#   whole     271 ms           4.1 / 5.8 ms           386 ms
_BLOCK = 8192


def _blocks(count: int) -> list[slice]:
    """Consecutive slices of at most _BLOCK indices that cover range(count)."""
    return [slice(start, min(start + _BLOCK, count)) for start in range(0, count, _BLOCK)]


def squared_norm(z: np.ndarray) -> np.ndarray:
    """|z|^2 over the last axis, one coordinate at a time (see coordinate_sum);
    equal bit for bit to the sum over that axis."""
    out = z[..., 0].real ** 2 + z[..., 0].imag ** 2
    for j in range(1, z.shape[-1]):
        out += z[..., j].real ** 2 + z[..., j].imag ** 2
    return out


def anchor_point(spec: DomainSpec) -> np.ndarray:
    """The origin, where r takes its least value -1 on every model."""
    return np.zeros(spec.dim, dtype=complex)


# ---------------------------------------------------------------------------
# defining function and gradient


def defining_value(spec: DomainSpec, z) -> float | np.ndarray:
    """Evaluate r at one point (n,) or a batch (..., n)."""
    z = np.asarray(z, dtype=complex)
    single = z.ndim == 1
    val = _value_batch(spec, np.atleast_2d(z))
    return float(val[0]) if single else val.reshape(z.shape[:-1])


def _value_batch(spec: DomainSpec, z: np.ndarray) -> np.ndarray:
    if is_ball(spec):
        return squared_norm(z) - 1.0
    sq = z.real**2 + z.imag**2
    a2 = np.asarray(spec.semi_axes) ** 2
    m = np.asarray(spec.exponents)
    # summed one coordinate at a time, as numpy sums a last axis of length < 8
    terms = (sq / a2) ** m
    out = terms[..., 0].copy()
    for j in range(1, spec.dim):
        out += terms[..., j]
    out -= 1.0
    return out


def defining_gradient(spec: DomainSpec, z) -> np.ndarray:
    """Real gradient of r, interleaved layout, shape (..., 2n)."""
    z = np.asarray(z, dtype=complex)
    x = to_real(z)
    if is_ball(spec):
        return 2.0 * x
    sq = z.real**2 + z.imag**2
    a2 = np.asarray(spec.semi_axes) ** 2
    m = np.asarray(spec.exponents)
    u = sq / a2
    factor = m * np.where(u > 0, u, 1.0) ** (m - 1) / a2  # u^0 at the axis when m=1
    factor = np.where((u == 0) & (m > 1), 0.0, factor)
    grad = np.empty_like(x)
    grad[..., 0::2] = 2.0 * z.real * factor
    grad[..., 1::2] = 2.0 * z.imag * factor
    return grad


def contains(spec: DomainSpec, z) -> bool | np.ndarray:
    val = defining_value(spec, z)
    return val < 0.0


# ---------------------------------------------------------------------------
# construction-time validation


def _validate(spec: DomainSpec) -> None:
    if spec.kind not in KINDS:
        raise ConfigError(f"unknown domain kind {spec.kind!r}, expected one of {KINDS}")
    if spec.dim < 1:
        raise ConfigError(f"dimension must be >= 1, got {spec.dim}")
    # r grows with every |z_i|: its largest value on the box is at a corner
    corner = np.asarray(spec.box) * (1.0 + 1.0j)
    with np.errstate(over="ignore"):
        top = float(_value_batch(spec, corner[None, :])[0])
    if not math.isfinite(top):
        raise InputError(
            f"r overflows on the validation box {spec.box}: the semi-axes or exponents are too large"
        )


# ---------------------------------------------------------------------------
# distances to level sets


def level_roots(spec: DomainSpec, q, d, level) -> np.ndarray:
    """Positive roots t of r(q + t d) = level for a batch of rays: q and d
    (..., n), d of unit length, and level broadcast together; shape (...).

    A closed form ray by ray on the disk and the ball (_ball_root).
    Elsewhere one bisection of all rays at once, in brackets grown by
    doubling from twice the box's width, returns outer ends (r > level)
    within 1e-14 + 1e-15 t of the root.  Its arithmetic is on arrays, whose
    elementwise results do not depend on the batch, so row k of a batch is
    the one-ray root bit for bit.  A q outside the level set raises
    ValueError, a ray that never crosses it NumericError.
    """
    n = spec.dim
    shape = np.broadcast_shapes(np.shape(q)[:-1], np.shape(d)[:-1], np.shape(level))
    q = np.broadcast_to(np.asarray(q, dtype=complex), shape + (n,)).reshape(-1, n)
    d = np.broadcast_to(np.asarray(d, dtype=complex), shape + (n,)).reshape(-1, n)
    level = np.broadcast_to(np.asarray(level, dtype=float), shape).reshape(-1)
    if is_ball(spec):
        rows = zip(to_real(q), to_real(d), level.tolist())
        return np.array([_ball_root(x, e, lev) for x, e, lev in rows]).reshape(shape)
    if not np.all(_value_batch(spec, q) <= level):
        raise ValueError("q lies outside the level set")

    def outside(t: np.ndarray) -> np.ndarray:
        return _value_batch(spec, q + t[:, None] * d) > level

    lo, hi = np.zeros(len(q)), np.full(len(q), 2.0 * float(np.sum(2.0 * np.asarray(spec.box))) + 1.0)
    # far outside a wide box r may overflow to +inf, which still reads "outside"
    with np.errstate(over="ignore"):
        for _ in range(8):
            crossed = outside(hi)
            if crossed.all():
                break
            hi[~crossed] *= 2.0
        else:
            info = {"level": float(level.max()), "t_max": float(hi.max())}
            raise NumericError("ray never crosses the level set; level too high or spec unbounded", info)
        # each pass halves every open bracket: log2(hi / 1e-14) passes, 560 at a box of 1e154
        budget = 100 + 2 * math.ceil(math.log2(float(hi.max(initial=1.0))) - math.log2(1e-14))
        for _ in range(budget):
            open_ = hi - lo > 1e-14 + 1e-15 * hi
            if not open_.any():
                return hi.reshape(shape)
            mid = 0.5 * (lo + hi)
            out = outside(mid)
            hi = np.where(open_ & out, mid, hi)
            lo = np.where(open_ & ~out, mid, lo)
    raise NumericError("level root bisection did not converge", {"passes": budget})


def _ball_root(x: np.ndarray, e: np.ndarray, level: float) -> float:
    """The positive root of t^2 + 2 b t + c = 0 for one ray (real coordinates
    x of q and e of d), b = Re<q, d> and c = |q|^2 - 1 - level summed exactly
    (_exact_dot), taken as s - b or -c / (b + s), s = sqrt(b^2 - c), whichever
    adds terms of one sign: a few eps relative for every q in the level set."""
    c = _exact_dot(x, x, -1.0, -level)
    if c > 0.0:
        raise ValueError(f"q lies outside the level set: |q|^2 - 1 - level = {c}")
    b = _exact_dot(x, e)
    s = math.sqrt(b * b - c)
    return -c / (b + s) if b > 0.0 else s - b


def _ray_root(spec: DomainSpec, q: np.ndarray, direction: np.ndarray, level: float) -> float:
    """Positive t with r(q + t*direction) = level: one ray of level_roots."""
    return float(level_roots(spec, q, direction, level))


def _exact_dot(x: np.ndarray, y: np.ndarray, *terms: float) -> float:
    """sum_j x_j y_j + sum(terms) rounded once: each product is split into
    two doubles that add up to it exactly (Dekker's product, through
    Veltkamp's splitting of each factor into 26-bit halves), and math.fsum
    adds the pieces."""
    parts = list(terms)
    for a, b in zip(x.tolist(), y.tolist()):
        p = a * b
        a_hi = 134217729.0 * a - (134217729.0 * a - a)
        b_hi = 134217729.0 * b - (134217729.0 * b - b)
        a_lo, b_lo = a - a_hi, b - b_hi
        parts += [p, ((a_hi * b_hi - p) + a_hi * b_lo + a_lo * b_hi) + a_lo * b_lo]
    return math.fsum(parts)


@dataclass(frozen=True)
class ProjectionResult:
    point: np.ndarray
    distance: float
    unique: bool


def project_to_level(spec: DomainSpec, q, basis: np.ndarray | None = None) -> ProjectionResult:
    """Nearest point to q on the boundary {r = 0}, optionally restricted to
    the affine slice q + span_C(basis rows).

    Multi-start constrained minimization (slice axes first, then fixed
    quasi-random directions); each converged candidate is polished by a 1-d
    root along its ray so the constraint holds to near machine precision.
    The starts take one level_roots call, and the polishes another.  Ties
    are broken by enumeration order, which pins symmetric centers to the
    canonical axes.
    """
    q = as_point(spec, q)
    rq = float(defining_value(spec, q))
    if not rq < 0.0:
        raise InputError(f"point must be interior: r(q) = {rq}")
    if basis is None:
        basis = np.eye(spec.dim, dtype=complex)
    basis = np.atleast_2d(np.asarray(basis, dtype=complex))
    k = basis.shape[0]

    if is_ball(spec) and k == spec.dim:
        nq = float(np.linalg.norm(q))
        if nq < 1e-12:
            e = np.zeros(spec.dim, dtype=complex)
            e[0] = 1.0
            return ProjectionResult(point=e, distance=1.0, unique=False)
        return ProjectionResult(point=q / nq, distance=1.0 - nq, unique=True)

    if spec.kind == "ellipsoid" and spec.dim == 2 and k == spec.dim:
        return _ellipsoid_project2(spec, q)
    from scipy import optimize

    directions = np.array(_start_directions(k))
    starts = level_roots(spec, q, directions @ basis, 0.0).tolist()  # unit vectors in C^n
    candidates = [(t, d * t) for t, d in zip(starts, directions)]

    def constraint(w: np.ndarray) -> float:
        u = to_complex(w)
        xi = q + u @ basis
        return float(_value_batch(spec, xi[None, :])[0])

    def constraint_grad(w: np.ndarray) -> np.ndarray:
        u = to_complex(w)
        xi = q + u @ basis
        g = defining_gradient(spec, xi)  # (2n,) interleaved
        out = np.empty(2 * k)
        for j in range(k):
            out[2 * j] = g @ to_real(basis[j])
            out[2 * j + 1] = g @ to_real(1j * basis[j])
        return out

    converged = []
    for _, u0 in candidates:
        w0 = to_real(u0)
        res = optimize.minimize(
            lambda w: float(w @ w),  # |u|^2, the squared distance
            w0,
            jac=lambda w: 2.0 * w,
            method="SLSQP",
            constraints=[{"type": "eq", "fun": constraint, "jac": constraint_grad}],
            options={"maxiter": 200, "ftol": 1e-16},
        )
        w = res.x if res.x is not None else w0
        u = to_complex(np.asarray(w))
        norm = float(np.linalg.norm(u))
        if norm >= 1e-14:
            converged.append(u / norm)
    # polish each converged direction back onto the boundary
    polished = level_roots(spec, q, np.reshape(converged, (-1, k)) @ basis, 0.0).tolist()
    refined = candidates + [(t, u * t) for t, u in zip(polished, converged)]

    # stable sort on a rounded key: exact symmetric ties resolve to the
    # canonical ray candidates, which are enumerated first
    refined.sort(key=lambda item: round(item[0], 12))
    best_t, best_u = refined[0]
    # uniqueness: near-minimal candidates must coincide with the winner
    tol_t = max(1e-9, 1e-7 * best_t)
    unique = True
    for t, u in refined[1:]:
        if t > best_t + tol_t:
            break
        if np.linalg.norm(u - best_u) > 1e-4 * max(1.0, best_t):
            unique = False
            break
    point = q + best_u @ basis
    return ProjectionResult(point=point, distance=best_t, unique=unique)


def _ellipsoid_project2(spec: DomainSpec, q: np.ndarray) -> ProjectionResult:
    """Full-space projection for two-coordinate ellipsoids.

    The constraint only sees moduli, and aligning phases with q never
    increases the distance, so the problem reduces to the plane curve
    (|z_1|^2/a_1^2)^{m_1} + (|z_2|^2/a_2^2)^{m_2} = 1 in the closed
    positive quadrant, minimized by a grid multistart plus golden-section
    refinement of every local minimum of the grid.
    """
    a1, a2 = (float(v) for v in spec.semi_axes)
    m1, m2 = (float(v) for v in spec.exponents)
    qm = np.abs(q)
    q1, q2 = qm.tolist()

    def x1_of(x2):
        # floats and arrays alike; 0 <= x2 <= a2 keeps rem >= 0 (abs only
        # clears the sign of a zero)
        rem = 1.0 - (x2 * x2 / a2**2) ** m2
        return a1 * abs(rem) ** (1.0 / (2.0 * m1))

    def dist2(x2):
        return (x1_of(x2) - q1) ** 2 + (x2 - q2) ** 2

    grid = np.linspace(0.0, a2, 513)
    vals = dist2(grid)
    # exact endpoints first: the refinement cannot land on them, and the
    # axis solutions must come out bit-exact for canonical frames
    local: list[tuple[float, float]] = [(float(vals[0]), 0.0), (float(vals[-1]), a2)]
    padded = np.concatenate([[np.inf], vals, [np.inf]])
    for idx in np.flatnonzero((vals <= padded[:-2]) & (vals <= padded[2:])).tolist():
        lo, hi = grid[max(idx - 1, 0)], grid[min(idx + 1, 512)]
        local.append(_golden_min(dist2, float(lo), float(hi)))
    local.sort(key=lambda item: round(math.sqrt(max(item[0], 0.0)), 12))
    best_d2, best_x2 = local[0]
    dist = math.sqrt(max(best_d2, 0.0))
    best = np.array([float(x1_of(best_x2)), best_x2])
    tol = max(1e-9, 1e-7 * dist)
    unique = True
    for d2, x2 in local[1:]:
        if math.sqrt(max(d2, 0.0)) > dist + tol:
            continue
        if abs(x2 - best_x2) > 1e-4 * max(1.0, dist):
            unique = False
            break
    # a positive modulus over a vanishing coordinate admits every phase
    if np.any((best > 1e-9) & (qm < 1e-12)):
        unique = False
    phase = np.where(qm > 0.0, q / np.where(qm > 0.0, qm, 1.0), 1.0 + 0.0j)
    return ProjectionResult(point=phase * best, distance=dist, unique=unique)


_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def _golden_min(f, a: float, b: float) -> tuple[float, float]:
    """(f(x), x) at the minimum of f on [a, b], taken as unimodal, by
    golden-section search.  78 steps shrink the bracket to 0.618^78 < 1e-16
    of its width, or to the spacing of doubles, so a minimum next to a steep
    end is found; a bounded scalar minimizer stops at sqrt(eps) relative."""
    c, d = b - _GOLDEN * (b - a), a + _GOLDEN * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(78):
        if fc <= fd:  # the minimum lies in [a, d]
            b, d, fd = d, c, fc
            c = b - _GOLDEN * (b - a)
            fc = f(c)
        else:  # the minimum lies in [c, b]
            a, c, fc = c, d, fd
            d = a + _GOLDEN * (b - a)
            fd = f(d)
    return (fc, c) if fc <= fd else (fd, d)


@lru_cache(maxsize=8)
def _start_directions(k: int) -> tuple[np.ndarray, ...]:
    """Deterministic unit starts in C^k: signed axes first, then quasi-random."""
    dirs: list[np.ndarray] = []
    for j in range(k):
        e = np.zeros(k, dtype=complex)
        e[j] = 1.0
        dirs.append(e)
    for j in range(k):
        e = np.zeros(k, dtype=complex)
        e[j] = -1.0
        dirs.append(e)
    rng = np.random.default_rng(561204)
    while len(dirs) < max(_PROJECTION_STARTS, 2 * k):
        v = rng.standard_normal(k) + 1j * rng.standard_normal(k)
        dirs.append(v / np.linalg.norm(v))
    return tuple(dirs[: max(_PROJECTION_STARTS, 2 * k)])


def boundary_distance(spec: DomainSpec, z) -> float:
    """Euclidean distance from an interior point to the boundary {r = 0}."""
    z = as_point(spec, z)
    if not float(defining_value(spec, z)) < 0.0:
        raise InputError("boundary_distance expects an interior point")
    if is_ball(spec):
        return float(boundary_distance_batch(spec, z[None, :])[0])
    return project_to_level(spec, z).distance


def boundary_distance_batch(spec: DomainSpec, pts: np.ndarray) -> np.ndarray:
    """Boundary distances for a batch of interior points (vectorized on models)."""
    pts = np.asarray(pts, dtype=complex)
    if is_ball(spec):
        return 1.0 - np.sqrt(squared_norm(pts))
    return np.array([boundary_distance(spec, p) for p in pts])


def line_level_distance(spec: DomainSpec, z, v) -> float:
    """Distance from z to the boundary {r = 0} inside the complex line z + C v:
    one row of line_level_distances."""
    return float(line_level_distances(spec, as_point(spec, z)[None], np.asarray(v, dtype=complex)[None])[0])


def line_level_distances(spec: DomainSpec, z, v) -> np.ndarray:
    """Distances from points z (m, n) to the boundary {r = 0} inside the
    complex lines z + C v, v (m, n); shape (m,).

    The distance is the least positive root t(theta) of
    r(z + t e^{i theta} v) = 0 over the phases theta.  One level_roots call
    takes it on _LINE_PHASES phases per point; then three parabola steps,
    each on 3 phases 100 times narrower than the step before, refine the
    best phase of every point at once.  Each value is the least outer end
    (r > 0) met, so it bounds the distance from above at any box width.
    """
    z, v = as_points(spec, z), as_points(spec, v)
    nv = np.sqrt(squared_norm(v))
    if not np.all((nv > 0.0) & np.isfinite(nv)):
        raise InputError("direction vector must be finite and nonzero")
    v = v / nv[:, None]
    if not np.all(_value_batch(spec, z) < 0.0):
        raise InputError("point must be interior")
    if is_ball(spec):
        b = np.abs(np.sum(z * np.conj(v), axis=-1))  # |<z, v>|
        return np.sqrt(b * b + 1.0 - squared_norm(z)) - b

    def roots(theta: np.ndarray) -> np.ndarray:
        return level_roots(spec, z[:, None], np.exp(1j * theta)[..., None] * v[:, None], 0.0)

    h = 2.0 * math.pi / _LINE_PHASES
    phases = h * np.arange(_LINE_PHASES)
    grid = roots(phases[None])
    jbest = np.argmin(grid, axis=1)
    theta, best = phases[jbest], grid.min(axis=1)
    t = np.take_along_axis(grid, (jbest[:, None] + np.arange(-1, 2)) % _LINE_PHASES, axis=1)
    for _ in range(3):
        # move to the vertex of the parabola through the three phases
        curv = t[:, 0] - 2.0 * t[:, 1] + t[:, 2]
        theta = theta + 0.5 * h * (t[:, 0] - t[:, 2]) / np.where(curv > 0.0, curv, np.inf)
        h /= 100.0
        t = roots(theta[:, None] + h * np.arange(-1, 2))
        best = np.minimum(best, t.min(axis=1))
    return best


# ---------------------------------------------------------------------------
# sampling


def inradius(spec: DomainSpec) -> float:
    """Radius of the largest ball about the anchor inside D: min_i a_i on an
    ellipsoid, since on its boundary sum_i u_i^(m_i) = 1 with u_i in [0, 1]
    gives sum_i u_i >= 1, so |z|^2 = sum_i a_i^2 u_i >= min_i a_i^2."""
    return min(spec.semi_axes) if spec.semi_axes else 1.0


def box_nu_volume(spec: DomainSpec) -> float:
    """Volume of the validation box under the normalization nu(B_1(0)) = 1."""
    try:
        leb = math.prod((2.0 * b) ** 2 for b in spec.box)
    except OverflowError:  # a half-width past 6.7e153
        leb = math.inf
    return leb / unit_ball_volume(spec.dim)


def unit_ball_volume(n: int) -> float:
    """Lebesgue volume of the unit Euclidean ball in R^(2n) = pi^n / n!."""
    return math.pi**n / math.factorial(n)


class Halton:
    """Scrambled Halton stream in [0, 1)^d (Owen, "A randomized Halton
    algorithm in R", arXiv:1706.02808), equal bit for bit to scipy's
    qmc.Halton(d, scramble=True, seed=seed).

    Coordinate i is the van der Corput sequence in the i-th prime b with
    its digits permuted: one random permutation of range(b) per digit, for
    the ceil(54 / log2 b) - 1 digits that a double can resolve, shuffled in
    turn by one default_rng(seed).  The stream keeps its index across draws,
    so it does not depend on how it is split into them.
    """

    def __init__(self, d: int, seed: int):
        rng = np.random.default_rng(seed)
        self.bases: list[int] = []
        k = 2
        while len(self.bases) < d:
            if all(k % b for b in self.bases):
                self.bases.append(k)
            k += 1
        self.perms = []
        for b in self.bases:
            perm = np.repeat(np.arange(b)[None], math.ceil(54 / math.log2(b)) - 1, axis=0)
            for row in perm:
                rng.shuffle(row)
            self.perms.append(perm)
        self.index = 0

    def random(self, count: int) -> np.ndarray:
        """The next count points, shape (count, d).  The digits are summed
        lowest first, each rounded in turn, as in scipy's loop.  Digit j of
        consecutive indices n is constant on runs of b^j, one per quotient
        n // b^j, so each term perm[j][digit] b^-(j+1) is formed once per run
        and repeated; a digit constant over the draw adds one number, and
        once the last index's quotient is 0 every digit is 0."""
        out = np.zeros((len(self.bases), count))
        first, last = self.index, self.index + count - 1
        for seq, b, perm in zip(out, self.bases, self.perms):
            b2r, run = 1.0 / b, 1  # b^-(j+1), b^j
            for row in perm:
                low, top = first // run, last // run
                if top <= low:  # one run (none when count is 0)
                    seq += row[top % b] * b2r
                else:
                    runs = np.full(top - low + 1, run)
                    runs[0], runs[-1] = run - first % run, last % run + 1
                    seq += np.repeat(row[np.arange(low, top + 1) % b] * b2r, runs)
                b2r /= b
                run *= b
        self.index += count
        return out.T


def random_interior(
    spec: DomainSpec,
    count: int,
    rng: np.random.Generator | Halton,
    level_floor: float = 0.0,
) -> np.ndarray:
    """The first count points of {r <= -level_floor} in a stream of box
    points, shape (count, n): uniform (w.r.t. Lebesgue) from a numpy
    Generator, low-discrepancy from a Halton stream of dimension 2n.

    A box point is 2u - 1 times the box half-widths; 2u - 1 equals
    rng.uniform(-1, 1) bit for bit, and a scrambled Halton stream does not
    depend on how it is split into draws."""
    if not (math.isfinite(level_floor) and level_floor >= 0.0):
        raise InputError(f"level_floor must be finite and >= 0, got {level_floor}")
    if level_floor >= 1.0:
        raise InputError(f"level_floor must be < 1 on the {spec.kind} (r >= -1), got {level_floor}")
    quasi = isinstance(rng, Halton)
    out = np.empty((count, spec.dim), dtype=complex)
    wide = np.repeat(np.asarray(spec.box, dtype=float), 2)
    got = 0
    draws = 0
    while got < count:
        draws += 1
        if draws > 4000:
            raise NumericError("interior rejection sampling stalled", {"got": got})
        k = max(256, 2 * (count - got))
        u = rng.random(k) if quasi else rng.random((k, 2 * spec.dim))
        pts = to_complex((2.0 * u - 1.0) * wide)
        keep = pts[_value_batch(spec, pts) <= -level_floor]
        take = min(len(keep), count - got)
        out[got : got + take] = keep[:take]
        got += take
    return out


def quasi_interior(
    spec: DomainSpec,
    count: int,
    seed: int,
    level_floor: float = 0.0,
) -> np.ndarray:
    """Low-discrepancy interior sample (scrambled Halton), shape (count, n)."""
    return random_interior(spec, count, Halton(2 * spec.dim, seed), level_floor)


# erfinv(x) / x as a polynomial in t, highest degree first, on three ranges of
# w = -log(1 - x^2) (Giles, "Approximating the erfinv function", GPU Computing
# Gems, Jade Edition, 2011), each coefficient rounded to the nearest double:
#   mpmath.mp.dps = 40
#   x = lambda w: mpmath.sqrt(-mpmath.expm1(-w))
#   f = lambda w: mpmath.erfinv(x(w)) / x(w)
#   mpmath.chebyfit(lambda t: f(t + 3.125), [-3.125, 3.125], 25)         # w < 6.25
#   mpmath.chebyfit(lambda t: f((t + 3.25) ** 2), [-0.75, 0.75], 21)     # 6.25 <= w < 16
#   mpmath.chebyfit(lambda t: f((t + 5) ** 2), [-1, mpmath.sqrt(37) - 5], 22)  # w >= 16
# with fit errors 6.8e-18, 3.8e-18 and 2.0e-19; w <= 37 covers x = 1 - 2^-53.
_ERFINV_CENTRAL = (
    -3.5932028927020693e-22, 3.194015548136271e-21, 1.999259988861535e-20, -3.4734793888538036e-19,
    6.075050702072414e-19, 1.5510787009902526e-17, -1.2215637192404172e-16, -3.94018812230432e-17,
    6.521333511502239e-15, -4.0020031087558496e-14, -8.07192593899004e-14, 2.6305268312595183e-12,
    -1.2978805369932565e-11, -5.414303283919504e-11, 1.051223377050429e-09,
    -4.1126604371632185e-09, -2.907039127564132e-08, 4.23478816822246e-07, -1.3654691758785656e-06,
    -1.3882523393957483e-05, 0.00018673420801981186, -0.0007407025341546431, -0.006033670871426851,
    0.24015818242558834, 1.6536545626831027,
)
_ERFINV_MID = (
    7.680200479077053e-09, -1.5305397964152548e-08, -2.091453334773126e-08, 1.3158663683192966e-07,
    -2.4549818963339823e-07, -2.761716223816241e-08, 1.4815977874022539e-06,
    -3.985705945648173e-06, 2.93257845538535e-06, 1.2465028224217455e-05, -4.732068066544697e-05,
    6.828711739251955e-05, 2.4031512865758357e-05, -0.0003550378137852452, 0.0009532893415794137,
    -0.0016882755354488555, 0.00249144209795696, -0.0037512085082247342, 0.005370914553555033,
    1.0052589676941655, 3.0838856104922208,
)
_ERFINV_FAR = (
    -7.24966146252495e-14, -8.160176681890185e-13, 6.279376562594741e-12, -1.6333647998914338e-11,
    1.3779920046133169e-11, 6.095571711701469e-11, -3.794818703666977e-10, 1.3261846155757903e-09,
    -3.5352500997328407e-09, 7.814077076768083e-09, -1.5213053281863374e-08, 2.902197441426733e-08,
    -6.757294992930219e-08, 2.2905189307808578e-07, -9.930254510659103e-07, 4.5260526750533945e-06,
    -1.9681771200712716e-05, 7.599527808451216e-05, -0.00021503011979896402,
    -0.00013871931837975259, 1.0103004648645448, 4.849906401408584,
)


def _horner(coeffs: tuple[float, ...], t: np.ndarray) -> np.ndarray:
    """The polynomial of coeffs (highest degree first) at t, in one array."""
    p = np.full_like(t, coeffs[0])
    for c in coeffs[1:]:
        p *= t
        p += c
    return p


def _erfinv(x: np.ndarray) -> np.ndarray:
    """Inverse error function on (-1, 1), odd, within 2 ulp: x p(t) with one
    polynomial p per range of w = -log((1 - x)(1 + x)) above.  The central
    range (|x| < 0.99903) is evaluated over the whole array; each tail range
    then overwrites the points at or past its start, if there are any."""
    x = np.asarray(x, dtype=float)
    w = -np.log((1.0 - x) * (1.0 + x))
    p = _horner(_ERFINV_CENTRAL, w - 3.125)
    for start, coeffs, shift in ((6.25, _ERFINV_MID, 3.25), (16.0, _ERFINV_FAR, 5.0)):
        tail = w >= start
        if not tail.any():
            break
        p[tail] = _horner(coeffs, np.sqrt(w[tail]) - shift)
    return x * p


def _gamma_quantile(a: float, u: np.ndarray) -> np.ndarray:
    """Quantile of Gamma(a, 1): closed forms at a = 1 and a = 1/2, where
    P(1, x) = 1 - exp(-x) and P(1/2, x) = erf(sqrt(x)), in numpy
    (-log1p(-u) and _erfinv(u)^2); scipy's gammaincinv elsewhere, the one
    quantile that loads scipy.special."""
    if a == 1.0:
        return -np.log1p(-u)
    if a == 0.5:
        return _erfinv(u) ** 2
    from scipy import special

    return special.gammaincinv(a, u)


def quasi_uniform(spec: DomainSpec, count: int, seed: int) -> np.ndarray:
    """Exactly nu-uniform low-discrepancy sample on a Reinhardt domain.

    In the radial variables t_i = (|z_i|/a_i)^{2 m_i} the normalized volume is
    a Dirichlet(1/m_1, ..., 1/m_n; 1) density on the open simplex, so mapping
    scrambled Halton points through gamma quantiles gives uniform points with
    no rejection and no boundary indicator; integrands stay smooth in the
    sample cube, which is what quasi-Monte Carlo needs for fast convergence.
    The quantiles are closed forms in numpy for m_i = 1 (-log1p(-u)) and
    m_i = 2 (_erfinv(u)^2); other exponents use scipy's gammaincinv.  The
    stream is drawn and mapped _BLOCK points at a time into the one (count,
    n) output: it does not depend on how it is split, so the points are
    those of a single draw, bit for bit, and no full-size temporary is built.
    """
    n = spec.dim
    exponents = spec.exponents if spec.exponents else (1,) * n
    axes = np.asarray(spec.semi_axes if spec.semi_axes else (1.0,) * n)
    # the last shape is the unit-exponential tail coordinate of the Dirichlet law
    shapes = [1.0 / m for m in exponents] + [1.0]
    powers = 0.5 / np.asarray(exponents, dtype=float)
    stream = Halton(2 * n + 1, seed)
    out = np.empty((count, n), dtype=complex)
    for block in _blocks(count):
        u = stream.random(block.stop - block.start)
        gammas = np.stack([_gamma_quantile(a, u[:, i]) for i, a in enumerate(shapes)], axis=1)
        t = gammas[:, :n] / gammas.sum(axis=1, keepdims=True)
        out[block] = axes * t**powers * np.exp(2j * np.pi * u[:, n + 1 :])
    return out


# ---------------------------------------------------------------------------
# JSON round trip

# the keys each kind reads; any other key rejects the spec
_JSON_KEYS = {
    "disk": ("kind",),
    "ball": ("kind", "dimension"),
    "ellipsoid": ("kind", "exponents", "semi_axes"),
}


def spec_to_json(spec: DomainSpec) -> dict:
    data: dict = {"kind": spec.kind}
    if spec.kind == "ball":
        data["dimension"] = spec.dim
    elif spec.kind == "ellipsoid":
        data["exponents"] = list(spec.exponents)
        data["semi_axes"] = list(spec.semi_axes)
    return data


def spec_from_json(data: dict) -> DomainSpec:
    if not isinstance(data, dict):
        raise InputError(f"domain spec must be a JSON object, got {type(data).__name__}")
    kind = data.get("kind")
    if not isinstance(kind, str) or kind not in _JSON_KEYS:
        raise ConfigError(f"unknown domain kind {kind!r}, expected one of {KINDS}")
    unknown = set(data) - set(_JSON_KEYS[kind])
    if unknown:
        keys = list(_JSON_KEYS[kind])
        raise ConfigError(f"unknown keys in {kind} domain spec: {sorted(unknown)}; it takes {keys}")
    # a field of the wrong type or a non-numeric value fails in the constructors
    try:
        if kind == "disk":
            return unit_disk()
        if kind == "ball":
            return unit_ball(data.get("dimension", 1))
        if "exponents" not in data:
            raise ConfigError("ellipsoid spec needs 'exponents'")
        return complex_ellipsoid(data["exponents"], data.get("semi_axes"))
    except (TypeError, OverflowError) as exc:  # float(10**400) overflows
        raise InputError(f"malformed {kind!r} domain spec: {exc}") from None


def load_spec(path) -> DomainSpec:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return spec_from_json(json.load(fh))
    except FileNotFoundError as exc:
        raise ConfigError(f"domain spec file not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"domain spec file {path} is not valid JSON: {exc}") from exc
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read domain spec file {path}: {exc}") from exc


def save_spec(spec: DomainSpec, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(spec_to_json(spec), fh, indent=2, sort_keys=True)
        fh.write("\n")
