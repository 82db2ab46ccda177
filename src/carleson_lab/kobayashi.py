"""Kobayashi metric and distance estimates on convex domains.

Everything is expressed in the tanh convention: the ball of radius r in (0,1)
around z0 is {z : tanh d_K(z0, z) < r}.  Exact distances exist for the disk
and the ball, and a batched bracket that closes to rounding for the complex
ellipsoids {|z1/a1|^2 + |z2/a2|^(2m) < 1}; elsewhere the module provides
two-sided infinitesimal bounds, upper estimates of distances (the shortest
piecewise-linear path measured in the upper metric, by quadrature; an
estimate, not a bound), and the polydisk sandwich of Kobayashi balls coming
from the minimal frame.

This module alone decides how a distance question is answered on a domain:
ball_relation (is w within tanh-radius r of z), ball_counts, the greedy loop
greedy_separated and min_tanh_distance serve every domain, from the oracle
where it exists and from the polydisk sandwich elsewhere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy import optimize

from . import domains, geometry
from .domains import DomainSpec, as_point, defining_value
from .errors import CapabilityError, ConfigError, InputError
from .geometry import MinimalFrame, Polydisk, minimal_frame

_GAUSS_NODES = 16
_BATCH_PHASES = 48

INSIDE = "inside"
OUTSIDE = "outside"
UNCERTAIN = "uncertain"


# ---------------------------------------------------------------------------
# infinitesimal bounds


@dataclass(frozen=True)
class MetricBound:
    lower: float
    upper: float


def metric_bounds(spec: DomainSpec, z, v) -> MetricBound:
    """Two-sided convexity estimate |v|/(2 delta(z;v)) <= k_D(z;v) <= |v|/delta(z;v)."""
    z = as_point(spec, z)
    v = np.asarray(v, dtype=complex)
    nv = float(np.linalg.norm(v))
    if nv == 0.0:
        return MetricBound(0.0, 0.0)
    delta = domains.line_boundary_distance(spec, z, v)
    return MetricBound(lower=nv / (2.0 * delta), upper=nv / delta)


def exact_metric_model(spec: DomainSpec, z, v) -> float:
    """Kobayashi metric of the disk/ball (closed form); capability error elsewhere."""
    if spec.kind not in ("disk", "ball"):
        raise CapabilityError(f"no exact Kobayashi metric for kind {spec.kind!r}")
    z = as_point(spec, z)
    v = np.asarray(v, dtype=complex)
    zz = float(np.vdot(z, z).real)
    vz = complex(np.sum(v * np.conj(z)))
    s = 1.0 - zz
    return math.sqrt(float(np.vdot(v, v).real) / s + abs(vz) ** 2 / s**2)


# ---------------------------------------------------------------------------
# exact model distances (disk and ball)


def tanh_distance_model(spec: DomainSpec, z, w) -> float:
    """Pseudohyperbolic distance tanh d_K on the disk/ball."""
    if spec.kind not in ("disk", "ball"):
        raise CapabilityError(f"no exact Kobayashi distance for kind {spec.kind!r}")
    return float(_pair_pd(as_point(spec, z), as_point(spec, w)))


def exact_distance_model(spec: DomainSpec, z, w) -> float:
    return math.atanh(min(tanh_distance_model(spec, z, w), 1.0 - 1e-16))


def tanh_distance_model_batch(spec: DomainSpec, z, pts: np.ndarray) -> np.ndarray:
    """Vectorized pseudohyperbolic distance from one point to a batch."""
    if spec.kind not in ("disk", "ball"):
        raise CapabilityError(f"no exact Kobayashi distance for kind {spec.kind!r}")
    z = as_point(spec, z)
    return pseudo_distance_matrix(np.asarray(pts, dtype=complex), z[None, :])[:, 0]


def pseudo_distance_matrix(pts: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """Unit-ball pseudo-distances tanh d_B, pts (B,n) x centers (K,n), from
    1 - rho^2 = (1-|p|^2)(1-|c|^2) / |1-<p,c>|^2.  For small rho this form
    carries an absolute error of about sqrt(eps); _ball_pd does not."""
    out = np.empty((len(pts), len(centers)))
    for rows, cols, num, den in _pair_tiles(pts, centers):
        rho2 = 1.0 - num / den
        out[rows, cols] = np.sqrt(np.clip(rho2, 0.0, None, out=rho2), out=rho2)
    return out


def _pair_pd(z: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Unit-ball pseudo-distances of paired batches z, w (k, n), elementwise,
    in the quotient form of pseudo_distance_matrix (the disk and ball values)."""
    inner = np.sum(z * np.conj(w), axis=-1)
    z2 = (z.real**2 + z.imag**2).sum(axis=-1)
    w2 = (w.real**2 + w.imag**2).sum(axis=-1)
    rho2 = 1.0 - (1.0 - z2) * (1.0 - w2) / np.abs(1.0 - inner) ** 2
    return np.sqrt(np.clip(rho2, 0.0, None))


def _ball_pd(p, q) -> np.ndarray:
    """Unit-ball pseudo-distances of paired batches given by coordinates,
    p = (p_1, ..., p_n) and q alike, elementwise, in the cancellation-free
    form (|p-q|^2 - |p ^ q|^2) / |1 - <p,q>|^2 with |p ^ q|^2 =
    sum_{i<j} |p_i q_j - p_j q_i|^2 (Lagrange identity); accurate to
    rounding also at distances far below sqrt(eps)."""
    n = len(p)
    diff = sum(np.abs(p[i] - q[i]) ** 2 for i in range(n))
    wedge = sum(np.abs(p[i] * q[j] - p[j] * q[i]) ** 2 for i in range(n) for j in range(i + 1, n))
    den = 1.0
    for i in range(n):
        den = den - p[i] * np.conj(q[i])
    rho2 = (diff - wedge) / np.abs(den) ** 2
    return np.sqrt(np.clip(rho2, 0.0, 1.0))


# ---------------------------------------------------------------------------
# the unit-ball threshold test rho_B(p, c) < r, tile by tile
#
# Each tile of b x k pairs comes from one real matrix product,
#   [Re p, Im p, 1] (b, 2n+1) @ t [[-Re c, -Im c, 1], [Im c, -Re c, 0]]^T (2, 2n+1, k)
#     = t [1 - Re <p,c>, -Im <p,c>]  (2, b, k),
# whose squares sum to t^2 |1-<p,c>|^2; with t^2 = 1 - r^2 the test
# (1-|p|^2)(1-|c|^2) > (1-r^2) |1-<p,c>|^2 needs no square root.  For |p|,
# |c| < 1 the difference of the two sides (the margin) is computed with an
# absolute error below (24n + 58) eps, whatever the order of the sums, and a
# pair within twice that of the threshold is decided by _ball_pd instead.
# So the answer never depends on how the pairs are blocked, and it stays
# right at radii far below sqrt(eps), where the quotient form fails.
#
# A tile holds about _PRODUCT / (2n+1) pairs, so each half of a product has
# at most _PRODUCT multiply-adds: its width is capped so that min(B, 16) rows
# fit, and its height fills the rest (16 rows against many centers, 349
# against 250 centers on the disk, 52428 against one center in the 2-ball).
# On 2 cores
# OpenBLAS ran halves of 2^20 on two threads, which doubled the CPU time of
# the tile loop and raised its wall time 1.3-4x (the elementwise work after
# each product competes with the spinning BLAS worker); 2^18 stays clear of
# that at about 5% more wall time than 2^19.
_PRODUCT = 1 << 18


def _pair_tiles(pts: np.ndarray, centers: np.ndarray, scale: float = 1.0):
    """Yield (rows, cols, num, den) over tiles of pts[rows] x centers[cols]:
    num = (1-|p|^2)(1-|c|^2) and den = scale^2 |1-<p,c>|^2."""
    count, k_all = len(pts), len(centers)
    if not count or not k_all:
        return
    depth = 2 * pts.shape[1] + 1
    pairs = max(1, _PRODUCT // depth)
    width = max(1, min(k_all, pairs // min(count, 16)))
    height = max(1, pairs // width)
    prow = np.concatenate([pts.real, pts.imag, np.ones((count, 1))], axis=1)
    re_c, im_c = scale * centers.real.T, scale * centers.imag.T
    p_room = 1.0 - (pts.real**2 + pts.imag**2).sum(axis=1)
    c_room = 1.0 - (centers.real**2 + centers.imag**2).sum(axis=1)
    for j in range(0, k_all, width):
        cols = slice(j, j + width)
        k = min(width, k_all - j)
        ccol = np.stack([
            np.vstack([-re_c[:, cols], -im_c[:, cols], np.full((1, k), scale)]),
            np.vstack([im_c[:, cols], -re_c[:, cols], np.zeros((1, k))]),
        ])
        for i in range(0, count, height):
            rows = slice(i, i + height)
            x, y = prow[rows] @ ccol
            x *= x
            y *= y
            x += y
            yield rows, cols, np.multiply.outer(p_room[rows], c_room[cols]), x


def _within(pts: np.ndarray, centers: np.ndarray, r: float) -> np.ndarray:
    """(B, K) bool: unit-ball pseudo-distance rho_B(p, c) < r, for points
    and centers in the unit ball."""
    out = np.zeros((len(pts), len(centers)), dtype=bool)
    slack = 2.0 * (24 * pts.shape[-1] + 58) * np.finfo(float).eps
    for rows, cols, num, den in _pair_tiles(pts, centers, math.sqrt(1.0 - r * r)):
        num -= den  # the margin |1-<p,c>|^2 (r^2 - rho^2)
        block = out[rows, cols]
        np.greater(num, slack, out=block)
        loose = num >= -slack
        if np.count_nonzero(loose) > np.count_nonzero(block):  # some |margin| <= slack
            i, j = np.nonzero(loose & ~block)
            i += rows.start
            j += cols.start
            out[i, j] = _ball_pd(pts[i].T, centers[j].T) < r
    return out


def mobius_translation(spec: DomainSpec, a, w) -> np.ndarray:
    """Automorphism of the disk/ball swapping 0 and a; acts on batches (..., n)."""
    if spec.kind not in ("disk", "ball"):
        raise CapabilityError(f"no Mobius translation for kind {spec.kind!r}")
    a = as_point(spec, a)
    w = np.asarray(w, dtype=complex)
    aa = float(np.vdot(a, a).real)
    if aa < 1e-28:
        return -w
    s = math.sqrt(1.0 - aa)
    wa = w @ np.conj(a)  # <w, a>
    proj = (wa / aa)[..., None] * a
    orth = w - proj
    return (a - proj - s * orth) / (1.0 - wa)[..., None]


# ---------------------------------------------------------------------------
# exact distance on the (1, m) complex ellipsoid
#
# After rescaling, E = {|z1|^2 + |z2|^(2m) < 1}.  Phi(z) = (z1, z2^m) maps E
# onto the unit ball, so the ball distance of the images is a lower bound.  A
# complex geodesic of E either avoids the axis {z2 = 0}, and is then the m-th
# root lift of a ball geodesic, or crosses it at some (b, 0); the automorphism
#   phi_b(z) = ((z1 - b)/(1 - conj(b) z1), (1-|b|^2)^(1/2m) z2 / (1 - conj(b) z1)^(1/m))
# moves the crossing to the origin, where geodesics of the balanced domain E
# are linear discs (Jarnicki-Pflug-Zeinstra, "Geodesics for convex complex
# ellipsoids", 1993).

_NEWTON_STEPS = 60
_EARLY_CHECKS = 2
_EDGE = 1e-6
_CLOSED = 1e-12
_PAIR_CHUNK = 1 << 14


def _ellipsoid_1m_order(spec: DomainSpec) -> tuple[list[int], int] | None:
    """(coordinate order, m) when spec is {|z_i/a_i|^2 + |z_j/a_j|^(2m) < 1}
    in C^2 (coordinate i first), else None."""
    if spec.kind != "ellipsoid" or spec.dim != 2 or 1 not in spec.exponents:
        return None
    i = spec.exponents.index(1)
    return [i, 1 - i], spec.exponents[1 - i]


def has_exact_distance(spec: DomainSpec) -> bool:
    """Disk, ball and (1, m) ellipsoid carry the exact distance oracle."""
    return spec.kind in ("disk", "ball") or _ellipsoid_1m_order(spec) is not None


def _normalize_1m(spec: DomainSpec, pts) -> tuple[np.ndarray, int]:
    """Points of a (1, m) ellipsoid mapped onto {|z1|^2 + |z2|^(2m) < 1}."""
    order, m = _ellipsoid_1m_order(spec)
    pts = np.asarray(pts, dtype=complex)
    return pts[..., order] / np.asarray(spec.semi_axes)[order], m


def _disc_pd(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.abs(a - b) / np.abs(1.0 - np.conj(a) * b)


def _minkowski_1m(x1: np.ndarray, x2: np.ndarray, m: int) -> np.ndarray:
    """Minkowski functional h of {|z1|^2 + |z2|^(2m) < 1}: s = h^2 solves
    a/s + c^m/s^m = 1 with a = |x1|^2, c = |x2|^2."""
    a = np.abs(x1) ** 2
    c = np.abs(x2) ** 2
    if m == 2:
        return np.sqrt(0.5 * (a + np.sqrt(a * a + 4.0 * c * c)))
    # g(s) = a/s + (c/s)^m - 1 is convex decreasing and s lies in
    # [max(a, c), a + c], so Newton from the left end rises monotonically
    s = np.maximum(a, c)
    pos = s > 0.0
    s = np.where(pos, s, 1.0)
    for _ in range(_NEWTON_STEPS):
        g = a / s + (c / s) ** m - 1.0
        dg = -(a / s + m * (c / s) ** m) / s
        step = -g / dg
        s = s + step
        if np.all(np.abs(step) <= 1e-16 * s):
            break
    return np.where(pos, np.sqrt(s), 0.0)


def _root(x: np.ndarray, m: int) -> np.ndarray:
    """Principal m-th root (np.sqrt is several times faster than a power)."""
    return np.sqrt(x) if m == 2 else x ** (1.0 / m)


def _phi_b(b: np.ndarray, x1: np.ndarray, x2: np.ndarray, m: int) -> tuple[np.ndarray, np.ndarray]:
    d = 1.0 - np.conj(b) * x1
    return (x1 - b) / d, _root(1.0 - np.abs(b) ** 2, 2 * m) * x2 / _root(d, m)


def _newton_step(z1, z2, w1, w2, b: np.ndarray, m: int) -> np.ndarray:
    """One Newton step for b with phi_b(z) and phi_b(w) complex collinear:
    F(b) = (z1-b) w2 (1-conj(b) w1)^p - (w1-b) z2 (1-conj(b) z1)^p = 0 with
    p = 1 - 1/m.  F is not holomorphic in b, so the step solves the real 2x2
    system F + F_b db + F_bbar conj(db) = 0; it is cut to stay in the disc."""
    p = 1.0 - 1.0 / m
    ez = 1.0 - np.conj(b) * z1
    ew = 1.0 - np.conj(b) * w1
    tz = z2 * ez / _root(ez, m)  # z2 ez^p
    tw = w2 * ew / _root(ew, m)
    f = (z1 - b) * tw - (w1 - b) * tz
    f_b = tz - tw
    f_bbar = p * ((w1 - b) * tz * z1 / ez - (z1 - b) * tw * w1 / ew)
    with np.errstate(divide="ignore", invalid="ignore"):
        step = (np.conj(f) * f_bbar - f * np.conj(f_b)) / (np.abs(f_b) ** 2 - np.abs(f_bbar) ** 2)
    step = np.where(np.isfinite(step), step, 0.0)
    room = 0.5 * (1.0 - np.abs(b))
    size = np.abs(step)
    return np.where(size > room, step * (room / np.where(size > 0.0, size, 1.0)), step)


def _crossing(z1, z2, w1, w2, b: np.ndarray, m: int, r: float | None) -> tuple[np.ndarray, np.ndarray]:
    """Newton on b from the start b, then the bracket at the last iterate.

    With a threshold r, a pair also stops once its bracket at an early iterate
    lies on one side of r: the ends are bounds at every b, so membership in
    the r-ball is already decided there."""
    b = b.copy()
    low = np.zeros(len(b))
    high = np.ones(len(b))
    pending = np.ones(len(b), dtype=bool)  # bracket still to take at the final b
    active = np.arange(len(b))
    for k in range(_NEWTON_STEPS):
        args = (z1[active], z2[active], w1[active], w2[active])
        step = _newton_step(*args, b[active], m)
        b[active] += step
        moving = np.abs(step) > 1e-15
        if r is not None and k < _EARLY_CHECKS:
            lo, hi = _crossing_bracket(*args, b[active], m)
            low[active], high[active] = lo, hi
            decided = (hi < r) | (lo >= r)
            pending[active[decided]] = False
            moving &= ~decided
        active = active[moving]
        if not len(active):
            break
    rest = np.flatnonzero(pending)
    low[rest], high[rest] = _crossing_bracket(z1[rest], z2[rest], w1[rest], w2[rest], b[rest], m)
    return low, high


def _crossing_bracket(z1, z2, w1, w2, b: np.ndarray, m: int) -> tuple[np.ndarray, np.ndarray]:
    """Bracket from the linear disc through phi_b(z) or phi_b(w), valid at any b.

    Let x, y be the two images, named so that h(x) >= h(y): the direction of
    the larger one is the better conditioned.  With u = x / h(x) and nu the
    normal at u, the map xi -> <xi, nu> / <u, nu> sends E into the unit disc
    and fixes the disc lambda u, giving the lower bound.  The upper bound runs
    along lambda u from x to the projection y' of y onto C u, then along the
    segment [y', y], where the Kobayashi metric is at most |v| / (1 - h)
    because E contains the unit ball.  At a root of F, y' = y and the two
    bounds coincide."""
    x1, x2 = _phi_b(b, z1, z2, m)
    y1, y2 = _phi_b(b, w1, w2, m)
    hx = _minkowski_1m(x1, x2, m)
    hy = _minkowski_1m(y1, y2, m)
    swap = hy > hx
    x1, y1 = np.where(swap, y1, x1), np.where(swap, x1, y1)
    x2, y2 = np.where(swap, y2, x2), np.where(swap, x2, y2)
    hx, hy = np.maximum(hx, hy), np.minimum(hx, hy)
    with np.errstate(divide="ignore", invalid="ignore"):
        u1, u2 = x1 / hx, x2 / hx
        n1, n2 = u1, m * np.abs(u2) ** (2 * m - 2) * u2
        ly = (y1 * np.conj(n1) + y2 * np.conj(n2)) / (u1 * np.conj(n1) + u2 * np.conj(n2))
        lam = (y1 * np.conj(u1) + y2 * np.conj(u2)) / (np.abs(u1) ** 2 + np.abs(u2) ** 2)
        gap = np.sqrt(np.abs(y1 - lam * u1) ** 2 + np.abs(y2 - lam * u2) ** 2)
        depth = 1.0 - np.maximum(hy, np.abs(lam))
        high = np.tanh(np.arctanh(np.minimum(_disc_pd(hx + 0j, lam), 1.0)) + gap / depth)
        # As |b| -> 1 the images approach the boundary and the disc distances
        # lose all precision (relative error ~ eps / (1 - |l|)); keep clear.
        usable = np.maximum(hx, np.abs(ly)) < 1.0 - _EDGE
        low = np.where(usable, _disc_pd(hx + 0j, ly), 0.0)
    high = np.where(usable & (depth > 0.0) & np.isfinite(high), high, 1.0)
    return np.where(np.isfinite(low), low, 0.0), high


def _bracket_1m(
    z: np.ndarray, w: np.ndarray, m: int, r: float | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Elementwise bracket [low, high] on tanh k_E(z, w) for normalized pairs
    z, w of shape (k, 2); with r, refinement stops once r is decided."""
    z1, z2, w1, w2 = z[:, 0], z[:, 1], w[:, 0], w[:, 1]
    p2, q2 = z2**m, w2**m
    low = _ball_pd((z1, p2), (w1, q2))
    if m == 1:
        return low, low.copy()
    high = np.ones_like(low)

    # lift case: the line through Phi z, Phi w meets {second coordinate 0}
    # outside the ball and the root branch continued from z2 reaches w2
    with np.errstate(divide="ignore", invalid="ignore"):
        zeta0 = p2 / (p2 - q2)
        zero_outside = ~(np.abs(z1 + zeta0 * (w1 - z1)) < 1.0)
        ratio = w2 / z2
        branch = np.abs(_root(q2 / p2, m) - ratio) < math.sin(math.pi / m) * np.abs(ratio)
    off_axis = (z2 != 0.0) & (w2 != 0.0)
    lift = off_axis & zero_outside & branch
    high[lift] = low[lift]

    # axis points: tanh k((a, 0), w) = h(phi_a(w))
    for a, other, on_axis in ((z, w, z2 == 0.0), (w, z, (w2 == 0.0) & (z2 != 0.0))):
        if on_axis.any():
            o1, o2 = _phi_b(a[on_axis, 0], other[on_axis, 0], other[on_axis, 1], m)
            low[on_axis] = high[on_axis] = _minkowski_1m(o1, o2, m)

    cross = off_axis & ~lift
    if r is not None:
        # pairs that r already puts outside skip Newton: (z1, z2) -> z2 maps
        # E into the unit disc, so tanh k_E >= rho_D(z2, w2)
        disc = _disc_pd(z2, w2)
        far = cross & (disc >= r)
        low[far] = np.maximum(low[far], disc[far])
        cross &= ~far
    cross = np.flatnonzero(cross)
    if len(cross):
        c1, c2, d1, d2 = z1[cross], z2[cross], w1[cross], w2[cross]
        e2, f2 = p2[cross], q2[cross]
        # start from the axis crossing of the ball geodesic through Phi z, Phi w
        with np.errstate(divide="ignore", invalid="ignore"):
            b0 = (c1 * f2 - d1 * e2) / (f2 - e2)
        b0 = np.where(np.isfinite(b0), b0, 0.0)
        size = np.abs(b0)
        b0 = np.where(size > 0.95, 0.95 * b0 / np.where(size > 0.0, size, 1.0), b0)
        lo, hi = _crossing(c1, c2, d1, d2, b0, m, r)
        lo = np.maximum(low[cross], lo)
        # a start that drifts to the circle finds no root; retry once from 0
        # and keep the tighter ends (both brackets are valid)
        again = hi - lo > _CLOSED
        if r is not None:
            again &= (lo < r) & (hi >= r)
        if again.any():
            k = np.flatnonzero(again)
            lo2, hi2 = _crossing(c1[k], c2[k], d1[k], d2[k], np.zeros(len(k), dtype=complex), m, r)
            lo[k] = np.maximum(lo[k], lo2)
            hi[k] = np.minimum(hi[k], hi2)
        low[cross] = lo
        high[cross] = hi
    # E contains the unit ball B, so tanh k_E <= rho_B on B x B
    k = np.flatnonzero(high - low > _CLOSED)
    a, b = z[k], w[k]
    in_ball = ((a.real**2 + a.imag**2).sum(axis=1) < 1.0) & ((b.real**2 + b.imag**2).sum(axis=1) < 1.0)
    high[k[in_ball]] = np.minimum(high[k[in_ball]], _ball_pd(a[in_ball].T, b[in_ball].T))
    return low, high


def _images(spec: DomainSpec, pts: np.ndarray) -> tuple[np.ndarray, np.ndarray, int]:
    """(normalized points, images, m) on an oracle domain.  The unit-ball
    pseudo-distance of the images bounds tanh d_K from below: they are the
    points themselves on the disk and ball (exact there), Phi of the
    normalized points on the (1, m) ellipsoid."""
    if spec.kind in ("disk", "ball"):
        return pts, pts, 1
    pn, m = _normalize_1m(spec, pts)
    return pn, np.stack([pn[:, 0], pn[:, 1] ** m], axis=1), m


def tanh_distance_bracket(spec: DomainSpec, z, w) -> tuple[np.ndarray, np.ndarray]:
    """Bracket [low, high] on tanh d_K(z, w) for paired batches z, w (k, n)
    (broadcast against each other) on the domains with the exact oracle.

    On the disk and ball both ends are the exact value.  On a (1, m)
    ellipsoid the bracket closes to rounding (about 1e-12) for all but a few
    pairs in 10^4; both ends are true bounds at every Newton iterate, so an
    unconverged pair only leaves an open bracket.  Other domains raise
    CapabilityError.
    """
    if not has_exact_distance(spec):
        raise CapabilityError(f"no distance bracket for {spec.kind!r} {spec.exponents}")
    z, w = np.broadcast_arrays(
        np.atleast_2d(np.asarray(z, dtype=complex)), np.atleast_2d(np.asarray(w, dtype=complex))
    )
    if spec.kind in ("disk", "ball"):
        rho = _pair_pd(z, w)
        return rho, rho.copy()
    zn, m = _normalize_1m(spec, z)
    wn, _ = _normalize_1m(spec, w)
    return _bracket_1m(zn, wn, m)


# ---------------------------------------------------------------------------
# one ball test, one greedy loop and one separation for every domain
#
# Domains with the oracle answer from it.  Elsewhere the answer comes from the
# minimal frame (e_i, sigma_i) at the center z0 through the frame gauge
# g(z) = max_i |<z - z0, e_i>| / sigma_i and the polydisk sandwich
# {g <= r/n} in B(z0, r) in {g <= 2r/(1-r)}.

_GREEDY_CHUNK = 256
_COUNT_CHUNK = 1024
# the pseudo_distance_matrix form of a small distance rho carries an absolute
# rounding error up to about sqrt(eps); a lower bound is trusted only above it
_LOWER_SLACK = 1e-7


def _sandwich_scales(r: float, n: int) -> tuple[float, float]:
    """Gauge thresholds of the inner and outer polydisks of B(z0, r)."""
    return r / n, 2.0 * r / (1.0 - r)


def _stack(centers: np.ndarray, frames: list[MinimalFrame]) -> Polydisk:
    """Minimal frames of the centers as one stacked Polydisk with radii sigma."""
    n = centers.shape[1]
    basis = np.array([f.basis for f in frames]).reshape(-1, n, n)
    sigma = np.array([f.sigma for f in frames]).reshape(-1, n)
    return Polydisk(center=centers, basis=basis, radii=sigma)


def _frame_stack(spec: DomainSpec, centers: np.ndarray) -> Polydisk:
    return _stack(centers, [minimal_frame(spec, c) for c in centers])


def _gauge(pts: np.ndarray, frames: Polydisk) -> np.ndarray:
    """(B, K) frame gauges of pts against K stacked frames, in blocks of
    about _PAIR_CHUNK pairs."""
    out = np.empty((len(pts), len(frames.center)))
    step = max(1, _PAIR_CHUNK // max(1, len(frames.center)))
    for start in range(0, len(pts), step):
        out[start : start + step] = geometry.polydisk_gauge(frames, pts[start : start + step])
    return out


def _relate(spec: DomainSpec, pts, centers, r: float, frames: Polydisk | None):
    """ball_relation for centers whose frames are already known (None on the
    domains with the oracle)."""
    if frames is None:
        return ball_relation(spec, pts, centers, r)
    gauge = _gauge(pts, frames)
    inner, outer = _sandwich_scales(r, spec.dim)
    return gauge <= inner, gauge <= outer


def ball_relation(
    spec: DomainSpec, pts: np.ndarray, centers: np.ndarray, r: float
) -> tuple[np.ndarray, np.ndarray]:
    """Pairwise (inside, maybe) for pts (B,n) against Kobayashi balls of
    tanh-radius r around centers (K,n): inside is certified tanh d < r, maybe
    is "not certified >= r" (inside or Uncertain).

    Disk and ball answer exactly, from the threshold test _within (the same
    array is returned twice).  On the (1, m) ellipsoid that test on the
    Phi-images prefilters the pairs and only those below r go through the
    oracle, in blocks of _PAIR_CHUNK pairs.  Other domains use the polydisk
    sandwich in each center's minimal frame.  The answer for a pair does not
    depend on the other pairs of the call.
    """
    if not 0.0 < r < 1.0:
        raise InputError(f"tanh radius must lie in (0, 1), got {r}")
    pts = np.asarray(pts, dtype=complex)
    centers = np.asarray(centers, dtype=complex)
    if not has_exact_distance(spec):
        return _relate(spec, pts, centers, r, _frame_stack(spec, centers))
    pn, phi_p, m = _images(spec, pts)
    cn, phi_c, _ = _images(spec, centers)
    maybe = _within(phi_p, phi_c, r)
    if spec.kind in ("disk", "ball"):
        return maybe, maybe
    inside = np.zeros_like(maybe)
    inside_flat, maybe_flat = inside.reshape(-1), maybe.reshape(-1)  # views
    pairs = np.flatnonzero(maybe_flat)
    for start in range(0, len(pairs), _PAIR_CHUNK):
        k = pairs[start : start + _PAIR_CHUNK]
        i, j = np.divmod(k, len(centers))
        low, high = _bracket_1m(pn[i], cn[j], m, r)
        inside_flat[k] = high < r
        maybe_flat[k] = (low < r) | (high < r)
    return inside, maybe


def ball_counts(
    spec: DomainSpec, pts: np.ndarray, centers: np.ndarray, r: float
) -> tuple[np.ndarray, np.ndarray]:
    """Per point of pts: how many tanh-radius-r balls around centers certainly
    contain it (inside), and how many may (maybe).  ball_relation runs on
    blocks of _COUNT_CHUNK points; each center's frame is computed once."""
    frames = None if has_exact_distance(spec) else _frame_stack(spec, centers)
    inside_n = np.zeros(len(pts), dtype=int)
    maybe_n = np.zeros(len(pts), dtype=int)
    for start in range(0, len(pts), _COUNT_CHUNK):
        # only the sums outlive the block, so no relation matrix is held
        # while the next one is computed
        block = slice(start, start + _COUNT_CHUNK)
        inside_n[block], maybe_n[block] = (
            relation.sum(axis=1) for relation in _relate(spec, pts[block], centers, r, frames)
        )
    return inside_n, maybe_n


def greedy_separated(spec: DomainSpec, pts: np.ndarray, r: float) -> np.ndarray:
    """Indices of the greedy maximal r-separated subset of pts, taken in order.

    A point is kept when ball_relation certifies it outside the tanh-radius-r
    ball of every point kept before it, so kept points are pairwise certified
    >= r apart, and every other point may lie within r of a kept one.  Points
    go in chunks of _GREEDY_CHUNK: a chunk is tested against the points kept
    before it in one call, and its survivors against each other in a second;
    the accept loop then reads that survivors x survivors relation.  The
    relation is elementwise, so the kept points are those of one call per
    point.  Without the oracle the minimal frame of each survivor is computed
    once and kept with the point.
    """
    frames: list[MinimalFrame] | None = None if has_exact_distance(spec) else []
    kept: list[int] = []

    def relation(batch: np.ndarray, centers: np.ndarray, own: list[MinimalFrame] | None) -> np.ndarray:
        stack = None if own is None else _stack(centers, own)
        return _relate(spec, batch, centers, r, stack)[1]

    for start in range(0, len(pts), _GREEDY_CHUNK):
        batch = pts[start : start + _GREEDY_CHUNK]
        free = np.flatnonzero(~relation(batch, pts[kept], frames).any(axis=1))
        survivors = batch[free]
        own = None if frames is None else [minimal_frame(spec, p) for p in survivors]
        within = relation(survivors, survivors, own)
        taken: list[int] = []
        for k in range(len(free)):
            if not within[k, taken].any():
                taken.append(k)
        kept.extend((start + free[taken]).tolist())
        if frames is not None:
            frames.extend(own[k] for k in taken)
    return np.array(kept, dtype=int)


def min_tanh_distance(spec: DomainSpec, pts: np.ndarray) -> float:
    """Minimum over pairs of the lower end of the tanh-distance bracket:
    exact on the disk and ball, the oracle's bracket on the (1, m) ellipsoid,
    the frame bound elsewhere.  Fewer than two points give +inf.

    With the oracle, each block of rows sends its pairs through
    tanh_distance_bracket in increasing order of the ball distance of their
    images, a lower bound, until that bound passes the best value found.
    Elsewhere the larger frame gauge g of the two points in each other's
    frames gives tanh d >= g / (2 + g), the inverse of the outer scale."""
    count = len(pts)
    if count < 2:
        return math.inf
    if not has_exact_distance(spec):
        gauge = _gauge(pts, _frame_stack(spec, pts))
        gauge = np.maximum(gauge, gauge.T)
        np.fill_diagonal(gauge, np.inf)
        g = float(gauge.min())
        return g / (2.0 + g)
    _, images, _ = _images(spec, pts)
    best = math.inf
    step = max(1, _PAIR_CHUNK // count)
    for start in range(0, count - 1, step):
        lower = pseudo_distance_matrix(images[start : start + step], images)
        i, j = np.nonzero(np.triu(lower <= best + _LOWER_SLACK, start + 1))  # pairs i < j
        order = np.argsort(lower[i, j], kind="stable")
        i, j, bound = i[order], j[order], lower[i[order], j[order]]
        for first in range(0, len(i), _PAIR_CHUNK):
            if bound[first] > best + _LOWER_SLACK:
                break
            k = slice(first, first + _PAIR_CHUNK)
            low, _ = tanh_distance_bracket(spec, pts[start + i[k]], pts[j[k]])
            best = min(best, float(low.min()))
    return best


# ---------------------------------------------------------------------------
# batched line distances (quadrature backend)


def _line_distance_batch(
    spec: DomainSpec,
    pts: np.ndarray,
    direction: np.ndarray,
    phases: int = _BATCH_PHASES,
) -> np.ndarray:
    """Distance to the boundary within z + C*direction for each z in pts.

    Vectorized phase-grid bisection plus one parabolic phase refinement pass;
    relative accuracy around 1e-6, adequate for path quadrature.
    """
    pts = np.asarray(pts, dtype=complex)
    v = np.asarray(direction, dtype=complex)
    v = v / np.linalg.norm(v)

    if spec.kind in ("disk", "ball"):
        b = pts @ np.conj(v)  # <z, v>
        sq = (pts.real**2 + pts.imag**2).sum(axis=-1)
        return np.sqrt(np.abs(b) ** 2 + 1.0 - sq) - np.abs(b)

    m = pts.shape[0]
    theta = np.linspace(0.0, 2.0 * math.pi, phases, endpoint=False)
    dirs = np.exp(1j * theta)[None, :, None] * v[None, None, :]  # (1, phases, n)

    def g(t: np.ndarray) -> np.ndarray:  # t: (m, phases)
        probe = pts[:, None, :] + t[..., None] * dirs
        return domains._value_batch(spec, probe)

    tmax = 2.0 * float(np.sum(2.0 * np.asarray(spec.box))) + 1.0
    hi = np.full((m, phases), tmax)
    for _ in range(8):
        bad = g(hi) <= 0.0
        if not bad.any():
            break
        hi[bad] *= 2.0
    lo = np.zeros((m, phases))
    for _ in range(48):
        mid = 0.5 * (lo + hi)
        pos = g(mid) > 0.0
        hi = np.where(pos, mid, hi)
        lo = np.where(pos, lo, mid)
    roots = 0.5 * (lo + hi)

    # parabolic refinement of the best phase per point
    jbest = np.argmin(roots, axis=1)
    rows = np.arange(m)
    r0 = roots[rows, (jbest - 1) % phases]
    r1 = roots[rows, jbest]
    r2 = roots[rows, (jbest + 1) % phases]
    denom = r0 - 2.0 * r1 + r2
    shift = np.where(np.abs(denom) > 1e-30, 0.5 * (r0 - r2) / np.where(denom == 0, 1, denom), 0.0)
    shift = np.clip(shift, -1.0, 1.0)
    span = 2.0 * math.pi / phases
    theta_ref = theta[jbest] + shift * span
    dirs_ref = np.exp(1j * theta_ref)[:, None] * v[None, :]

    hi1 = np.maximum(r1 * 1.5, 1e-12)
    vals = domains._value_batch(spec, pts + hi1[:, None] * dirs_ref)
    for _ in range(8):
        bad = vals <= 0.0
        if not bad.any():
            break
        hi1[bad] *= 2.0
        vals = domains._value_batch(spec, pts + hi1[:, None] * dirs_ref)
    lo1 = np.zeros(m)
    for _ in range(48):
        mid = 0.5 * (lo1 + hi1)
        pos = domains._value_batch(spec, pts + mid[:, None] * dirs_ref) > 0.0
        hi1 = np.where(pos, mid, hi1)
        lo1 = np.where(pos, lo1, mid)
    refined = 0.5 * (lo1 + hi1)
    return np.minimum(roots.min(axis=1), refined)


# ---------------------------------------------------------------------------
# distance upper bounds via piecewise-linear paths


_gauss_cache: dict[int, tuple[np.ndarray, np.ndarray]] = {}


def _gauss01(nodes: int) -> tuple[np.ndarray, np.ndarray]:
    if nodes not in _gauss_cache:
        x, w = leggauss(nodes)
        _gauss_cache[nodes] = (0.5 * (x + 1.0), 0.5 * w)
    return _gauss_cache[nodes]


def _segment_upper_length(spec: DomainSpec, a: np.ndarray, b: np.ndarray, nodes: int) -> float:
    """Integral of the upper metric |gamma'| / delta(gamma; gamma') along [a,b]."""
    delta_vec = b - a
    length = float(np.linalg.norm(delta_vec))
    if length == 0.0:
        return 0.0
    t, w = _gauss01(nodes)
    probe = a[None, :] + t[:, None] * delta_vec[None, :]
    if np.any(domains._value_batch(spec, probe) >= 0.0):
        return math.inf
    dists = _line_distance_batch(spec, probe, delta_vec)
    return float(np.sum(w * length / dists))


def _path_upper_length(spec: DomainSpec, knots: np.ndarray, nodes: int) -> float:
    total = 0.0
    for i in range(len(knots) - 1):
        total += _segment_upper_length(spec, knots[i], knots[i + 1], nodes)
        if not math.isfinite(total):
            return math.inf
    return total


def distance_upper(
    spec: DomainSpec,
    z,
    w,
    refinement: int = 2,
    nodes: int = _GAUSS_NODES,
) -> float:
    """Estimate of an upper bound on d_K(z, w): the upper-metric length of a
    short piecewise-linear path.  It is not a certified bound: the phase-grid
    line distance can overestimate delta, and the Gauss quadrature of 1/delta
    carries no error bound, so the value can fall below the true distance.

    Minimizes the upper-metric length over piecewise-linear paths; level L has
    2^L - 1 movable interior knots, warm-started by subdividing the previous
    level, so the bound is nonincreasing in ``refinement``.
    """
    z = as_point(spec, z)
    w = as_point(spec, w)
    for p in (z, w):
        if not float(defining_value(spec, p)) < 0.0:
            raise InputError("distance_upper expects interior endpoints")
    if refinement < 0:
        raise ConfigError(f"refinement must be >= 0, got {refinement}")

    knots = np.array([z, w])
    best = _path_upper_length(spec, knots, nodes)
    for _ in range(refinement):
        mid = 0.5 * (knots[:-1] + knots[1:])
        knots = np.concatenate([np.stack([knots[i], mid[i]]) for i in range(len(mid))] + [knots[-1:]])
        knots, value = _descend_knots(spec, knots, nodes)
        best = min(best, value)
    return best


def _descend_knots(spec: DomainSpec, knots: np.ndarray, nodes: int) -> tuple[np.ndarray, float]:
    """Coordinate descent over interior knots until improvement < 1e-6."""
    knots = knots.copy()
    current = _path_upper_length(spec, knots, nodes)
    for _ in range(8):
        improved = 0.0
        for i in range(1, len(knots) - 1):
            a, b = knots[i - 1], knots[i + 1]
            local = _segment_upper_length(spec, a, knots[i], nodes) + _segment_upper_length(
                spec, knots[i], b, nodes
            )

            def objective(x: np.ndarray) -> float:
                p = domains.to_complex(x)
                value = _segment_upper_length(spec, a, p, nodes) + _segment_upper_length(
                    spec, p, b, nodes
                )
                # finite penalty keeps Powell's parabolic steps well defined
                return value if math.isfinite(value) else 1e12

            res = optimize.minimize(
                objective,
                domains.to_real(knots[i]),
                method="Powell",
                options={"maxfev": 80 * knots.shape[1], "xtol": 1e-8, "ftol": 1e-9},
            )
            if res.fun < local:
                improved += local - res.fun
                knots[i] = domains.to_complex(res.x)
        current = _path_upper_length(spec, knots, nodes)
        if improved < 1e-6:
            break
    return knots, current


# ---------------------------------------------------------------------------
# Kobayashi balls: polydisk sandwich and membership


@dataclass(frozen=True)
class BallSandwich:
    """Certified polydisk sandwich of the Kobayashi ball B_D(center, radius)."""

    center: np.ndarray
    radius: float
    frame: MinimalFrame
    inner: Polydisk
    outer: Polydisk


def ball_sandwich(spec: DomainSpec, z0, r: float, frame: MinimalFrame | None = None) -> BallSandwich:
    """Polydisk sandwich (r/n) D^n(sigma)  subset  B_D(z0,r)  subset  (2r/(1-r)) D^n(sigma)."""
    if not 0.0 < r < 1.0:
        raise InputError(f"tanh radius must lie in (0, 1), got {r}")
    z0 = as_point(spec, z0)
    frame = frame if frame is not None else minimal_frame(spec, z0)
    inner, outer = _sandwich_scales(r, spec.dim)
    return BallSandwich(
        center=z0,
        radius=r,
        frame=frame,
        inner=geometry.frame_polydisk(frame, inner),
        outer=geometry.frame_polydisk(frame, outer),
    )


def ball_membership(spec: DomainSpec, z0, r: float, z) -> str:
    """Classify z against the Kobayashi ball B_D(z0, r): inside/outside/uncertain
    (ball_relation for one point and one center)."""
    z0 = as_point(spec, z0)
    z = as_point(spec, z)
    inside, maybe = ball_relation(spec, z[None, :], z0[None, :], r)
    if inside[0, 0]:
        return INSIDE
    return UNCERTAIN if maybe[0, 0] else OUTSIDE


def bracket_tanh_distance(spec: DomainSpec, x, y, with_upper: bool = False) -> tuple[float, float]:
    """Bracket [low, high] for tanh d_K(x, y): tanh_distance_bracket on the
    domains with the oracle, min_tanh_distance of the pair (with high = 1)
    elsewhere.  With ``with_upper`` an open high end is replaced by the
    straight-segment estimate of distance_upper, which is not a certified
    bound.
    """
    x = as_point(spec, x)
    y = as_point(spec, y)
    if has_exact_distance(spec):
        low, high = (float(end[0]) for end in tanh_distance_bracket(spec, x, y))
        low = min(low, high)  # a closed bracket may cross by a rounding error
    else:
        low, high = min_tanh_distance(spec, np.array([x, y])), 1.0
    if with_upper and high >= 1.0:
        high = max(low, math.tanh(distance_upper(spec, x, y, refinement=0)))
    return low, high


# ---------------------------------------------------------------------------
# log-envelope calibration


@dataclass(frozen=True)
class LogEnvelope:
    c1: float
    c2: float
    residuals: np.ndarray
    deltas: np.ndarray


def boundary_ray_samples(
    spec: DomainSpec,
    direction,
    deltas,
    anchor=None,
) -> np.ndarray:
    """Points along the chord anchor -> boundary with prescribed boundary distances."""
    anchor = as_point(spec, anchor if anchor is not None else domains.anchor_point(spec))
    v = np.asarray(direction, dtype=complex)
    v = v / np.linalg.norm(v)
    t_b = domains._ray_root(spec, anchor, v, 0.0)
    bpt = anchor + t_b * v
    out = np.empty((len(deltas), spec.dim), dtype=complex)
    for i, d in enumerate(deltas):
        if spec.kind in ("disk", "ball"):
            out[i] = bpt * (1.0 - d)  # anchor is the origin for the models
            continue
        lo, hi = 0.0, 1.0 - 1e-12
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            pt = anchor + mid * (bpt - anchor)
            if domains.boundary_distance(spec, pt) > d:
                lo = mid
            else:
                hi = mid
        out[i] = anchor + 0.5 * (lo + hi) * (bpt - anchor)
    return out


def calibrate_log_envelope(spec: DomainSpec, z0, points) -> LogEnvelope:
    """Residuals d_K(z0, z) + 0.5 log delta_D(z) over boundary-approaching samples.

    Returns the empirical envelope (C1, C2) = (min, max) of the residuals.  On
    the disk/ball d_K is exact; elsewhere the distance_upper path estimate is
    used, so neither end is certified there.
    """
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
    res = np.empty(len(pts))
    for i, p in enumerate(pts):
        if spec.kind in ("disk", "ball"):
            d = exact_distance_model(spec, z0, p)
        else:
            d = distance_upper(spec, z0, p, refinement=1)
        res[i] = d + 0.5 * math.log(deltas[i])
    return LogEnvelope(c1=float(res.min()), c2=float(res.max()), residuals=res, deltas=deltas)
