"""Kobayashi metric and distance estimates on convex domains.

Everything is expressed in the tanh convention: the ball of radius r in (0,1)
around z0 is {z : tanh d_K(z0, z) < r}.  Exact distances exist for the disk
and the ball, and a batched bracket that closes to rounding for the complex
ellipsoids {|z1/a1|^2 + |z2/a2|^(2m) < 1}; elsewhere the module provides
the frame lower bound on distances and the polydisk sandwich of Kobayashi
balls coming from the minimal frame.

This module alone decides how a distance question is answered on a domain:
ball_relation (is w within tanh-radius r of z), ball_counts, the greedy loop
greedy_separated and min_tanh_distance serve every domain, from the oracle
where it exists and from the polydisk sandwich elsewhere.  With the oracle
the pair decisions stream out of the prefilter's tiles: ball_relation
scatters them into its dense answer, and ball_counts sums them per point,
holding no query x center relation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import domains, geometry
from .domains import DomainSpec, as_point
from .errors import CapabilityError, InputError
from .geometry import MinimalFrame, Polydisk, minimal_frame


# ---------------------------------------------------------------------------
# unit-ball pseudo-distances (the exact distance of the disk and ball)


def pseudo_distance_matrix(pts: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """Unit-ball pseudo-distances tanh d_B, pts (B,n) x centers (K,n), from
    rho^2 = m / |1-<p,c>|^2, where the margin m = |1-<p,c>|^2 -
    (1-|p|^2)(1-|c|^2) of each tile is off by less than _margin_error(n).
    Where m >= _PD_GUARD, rho is therefore off by less than
    _margin_error(n) / _PD_GUARD, rounding included.  Below the guard, where
    this form loses up to sqrt(eps), entries are recomputed by _ball_pd."""
    out = np.empty((len(pts), len(centers)))
    for rows, cols, num, den in _pair_tiles(pts, centers):
        margin = np.subtract(den, num, out=num)
        i, j = np.nonzero(margin < _PD_GUARD)
        block = out[rows, cols]  # a view
        np.divide(margin, den, out=margin)
        np.sqrt(np.clip(margin, 0.0, None, out=margin), out=block)
        block[i, j] = _ball_pd(pts[i + rows.start].T, centers[j + cols.start].T)
    return out


def _ball_pd(p, q) -> np.ndarray:
    """Unit-ball pseudo-distances of paired batches given by coordinates,
    p = (p_1, ..., p_n) and q alike, elementwise, in the cancellation-free
    form (|d|^2 - |p ^ d|^2) / |1 - <p,q>|^2 with d = q - p and |p ^ d|^2 =
    sum_{i<j} |p_i d_j - p_j d_i|^2 (Lagrange identity; p ^ q = p ^ d).

    The numerator is accurate to rounding also at distances far below
    sqrt(eps).  The denominator 1 - <p,q> carries an absolute error of a few
    eps, so the relative error of the result is about eps / |1 - <p,q>|,
    which grows as both points approach the sphere.  Every product and sum
    is a real one: numpy's complex multiply rounds differently in its vector
    and scalar loops, so the value of a pair would otherwise depend on the
    other pairs of the batch."""
    n = len(p)
    a, b = [np.real(x) for x in p], [np.imag(x) for x in p]  # p = a + i b
    c, h = [np.real(x) for x in q], [np.imag(x) for x in q]  # q = c + i h
    e = [c[i] - a[i] for i in range(n)]  # d = e + i f
    f = [h[i] - b[i] for i in range(n)]
    # each sum accumulates in place into its first term, in the order of the
    # plain sums, so every value has their bits; a float start (0.0, 1.0)
    # becomes a new array at the first +=
    diff, wedge, den_re, den_im = 0.0, 0.0, 1.0, 0.0  # den = 1 - <p,q>
    for i in range(n):
        term = e[i] * e[i]
        term += f[i] * f[i]
        diff += term
        term = a[i] * c[i]
        term += b[i] * h[i]
        den_re -= term
        term = b[i] * c[i]
        term -= a[i] * h[i]
        den_im -= term
        for j in range(i + 1, n):
            re = (a[i] * e[j] - b[i] * f[j]) - (a[j] * e[i] - b[j] * f[i])
            im = (a[i] * f[j] + b[i] * e[j]) - (a[j] * f[i] + b[j] * e[i])
            re *= re
            re += np.multiply(im, im, out=im)
            wedge += re
    diff -= wedge
    den_re *= den_re
    den_re += np.multiply(den_im, den_im, out=den_im)
    diff /= den_re
    return np.sqrt(np.clip(diff, 0.0, 1.0, out=diff), out=diff)


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
# pseudo_distance_matrix reads the same margin at t = 1 and hands the pairs
# with margin below _PD_GUARD to _ball_pd.
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
_PD_GUARD = 2.0**-10


def _margin_error(n: int) -> float:
    """Bound on the absolute rounding error of a tile's margin in C^n."""
    return (24 * n + 58) * np.finfo(float).eps


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
            yield rows, cols, np.multiply.outer(p_room[rows], c_room[cols]), _abs2(prow[rows] @ ccol)


def _abs2(xy: np.ndarray) -> np.ndarray:
    """xy[0]^2 + xy[1]^2 as a new array, so that _pair_tiles holds no tile."""
    np.square(xy, out=xy)
    return xy[0] + xy[1]


def _within_tiles(pts: np.ndarray, centers: np.ndarray, r: float):
    """Yield (rows, cols, block) over the tiles of _pair_tiles, block the
    bool test rho_B(p, c) < r on pts[rows] x centers[cols], for points and
    centers in the unit ball."""
    slack = 2.0 * _margin_error(pts.shape[-1])
    for rows, cols, num, den in _pair_tiles(pts, centers, math.sqrt(1.0 - r * r)):
        num -= den  # the margin |1-<p,c>|^2 (r^2 - rho^2)
        block = num > slack
        loose = num >= -slack
        if np.count_nonzero(loose) > np.count_nonzero(block):  # some |margin| <= slack
            i, j = np.nonzero(loose & ~block)
            block[i, j] = _ball_pd(pts[i + rows.start].T, centers[j + cols.start].T) < r
        del num, den  # not held while the consumer works
        yield rows, cols, block


def mobius_translation(spec: DomainSpec, a):
    """The automorphism of the disk/ball swapping 0 and a, as a map on
    batches (..., n); the work that depends on a alone is done here, once."""
    if not domains.is_ball(spec):
        raise CapabilityError(f"no Mobius translation for kind {spec.kind!r}")
    a = as_point(spec, a)
    aa = float(np.vdot(a, a).real)
    if aa < 1e-28:
        return lambda w: -np.asarray(w, dtype=complex)
    s = math.sqrt(1.0 - aa)
    conj_a, c = np.conj(a), 1.0 / (1.0 + s)

    def phi(w):
        # phi_a(w) = (a - P w - s (w - P w)) / (1 - <w,a>) with P w = (<w,a>/|a|^2) a,
        # that is (g a - s w) / (1 - <w,a>) with g = 1 - <w,a>/(1 + s); taken
        # one coordinate at a time (see domains.coordinate_sum), on the columns
        # of a 2-D array so that a single point takes the batch's arithmetic
        w = np.asarray(w, dtype=complex)
        cols = w.reshape(-1, spec.dim).T
        wa = domains.coordinate_sum(cols, conj_a)  # <w, a>
        inv = 1.0 / (1.0 - wa)
        g = (1.0 - wa * c) * inv
        inv *= s
        out = np.empty(cols.shape[::-1], dtype=complex)
        for j, col in enumerate(cols):
            out[:, j] = a[j] * g - col * inv
        return out.reshape(w.shape)

    return phi


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
# The ends of the crossing bracket lose precision as |b| -> 1.  Against
# 40-digit values at the same b they erred by up to 1.8 eps / (1 - |b|):
# 3.1e-12 at 1 - |b| < 3e-5, below 7.3e-13 for 1 - |b| >= 3e-4.  Within
# _CROSSING_EDGE of the circle both ends are widened by 4 eps / (1 - |b|).
# Further in the error stays below the 1e-12 at which a bracket counts as
# closed, and widening would open brackets of near-boundary pairs of the
# (1, 4) ellipsoid.
_CROSSING_EDGE = 3e-4
_CLOSED = 1e-12
# Pairs per first-pass oracle block of _settled_pairs, and the block size of
# _gauge and min_tanh_distance.  One R = 0.65 overlap count on the (1,2)
# ellipsoid (10^4 queries, 8450 centers, 2 cores) took 2.40-2.53 s with a
# tracemalloc peak of 10.9 MB at 2^14 pairs a block, 3.0-3.4 s and 19.2 MB
# at 2^15, and 3.0-3.3 s and 34.1 MB at 2^16.  With each block running
# Newton to the end, such a count made 7034 _newton_step calls, 6751 of them
# on fewer than 1000 pairs; with the stragglers pooled it makes 910.
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
    return domains.is_ball(spec) or _ellipsoid_1m_order(spec) is not None


def _normalize_1m(spec: DomainSpec, pts) -> tuple[np.ndarray, int]:
    """Points of a (1, m) ellipsoid mapped onto {|z1|^2 + |z2|^(2m) < 1}."""
    order, m = _ellipsoid_1m_order(spec)
    pts = np.asarray(pts, dtype=complex)
    return pts[..., order] / np.asarray(spec.semi_axes)[order], m


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


def _crossing(
    z1, z2, w1, w2, b: np.ndarray, m: int, r: float | None, steps: int = _NEWTON_STEPS
) -> tuple[np.ndarray, np.ndarray]:
    """Newton on b from the start b, then the bracket at the last iterate.

    With a threshold r, a pair also stops once its bracket at an early iterate
    lies on one side of r: the ends are bounds at every b, so membership in
    the r-ball is already decided there.  With fewer than _NEWTON_STEPS
    steps, a pair still moving after the last one is cut short: both its
    ends are nan."""
    b = b.copy()
    low = np.zeros(len(b))
    high = np.ones(len(b))
    pending = np.ones(len(b), dtype=bool)  # bracket still to take at the final b
    active = np.arange(len(b))
    for k in range(steps):
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
    if steps < _NEWTON_STEPS:
        pending[active] = False
        low[active] = high[active] = np.nan
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
        high = np.tanh(np.arctanh(np.minimum(_ball_pd((hx,), (lam,)), 1.0)) + gap / depth)
        # As |b| -> 1 the images approach the boundary and the disc distances
        # lose all precision (relative error ~ eps / (1 - |l|)); keep clear.
        usable = np.maximum(hx, np.abs(ly)) < 1.0 - _EDGE
        low = np.where(usable, _ball_pd((hx,), (ly,)), 0.0)
        edge = 1.0 - np.abs(b)
        slack = np.where(edge < _CROSSING_EDGE, 4.0 * np.finfo(float).eps / edge, 0.0)
    high = np.where(usable & (depth > 0.0) & np.isfinite(high), np.minimum(high + slack, 1.0), 1.0)
    return np.where(np.isfinite(low), np.maximum(low - slack, 0.0), 0.0), high


def _bracket_1m(
    z: np.ndarray,
    w: np.ndarray,
    m: int,
    r: float | None = None,
    steps: int = _NEWTON_STEPS,
    inner: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Elementwise bracket [low, high] on tanh k_E(z, w) for normalized pairs
    z, w of shape (k, 2).

    With a threshold r only membership in the r-ball is asked for, and every
    r-dependent shortcut is taken here, cheapest first.  (z1, z2) -> z2 maps E
    into the unit disc, so rho_D(z2, w2) >= r settles Outside; E contains the
    unit ball B, so on B x B rho_B(z, w) < r settles Inside.  The ends of a
    settled pair are those bounds, with 1 or the disc bound on the other
    side.  Only the pairs left open go through _oracle_1m (lift detection,
    the axis formula and Newton), which also stops Newton once r is decided.
    With fewer Newton steps (see _crossing), a pair that needs more reads
    nan at both ends.  ``inner`` flags the pairs with both points in B when
    the caller has the flags of its points.
    """
    if inner is None:
        inner = (domains.squared_norm(z) < 1.0) & (domains.squared_norm(w) < 1.0)
    if r is None:
        low, high = _oracle_1m(z, w, m)
        # E contains the unit ball B, so tanh k_E <= rho_B on B x B
        k = np.flatnonzero((high - low > _CLOSED) & inner)
        high[k] = np.minimum(high[k], _ball_pd(z[k].T, w[k].T))
        return low, high
    low = _ball_pd((z[:, 1],), (w[:, 1],))
    high = np.ones_like(low)
    k = np.flatnonzero((low < r) & inner)
    high[k] = _ball_pd(z[k].T, w[k].T)
    rest = np.flatnonzero((low < r) & (high >= r))
    low[rest], high[rest] = _oracle_1m(z[rest], w[rest], m, r, steps)
    return low, high


def _oracle_1m(
    z: np.ndarray, w: np.ndarray, m: int, r: float | None = None, steps: int = _NEWTON_STEPS
) -> tuple[np.ndarray, np.ndarray]:
    """The geodesic bracket of _bracket_1m: exact for lifts and axis points,
    from Newton on the axis crossing otherwise (stopped once r is decided)."""
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

    cross = np.flatnonzero(off_axis & ~lift)
    if len(cross):
        c1, c2, d1, d2 = z1[cross], z2[cross], w1[cross], w2[cross]
        e2, f2 = p2[cross], q2[cross]
        # start from the axis crossing of the ball geodesic through Phi z, Phi w
        with np.errstate(divide="ignore", invalid="ignore"):
            b0 = (c1 * f2 - d1 * e2) / (f2 - e2)
        b0 = np.where(np.isfinite(b0), b0, 0.0)
        size = np.abs(b0)
        b0 = np.where(size > 0.95, 0.95 * b0 / np.where(size > 0.0, size, 1.0), b0)
        lo, hi = _crossing(c1, c2, d1, d2, b0, m, r, steps)
        lo = np.maximum(low[cross], lo)
        # a start that drifts to the circle finds no root; retry once from 0
        # and keep the tighter ends (both brackets are valid)
        again = hi - lo > _CLOSED
        if r is not None:
            again &= (lo < r) & (hi >= r)
        if again.any():
            k = np.flatnonzero(again)
            zero = np.zeros(len(k), dtype=complex)
            lo2, hi2 = _crossing(c1[k], c2[k], d1[k], d2[k], zero, m, r, steps)
            lo[k] = np.maximum(lo[k], lo2)
            hi[k] = np.minimum(hi[k], hi2)
        low[cross] = lo
        high[cross] = hi
    return low, high


def _images(spec: DomainSpec, pts: np.ndarray) -> tuple[np.ndarray, np.ndarray, int]:
    """(normalized points, images, m) on an oracle domain.  The unit-ball
    pseudo-distance of the images bounds tanh d_K from below: they are the
    points themselves on the disk and ball (exact there), Phi of the
    normalized points on the (1, m) ellipsoid."""
    if domains.is_ball(spec):
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
    if domains.is_ball(spec):
        rho = _ball_pd(z.T, w.T)
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


def _sandwich_scales(r: float, n: int) -> tuple[float, float]:
    """Gauge thresholds of the inner and outer polydisks of B(z0, r)."""
    return r / n, 2.0 * r / (1.0 - r)


def _gauge(pts: np.ndarray, frames: MinimalFrame) -> np.ndarray:
    """(B, K) frame gauges of pts against K stacked frames, in blocks of
    about _PAIR_CHUNK pairs."""
    polydisks = geometry.frame_polydisk(frames, 1.0)
    out = np.empty((len(pts), len(frames.center)))
    step = max(1, _PAIR_CHUNK // max(1, len(frames.center)))
    for start in range(0, len(pts), step):
        out[start : start + step] = geometry.polydisk_gauge(polydisks, pts[start : start + step])
    return out


def _relate(spec: DomainSpec, pts, centers, r: float, frames: MinimalFrame | None):
    """ball_relation for centers whose stacked frames are already known (None
    on the domains with the oracle)."""
    if frames is None:
        return ball_relation(spec, pts, centers, r)
    gauge = _gauge(pts, frames)
    inner, outer = _sandwich_scales(r, spec.dim)
    return gauge <= inner, gauge <= outer


def _settled_pairs(spec: DomainSpec, pts: np.ndarray, centers: np.ndarray, r: float):
    """Yield blocks (i, j, inside, maybe) of the pairs pts[i] x centers[j] of
    a (1, m) ellipsoid that pass the prefilter (the others are Outside), as
    ball_relation reads them.  The flat indices of each tile's passing pairs
    fill blocks of _PAIR_CHUNK for _bracket_1m.  With more than one block,
    full blocks stop Newton after _EARLY_CHECKS steps; the pairs still open,
    pooled across the call, are bracketed again from scratch with the last
    partial block, so each pair gets the arithmetic of one full pass."""
    pn, phi_p, m = _images(spec, pts)
    cn, phi_c, _ = _images(spec, centers)
    # each point's unit-ball flag, once per point, not per pair
    inner_p, inner_c = domains.squared_norm(pn) < 1.0, domains.squared_norm(cn) < 1.0

    def settle(k: np.ndarray, steps: int):
        i, j = np.divmod(k, len(centers))
        low, high = _bracket_1m(pn[i], cn[j], m, r, steps, inner_p[i] & inner_c[j])
        inside = high < r
        return i, j, inside, (low < r) | inside, ~(inside | (low >= r))  # nan when cut short

    queue, queued, pool = [], 0, [np.zeros(0, dtype=int)]
    for rows, cols, block in _within_tiles(phi_p, phi_c, r):
        i, j = np.divmod(np.flatnonzero(block), block.shape[1])
        queue.append((i + rows.start) * len(centers) + (j + cols.start))
        queued += len(queue[-1])
        if queued > _PAIR_CHUNK:
            k = np.concatenate(queue)
            full = (queued - 1) // _PAIR_CHUNK * _PAIR_CHUNK  # keep a nonempty rest
            for start in range(0, full, _PAIR_CHUNK):
                i, j, inside, _, still_open = settle(k[start : start + _PAIR_CHUNK], _EARLY_CHECKS)
                pool.append(k[start : start + _PAIR_CHUNK][still_open])
                # a decided pair is Inside or Outside; an open one reads
                # Outside here and is decided again from the pool
                yield i, j, inside, inside
            queue, queued = [k[full:]], queued - full
    # every pair of the pool reaches Newton: half a block holds the memory of
    # a first-pass block
    rest, step = np.concatenate(pool + queue), _PAIR_CHUNK // 2
    for start in range(0, len(rest), step):
        yield settle(rest[start : start + step], _NEWTON_STEPS)[:4]


def ball_relation(
    spec: DomainSpec, pts: np.ndarray, centers: np.ndarray, r: float
) -> tuple[np.ndarray, np.ndarray]:
    """Pairwise (inside, maybe) for pts (B,n) against Kobayashi balls of
    tanh-radius r around centers (K,n): inside is certified tanh d < r, maybe
    is "not certified >= r" (inside or Uncertain).

    Disk and ball answer exactly, from the threshold tiles of _within_tiles
    (the same array is returned twice).  On the (1, m) ellipsoid that test on
    the Phi-images prefilters the pairs, and _settled_pairs decides those
    below r: there the disc bound settles Outside and the unit-ball bound on
    B x B settles Inside before any pair reaches the geodesic oracle.  Other
    domains use the polydisk sandwich in each center's minimal frame.  The
    answer for a pair does not depend on the other pairs of the call.
    """
    if not 0.0 < r < 1.0:
        raise InputError(f"tanh radius must lie in (0, 1), got {r}")
    pts = np.asarray(pts, dtype=complex)
    centers = np.asarray(centers, dtype=complex)
    if not has_exact_distance(spec):
        return _relate(spec, pts, centers, r, geometry.minimal_frames(spec, centers))
    maybe = np.zeros((len(pts), len(centers)), dtype=bool)
    if domains.is_ball(spec):
        for rows, cols, block in _within_tiles(pts, centers, r):
            maybe[rows, cols] = block
        return maybe, maybe
    inside = np.zeros_like(maybe)
    for i, j, inside_ij, maybe_ij in _settled_pairs(spec, pts, centers, r):
        inside[i, j] = inside_ij
        maybe[i, j] = maybe_ij
    return inside, maybe


def ball_counts(
    spec: DomainSpec, pts: np.ndarray, centers: np.ndarray, r: float
) -> tuple[np.ndarray, np.ndarray]:
    """Per point of pts: how many tanh-radius-r balls around centers certainly
    contain it (inside), and how many may (maybe), without a B x K relation:
    tile row sums on the disk and ball, _settled_pairs binned by point on the
    (1, m) ellipsoid, and elsewhere ball_relation on blocks of _COUNT_CHUNK
    points, each center's frame computed once."""
    if not 0.0 < r < 1.0:
        raise InputError(f"tanh radius must lie in (0, 1), got {r}")
    pts = np.asarray(pts, dtype=complex)
    centers = np.asarray(centers, dtype=complex)
    maybe_n = np.zeros(len(pts), dtype=int)
    if domains.is_ball(spec):
        for rows, _, block in _within_tiles(pts, centers, r):
            maybe_n[rows] += np.count_nonzero(block, axis=1)
        return maybe_n, maybe_n
    inside_n = np.zeros(len(pts), dtype=int)
    if has_exact_distance(spec):
        for i, _, inside, maybe in _settled_pairs(spec, pts, centers, r):
            inside_n += np.bincount(i[inside], minlength=len(pts))
            maybe_n += np.bincount(i[maybe], minlength=len(pts))
        return inside_n, maybe_n
    frames = geometry.minimal_frames(spec, centers)
    for start in range(0, len(pts), _COUNT_CHUNK):
        block = slice(start, start + _COUNT_CHUNK)
        inside_n[block], maybe_n[block] = (
            relation.sum(axis=1) for relation in _relate(spec, pts[block], centers, r, frames)
        )
    return inside_n, maybe_n


def greedy_separated(spec: DomainSpec, pts: np.ndarray, r: float) -> tuple[np.ndarray, np.ndarray]:
    """Indices of the greedy maximal r-separated subset of pts, taken in
    order, and a (len(pts),) mask of the points certified within tanh-radius
    r of a kept point.

    A point is kept when ball_relation certifies it outside the tanh-radius-r
    ball of every point kept before it, so kept points are pairwise certified
    >= r apart, and every other point may lie within r of a kept one.  Points
    go in chunks of _GREEDY_CHUNK: a chunk is tested against the points kept
    before it in one call, and its survivors against each other in a second;
    the accept loop then reads that survivors x survivors relation.  The
    relation is elementwise, so the kept points are those of one call per
    point.  Without the oracle the minimal frames of each chunk's survivors
    are computed in one call, and those of the kept points are kept as one
    stack.

    The mask is read from the inside halves of the same two relations, with
    the point as the query and the kept point as the center, as
    ball_relation(spec, pts, pts[kept], r) would put it.  It holds every kept
    point and every point that read Inside against a kept point it was tested
    with; a point rejected before some later kept point may be within r of
    that one and still be unmarked.
    """
    frames = None if has_exact_distance(spec) else geometry.minimal_frames(spec, pts[:0])
    kept: list[int] = []
    covered = np.zeros(len(pts), dtype=bool)
    for start in range(0, len(pts), _GREEDY_CHUNK):
        batch = pts[start : start + _GREEDY_CHUNK]
        inside, maybe = _relate(spec, batch, pts[kept], r, frames)
        covered[start : start + len(batch)] = inside.any(axis=1)
        free = np.flatnonzero(~maybe.any(axis=1))
        survivors = batch[free]
        own = None if frames is None else geometry.minimal_frames(spec, survivors)
        inside, within = _relate(spec, survivors, survivors, r, own)
        taken: list[int] = []
        for k in range(len(free)):
            if not within[k, taken].any():
                taken.append(k)
        covered[start + free] = inside[:, taken].any(axis=1)
        covered[start + free[taken]] = True
        kept.extend((start + free[taken]).tolist())
        if frames is not None:  # the kept survivors' frames join the stack
            fields = zip(vars(frames).values(), vars(own).values())
            frames = MinimalFrame(*(np.concatenate([old, new[taken]]) for old, new in fields))
    return np.array(kept, dtype=int), covered


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
        gauge = _gauge(pts, geometry.minimal_frames(spec, pts))
        gauge = np.maximum(gauge, gauge.T)
        np.fill_diagonal(gauge, np.inf)
        g = float(gauge.min())
        return g / (2.0 + g)
    _, images, _ = _images(spec, pts)
    # the rounding error that pseudo_distance_matrix's guarded values still
    # carry (2.4e-11 in C^2); a lower bound is trusted only above it
    slack = _margin_error(spec.dim) / _PD_GUARD
    best = math.inf
    step = max(1, _PAIR_CHUNK // count)
    for start in range(0, count - 1, step):
        lower = pseudo_distance_matrix(images[start : start + step], images)
        i, j = np.nonzero(np.triu(lower <= best + slack, start + 1))  # pairs i < j
        order = np.argsort(lower[i, j], kind="stable")
        i, j, bound = i[order], j[order], lower[i[order], j[order]]
        for first in range(0, len(i), _PAIR_CHUNK):
            if bound[first] > best + slack:
                break
            k = slice(first, first + _PAIR_CHUNK)
            low, _ = tanh_distance_bracket(spec, pts[start + i[k]], pts[j[k]])
            best = min(best, float(low.min()))
    return best


# ---------------------------------------------------------------------------
# Kobayashi balls: polydisk sandwich and membership


@dataclass(frozen=True)
class BallSandwich:
    """Certified polydisk sandwich of a Kobayashi ball B_D(z0, r)."""

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
        inner=geometry.frame_polydisk(frame, inner),
        outer=geometry.frame_polydisk(frame, outer),
    )


def bracket_tanh_distance(spec: DomainSpec, x, y) -> tuple[float, float]:
    """Bracket [low, high] for tanh d_K(x, y): tanh_distance_bracket on the
    domains with the oracle; elsewhere the frame bound of min_tanh_distance
    below and 1 above, the only certified upper end there.
    """
    x = as_point(spec, x)
    y = as_point(spec, y)
    if has_exact_distance(spec):
        low, high = (float(end[0]) for end in tanh_distance_bracket(spec, x, y))
        return min(low, high), high  # a closed bracket may cross by a rounding error
    return min_tanh_distance(spec, np.array([x, y])), 1.0
