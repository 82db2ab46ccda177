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
every cheap bound is a unit-ball threshold test, one matrix product of
lifted features per tile of pairs; only the pairs those leave open reach
the geodesic oracle, and no call holds a query x center relation it does
not return.
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
    rho^2 = m / |1-<p,c>|^2 with the margin m = |1-<p,c>|^2 -
    (1-|p|^2)(1-|c|^2), both lifted products (see the threshold test) off by
    less than _margin_error(n).  Where m >= _PD_GUARD, rho is therefore off
    by less than _margin_error(n) / _PD_GUARD, rounding included.  Below the
    guard, where this form loses up to sqrt(eps), _ball_pd recomputes it."""
    out = np.empty((len(pts), len(centers)))
    for rows, cols, [(lifted, columns)] in _lifted_tiles([(pts, centers)], 1.0):
        margin = lifted @ columns  # -m
        i, j = np.nonzero(margin > -_PD_GUARD)
        block = out[rows, cols]  # a view
        np.divide(margin, lifted[:, 1:] @ columns[1:], out=margin)  # over -|1-<p,c>|^2
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
    a = [np.real(x) for x in p]  # p = a + i b
    b = [np.imag(x) if np.iscomplexobj(x) else None for x in p]  # None: b = 0
    c, h = [np.real(x) for x in q], [np.imag(x) for x in q]  # q = c + i h
    e = [c[i] - a[i] for i in range(n)]  # d = e + i f
    f = [h[i] if b[i] is None else h[i] - b[i] for i in range(n)]
    # each sum accumulates in place into its first term, in the order of the
    # plain sums, so every value has their bits; a float start (0.0, 1.0)
    # becomes a new array at the first +=.  A real p_i drops the terms of
    # b_i = 0, which add or subtract zeros only: the bits stay, up to the sign
    # of a zero that is squared
    diff, wedge, den_re, den_im = 0.0, 0.0, 1.0, 0.0  # den = 1 - <p,q>
    for i in range(n):
        term = e[i] * e[i]
        term += f[i] * f[i]
        diff += term
        term = a[i] * c[i]
        if b[i] is not None:
            term += b[i] * h[i]
        den_re -= term
        term = a[i] * h[i]  # -Im(p_i conj(q_i))
        if b[i] is not None:
            term -= b[i] * c[i]
        den_im += term
        for j in range(i + 1, n):
            bi, bj = (0.0 if x is None else x for x in (b[i], b[j]))
            re = (a[i] * e[j] - bi * f[j]) - (a[j] * e[i] - bj * f[i])
            im = (a[i] * f[j] + bi * e[j]) - (a[j] * f[i] + bj * e[i])
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
# With t^2 = 1 - r^2 the test is the sign of the margin M = (1-|p|^2)(1-|c|^2)
# - t^2 |1-<p,c>|^2, and M = F(p) . G(c) in lifted features (i < j):
#   F(x) = [1-|x|^2, 1, Re x_i, Im x_i, |x_i|^2, Re x_i conj(x_j), Im x_i conj(x_j)],
#   G(c) = [1-|c|^2, -t^2, t^2 (2 Re c_i, 2 Im c_i, -|c_i|^2, -2 Re c_i conj(c_j), ...)],
# as |<p,c>|^2 = sum_i |p_i c_i|^2 + 2 sum_{i<j} Re(p_i conj(p_j) c_j conj(c_i)):
# a tile is one real matrix product with K = n^2 + 2n + 2 columns (5, 10, 17
# for n = 1, 2, 3) and one comparison.  Rounding, for |p|, |c| < 1 (u = eps/2):
# the terms' magnitudes sum to at most 6 (1 + 1, 2 t^2 |p||c| for the linear
# terms, 2 t^2 (sum_i |p_i||c_i|)^2 for the quadratic ones), so the product
# errs by 6 K u in any order of its sums; the two 1-|x|^2 add 2 (n+2) u, the
# linear terms 2 u, the quadratic ones 10 u (2 roundings in F, 3 in G), and
# t^2 = 1 - r*r, off by u, 4 u.  That is (6n^2 + 14n + 32) u to first order,
# below _margin_error(n), which bounds |1-<p,c>|^2 (the product at t = 1
# without the first feature) too.  A pair within twice that of the threshold
# is decided by _ball_pd, so the answer never depends on how the pairs are
# blocked, and it stays right at radii far below sqrt(eps).
#
# A tile holds _PRODUCT / K pairs: min(B, 16) rows against as many centers as
# fit (16 rows against many centers, 524 against 200 on the disk).  OpenBLAS
# keeps a product of 2^19 multiply-adds on the calling thread, so the tile
# loop's CPU time is its wall time; on 2 cores products of 2^20 went to two
# threads and doubled the CPU time of the loop, for no gain.
_PRODUCT = 1 << 19
_PD_GUARD = 2.0**-10


def _margin_error(n: int) -> float:
    """Bound on the absolute rounding error of a lifted margin in C^n."""
    return (3 * n * n + 7 * n + 17) * np.finfo(float).eps


def _lift(x: np.ndarray, t2: float | None = None) -> np.ndarray:
    """The rows F(x) (B, n^2 + 2n + 2) of points x (B, n), or with t2 the
    columns G(x) (n^2 + 2n + 2, B): _lift(p) @ _lift(c, t2) is the margin
    (1-|p|^2)(1-|c|^2) - t2 |1-<p,c>|^2."""
    count, n = x.shape
    re, im = x.real, x.imag
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    out = np.empty((count, n * n + 2 * n + 2))
    out[:, 1], out[:, 2 : 2 + n], out[:, 2 + n : 2 + 2 * n] = 1.0, re, im
    quad = np.multiply(re, re, out=out[:, 2 + 2 * n : 2 + 3 * n])
    quad += im * im
    out[:, 0] = 1.0 - quad.sum(axis=1)
    for k, (i, j) in enumerate(pairs, start=2 + 3 * n):
        out[:, k] = re[:, i] * re[:, j] + im[:, i] * im[:, j]
        out[:, k + len(pairs)] = im[:, i] * re[:, j] - re[:, i] * im[:, j]
    if t2 is None:
        return out
    out = out.T.copy()  # each feature one contiguous row: the faster product
    out[1] = -t2
    out[2:] *= np.repeat([2.0 * t2, -t2, -2.0 * t2], [2 * n, n, len(pairs) * 2])[:, None]
    return out


def _lifted_tiles(screens, t2: float):
    """Yield (rows, cols, blocks) over tiles of the pairs p x c of each
    screen (p, c) (every p of B points, every c of K): blocks[s] = (F, G) of
    screen s on p[rows] x c[cols], whose product is the margin at t2.  Each
    product has at most _PRODUCT multiply-adds; the columns are lifted one
    block of centers at a time."""
    count, k_all = len(screens[0][0]), len(screens[0][1])
    if not count or not k_all:
        return
    n = max(p.shape[1] for p, _ in screens)
    pairs = max(1, _PRODUCT // (n * n + 2 * n + 2))
    width = max(1, min(k_all, pairs // min(count, 16)))
    height = max(1, pairs // width)
    lifted = [_lift(p) for p, _ in screens]
    for j in range(0, k_all, width):
        cols = slice(j, min(j + width, k_all))
        columns = [_lift(c[cols], t2) for _, c in screens]
        for i in range(0, count, height):
            rows = slice(i, min(i + height, count))
            yield rows, cols, [(f[rows], g) for f, g in zip(lifted, columns)]


def _within_tiles(pts: np.ndarray, centers: np.ndarray, r: float):
    """Yield (rows, cols, block) over the tiles of _lifted_tiles, block the
    bool test rho_B(p, c) < r on pts[rows] x centers[cols], for points and
    centers in the unit ball."""
    slack = 2.0 * _margin_error(pts.shape[-1])
    for rows, cols, [(lifted, columns)] in _lifted_tiles([(pts, centers)], 1.0 - r * r):
        margin = lifted @ columns
        block = margin > slack
        if np.count_nonzero(margin >= -slack) > np.count_nonzero(block):  # some |margin| <= slack
            i, j = np.nonzero((margin >= -slack) & ~block)
            block[i, j] = _ball_pd(pts[i + rows.start].T, centers[j + cols.start].T) < r
        del margin  # not held while the consumer works
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
# In the first pass of one R = 0.65 count (below) the bracket after the
# first Newton step decides 87.1 % of the 1.66M crossing pairs, 43.0 % Outside
# on its lower end alone, and after the second 97.8 %; the other 2.2 % go on
# from their iterates (_resume).
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
# Pairs per block of _gauge and min_tanh_distance (_PAIR_CHUNK) and per
# first-pass block of _settled_pairs (_ORACLE_CHUNK: open pairs, nearly all
# crossing the axis).  One R = 0.65 overlap count on the (1,2) ellipsoid
# (10^4 queries, 8404 centers, 1.82M pairs to the oracle, 2 shared cores)
# took 1.38-1.48 s at oracle blocks of 2^12 and 2^13 pairs (medians of 6 and
# of 10 runs, in alternating order, each size ahead once) and 1.49 s at
# 2^14, with tracemalloc peaks of 6.8, 8.8 and 12.8 MB and 2027, 1061 and
# 549 _newton_step calls.  From 2^14 pairs an array reaches the size at which
# numpy reuses temporaries (see _crossing_bracket).
_PAIR_CHUNK = 1 << 14
_ORACLE_CHUNK = 1 << 13


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


def _phi_b(b: np.ndarray, m: int, *points) -> list[np.ndarray]:
    """[x1', x2', y1', ...]: phi_b of each point (x1, x2) of points, which
    share conj(b) and (1 - |b|^2)^(1/2m)."""
    conj_b = np.conj(b)
    scale = (1.0 - np.abs(b) ** 2) ** (1.0 / (2 * m))
    images = []
    for x1, x2 in points:
        d = 1.0 - conj_b * x1
        images += [(x1 - b) / d, scale * x2 / _root(d, m)]
    return images


def _newton_step(z1, z2, w1, w2, b: np.ndarray, m: int) -> np.ndarray:
    """One Newton step for b with phi_b(z) and phi_b(w) complex collinear:
    F(b) = (z1-b) w2 (1-conj(b) w1)^p - (w1-b) z2 (1-conj(b) z1)^p = 0 with
    p = 1 - 1/m.  F is not holomorphic in b, so the step solves the real 2x2
    system F + F_b db + F_bbar conj(db) = 0; it is cut to stay in the disc."""
    p = 1.0 - 1.0 / m
    conj_b = np.conj(b)
    ez = 1.0 - conj_b * z1
    ew = 1.0 - conj_b * w1
    tz = z2 * ez / _root(ez, m)  # z2 ez^p
    tw = w2 * ew / _root(ew, m)
    zb, wb = z1 - b, w1 - b
    f = zb * tw - wb * tz
    f_b = tz - tw
    f_bbar = p * (wb * tz * z1 / ez - zb * tw * w1 / ew)
    with np.errstate(divide="ignore", invalid="ignore"):
        step = (np.conj(f) * f_bbar - f * np.conj(f_b)) / (np.abs(f_b) ** 2 - np.abs(f_bbar) ** 2)
    step = np.where(np.isfinite(step), step, 0.0)
    room = 0.5 * (1.0 - np.abs(b))
    size = np.abs(step)
    return np.where(size > room, step * (room / np.where(size > 0.0, size, 1.0)), step)


def _crossing(
    coords, pairs: np.ndarray, b: np.ndarray, m: int, r: float | None, steps=range(_NEWTON_STEPS), active=None
) -> tuple[np.ndarray, np.ndarray]:
    """Newton on the iterates b (updated in place) over the step indices
    steps, then the bracket at the last iterate, for the pairs of coords =
    (z1, z2, w1, w2) indexed by pairs; active holds the pairs still moving
    (all by default), and the others are only bracketed.

    With a threshold r, a pair also stops once its bracket after a step of
    index below _EARLY_CHECKS lies on one side of r: the ends are bounds at
    every b, so membership in the r-ball is already decided there.  If steps
    end before _NEWTON_STEPS, a pair still moving after the last one is cut
    short: both its ends are nan, and b holds its iterate."""
    low = np.zeros(len(b))
    high = np.ones(len(b))
    pending = np.ones(len(b), dtype=bool)  # bracket still to take at the final b
    active = np.arange(len(b)) if active is None else active
    for k in steps:
        args = [x[pairs[active]] for x in coords]
        step = _newton_step(*args, b[active], m)
        b[active] += step
        moving = np.abs(step) > 1e-15
        if r is not None and k < _EARLY_CHECKS:
            lo, hi = _crossing_bracket(*args, b[active], m, r)
            low[active], high[active] = lo, hi
            decided = (hi < r) | (lo >= r)
            pending[active[decided]] = False
            moving &= ~decided
        active = active[moving]
        if not len(active):
            break
    del args
    if steps.stop < _NEWTON_STEPS:
        pending[active] = False
        low[active] = high[active] = np.nan
    rest = np.flatnonzero(pending)
    if len(rest):
        low[rest], high[rest] = _crossing_bracket(*(x[pairs[rest]] for x in coords), b[rest], m, r)
    return low, high


def _retry(coords, pairs: np.ndarray, low: np.ndarray, high: np.ndarray, m: int, r: float | None) -> None:
    """A start that drifts to the circle finds no root: the pairs whose
    bracket (low, high) is open, and with r undecided, run Newton once more
    from 0, and each keeps the tighter ends (both brackets are valid)."""
    again = high - low > _CLOSED
    if r is not None:
        again &= (low < r) & (high >= r)
    k = np.flatnonzero(again)
    if len(k):
        lo, hi = _crossing(coords, pairs[k], np.zeros(len(k), dtype=complex), m, r)
        low[k] = np.maximum(low[k], lo)
        high[k] = np.minimum(high[k], hi)


def _crossing_bracket(
    z1, z2, w1, w2, b: np.ndarray, m: int, r: float | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Bracket from the linear disc through phi_b(z) or phi_b(w), valid at any b.

    Let x, y be the two images, named so that h(x) >= h(y): the direction of
    the larger one is the better conditioned.  With u = x / h(x) and nu the
    normal at u, the map xi -> <xi, nu> / <u, nu> sends E into the unit disc
    and fixes the disc lambda u, giving the lower bound.  The upper bound runs
    along lambda u from x to the projection y' of y onto C u, then along the
    segment [y', y], where the Kobayashi metric is at most |v| / (1 - h)
    because E contains the unit ball.  At a root of F, y' = y and the two
    bounds coincide.  With a threshold r the upper end is taken only where
    the lower end is below r, and reads 1 elsewhere: the lower end alone
    puts those pairs outside the r-ball."""
    x1, x2, y1, y2 = _phi_b(b, m, (z1, z2), (w1, w2))
    hx = _minkowski_1m(x1, x2, m)
    hy = _minkowski_1m(y1, y2, m)
    swap = hy > hx
    x1, y1 = np.where(swap, y1, x1), np.where(swap, x1, y1)
    x2, y2 = np.where(swap, y2, x2), np.where(swap, x2, y2)
    hx, hy = np.maximum(hx, hy), np.minimum(hx, hy)
    with np.errstate(divide="ignore", invalid="ignore"):
        u1, u2 = x1 / hx, x2 / hx
        n2 = m * np.abs(u2) ** (2 * m - 2) * u2  # nu = (u1, n2)
        # x * conj(.) with a temporary conj: from 2^14 elements numpy reuses
        # the temporary and computes conj(.) * x, and the imaginary part of a
        # complex product rounds by its operand order; a product in another
        # form would move the bits of large batches
        yu = y1 * np.conj(u1)  # shared by ly and lam
        ly = (yu + y2 * np.conj(n2)) / (u1 * np.conj(u1) + u2 * np.conj(n2))
        # As |b| -> 1 the images approach the boundary and the disc distances
        # lose all precision (relative error ~ eps / (1 - |l|)); keep clear.
        usable = np.maximum(hx, np.abs(ly)) < 1.0 - _EDGE
        low = np.where(usable, _ball_pd((hx,), (ly,)), 0.0)
        edge = 1.0 - np.abs(b)
        slack = np.where(edge < _CROSSING_EDGE, 4.0 * np.finfo(float).eps / edge, 0.0)
    low = np.where(np.isfinite(low), np.maximum(low - slack, 0.0), 0.0)
    high = np.ones_like(low)
    k = slice(None) if r is None else np.flatnonzero(low < r)
    y1, y2, u1, u2, yu, hx, hy, usable, slack = (v[k] for v in (y1, y2, u1, u2, yu, hx, hy, usable, slack))
    with np.errstate(divide="ignore", invalid="ignore"):
        lam = (yu + y2 * np.conj(u2)) / (np.abs(u1) ** 2 + np.abs(u2) ** 2)
        gap = np.sqrt(np.abs(y1 - lam * u1) ** 2 + np.abs(y2 - lam * u2) ** 2)
        depth = 1.0 - np.maximum(hy, np.abs(lam))
        up = np.tanh(np.arctanh(np.minimum(_ball_pd((hx,), (lam,)), 1.0)) + gap / depth)
    high[k] = np.where(usable & (depth > 0.0) & np.isfinite(up), np.minimum(up + slack, 1.0), 1.0)
    return low, high


def _oracle_1m(
    z1, z2, w1, w2, m: int, r: float | None = None, steps: int = _NEWTON_STEPS
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(low, high, b): the geodesic bracket of normalized pairs (z1, z2),
    (w1, w2), above the ball distance of the Phi-images, and each crossing
    pair's last Newton iterate b (0 elsewhere).  With a threshold r (pairs
    whose Phi distance _settled_pairs put below r) it starts at 0, a lift
    reads [0, 0] and Newton stops once r is decided.  With fewer steps a
    pair still moving is cut short (see _crossing), no start is retried, and
    _resume goes on from b."""
    p2, q2 = z2**m, w2**m
    low = _ball_pd((z1, p2), (w1, q2)) if r is None else np.zeros(len(z1))
    b = np.zeros(len(z1), dtype=complex)
    if m == 1:
        return low, low.copy(), b
    high = np.ones_like(low)

    # lift case: the line through Phi z, Phi w meets {second coordinate 0} at
    # b0, outside the ball, and the root branch continued from z2 reaches w2:
    # w2 / z2 lies in the sector |arg| < pi/m, where the principal m-th root
    # of (w2 / z2)^m is w2 / z2 itself
    with np.errstate(divide="ignore", invalid="ignore"):
        b0 = (z1 * q2 - w1 * p2) / (q2 - p2)
    del p2, q2
    v = np.conj(z2) * w2
    off_axis = (z2 != 0.0) & (w2 != 0.0)
    lift = off_axis & ~(np.abs(b0) < 1.0) & (v.real > np.abs(v) * math.cos(math.pi / m))
    del v
    high[lift] = low[lift]

    # axis points: tanh k((a, 0), w) = h(phi_a(w))
    for a, o1, o2, on_axis in ((z1, w1, w2, z2 == 0.0), (w1, z1, z2, (w2 == 0.0) & (z2 != 0.0))):
        if on_axis.any():
            x1, x2 = _phi_b(a[on_axis], m, (o1[on_axis], o2[on_axis]))
            low[on_axis] = high[on_axis] = _minkowski_1m(x1, x2, m)

    cross = np.flatnonzero(off_axis & ~lift)
    if len(cross):
        # start from the axis crossing of the ball geodesic through Phi z, Phi w
        start = b0[cross]
        del b0
        start = np.where(np.isfinite(start), start, 0.0)
        size = np.abs(start)
        start = np.where(size > 0.95, 0.95 * start / np.where(size > 0.0, size, 1.0), start)
        coords = (z1, z2, w1, w2)
        lo, hi = _crossing(coords, cross, start, m, r, range(steps))
        if r is None:  # above the Phi distance; with r, above 0 already
            lo = np.maximum(low[cross], lo)
        if steps == _NEWTON_STEPS:
            _retry(coords, cross, lo, hi, m, r)
        low[cross], high[cross], b[cross] = lo, hi, start
    return low, high, b


def _resume(z1, z2, w1, w2, b: np.ndarray, moving: np.ndarray, m: int, r: float):
    """The bracket of pairs that _oracle_1m with threshold r cut short or
    left open after _EARLY_CHECKS steps, from their iterates b: Newton goes on
    for the pairs still moving, without early checks, then each pair is
    bracketed and retried as in a run of _NEWTON_STEPS steps, whose first
    steps and checks are those of the cut run; so are its ends, bit for bit."""
    coords, pairs = (z1, z2, w1, w2), np.arange(len(b))
    low, high = _crossing(coords, pairs, b, m, r, range(_EARLY_CHECKS, _NEWTON_STEPS), np.flatnonzero(moving))
    _retry(coords, pairs, low, high, m, r)
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
    z, m = _normalize_1m(spec, z)
    w, _ = _normalize_1m(spec, w)
    low, high, _ = _oracle_1m(z[:, 0], z[:, 1], w[:, 0], w[:, 1], m)
    inner = (domains.squared_norm(z) < 1.0) & (domains.squared_norm(w) < 1.0)
    k = np.flatnonzero((high - low > _CLOSED) & inner)  # E contains B: tanh k_E <= rho_B on B x B
    high[k] = np.minimum(high[k], _ball_pd(z[k].T, w[k].T))
    return low, high


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
    """Yield blocks (rows, cols, i, j, inside, maybe) of the pairs
    pts[rows][i] x centers[cols][j] of a (1, m) ellipsoid, as ball_relation
    reads them; the pairs of no block are Outside.  Each tile tests two lower
    bounds, the ball distance of the Phi-images and the disc distance of the
    second coordinates, and an upper bound on B x B, the ball distance (E
    contains the unit ball B); the pairs left open fill blocks of
    _ORACLE_CHUNK.  Full blocks stop Newton after _EARLY_CHECKS steps; the
    pairs they leave open, pooled across the call, resume from their
    iterates (_resume), and the last partial block runs to the end."""
    pn, phi_p, m = _images(spec, pts)
    cn, phi_c, _ = _images(spec, centers)
    inner_p, inner_c = domains.squared_norm(pn) < 1.0, domains.squared_norm(cn) < 1.0
    screens = [(phi_p, phi_c), (pn[:, 1:], cn[:, 1:]), (pn, cn)]
    slacks = [2.0 * _margin_error(p.shape[1]) for p, _ in screens]
    every_row, every_col = slice(0, len(pts)), slice(0, len(centers))

    def gather(k: np.ndarray):
        i, j = np.divmod(k, len(centers))
        return i, j, (pn[i, 0], pn[i, 1], cn[j, 0], cn[j, 1])

    def decisions(i, j, low, high):
        inside = high < r
        return every_row, every_col, i, j, inside, (low < r) | inside

    def first_pass(block: np.ndarray):
        """(i, j, inside) of a full block after _EARLY_CHECKS steps; the
        pairs left open join the pool with their iterates.  No array of the
        block outlives the call, so none is held through the next block."""
        i, j, coords = gather(block)
        low, high, b = _oracle_1m(*coords, m, r, _EARLY_CHECKS)
        inside = high < r
        still_open = np.flatnonzero(~(inside | (low >= r)))  # nan when cut short
        pool.append((block[still_open], b[still_open], np.isnan(low[still_open])))
        return i, j, inside

    queue, queued, pool = [], 0, []
    for rows, cols, blocks in _lifted_tiles(screens, 1.0 - r * r):
        width = cols.stop - cols.start
        k = passed = None  # flat indices of the tile's pairs, and which pass the screen
        for (lifted, columns), slack, (p, c) in zip(blocks, slacks, screens):
            margin = (lifted @ columns).ravel()
            k = np.flatnonzero(margin > -slack) if k is None else k[passed]  # above the lower bounds
            margin = margin[k]
            passed = margin > slack
            loose = np.flatnonzero((margin >= -slack) & ~passed)
            if len(loose):
                i, j = np.divmod(k[loose], width)
                passed[loose] = _ball_pd(p[i + rows.start].T, c[j + cols.start].T) < r
        i, j = np.divmod(k, width)
        passed &= inner_p[i + rows.start] & inner_c[j + cols.start]  # the upper bound holds on B x B
        yield rows, cols, i, j, passed, passed  # an open pair reads Outside until its block
        queue.append((i[~passed] + rows.start) * len(centers) + (j[~passed] + cols.start))
        queued += len(queue[-1])
        if queued > _ORACLE_CHUNK:
            k = np.concatenate(queue)
            full = (queued - 1) // _ORACLE_CHUNK * _ORACLE_CHUNK  # keep a nonempty rest
            for start in range(0, full, _ORACLE_CHUNK):
                i, j, inside = first_pass(k[start : start + _ORACLE_CHUNK])
                # a decided pair is Inside or Outside; an open one reads
                # Outside here and is decided from the pool
                yield every_row, every_col, i, j, inside, inside
            queue, queued = [k[full:]], queued - full
    if queued:
        i, j, coords = gather(np.concatenate(queue))
        yield decisions(i, j, *_oracle_1m(*coords, m, r)[:2])
    if pool:
        # every pooled pair reaches Newton: half a block holds the memory of
        # a first-pass block
        k, b, moving = (np.concatenate(parts) for parts in zip(*pool))
        step = _ORACLE_CHUNK // 2
        for start in range(0, len(k), step):
            part = slice(start, start + step)
            i, j, coords = gather(k[part])
            yield decisions(i, j, *_resume(*coords, b[part], moving[part], m, r))


def ball_relation(
    spec: DomainSpec, pts: np.ndarray, centers: np.ndarray, r: float
) -> tuple[np.ndarray, np.ndarray]:
    """Pairwise (inside, maybe) for pts (B,n) against Kobayashi balls of
    tanh-radius r around centers (K,n): inside is certified tanh d < r, maybe
    is "not certified >= r" (inside or Uncertain).

    Disk and ball answer exactly, from the threshold tiles of _within_tiles
    (the same array is returned twice).  On the (1, m) ellipsoid the tiles
    of _settled_pairs test the Phi-images, the disc bound of the second
    coordinates and the unit-ball bound on B x B, and only the pairs those
    leave open reach the geodesic oracle.  Other domains use the polydisk
    sandwich in each center's minimal frame.  The answer for a pair does not
    depend on the other pairs of the call.
    """
    if not 0.0 < r < 1.0:
        raise InputError(f"tanh radius must lie in (0, 1), got {r}")
    pts, centers = (np.asarray(x, dtype=complex) for x in (pts, centers))
    if not has_exact_distance(spec):
        return _relate(spec, pts, centers, r, geometry.minimal_frames(spec, centers))
    maybe = np.zeros((len(pts), len(centers)), dtype=bool)
    if domains.is_ball(spec):
        for rows, cols, block in _within_tiles(pts, centers, r):
            maybe[rows, cols] = block
        return maybe, maybe
    inside = np.zeros_like(maybe)
    for rows, cols, i, j, inside_ij, maybe_ij in _settled_pairs(spec, pts, centers, r):
        inside[rows, cols][i, j] = inside_ij
        maybe[rows, cols][i, j] = maybe_ij
    return inside, maybe


def ball_counts(
    spec: DomainSpec, pts: np.ndarray, centers: np.ndarray, r: float
) -> tuple[np.ndarray, np.ndarray]:
    """Per point of pts: how many tanh-radius-r balls around centers certainly
    contain it (inside), and how many may (maybe), without a B x K relation:
    tile row sums on the disk and ball, the blocks of _settled_pairs binned
    by point on the (1, m) ellipsoid, and elsewhere ball_relation on blocks
    of _COUNT_CHUNK points, each center's frame computed once."""
    if not 0.0 < r < 1.0:
        raise InputError(f"tanh radius must lie in (0, 1), got {r}")
    pts, centers = (np.asarray(x, dtype=complex) for x in (pts, centers))
    maybe_n = np.zeros(len(pts), dtype=int)
    if domains.is_ball(spec):
        for rows, _, block in _within_tiles(pts, centers, r):
            maybe_n[rows] += np.count_nonzero(block, axis=1)
        return maybe_n, maybe_n
    inside_n = np.zeros(len(pts), dtype=int)
    if has_exact_distance(spec):
        for rows, _, i, _, inside, maybe in _settled_pairs(spec, pts, centers, r):
            size = rows.stop - rows.start
            hits = np.bincount(i[inside], minlength=size)
            inside_n[rows] += hits
            if maybe is not inside:  # tiles and first-pass blocks yield one array twice
                hits = np.bincount(i[maybe], minlength=size)
            maybe_n[rows] += hits
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
        blocked = np.zeros(len(free), dtype=bool)  # within[k, taken].any() for each k
        for k in range(len(free)):
            if not blocked[k]:
                taken.append(k)
                blocked |= within[:, k]
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
    # carry (9.8e-12 in C^2); a lower bound is trusted only above it
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
