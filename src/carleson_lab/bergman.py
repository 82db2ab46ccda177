"""Bergman kernels on Reinhardt model domains and the Berezin transform.

Monomials z^alpha are pairwise orthogonal on Reinhardt domains, so the kernel
is the diagonal series K(z,w) = sum_alpha z^alpha conj(w)^alpha / m_alpha with
m_alpha = ||z^alpha||^2.  The moments are Dirichlet integrals with a closed
Gamma-function form; the disk and ball also have closed kernels used both as a
fast path and as an independent cross-check.  All norms are taken against the
Lebesgue measure nu normalized so that nu(unit Euclidean ball) = 1.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import domains, geometry, kobayashi, measures
from .domains import DomainSpec, as_point
from .errors import CapabilityError, InputError, NumericError, ResourceError, TruncationError
from .measures import DensityMeasure, Estimate, NuBase, mean_estimate
from .polynomials import HoloPolynomial, poly_eval


def _reinhardt_data(spec: DomainSpec) -> tuple[tuple[int, ...], tuple[float, ...]]:
    if domains.is_ball(spec):
        return tuple([1] * spec.dim), tuple([1.0] * spec.dim)
    return tuple(spec.exponents), tuple(spec.semi_axes)


# ---------------------------------------------------------------------------
# moments


# entries of the (degree+1)^n index cube, checked before it is allocated: the
# largest model in use, C^3 at degree 60, has 61^3 = 226,981
_MAX_CUBE = 1 << 20


def _lgamma(x: np.ndarray) -> np.ndarray:
    """log Gamma of each entry of x, by math.lgamma once per distinct value."""
    values, inverse = np.unique(x, return_inverse=True)
    return np.array([math.lgamma(v) for v in values.tolist()])[inverse].reshape(x.shape)


@dataclass(frozen=True)
class MomentTable:
    """Moments m_alpha = ||z^alpha||^2 for all |alpha| <= degree on one domain."""

    dim: int
    degree: int
    exponents: tuple[int, ...]
    semi_axes: tuple[float, ...]
    values: np.ndarray  # cube (degree+1,)*dim; nan where |alpha| > degree


def moments(spec: DomainSpec, degree: int) -> MomentTable:
    """Tabulate m_alpha for |alpha| <= degree in closed form.

    With s_i = (alpha_i + 1)/m_i the radial reduction is a Dirichlet integral,
      m_alpha = n! prod_i (a_i^(2 alpha_i + 2) / m_i) prod_i Gamma(s_i) / Gamma(1 + sum_i s_i),
    evaluated in logarithms over the whole index cube (math.lgamma, once per
    distinct argument).
    """
    if degree < 0:
        raise InputError(f"degree must be >= 0, got {degree}")
    exponents, semi_axes = _reinhardt_data(spec)
    n = spec.dim
    if (degree + 1) ** n > _MAX_CUBE:
        raise ResourceError(
            f"a moment table of degree {degree} in dimension {n} has {degree + 1}^{n} "
            f"entries, above the cap of {_MAX_CUBE}"
        )
    alpha = np.indices((degree + 1,) * n, dtype=float)
    col = (n,) + (1,) * n
    m = np.asarray(exponents, dtype=float).reshape(col)
    s = (alpha + 1.0) / m
    log_a = np.log(np.asarray(semi_axes)).reshape(col)
    terms = (2.0 * alpha + 2.0) * log_a - np.log(m) + _lgamma(s)
    log_m = math.lgamma(n + 1.0) + terms.sum(axis=0) - _lgamma(1.0 + s.sum(axis=0))
    cube = np.where(alpha.sum(axis=0) <= degree, np.exp(log_m), np.nan)
    return MomentTable(
        dim=n, degree=degree, exponents=exponents, semi_axes=semi_axes, values=cube
    )


def moment(table: MomentTable, alpha) -> float:
    alpha = tuple(int(a) for a in alpha)
    if len(alpha) != table.dim or any(a < 0 for a in alpha) or sum(alpha) > table.degree:
        raise InputError(f"multi-index {alpha} outside table of degree {table.degree}")
    return float(table.values[alpha])


# ---------------------------------------------------------------------------
# kernel models


@dataclass(frozen=True)
class KernelModel:
    """Bergman kernel evaluator: closed ball form or Reinhardt moment series."""

    spec: DomainSpec
    variant: str  # "closed" | "series"
    degree: int
    table: MomentTable | None
    coeffs: np.ndarray | None  # 1/m_alpha cube, zeros beyond total degree
    tail_w: np.ndarray | None  # W_k = max_{|alpha|=k} alpha! a^(2 alpha)/(k! m_alpha)
    tail_ratio: float


def closed_ball_model(spec: DomainSpec) -> KernelModel:
    if not domains.is_ball(spec):
        raise CapabilityError(f"closed-form kernel requires the disk/ball, got {spec.kind!r}")
    return KernelModel(
        spec=spec, variant="closed", degree=0, table=None, coeffs=None, tail_w=None, tail_ratio=0.0
    )


def reinhardt_series_model(spec: DomainSpec, degree: int = 60) -> KernelModel:
    table = moments(spec, degree)
    cube = table.values
    coeffs = np.where(np.isnan(cube), 0.0, 1.0 / np.where(np.isnan(cube), 1.0, cube))
    # degree-k slice bound in the scaled variables p_i / a_i^2 (p = z conj w):
    # sum_{|a|=k} |p^a|/m_a <= W_k (sum_i |p_i|/a_i^2)^k with
    # W_k = max_{|a|=k} a! a^(2a)/(k! m_a), by the multinomial theorem
    alpha = np.indices(cube.shape)
    k = alpha.sum(axis=0)
    inside = k <= degree
    lw = _lgamma(alpha + 1.0).sum(axis=0) - _lgamma(k + 1.0) - np.log(cube)
    log_a = np.log(np.asarray(table.semi_axes)).reshape((-1,) + (1,) * table.dim)
    lw += (2.0 * alpha * log_a).sum(axis=0)
    logw = np.full(degree + 1, -np.inf)
    np.maximum.at(logw, k[inside], lw[inside])
    w = np.exp(logw)
    ratios = w[1:] / w[:-1]
    # safety margin on the empirical growth ratio of the degree slices
    tail_ratio = float(np.max(ratios[-10:])) * 1.05 if len(ratios) else 1.0
    return KernelModel(
        spec=spec,
        variant="series",
        degree=degree,
        table=table,
        coeffs=coeffs,
        tail_w=w,
        tail_ratio=tail_ratio,
    )


def kernel_model(spec: DomainSpec, degree: int = 60) -> KernelModel:
    """Closed form on the disk/ball, moment series on ellipsoids."""
    if domains.is_ball(spec):
        return closed_ball_model(spec)
    return reinhardt_series_model(spec, degree=degree)


def nu_volume(spec: DomainSpec) -> float:
    """nu(D) = m_0 = ||1||^2 by the moment formula: exactly 1 on the disk and
    the ball, where nu is normalized, and the m_0 of every moment table."""
    return moment(moments(spec, 0), (0,) * spec.dim)


def _power_table(p: np.ndarray, d: int, out: np.ndarray | None = None) -> np.ndarray:
    """Powers p[:, j]^a, a < d, as an (n, d, k) array whose (d, k) slices have
    C-contiguous rows, filled by doubling: rows [f, 2f) are rows [0, f) times
    p^f.  The table is written into ``out`` when given; p may be out[:, 1].T
    itself, and is then not copied."""
    v = np.empty((p.shape[1], d, len(p)), dtype=complex) if out is None else out
    if d > 1 and not np.may_share_memory(v, p):
        v[:, 1] = p.T
    v[:, 0] = 1.0
    f = 2
    while f < d:
        t = min(f, d - f)
        h = v[:, f // 2]
        np.multiply(v[:, :t], (h * h)[:, None, :], out=v[:, f : f + t])
        f += t
    return v


# Real matrix products of at most _PRODUCT multiply-adds.  On 2 cores
# OpenBLAS ran products of up to 998400 multiply-adds on the calling thread
# and those of 1024000 on two; 2^19 stays a factor 2 below that switch.  A
# one-row product goes to gemv, which split from between 439200 and 475800
# entries on, so one row against all d powers stays within _PRODUCT / 2.
# On two threads the full 61 x 61 cube took twice the process time of the
# wall time, and its spinning worker competed with the elementwise work
# between the products (kobayashi._PRODUCT caps its tiles for that reason).
_PRODUCT = 1 << 19

# complex entries of the (rows, k) product per chunk of k points; kernel_row
# forms p = pts * conj(z0) and the tail's l1 norms chunk by chunk too.
# Medians of 5 on 2 shared cores, 2^16 points per row, wall and process time:
#   entries   16 ELL12 rows, degree 60   one 3-ball row, degree 40
#   2^13      1.63 s   cpu 1.61 s        1.48 s   cpu 1.47 s
#   2^14      1.12 s   cpu 1.12 s        0.84 s   cpu 0.84 s
#   2^15      0.91 s   cpu 0.91 s        0.77 s   cpu 0.77 s
#   2^16      0.94 s   cpu 0.94 s        0.71 s   cpu 0.71 s
#   2^17      1.43 s   cpu 1.43 s        0.77 s   cpu 0.77 s
#   2^18      1.39 s   cpu 1.39 s        0.72 s   cpu 0.72 s
# Below 2^15 the per-call work of numpy outweighs the products.  From 2^17
# on, a degree-60 chunk in C^2 is held at 2148 points (see _chunk), where
# the products have only two rows each.  The full cube on two threads, run
# beside it at 2^16, took 1.06 s (cpu 2.11 s) and 1.24 s (cpu 2.46 s).
_EVAL_ENTRIES = 1 << 16


def _chunk(n: int, d: int) -> int:
    """Points per kernel_row chunk: the product has about _EVAL_ENTRIES
    complex entries over its C(d + n - 2, n - 1) simplex rows, and one row
    against all d powers has at most _PRODUCT / 2 multiply-adds."""
    return max(1, min(_EVAL_ENTRIES // math.comb(d + n - 2, n - 1), _PRODUCT // (4 * d)))


@functools.lru_cache(maxsize=16)
def _simplex(n: int, d: int, points: int) -> tuple[np.ndarray, np.ndarray, tuple]:
    """The degree simplex |alpha| < d of an n-coordinate cube, for chunks of
    ``points`` points, as (rows, lead, blocks).

    The leading multi-indices a' (all coordinates but the last) with
    |a'| < d, ordered by total degree: rows holds their flat indices into
    cube.reshape(-1, d), lead their exponents.  Row a' needs the powers
    a_n < d - |a'| of the last coordinate, never more than the row before
    it, so each block (first, end, columns) is a contiguous slice of rows
    whose real product against the first ``columns`` powers has at most
    _PRODUCT multiply-adds (a single row may exceed it when points is large)."""
    lead = np.indices((d,) * (n - 1)).reshape(n - 1, d ** (n - 1)).T
    degree = lead.sum(axis=1)
    rows = np.argsort(degree, kind="stable")
    rows = rows[degree[rows] < d]
    need = d - degree[rows]
    blocks, first = [], 0
    while first < len(rows):
        cols = int(need[first])
        end = min(len(rows), first + max(1, _PRODUCT // (2 * points * cols)))
        blocks.append((first, end, cols))
        first = end
    return rows, lead[rows], tuple(blocks)


def _eval_work(cube: np.ndarray, points: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """What _eval_cube needs for chunks of up to ``points`` points, which a
    kernel_row call reuses across its chunks: the power table buffer (with
    a row 1 for p even at degree 0), the product buffer, and the cube's
    simplex rows."""
    n, d = cube.ndim, cube.shape[0]
    rows = _simplex(n, d, points)[0]
    table = np.empty((n, max(d, 2), points), dtype=complex)
    return table, np.empty((len(rows), 2 * points)), cube.reshape(-1, d)[rows]


def _eval_cube(cube: np.ndarray, p: np.ndarray, work: tuple | None = None) -> np.ndarray:
    """sum_alpha cube[alpha] * prod_i p[..,i]^alpha_i for one chunk p of shape (k, n).

    Only the degree simplex is read (see _simplex).  Real matrix products,
    each small enough to run on the calling thread, contract the last
    coordinate: the cube is real, so it acts on the interleaved real and
    imaginary parts of the power table alike.  The leading powers are then
    multiplied in, one coordinate at a time, and the rows summed.  ``work``
    is from _eval_work.
    """
    n, d, k = p.shape[1], cube.shape[0], len(p)
    _, lead, blocks = _simplex(n, d, k)
    table, product, coeffs = _eval_work(cube, k) if work is None else work
    v = _power_table(p, d, out=table[:, :d, :k])
    last, product = v[-1].view(float), product[:, : 2 * k]
    for first, end, cols in blocks:
        np.matmul(coeffs[first:end, :cols], last[:cols], out=product[first:end])
    t = product.view(complex)
    for i in range(n - 1):
        # with n = 2 the rows are a_0 = 0, 1, ..., d - 1: v[0] itself
        np.multiply(t, v[0] if n == 2 else v[i][lead[:, i]], out=t)
    return t.sum(axis=0)


def _series_tail(model: KernelModel, s: float) -> float:
    """Estimated truncation remainder sum_{k>N} W_k s^k via ratio extrapolation.

    Here s is the l1 norm sum_i |z_i w_i| / a_i^2 of the pair in the scaled
    variables z_i / a_i, in which the domain has unit semi-axes.
    """
    if s <= 0.0:
        return 0.0
    rho = model.tail_ratio
    if s * rho >= 1.0:
        return math.inf
    w_last = float(model.tail_w[-1])
    return w_last * rho * s ** (model.degree + 1) / (1.0 - s * rho)


# the series tail kernel_row accepts, relative to the smallest value of the row
_TAIL_TOL = 1e-6


def kernel_row(model: KernelModel, z0, pts) -> np.ndarray:
    """K(p, z0) for a batch of points p; raises TruncationError when the
    series tail exceeds _TAIL_TOL times the row's scale."""
    z0 = as_point(model.spec, z0)
    pts = np.atleast_2d(np.asarray(pts, dtype=complex))
    n = model.spec.dim
    if model.variant == "closed":
        inner = domains.coordinate_sum(pts.T, np.conj(z0))
        return (1.0 - inner) ** (-(n + 1.0))
    w, a2 = np.conj(z0), np.square(model.table.semi_axes)
    d = model.coeffs.shape[0]
    chunk = _chunk(n, d)
    work = _eval_work(model.coeffs, max(1, min(chunk, len(pts))))
    values = np.empty(len(pts), dtype=complex)
    # each chunk's largest l1 norm and smallest modulus: exact in any order
    l1_max, modulus_min = [], []
    for start in range(0, len(pts), chunk):
        k = min(chunk, len(pts) - start)
        p = work[0][:, 1, :k]  # p = pts * conj(z0), formed in the power table's row 1
        np.multiply(pts[start : start + k].T, w[:, None], out=p)
        l1 = np.abs(p[0]) / a2[0]
        for i in range(1, n):  # column by column: the order of a sum over the last axis
            l1 += np.abs(p[i]) / a2[i]
        l1_max.append(l1.max())
        values[start : start + k] = row = _eval_cube(model.coeffs, p.T, work)
        modulus_min.append(np.abs(row).min())
    s = float(np.max(l1_max, initial=0.0))
    tail = _series_tail(model, s)
    floor = 1.0 / float(model.table.values[(0,) * n])
    scale = max(float(np.min(modulus_min, initial=np.inf)), floor)
    if not tail <= _TAIL_TOL * scale:
        raise TruncationError(
            "series tail exceeds tolerance; increase the degree or move off the boundary",
            {"degree": model.degree, "tail": tail, "scale": scale, "s": s},
        )
    return values


def kernel(model: KernelModel, z, w) -> complex:
    w = as_point(model.spec, w)
    return complex(kernel_row(model, w, as_point(model.spec, z)[None, :])[0])


def kernel_diag(model: KernelModel, z) -> float:
    value = kernel(model, z, z)
    if not value.real > 0.0:
        raise NumericError("kernel diagonal must be positive", {"value": value})
    return value.real


def normalized_kernel(model: KernelModel, z0, pts) -> np.ndarray:
    """k_{z0}(p) = K(p, z0)/sqrt(K(z0,z0)); unit A^2 norm by the reproducing identity."""
    return kernel_row(model, z0, pts) / math.sqrt(kernel_diag(model, z0))


# ---------------------------------------------------------------------------
# reproducing-property residual


@dataclass(frozen=True)
class ReproduceReport:
    estimate: complex
    exact: complex
    residual: float
    samples: int


def reproduce_check(model: KernelModel, poly: HoloPolynomial, z, points: np.ndarray) -> ReproduceReport:
    """Quasi-Monte Carlo residual |integral K(z,.)f dnu - f(z)| over ``points``.

    ``points`` is a nu-uniform sample of D that the caller draws, typically
    quasi_uniform (the exact smooth sampler: no boundary indicator, so the
    integrand stays QMC-friendly); one draw can serve several checks.
    """
    spec = model.spec
    z = as_point(spec, z)
    # K(z, zeta) = conj K(zeta, z); the row is anti-holomorphic in its second
    # slot.  The products overwrite the row block by block (domains._blocks)
    vals = kernel_row(model, z, points)
    for block in domains._blocks(len(vals)):
        vals[block] = np.conj(vals[block]) * poly_eval(poly, points[block])
    estimate = nu_volume(spec) * complex(vals.mean())
    exact = complex(poly_eval(poly, z))
    return ReproduceReport(
        estimate=estimate, exact=exact, residual=abs(estimate - exact), samples=len(points)
    )


# ---------------------------------------------------------------------------
# Berezin transform


def berezin_many(model: KernelModel, mu, zs, base: NuBase | None = None) -> list[Estimate]:
    """Berezin transform at several points sharing one base sample: the
    operator quotient at f = k_z, whose A^2 norm is 1.

    ``base`` is a measures.NuBase that the caller draws.  On the disk and
    ball a density is pulled back through the automorphism, base point by
    base point ("mobius", variance-free for the Lebesgue density): per z,
    the density of each block of _BLOCK pulled-back points (domains._blocks)
    fills one array, whose mean and standard error are those of a whole-base
    pass, bit for bit.  Otherwise measures.square_integrals integrates
    |k_z|^2 ("atomic" or "qmc"), kernel_row taking the base in its own chunks.
    """
    spec = model.spec
    zs = np.atleast_2d(np.asarray(zs, dtype=complex))
    if isinstance(mu, DensityMeasure):
        measures._check_base(getattr(base, "points", None), spec.dim)
        if domains.is_ball(spec):
            out = []
            vals = np.empty(len(base.points))
            for z in zs:
                phi = kobayashi.mobius_translation(spec, z)
                for block in domains._blocks(len(vals)):
                    vals[block] = mu.density(phi(base.points[block]))
                out.append(mean_estimate(vals, "mobius"))
            return out
    kernels = [functools.partial(normalized_kernel, model, z) for z in zs]
    return measures.square_integrals(mu, kernels, base)


def berezin(model: KernelModel, mu, z, base: NuBase | None = None) -> Estimate:
    return berezin_many(model, mu, as_point(model.spec, z)[None, :], base)[0]


# ---------------------------------------------------------------------------
# kernel lower-bound check on the collar


@dataclass(frozen=True)
class LowerBoundCheck:
    values: np.ndarray  # K(z,z) * prod sigma_i(z)^2 at each point
    re_constant: float
    k2_constant: float


_OFFDIAG_R0 = 0.1  # kernel_lowerbound_check probes only radii below this


def kernel_lowerbound_check(
    spec: DomainSpec,
    model: KernelModel,
    r: float,
    points,
    samples_per_point: int = 32,
    seed: int = 0,
) -> LowerBoundCheck:
    """Empirical kernel floors on the diagonal and near it, in each point's
    minimal frame (one geometry.minimal_frames call; one K(z,z) per point).

    values[i] is K(z_i,z_i) * prod sigma_i^2, the diagonal lower bound
    K(z,z) >~ prod sigma_i(z)^-2.  For each point z0 the check also samples
    omega in the certified inner polydisk of B_D(z0, r), r < _OFFDIAG_R0, and
    records the infima of Re K(z0,omega)*prod sigma^2 and |k_{z0}(omega)|^2 *
    prod sigma^2, the lower bound of |k_z|^2 on small Kobayashi balls.  The
    Berezin => geometric step of the proof rests on both.
    """
    if not 0.0 < r < _OFFDIAG_R0:
        raise InputError(f"radius {r} outside (0, {_OFFDIAG_R0})")
    pts = np.atleast_2d(np.asarray(points, dtype=complex))
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    frames = geometry.minimal_frames(spec, pts)
    vals = np.empty(len(pts))
    re_min = k2_min = math.inf
    for i, z0 in enumerate(pts):
        sandwich = kobayashi.ball_sandwich(spec, z0, r, frame=frames[i])
        omega = geometry.sample_polydisk(sandwich.inner, samples_per_point, rng)
        prod = float(np.prod(frames.sigma[i] ** 2))
        row = kernel_row(model, z0, omega)
        diag = kernel_diag(model, z0)
        vals[i] = diag * prod
        re_min = min(re_min, float((row.real * prod).min()))
        k2_min = min(k2_min, float((np.abs(row) ** 2 / diag * prod).min()))
    return LowerBoundCheck(values=vals, re_constant=re_min, k2_constant=k2_min)
