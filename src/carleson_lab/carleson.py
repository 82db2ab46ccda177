"""The three Carleson-measure criteria as executable testers.

For a finite positive measure mu on a convex model domain the theorem under
test says the following are equivalent: (1) the embedding A^2 -> L^2(mu) is
bounded, (2) the Berezin transform of mu is bounded, (3) mu(B_D(z,r)) is
dominated by nu(B_D(z,r)) uniformly in z.  None of these is finitely decidable,
so each criterion is probed on a boundary-refining grid and the verdict is a
documented heuristic on the dyadic tail of the per-level suprema.

Also here: the greedy construction of a bounded-overlap cover by Kobayashi
balls and its overlap counts.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from . import bergman, domains, geometry, kobayashi, measures, tables
from .bergman import KernelModel
from .domains import DomainSpec
from .errors import ConfigError, InputError, ResourceError
from .measures import AtomicMeasure, DensityMeasure, NuBase

BOUNDED = "Bounded"
DIVERGING = "Diverging"
INCONCLUSIVE = "Inconclusive"


# ---------------------------------------------------------------------------
# grid


@dataclass(frozen=True)
class GridPoint:
    point: np.ndarray
    kind: str  # "ray" | "interior"
    level_index: int  # -1 for interior points
    level_value: float  # defining-function level -lambda_j (0.0 for interior)
    delta: float
    ray_index: int  # -1 for interior points


@dataclass(frozen=True)
class CarlesonConfig:
    r: float = 0.3
    levels: int = 7
    extra_rays: int = 8  # seeded directions beyond the 4n canonical ones
    interior_points: int = 32
    seed: int = 0
    berezin_samples: int = 1 << 16
    mass_samples: int = 1 << 14

    def __post_init__(self):
        if not 0.0 < self.r < 1.0:
            raise ConfigError(f"r must lie in (0,1), got {self.r}")
        if self.levels < 4:
            raise ConfigError(f"need at least 4 dyadic levels for a verdict, got {self.levels}")
        for name in ("berezin_samples", "mass_samples"):
            if getattr(self, name) < 2:
                raise ConfigError(
                    f"{name} must be >= 2 for a standard error, got {getattr(self, name)}"
                )


def _ray_directions(spec: DomainSpec, extra: int, seed: int) -> np.ndarray:
    """Canonical +-e_i, +-i e_i first (flattest/roundest boundary points of the
    models sit on the axes), then seeded isotropic directions."""
    n = spec.dim
    dirs = []
    for i in range(n):
        for phase in (1.0, -1.0, 1j, -1j):
            d = np.zeros(n, dtype=complex)
            d[i] = phase
            dirs.append(d)
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(101,)))
    for _ in range(extra):
        v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        dirs.append(v / np.linalg.norm(v))
    return np.array(dirs)


def grid_levels(config: CarlesonConfig) -> np.ndarray:
    """Dyadic levels lambda_j = lambda_0 2^-j with lambda_0 = 0.5 |r(anchor)|
    = 0.5: r is -1 at the anchor, the origin, on every model."""
    return 0.5 * 0.5 ** np.arange(config.levels)


def build_grid(spec: DomainSpec, config: CarlesonConfig) -> list[GridPoint]:
    """Dyadic boundary-approaching rays plus quasi-random interior points."""
    anchor = domains.anchor_point(spec)
    lams = grid_levels(config)
    dirs = _ray_directions(spec, config.extra_rays, config.seed)
    roots = domains.level_roots(spec, anchor, dirs, -lams[:, None]).tolist()  # (levels, rays)
    rays = [(j, k, anchor + roots[j][k] * d) for j in range(len(lams)) for k, d in enumerate(dirs)]
    interior = domains.quasi_interior(
        spec, config.interior_points, seed=config.seed + 7, level_floor=float(lams[0])
    )
    points = np.array([z for _, _, z in rays] + list(interior))
    deltas = domains.boundary_distance_batch(spec, points).tolist()
    grid = [
        GridPoint(point=z, kind="ray", level_index=j, level_value=-lams[j], delta=delta, ray_index=k)
        for (j, k, z), delta in zip(rays, deltas)
    ]
    return grid + [
        GridPoint(point=z, kind="interior", level_index=-1, level_value=0.0, delta=delta, ray_index=-1)
        for z, delta in zip(interior, deltas[len(rays) :])
    ]


# ---------------------------------------------------------------------------
# verdicts


def verdict_from_levels(per_level_sup) -> str:
    """Dyadic tail heuristic: monotone x4 growth over the last four levels is
    Diverging; a running-sup plateau within 20 percent is Bounded."""
    s = np.asarray(per_level_sup, dtype=float)
    if len(s) < 4:
        raise InputError(f"need at least 4 levels, got {len(s)}")
    tail = s[-4:]
    if np.all(np.diff(tail) > 0.0) and tail[-1] >= 4.0 * tail[0]:
        return DIVERGING
    running = np.maximum.accumulate(s)
    if running[-1] <= 1.2 * running[-4] or running[-1] == 0.0:
        return BOUNDED
    return INCONCLUSIVE


@dataclass(frozen=True)
class CriterionTrace:
    name: str
    values: np.ndarray  # per grid point; per dyadic level for criterion (1)
    stderr: np.ndarray  # zeros when exact
    per_level: np.ndarray  # sup over ray points of each dyadic level
    sup: float
    verdict: str
    lower: np.ndarray | None = None  # geometric bracket lower values


def _trace(
    name: str,
    grid: list[GridPoint],
    levels: int,
    values: np.ndarray,
    stderr: np.ndarray,
    lower: np.ndarray | None = None,
) -> CriterionTrace:
    """A criterion's trace from its per-point values: the sup of each dyadic
    level over the ray points (interior points belong to no level), the sup
    over the whole grid and the verdict on the level sups."""
    ray = np.array([gp.kind == "ray" for gp in grid])
    level_index = np.array([gp.level_index for gp in grid])
    per_level = np.zeros(levels)
    np.maximum.at(per_level, level_index[ray], values[ray])
    sup, verdict = float(values.max()), verdict_from_levels(per_level)
    return CriterionTrace(name, values, stderr, per_level, sup, verdict, lower)


# ---------------------------------------------------------------------------
# criterion (2): Berezin transform on the grid


def nu_uniform_base(spec: DomainSpec, mu, config: CarlesonConfig) -> NuBase | None:
    """The one nu-uniform sample of D, and the density on it, that criteria (1) and (2)
    integrate over: config.berezin_samples quasi_uniform points of config.seed."""
    if not isinstance(mu, DensityMeasure):
        return None
    points = domains.quasi_uniform(spec, config.berezin_samples, seed=config.seed)
    return NuBase(points, bergman.nu_volume(spec) * mu.density(points))


def criterion_berezin(
    model: KernelModel,
    mu,
    grid: list[GridPoint],
    config: CarlesonConfig,
    base: NuBase | None,
) -> CriterionTrace:
    zs = np.array([gp.point for gp in grid])
    estimates = bergman.berezin_many(model, mu, zs, base)
    values = np.array([e.value for e in estimates])
    stderr = np.array([e.stderr for e in estimates])
    return _trace("berezin", grid, config.levels, values, stderr)


# ---------------------------------------------------------------------------
# criterion (3): bracketed mass ratios


def criterion_geometric(
    spec: DomainSpec,
    mu,
    grid: list[GridPoint],
    config: CarlesonConfig,
) -> CriterionTrace:
    # one frame field over the grid, and one unit-polydisk sample, from a
    # stream of its own, mapped into both polydisks of every point's sandwich
    frames = geometry.minimal_frames(spec, [gp.point for gp in grid])
    base = None
    if isinstance(mu, DensityMeasure):
        rng = np.random.default_rng(np.random.SeedSequence(config.seed, spawn_key=(303,)))
        base = geometry.unit_polydisk_sample(spec.dim, config.mass_samples, rng)

    def one(k: int, gp: GridPoint) -> tuple[float, float, float]:
        sandwich = kobayashi.ball_sandwich(spec, gp.point, config.r, frame=frames[k])
        inner = measures.mass(spec, mu, sandwich.inner, base)
        outer = measures.mass(spec, mu, sandwich.outer, base)
        vol_inner = geometry.polydisk_nu_volume(sandwich.inner)
        vol_outer = geometry.polydisk_nu_volume(sandwich.outer)
        return inner.value / vol_outer, outer.value / vol_inner, outer.stderr / vol_inner

    lower, upper, stderr = np.array([one(k, gp) for k, gp in enumerate(grid)]).T
    return _trace("geometric", grid, config.levels, upper, stderr, lower=lower)


# ---------------------------------------------------------------------------
# criterion (1): the embedding norm on polynomials, by Rayleigh-Ritz
#
# Products are einsums and the top eigenvalue comes from Lanczos: after a threaded
# BLAS or LAPACK call OpenBLAS's worker spins for about 0.1 s of CPU, more than this
# criterion takes on most measures.  An atomic Gram of over 2^23 products is a matmul.


def operator_ladder(dim: int, levels: int) -> list[int]:
    """Degree d_j of level j: round(d_top 2^(-(levels - 1 - j)/2)), at least 1,
    with d_top the largest degree <= 64 with at most 325 = C(24 + 2, 2)
    monomials: 64 on the disk, 24 in C^2, 10 in C^3."""
    top = max(d for d in range(65) if math.comb(d + dim, dim) <= 325)
    return [max(1, round(top * 2.0 ** (-(levels - 1 - j) / 2))) for j in range(levels)]


def _top_eigenvalue(g: np.ndarray) -> float:
    """Largest eigenvalue of the Hermitian positive semidefinite g by Lanczos with
    full reorthogonalization from a fixed random start, until the top Ritz value stalls."""
    x = np.random.default_rng(0).standard_normal(len(g))
    q = np.zeros((len(g) + 1, len(g)), dtype=complex)
    q[0] = x / np.linalg.norm(x)
    diag, off, theta = [], [], -np.inf
    for j in range(len(g)):
        w = np.einsum("ab,b->a", g, q[j])
        diag.append(np.vdot(q[j], w).real)
        for _ in range(2):  # twice is enough
            w -= np.einsum("jb,j->b", q[: j + 1], np.einsum("jb,b->j", q[: j + 1].conj(), w))
        ritz = np.linalg.eigvalsh(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))
        last, theta = theta, ritz[-1]
        off.append(np.linalg.norm(w))
        if theta - last <= 1e-15 * theta or off[-1] <= 1e-15 * theta or j + 1 == len(g):
            return float(theta)
        q[j + 1] = w / off[-1]


def criterion_operator(spec: DomainSpec, mu, config: CarlesonConfig, base: NuBase | None) -> CriterionTrace:
    """lambda(d_j) per dyadic level j, d_j from operator_ladder.  lambda(d), the
    top eigenvalue of G[a, b] = integral e_a conj(e_b) dmu, |a|, |b| <= d, for
    the monomials e_a = z^a / sqrt(m_a), orthonormal in A^2 on every Reinhardt
    model, is the sup of integral |f|^2 dmu / ||f||^2 over the polynomials of
    degree <= d: a lower bound of the squared norm of A^2 -> L^2(mu), never
    decreasing in d.  By total degree every rung is a leading block of one G.
    Atoms: G = V^H W V, over blocks of atoms.  A density: the diagonal, on the
    shared ``base``, as max_a G[a, a] <= lambda(d), equal for Reinhardt-invariant
    densities (both named ones); a Monte Carlo G would be biased upward."""
    n, degrees = spec.dim, operator_ladder(spec.dim, config.levels)
    sizes, size = [math.comb(d + n, n) for d in degrees], degrees[-1] + 1
    cube = bergman.moments(spec, degrees[-1]).values  # refuses a cube too large to hold
    alpha = np.indices((size,) * n).reshape(n, -1).T  # by total degree, |alpha| <= d_top
    alpha = alpha[np.argsort(alpha.sum(axis=1), kind="stable")][: sizes[-1]]
    m = cube[tuple(alpha.T)]
    if isinstance(mu, AtomicMeasure):
        gram, large = np.zeros((len(m), len(m)), dtype=complex), mu.count * len(m) ** 2 > 1 << 23
        step = max(1, bergman._EVAL_ENTRIES // len(m))  # no (atoms x basis) array whole
        for start in range(0, mu.count, step):
            v = 1.0 / np.sqrt(m)
            for i, col in enumerate(mu.points[start : start + step].T):
                v = v * np.vander(col, size, increasing=True)[:, alpha[:, i]]
            wv = mu.weights[start : start + step, None] * v
            gram += v.conj().T @ wv if large else np.einsum("ka,kb->ab", v.conj(), wv)
        lam, stderr = np.array([_top_eigenvalue(gram[:p, :p]) for p in sizes]), np.zeros(len(sizes))
    else:
        measures._check_base(getattr(base, "points", None), n)
        sums = 0.0
        for block in domains._blocks(len(base.points)):
            t = np.abs(base.points[block]) ** 2
            *tables, last = [np.vander(col, size, increasing=True) for col in t.T]
            lead = base.weight[block, None]
            for v in tables:
                lead = (lead[:, :, None] * v[:, None, :]).reshape(len(lead), -1)
            sums = sums + np.einsum("ka,kb->ab", lead, last)
        diag = sums.reshape((size,) * n)[tuple(alpha.T)] / len(base.points) / m
        best = [int(np.argmax(diag[:p])) for p in sizes]
        fs = [lambda z, a=alpha[b], s=math.sqrt(m[b]): np.prod(np.abs(z) ** a, axis=1) / s for b in best]
        lam = diag[best]
        stderr = np.array([e.stderr for e in measures.square_integrals(mu, fs, base)])
    return CriterionTrace("operator", lam, stderr, lam, float(lam[-1]), verdict_from_levels(lam))


# ---------------------------------------------------------------------------
# joint report


@dataclass(frozen=True)
class CarlesonReport:
    grid: list[GridPoint]
    berezin: CriterionTrace
    geometric: CriterionTrace
    operator: CriterionTrace
    config: CarlesonConfig
    measure_label: str

    @property
    def traces(self) -> tuple[CriterionTrace, CriterionTrace, CriterionTrace]:
        """Criteria (2), (3) and (1), the order every report writer keeps."""
        return (self.berezin, self.geometric, self.operator)


def carleson_test(spec: DomainSpec, model: KernelModel, mu, config: CarlesonConfig) -> CarlesonReport:
    grid = build_grid(spec, config)
    base = nu_uniform_base(spec, mu, config)
    c2 = criterion_berezin(model, mu, grid, config, base)
    c3 = criterion_geometric(spec, mu, grid, config)
    c1 = criterion_operator(spec, mu, config, base)
    return CarlesonReport(grid, c2, c3, c1, config, getattr(mu, "label", type(mu).__name__))


# ---------------------------------------------------------------------------
# covering lemma construction


@dataclass(frozen=True)
class CoverageReport:
    total: int
    certified: int
    heuristic: int
    uncovered: int

    @property
    def fraction(self) -> float:
        return (self.certified + self.heuristic) / self.total if self.total else 1.0


@dataclass(frozen=True)
class CoverResult:
    centers: np.ndarray
    r: float
    level: float
    coverage: CoverageReport
    candidate_count: int
    seed: int


_CORE_LEVEL = 0.1  # core level of kobayashi_cover: a tenth of |r(anchor)| = 1


def kobayashi_cover(
    spec: DomainSpec,
    r: float,
    seed: int = 0,
    candidates: int = 30000,
    test_count: int = 10000,
) -> CoverResult:
    """Greedy maximal family of disjoint radius-r/3 Kobayashi balls on the core
    {defining function <= -level}, level = _CORE_LEVEL = 0.1, with a
    coverage report for the radius-r balls around the returned centers on the
    leading test_count candidates.

    A candidate is rejected when its r/3 ball may meet an accepted one, i.e.
    its center distance is not certified >= tanh(2 atanh(r/3)).  Coverage is
    then measured, not assumed: a test point is certified when its distance
    to some center is certified < r, uncovered when it is certified >= r from
    every center, and heuristic otherwise (some membership is Uncertain).
    Both steps go through kobayashi.ball_relation, so on the domains with the
    exact distance oracle (disk, ball, (1, m) ellipsoid) heuristic points are
    those whose bracket stays open.
    Most of the test sample is settled by the greedy itself:
    greedy_separated marks every candidate certified within r* < r of an
    accepted center (accepted ones included), and Inside at r* is Inside at
    r, in the frame gauge (r*/n < r/n) as on the oracle.  Only the unmarked
    sample points are counted against the centers.  The report is the one a
    full count would give.
    Any uncovered point raises ResourceError.
    """
    if not 0.0 < r < 1.0:
        raise InputError(f"tanh radius must lie in (0,1), got {r}")
    anchor = domains.anchor_point(spec)
    third = math.atanh(r / 3.0)
    r_star = math.tanh(2.0 * third)  # centers closer than this have meeting r/3 balls

    if test_count > candidates:
        raise ConfigError(f"test_count {test_count} exceeds candidate count {candidates}")
    pts = domains.quasi_interior(spec, candidates, seed=seed, level_floor=_CORE_LEVEL)
    sample = pts[:test_count]
    # Deepest-first processing: the packing fills the domain in level shells,
    # which makes the overlap multiplicity reproducible across seeds.  Greedy
    # maximality (hence coverage of every candidate) holds in any order.
    # The anchor goes first.  Starting every run from the same maximal point
    # removes the run-to-run freedom in the first accepted ball, which
    # otherwise shifts the whole boundary crust of the packing.
    depth = domains._value_batch(spec, pts)
    order = np.argsort(depth, kind="stable")
    stream = np.vstack([anchor[None, :], pts[order]])
    kept, covered = kobayashi.greedy_separated(spec, stream, r_star)
    zs = stream[kept]

    witnessed = np.empty(len(pts), dtype=bool)
    witnessed[order] = covered[1:]  # stream[1 + k] is pts[order[k]]
    witnessed = witnessed[:test_count]
    inside_n, maybe_n = kobayashi.ball_counts(spec, sample[~witnessed], zs, r)
    certified = int(witnessed.sum()) + int((inside_n > 0).sum())
    uncovered = int((maybe_n == 0).sum())
    coverage = CoverageReport(
        total=len(sample),
        certified=certified,
        heuristic=len(sample) - certified - uncovered,
        uncovered=uncovered,
    )
    if uncovered:
        raise ResourceError(
            f"{uncovered} of {len(sample)} test points not covered at r={r}; "
            "supply more candidates or a shallower core level"
        )
    return CoverResult(
        centers=zs,
        r=r,
        level=_CORE_LEVEL,
        coverage=coverage,
        candidate_count=candidates,
        seed=seed,
    )


def overlap_count_many(spec: DomainSpec, centers: np.ndarray, big_r: float, queries) -> np.ndarray:
    """Per query point, the number of radius-big_r Kobayashi balls around
    centers that contain it.  The balls whose ball_relation is maybe (inside
    or Uncertain) count, so a count may overcount but never undercounts."""
    queries = np.atleast_2d(np.asarray(queries, dtype=complex))
    centers = np.atleast_2d(np.asarray(centers, dtype=complex))
    return kobayashi.ball_counts(spec, queries, centers, big_r)[1]


# ---------------------------------------------------------------------------
# artifact emission (deterministic byte-for-byte given the same report)


def report_point_rows(report: CarlesonReport) -> tuple[list[str], list[list]]:
    """One row per grid point for criteria (2) and (3), a tables.write table."""
    n = report.grid[0].point.shape[0] if report.grid else 0
    header = ["criterion", "index", "kind", "level_index", "level_value", "delta"]
    header += tables.coord_header(n) + ["value", "stderr", "lower"]
    rows: list[list] = []
    for trace in (report.berezin, report.geometric):
        for idx, gp in enumerate(report.grid):
            lower = trace.lower[idx] if trace.lower is not None else float("nan")
            rows.append(
                [trace.name, idx, gp.kind, gp.level_index, gp.level_value, gp.delta,
                 *domains.to_real(gp.point), trace.values[idx], trace.stderr[idx], lower]
            )
    return header, rows


def report_level_rows(report: CarlesonReport) -> tuple[list[str], list[list]]:
    """Dyadic level against the per-criterion sup curves (plot data)."""
    header = ["level_index", "level_value", *(f"{t.name}_sup" for t in report.traces)]
    lams = [abs(gp.level_value) for gp in report.grid if gp.kind == "ray"]
    uniq = sorted(set(lams), reverse=True)
    rows = [[j, lam, *(t.per_level[j] for t in report.traces)] for j, lam in enumerate(uniq)]
    return header, rows


def report_summary(report: CarlesonReport) -> dict:
    from . import __version__

    n = report.grid[0].point.shape[0]
    degrees = operator_ladder(n, report.config.levels)
    return {
        "version": __version__,
        "measure": report.measure_label,
        "config": asdict(report.config),
        "verdicts": {t.name: t.verdict for t in report.traces},
        "sups": {t.name: float(t.sup) for t in report.traces},
        "constants": {"C": float(report.berezin.sup), "C_r": float(report.geometric.sup)},
        "operator_ladder": {
            "degrees": degrees, "basis_sizes": [math.comb(d + n, n) for d in degrees],
            "lambda": report.operator.per_level.tolist(), "stderr": report.operator.stderr.tolist(),
        },
        "grid_points": len(report.grid),
    }
