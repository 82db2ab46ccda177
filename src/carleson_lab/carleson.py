"""The three Carleson-measure criteria as executable testers.

For a finite positive measure mu on a convex model domain the theorem under
test says the following are equivalent: (1) the embedding A^2 -> L^2(mu) is
bounded, (2) the Berezin transform of mu is bounded, (3) mu(B_D(z,r)) is
dominated by nu(B_D(z,r)) uniformly in z.  None of these is finitely decidable,
so each criterion is probed on a boundary-refining grid and the verdict is a
documented heuristic on the dyadic tail of the per-level suprema.

Also here: the greedy construction of a bounded-overlap cover by Kobayashi
balls and the plurisubharmonic sub-mean-value checks that power the (3) => (1)
direction.
"""

from __future__ import annotations

import functools
import math
from dataclasses import asdict, dataclass, replace

import numpy as np

from . import bergman, domains, geometry, kobayashi, measures, tables
from .bergman import KernelModel
from .domains import DomainSpec, as_point
from .errors import ConfigError, InputError, ResourceError
from .measures import DensityMeasure
from .polynomials import HoloPolynomial, poly_eval, random_polynomial

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
    dictionary_polynomials: int = 8
    polynomial_degree: int = 6

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


def grid_levels(spec: DomainSpec, config: CarlesonConfig) -> np.ndarray:
    """Dyadic levels lambda_j = lambda_0 2^-j with lambda_0 = 0.5 |r(anchor)|."""
    lam0 = 0.5 * abs(float(domains.defining_value(spec, domains.anchor_point(spec))))
    return lam0 * 0.5 ** np.arange(config.levels)


def build_grid(spec: DomainSpec, config: CarlesonConfig) -> list[GridPoint]:
    """Dyadic boundary-approaching rays plus quasi-random interior points."""
    anchor = domains.anchor_point(spec)
    lams = grid_levels(spec, config)
    dirs = _ray_directions(spec, config.extra_rays, config.seed)
    rays = [
        (j, k, anchor + domains._ray_root(spec, anchor, d, -lam) * d)
        for j, lam in enumerate(lams)
        for k, d in enumerate(dirs)
    ]
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
    values: np.ndarray  # per grid point
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


def nu_uniform_base(spec: DomainSpec, mu, config: CarlesonConfig) -> np.ndarray | None:
    """The one nu-uniform sample of D that criteria (1) and (2) integrate a
    density over: config.berezin_samples quasi_uniform points drawn from
    config.seed.  Atoms need none."""
    if not isinstance(mu, DensityMeasure):
        return None
    return domains.quasi_uniform(spec, config.berezin_samples, seed=config.seed)


def criterion_berezin(
    model: KernelModel,
    mu,
    grid: list[GridPoint],
    config: CarlesonConfig,
    base: np.ndarray | None,
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
    # one unit-polydisk sample, from a stream of its own, mapped into both
    # polydisks of every grid point's sandwich
    base = None
    if isinstance(mu, DensityMeasure):
        rng = np.random.default_rng(np.random.SeedSequence(config.seed, spawn_key=(303,)))
        base = geometry.unit_polydisk_sample(spec.dim, config.mass_samples, rng)

    def one(gp: GridPoint) -> tuple[float, float, float]:
        sandwich = kobayashi.ball_sandwich(spec, gp.point, config.r)
        inner = measures.mass(spec, mu, sandwich.inner, base)
        outer = measures.mass(spec, mu, sandwich.outer, base)
        vol_inner = geometry.polydisk_nu_volume(sandwich.inner)
        vol_outer = geometry.polydisk_nu_volume(sandwich.outer)
        return inner.value / vol_outer, outer.value / vol_inner, outer.stderr / vol_inner

    lower, upper, stderr = np.array([one(gp) for gp in grid]).T
    return _trace("geometric", grid, config.levels, upper, stderr, lower=lower)


# ---------------------------------------------------------------------------
# criterion (1): embedding quotients over a test dictionary


@dataclass(frozen=True)
class DictionaryEntry:
    label: str
    quotient: float


def criterion_operator(
    spec: DomainSpec,
    mu,
    config: CarlesonConfig,
    berezin_trace: CriterionTrace,
    base: np.ndarray | None,
) -> tuple[CriterionTrace, list[DictionaryEntry]]:
    """Sup of integral |f|^2 dmu / ||f||^2 over normalized kernels at the grid
    points and random polynomials.

    For f = k_{z0} the quotient IS the Berezin transform (||k_{z0}|| = 1 by the
    reproducing identity), so the trace is criterion (2)'s, renamed, with its
    sup raised to the largest polynomial quotient.  The polynomials'
    integrals come from measures.square_integrals on the nu-uniform ``base``
    of criterion (2) (nu_uniform_base), weighted by nu(D) = bergman.nu_volume;
    their norms come from the moment table of the dictionary degree.
    """
    table = bergman.moments(spec, config.polynomial_degree)
    rng = np.random.default_rng(np.random.SeedSequence(config.seed, spawn_key=(202,)))
    polys = [
        random_polynomial(spec.dim, config.polynomial_degree, rng)
        for _ in range(config.dictionary_polynomials)
    ]
    integrals = measures.square_integrals(
        mu, [functools.partial(poly_eval, poly) for poly in polys], base, bergman.nu_volume(spec)
    )
    entries = [
        DictionaryEntry(label=f"poly{k}", quotient=est.value / bergman.norm_sq(poly, table))
        for k, (poly, est) in enumerate(zip(polys, integrals))
    ]
    poly_sup = max((e.quotient for e in entries), default=0.0)
    trace = replace(
        berezin_trace, name="operator", sup=float(max(berezin_trace.sup, poly_sup))
    )
    return trace, entries


# ---------------------------------------------------------------------------
# joint report


@dataclass(frozen=True)
class CarlesonReport:
    grid: list[GridPoint]
    berezin: CriterionTrace
    geometric: CriterionTrace
    operator: CriterionTrace
    dictionary: list[DictionaryEntry]
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
    c1, entries = criterion_operator(spec, mu, config, c2, base)
    label = getattr(mu, "label", type(mu).__name__)
    return CarlesonReport(
        grid=grid,
        berezin=c2,
        geometric=c3,
        operator=c1,
        dictionary=entries,
        config=config,
        measure_label=label,
    )


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


_CORE_LEVEL = 0.1  # core level of kobayashi_cover, as a fraction of |r(anchor)|


def kobayashi_cover(
    spec: DomainSpec,
    r: float,
    seed: int = 0,
    candidates: int = 30000,
    test_count: int = 10000,
) -> CoverResult:
    """Greedy maximal family of disjoint radius-r/3 Kobayashi balls on the core
    {defining function <= -level}, level = _CORE_LEVEL * |r(anchor)|, with a
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
    level = _CORE_LEVEL * abs(float(domains.defining_value(spec, anchor)))
    third = math.atanh(r / 3.0)
    r_star = math.tanh(2.0 * third)  # centers closer than this have meeting r/3 balls

    if test_count > candidates:
        raise ConfigError(f"test_count {test_count} exceeds candidate count {candidates}")
    pts = domains.quasi_interior(spec, candidates, seed=seed, level_floor=level)
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
        level=level,
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


# ---------------------------------------------------------------------------
# artifact emission (deterministic byte-for-byte given the same report)


def report_point_rows(report: CarlesonReport) -> tuple[list[str], list[list]]:
    """One row per grid point per criterion (a tables.write table)."""
    n = report.grid[0].point.shape[0] if report.grid else 0
    header = ["criterion", "index", "kind", "level_index", "level_value", "delta"]
    header += tables.coord_header(n) + ["value", "stderr", "lower"]
    rows: list[list] = []
    for trace in report.traces:
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

    return {
        "version": __version__,
        "measure": report.measure_label,
        "config": asdict(report.config),
        "verdicts": {t.name: t.verdict for t in report.traces},
        "sups": {t.name: float(t.sup) for t in report.traces},
        "constants": {"C": float(report.berezin.sup), "C_r": float(report.geometric.sup)},
        "dictionary": [
            {"label": e.label, "quotient": float(e.quotient)} for e in report.dictionary
        ],
        "grid_points": len(report.grid),
    }
