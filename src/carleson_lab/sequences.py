"""Uniformly discrete sequences and the weighted sequence measures they carry.

A finite sequence is uniformly discrete when its pairwise Kobayashi distances
are bounded below.  The module computes separation constants, counts points in
invariant balls, splits an arbitrary finite sequence into separated parts by
greedy coloring, generates separated test sequences by greedy packing, and
attaches the sigma-weighted atomic measure whose Carleson property the theory
predicts.  Boundary-accumulating counterexample generators live here too.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import domains, geometry, kobayashi, measures, tables
from .carleson import CarlesonConfig, CarlesonReport, carleson_test
from .bergman import KernelModel
from .domains import DomainSpec
from .errors import InputError
from .measures import AtomicMeasure


@dataclass(frozen=True)
class SequenceSet:
    """Finite set of distinct interior points, kept in insertion order."""

    points: np.ndarray
    label: str = ""

    @property
    def count(self) -> int:
        return len(self.points)


def sequence_set(spec: DomainSpec, points, label: str = "") -> SequenceSet:
    pts = domains.as_points(spec, points)
    inside = domains.contains(spec, pts)
    if not np.all(inside):
        raise InputError(f"{int((~inside).sum())} sequence points are not interior")
    # equal points are equal rows of interleaved reals (== takes -0.0 for
    # 0.0), adjacent once the rows are sorted
    rows = domains.to_real(pts)
    rows = rows[np.lexsort(rows.T)]
    if np.any(np.all(rows[1:] == rows[:-1], axis=1)):
        raise InputError("sequence points must be pairwise distinct")
    return SequenceSet(points=pts, label=label)


# ---------------------------------------------------------------------------
# separation


def separation(spec: DomainSpec, gamma: SequenceSet) -> float:
    """Min pairwise tanh-distance (kobayashi.min_tanh_distance): exact on the
    disk, the ball and the (1, m) ellipsoid, a certified lower bound
    elsewhere.  Fewer than two points returns +inf."""
    return kobayashi.min_tanh_distance(spec, gamma.points)


# ---------------------------------------------------------------------------
# greedy coloring decomposition


@dataclass(frozen=True)
class Decomposition:
    """Greedy coloring of a sequence: the r-separated parts, each point's
    color (its part's index), and max over x in Gamma of M(x, r, Gamma)."""

    parts: list[SequenceSet]
    colors: np.ndarray
    max_ball_count: int


def greedy_decompose(spec: DomainSpec, gamma: SequenceSet, r: float) -> Decomposition:
    """Index-order greedy coloring: each point takes the smallest color free
    among earlier points within tanh-distance r.  Every part is r-separated;
    the number of parts never exceeds max M(x, r, Gamma).

    Both readings come from one ball_relation on Gamma x Gamma: the ball
    count M(x, r, Gamma) is a column sum of the relation, taken before the
    relation is symmetrized for the coloring.  Uncertain memberships count,
    so the ball count upper-bounds the true maximum."""
    if not 0.0 < r < 1.0:
        raise InputError(f"r must lie in (0,1), got {r}")
    pts = gamma.points
    if gamma.count == 0:
        return Decomposition(parts=[], colors=np.zeros(0, dtype=int), max_ball_count=0)
    # [point, center]: the point is not certified outside the center's ball
    # (disk and ball return one array twice, so count before |=)
    within = kobayashi.ball_relation(spec, pts, pts, r)[1]
    max_ball_count = int(within.sum(axis=0).max())
    # point i fails to be certified outside the r-ball at j, or the reverse;
    # same-part points are therefore certified >= r apart
    within |= within.T
    colors = np.full(gamma.count, -1, dtype=int)
    for i in range(gamma.count):
        used = set(colors[:i][within[i, :i]].tolist())
        c = 0
        while c in used:
            c += 1
        colors[i] = c
    parts = [
        SequenceSet(points=pts[colors == c], label=f"{gamma.label or 'seq'}:part{c}")
        for c in range(int(colors.max()) + 1)
    ]
    return Decomposition(parts=parts, colors=colors, max_ball_count=max_ball_count)


# ---------------------------------------------------------------------------
# greedy packing generator


@dataclass(frozen=True)
class PackingResult:
    sequence: SequenceSet
    exhausted: bool  # candidate stream ran out before the region saturated
    candidates_used: int


def greedy_packing(
    spec: DomainSpec,
    delta_sep: float,
    level_floor: float,
    seed: int = 0,
    candidates: int = 4096,
) -> PackingResult:
    """Greedy separated subset of a quasi-random stream on {r <= -level_floor}.

    A candidate is accepted when its tanh-distance to every accepted point is
    certified >= delta_sep (kobayashi.greedy_separated; exact on the disk, the
    ball and the (1, m) ellipsoid).  The result is uniformly discrete with
    separation >= delta_sep by construction.
    """
    if not 0.0 < delta_sep < 1.0:
        raise InputError(f"delta_sep must lie in (0,1), got {delta_sep}")
    pts = domains.quasi_interior(spec, candidates, seed=seed, level_floor=level_floor)
    kept, _ = kobayashi.greedy_separated(spec, pts, delta_sep)
    seq = SequenceSet(points=pts[kept], label=f"pack(sep={delta_sep:g},seed={seed})")
    # acceptances in the last tenth of the stream mean the region had not
    # saturated when the candidates ran out
    exhausted = len(kept) > 0 and bool(kept[-1] >= candidates - max(1, candidates // 10))
    return PackingResult(sequence=seq, exhausted=exhausted, candidates_used=candidates)


# ---------------------------------------------------------------------------
# sequence measures and boundary clusters


def sequence_measure(spec: DomainSpec, gamma: SequenceSet) -> AtomicMeasure:
    """Atomic measure with weight prod_i sigma_i(z_k)^2 at each point.

    The squared product matches the nu-volume scale of the invariant balls
    (each sigma_i is a complex one-dimensional radius, contributing area
    sigma_i^2), which is what makes separated sequences Carleson.
    """
    weights = np.prod(geometry.minimal_frames(spec, gamma.points).sigma ** 2, axis=1)
    return measures.atomic_measure(
        spec, gamma.points, weights, label=f"seq2[{gamma.label or 'gamma'}]"
    )


def dyadic_ray(spec: DomainSpec, direction, depth: int = 12) -> SequenceSet:
    """Points at defining-levels -2^{-k}, k = 1..depth, along a boundary ray
    from the anchor, where r is -1; with unit weights this is the standard
    non-Carleson boundary accumulation."""
    anchor = domains.anchor_point(spec)
    d = np.asarray(direction, dtype=complex)
    d = d / np.linalg.norm(d)
    t = domains.level_roots(spec, anchor, d, -np.ldexp(1.0, -np.arange(1, 1 + depth)))
    return SequenceSet(points=anchor + t[:, None] * d, label=f"ray(depth={depth})")


def boundary_cluster(spec: DomainSpec, direction, levels: int = 8) -> SequenceSet:
    """Multiplicity cluster: 2^k points packed within pseudoradius ~2^{-k-2}
    of the dyadic ray point at level k.  Not uniformly discrete; its
    unit-weight measure diverges like 8^k at the accumulation point."""
    d = np.asarray(direction, dtype=complex)
    d = d / np.linalg.norm(d)
    pts = []
    for k, base in enumerate(dyadic_ray(spec, direction, levels).points, start=1):
        delta = float(domains.boundary_distance(spec, base))
        # 2^k radial offsets keep the cluster inside and pairwise distinct
        offsets = (np.arange(2**k) / 2**k) * (2.0 ** (-k - 2)) * delta
        pts.append(base + offsets[:, None] * d)
    return SequenceSet(points=np.concatenate(pts), label=f"cluster(levels={levels})")


# ---------------------------------------------------------------------------
# the Carleson pipeline for sequence measures


@dataclass(frozen=True)
class Thm42Report:
    """The sequence-side statements beside the measure's Carleson report.

    verdicts_agree compares criteria (2) and (3) only; criterion (1),
    report.carleson.operator, is not part of it."""

    gamma: SequenceSet
    measure: AtomicMeasure
    carleson: CarlesonReport
    part_count: int
    max_ball_count: int
    separation: float
    verdicts_agree: bool


def thm42_pipeline(
    spec: DomainSpec, model: KernelModel, gamma: SequenceSet, config: CarlesonConfig
) -> Thm42Report:
    """Weighted-measure Carleson test plus the sequence-side statement (3):
    sup_f sum_k w_k |f(z_k)|^2 / ||f||^2 over the polynomials of degree <= d_top,
    which is exactly criterion (1)'s top rung lambda(d_top) for this measure."""
    mu = sequence_measure(spec, gamma)
    report = carleson_test(spec, model, mu, config)

    decomposition = greedy_decompose(spec, gamma, config.r)
    return Thm42Report(
        gamma=gamma,
        measure=mu,
        carleson=report,
        part_count=len(decomposition.parts),
        max_ball_count=decomposition.max_ball_count,
        separation=separation(spec, gamma),
        verdicts_agree=report.berezin.verdict == report.geometric.verdict,
    )


# ---------------------------------------------------------------------------
# the standard measure suite


_SUITE_NAMES = (
    "lebesgue",
    "packing0.3",
    "packing0.5",
    "packing0.8",
    "ray+",
    "ray-",
    "cluster",
    "density(1-d)",
    "density(1/(1-d))",
    "atom",
)


def named_measure(spec: DomainSpec, name: str, seed: int = 0):
    """Build one entry of the standard suite without constructing the rest;
    the one resolver of measure names."""
    e1 = np.zeros(spec.dim, dtype=complex)
    e1[0] = 1.0
    if name == "lebesgue":
        return measures.lebesgue_measure()
    if name in ("packing0.3", "packing0.5", "packing0.8"):
        delta_sep = float(name[len("packing") :])
        pack = greedy_packing(spec, delta_sep, level_floor=0.02, seed=seed, candidates=4096)
        return sequence_measure(spec, pack.sequence)
    if name in ("ray+", "ray-", "cluster"):
        if name == "cluster":
            seq = boundary_cluster(spec, 1j * e1)
        else:
            seq = dyadic_ray(spec, e1 if name == "ray+" else -e1)
        return measures.atomic_measure(
            spec, seq.points, np.ones(seq.count), label=f"unit[{seq.label}]"
        )
    if name == "density(1-d)":
        return measures.DensityMeasure(
            lambda pts: 1.0 - domains.boundary_distance_batch(spec, pts), label="one_minus_delta"
        )
    if name == "density(1/(1-d))":
        # capped at 10 so the MC mass estimates keep finite variance
        def inv_one_minus_delta(pts: np.ndarray) -> np.ndarray:
            vals = 1.0 - domains.boundary_distance_batch(spec, pts)
            return np.minimum(1.0 / np.maximum(vals, 1e-12), 10.0)

        return measures.DensityMeasure(inv_one_minus_delta, label="inv_one_minus_delta")
    if name == "atom":
        return measures.atomic_measure(
            spec, (0.5 * e1)[None, :], np.array([1.0]), label="atom-half"
        )
    raise InputError(f"unknown measure {name!r}; use one of {', '.join(_SUITE_NAMES)}")


def standard_measure_suite(spec: DomainSpec, seed: int = 0) -> list[tuple[str, object]]:
    """Ten measures spanning the verdict space: Lebesgue, three weighted
    packings, two unit-weight dyadic rays, one boundary cluster, the two
    boundary densities, and a single atom at the half-way axis point."""
    return [(name, named_measure(spec, name, seed=seed)) for name in _SUITE_NAMES]


# ---------------------------------------------------------------------------
# sequence tables: coordinate columns, and a color column for decompositions


def sequence_to_csv(seq: SequenceSet, path) -> None:
    tables.write(path, tables.coord_header(seq.points.shape[1]), domains.to_real(seq.points))


def sequence_from_csv(spec: DomainSpec, path, label: str = "") -> SequenceSet:
    vals = tables.read(path, "sequence", 2 * spec.dim)
    return sequence_set(spec, domains.to_complex(vals), label=label or str(path))


def decomposition_to_csv(gamma: SequenceSet, decomposition: Decomposition, path) -> None:
    rows = (
        [*coords, color]
        for coords, color in zip(domains.to_real(gamma.points), decomposition.colors)
    )
    tables.write(path, tables.coord_header(gamma.points.shape[1]) + ["color"], rows)
