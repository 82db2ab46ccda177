"""Independent computations and output checks for the benchmark.

Nothing here imports carleson_lab.  Every check takes a library output (read
through its attributes) and returns a list of problems; an empty list means
the output passed.  The reference values are closed forms written out in
numpy and math, or properties the method must have:

- rho_ball: tanh of the Kobayashi distance of the unit ball B in C^n,
  rho(z, w)^2 = 1 - (1 - |z|^2)(1 - |w|^2) / |1 - <z, w>|^2;
- ball_kernel: the Bergman kernel (1 - <z, w>)^-(n+1) of B, normalized so
  that nu(B) = 1;
- dangelo_kernel: D'Angelo's kernel of E_m = {|z1|^2 + |z2|^(2m) < 1};
- ellipsoid_moment: the Dirichlet/Gamma formula for ||z^alpha||^2;
- the sandwich on E = E_2 with Phi(z) = (z1, z2^2): rho_B(Phi z, Phi w) <=
  tanh k_E(z, w), and tanh k_E(z, w) <= rho_B(z, w) when z, w lie in B.

Pairwise quantities are computed in blocks of about _BLOCK pairs, so the
checks add little to the process's peak memory.
"""

from __future__ import annotations

import math

import numpy as np

BOUNDED = "Bounded"
DIVERGING = "Diverging"
DIVERGING_MEASURES = ("ray+", "ray-", "cluster")
PACKING_SEPARATIONS = {"packing0.3": 0.3, "packing0.5": 0.5, "packing0.8": 0.8}

_BLOCK = 1 << 18


# ---------------------------------------------------------------------------
# closed forms


def _rows(n_rows: int, n_cols: int):
    step = max(1, _BLOCK // max(1, n_cols))
    for start in range(0, n_rows, step):
        yield start, min(n_rows, start + step)


def rho_ball(p: np.ndarray, c: np.ndarray) -> np.ndarray:
    """rho(p_i, c_j) on the unit ball, p (B, n) x c (K, n)."""
    p = np.atleast_2d(np.asarray(p, dtype=complex))
    c = np.atleast_2d(np.asarray(c, dtype=complex))
    np2 = np.sum(np.abs(p) ** 2, axis=1)
    nc2 = np.sum(np.abs(c) ** 2, axis=1)
    gap = np.abs(1.0 - p @ np.conj(c).T) ** 2
    return np.sqrt(np.maximum(1.0 - np.outer(1.0 - np2, 1.0 - nc2) / gap, 0.0))


def phi(z: np.ndarray) -> np.ndarray:
    """Phi(z) = (z1, z2^2), a holomorphic map of E_2 into B."""
    z = np.atleast_2d(np.asarray(z, dtype=complex))
    return np.stack([z[:, 0], z[:, 1] ** 2], axis=1)


def in_unit_ball(z: np.ndarray) -> np.ndarray:
    z = np.atleast_2d(np.asarray(z, dtype=complex))
    return np.sum(np.abs(z) ** 2, axis=1) < 1.0


def min_pair_rho(pts: np.ndarray) -> float:
    """Smallest rho over pairs of distinct indices; +inf below two points."""
    pts = np.atleast_2d(np.asarray(pts, dtype=complex))
    best = math.inf
    for a, b in _rows(len(pts), len(pts)):
        rho = rho_ball(pts[a:b], pts)
        rho[np.arange(b - a), np.arange(a, b)] = np.inf
        best = min(best, float(rho.min(initial=np.inf)))
    return best


def count_within(queries: np.ndarray, centers: np.ndarray, radius: float) -> np.ndarray:
    """#{j : rho(q_i, c_j) < radius} per query."""
    queries = np.atleast_2d(np.asarray(queries, dtype=complex))
    out = np.zeros(len(queries), dtype=int)
    for a, b in _rows(len(queries), len(centers)):
        out[a:b] = (rho_ball(queries[a:b], centers) < radius).sum(axis=1)
    return out


def ball_kernel(z: np.ndarray, w: np.ndarray) -> np.ndarray:
    """K_B(z_i, w_j) = (1 - <z_i, w_j>)^-(n+1)."""
    z = np.atleast_2d(np.asarray(z, dtype=complex))
    w = np.atleast_2d(np.asarray(w, dtype=complex))
    return (1.0 - z @ np.conj(w).T) ** (-(z.shape[1] + 1.0))


def atomic_berezin_ball(zs: np.ndarray, points: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Berezin transform sum_k w_k |K(p_k, z)|^2 / K(z, z) of an atomic measure."""
    zs = np.atleast_2d(np.asarray(zs, dtype=complex))
    k = ball_kernel(points, zs)  # (atoms, grid)
    diag = (1.0 - np.sum(np.abs(zs) ** 2, axis=1)) ** (-(zs.shape[1] + 1.0))
    return (np.asarray(weights)[:, None] * np.abs(k) ** 2).sum(axis=0) / diag


def dangelo_kernel(p: np.ndarray, z0: np.ndarray, m: int = 2) -> np.ndarray:
    """K(p, z0) on E_m, with x = p1 conj(z0_1), y = p2 conj(z0_2),
    u = y (1 - x)^(-1/m):
    K = (m/2) (1-x)^(-2-1/m) [(1+u) / (m^2 (1-u)^3) + 1 / (m (1-u)^2)]."""
    p = np.atleast_2d(np.asarray(p, dtype=complex))
    z0 = np.asarray(z0, dtype=complex)
    x = p[:, 0] * np.conj(z0[0])
    y = p[:, 1] * np.conj(z0[1])
    u = y * (1.0 - x) ** (-1.0 / m)
    bracket = (1.0 + u) / (m**2 * (1.0 - u) ** 3) + 1.0 / (m * (1.0 - u) ** 2)
    return 0.5 * m * (1.0 - x) ** (-2.0 - 1.0 / m) * bracket


def ellipsoid_moment(alpha, exponents, semi_axes) -> float:
    """m_alpha = n! prod_i a_i^(2 alpha_i + 2) / m_i * Gamma(s_i) / Gamma(1 + sum s),
    s_i = (alpha_i + 1) / m_i, in nu-units (nu(B) = 1)."""
    s = [(a + 1.0) / m for a, m in zip(alpha, exponents)]
    log = math.lgamma(len(alpha) + 1.0) - math.lgamma(1.0 + sum(s))
    for a, m, ax, si in zip(alpha, exponents, semi_axes, s):
        log += (2 * a + 2) * math.log(ax) - math.log(m) + math.lgamma(si)
    return math.exp(log)


# ---------------------------------------------------------------------------
# models-chain


def gallery_report(name: str, report, mu) -> list[str]:
    """Verdicts the theory predicts, atomic Berezin values against the ball
    kernel (1e-12 relative), and B(nu) = 1 within 3 stderr."""
    problems = []
    expected = DIVERGING if name in DIVERGING_MEASURES else BOUNDED
    for trace in (report.berezin, report.geometric):
        if trace.verdict != expected:
            problems.append(f"{trace.name} verdict {trace.verdict}, theory predicts {expected}")
    values = np.asarray(report.berezin.values)
    if hasattr(mu, "points"):
        zs = np.array([gp.point for gp in report.grid])
        own = atomic_berezin_ball(zs, mu.points, mu.weights)
        rel = float(np.max(np.abs(values - own) / own))
        if not rel <= 1e-12:
            problems.append(f"atomic Berezin values off the closed form by {rel:.2e} relative")
    elif name == "lebesgue":
        dev = np.abs(values - 1.0) - 3.0 * np.asarray(report.berezin.stderr)
        if not float(dev.max()) <= 1e-12:
            problems.append(f"B(nu) - 1 exceeds 3 stderr by {float(dev.max()):.2e}")
    return problems


def suite_packings(suite) -> list[str]:
    """The gallery's packings are separated at their nominal separation."""
    problems = []
    for name, mu in suite:
        if name in PACKING_SEPARATIONS:
            problems += separated(mu.points, PACKING_SEPARATIONS[name], name)
    return problems


def separated(points: np.ndarray, sep: float, label: str = "packing") -> list[str]:
    low = min_pair_rho(points)
    return [] if low >= sep else [f"{label}: pair at rho {low:.6g} < {sep}"]


def ball_cover(result, test_points: np.ndarray) -> list[str]:
    """Centers >= tanh(2 atanh(r/3)) apart, every test point within r of a
    center, and a coverage report that says so."""
    problems = []
    r = result.r
    r_star = math.tanh(2.0 * math.atanh(r / 3.0))
    low = min_pair_rho(result.centers)
    if not low >= r_star:
        problems.append(f"two centers at rho {low:.6g} < {r_star:.6g}")
    hits = count_within(test_points, result.centers, r)
    missed = int((hits == 0).sum())
    if missed:
        problems.append(f"{missed} test points farther than r = {r} from every center")
    cov = result.coverage
    if (cov.total, cov.certified, cov.uncovered) != (len(test_points), len(test_points), 0):
        problems.append(f"coverage report {cov} on {len(test_points)} exact test points")
    return problems


def counts_equal(counts: np.ndarray, queries: np.ndarray, centers: np.ndarray, big_r: float) -> list[str]:
    own = count_within(queries, centers, big_r)
    bad = int((np.asarray(counts) != own).sum())
    return [] if bad == 0 else [f"{bad} overlap counts differ from brute force"]


def greedy_parts(points: np.ndarray, r: float) -> int:
    """Index-order greedy coloring: each point takes the smallest color not
    used by an earlier point within rho < r.  Returns the number of colors."""
    near = np.zeros((len(points), len(points)), dtype=bool)
    for a, b in _rows(len(points), len(points)):
        near[a:b] = rho_ball(points[a:b], points) < r
    colors = np.full(len(points), -1)
    for i in range(len(points)):
        used = set(colors[:i][near[i, :i]].tolist())
        c = 0
        while c in used:
            c += 1
        colors[i] = c
    return int(colors.max()) + 1 if len(points) else 0


def thm42_report(report, points: np.ndarray, r: float) -> list[str]:
    """Parts r-separated (the coloring recomputed with rho), part count <= max
    ball count, separation exact, and the weighted packing Bounded."""
    problems = []
    parts = greedy_parts(points, r)
    if report.part_count != parts:
        problems.append(f"{report.part_count} parts, the rho coloring gives {parts}")
    max_count = int(count_within(points, points, r).max())
    if report.max_ball_count != max_count:
        problems.append(f"max ball count {report.max_ball_count}, brute force {max_count}")
    if not report.part_count <= report.max_ball_count:
        problems.append(f"{report.part_count} parts exceed max ball count {report.max_ball_count}")
    sep = min_pair_rho(points)
    if not abs(report.separation - sep) <= 1e-12:
        problems.append(f"separation {report.separation!r}, rho gives {sep!r}")
    for trace in (report.carleson.berezin, report.carleson.geometric):
        if trace.verdict != BOUNDED:
            problems.append(f"separated sequence measure reads {trace.verdict} ({trace.name})")
    return problems


# ---------------------------------------------------------------------------
# ellipsoid-cover (E = E_2)


def ellipsoid_cover(result, test_points: np.ndarray) -> list[str]:
    """uncovered == 0 and >= 9990 of 10^4 certified; centers in B are
    rho_B >= tanh(2 atanh(r/3)) apart; certified points have a center with
    rho_B(Phi, Phi) < r."""
    problems = []
    cov = result.coverage
    if cov.uncovered != 0 or cov.total != len(test_points) or cov.certified < len(test_points) - 10:
        problems.append(f"coverage {cov} on {len(test_points)} test points")
    r = result.r
    r_star = math.tanh(2.0 * math.atanh(r / 3.0))
    inner = result.centers[in_unit_ball(result.centers)]
    low = min_pair_rho(inner)
    if not low >= r_star:
        problems.append(f"two centers in B at rho_B {low:.6g} < {r_star:.6g}")
    hits = count_within(phi(test_points), phi(result.centers), r)
    missed = int((hits == 0).sum())
    if missed > cov.heuristic:
        problems.append(
            f"{missed} test points have no center with rho_B(Phi, Phi) < r, "
            f"but only {cov.heuristic} are not certified"
        )
    return problems


def sandwich_counts(queries: np.ndarray, centers: np.ndarray, big_r: float) -> tuple[np.ndarray, np.ndarray]:
    """Lower and upper bounds on #{c : tanh k_E(q, c) < big_r}."""
    upper = count_within(phi(queries), phi(centers), big_r)
    lower = np.zeros(len(queries), dtype=int)
    qb = in_unit_ball(queries)
    cb = centers[in_unit_ball(centers)]
    lower[qb] = count_within(queries[qb], cb, big_r)
    return lower, upper


def counts_sandwiched(counts: np.ndarray, queries: np.ndarray, centers: np.ndarray, big_r: float) -> list[str]:
    lower, upper = sandwich_counts(queries, centers, big_r)
    counts = np.asarray(counts)
    below = int((counts < lower).sum())
    above = int((counts > upper).sum())
    if below or above:
        return [f"overlap counts outside the sandwich: {below} below, {above} above"]
    return []


# ---------------------------------------------------------------------------
# ellipsoid-chain (E = E_2)


def moment_table(table) -> list[str]:
    """Every m_alpha, |alpha| <= degree, within 1e-10 of the Gamma formula."""
    worst = 0.0
    for alpha in np.ndindex(*table.values.shape):
        if sum(alpha) <= table.degree:
            own = ellipsoid_moment(alpha, table.exponents, table.semi_axes)
            worst = max(worst, abs(float(table.values[alpha]) - own) / own)
    return [] if worst <= 1e-10 else [f"moment table off the Gamma formula by {worst:.2e}"]


def kernel_rows(rows, z0s: np.ndarray, pts: np.ndarray, m: int = 2) -> list[str]:
    worst = 0.0
    for row, z0 in zip(rows, z0s):
        own = dangelo_kernel(pts, z0, m)
        worst = max(worst, float(np.max(np.abs(row - own) / np.abs(own))))
    return [] if worst <= 1e-8 else [f"kernel rows off D'Angelo's form by {worst:.2e}"]


def kernel_check(payload: dict) -> list[str]:
    residual = payload.get("reproduce_max_residual")
    if payload.get("variant") != "series" or not (residual is not None and residual <= 1e-3):
        return [f"kernel-check variant {payload.get('variant')!r}, residual {residual!r} (> 1e-3)"]
    return []
