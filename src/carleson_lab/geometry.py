"""Minimal orthogonal frames and the polydisks built on them.

The greedy construction: project q to the nearest boundary point, record the
direction and distance, restrict to the complex-orthogonal slice through q,
repeat.  The distances are the frame's radii sigma.  Frames come in
batches: a closed form on the disk and the ball; elsewhere a projection per
point and slice, then one line distance call for every last slice.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import domains
from .domains import DomainSpec, as_point, as_points, defining_value, project_to_level
from .errors import InputError, NumericError

@dataclass(frozen=True)
class MinimalFrame:
    """Orthonormal frame e_1..e_n (rows of ``basis``) with slice distances sigma.

    ``unique`` reports whether the first boundary projection was unique within
    tolerance; deeper steps are always resolved by the canonical tie-break.
    A stack of frames (minimal_frames) carries a leading batch axis on every
    field, as a stacked Polydisk does.
    """

    center: np.ndarray
    basis: np.ndarray
    sigma: np.ndarray
    unique: bool | np.ndarray

    def __getitem__(self, k) -> MinimalFrame:
        """Frame k of a stack made by minimal_frames."""
        return MinimalFrame(self.center[k], self.basis[k], self.sigma[k], bool(self.unique[k]))


@dataclass(frozen=True)
class Polydisk:
    """Closed polydisk {z : |<z - center, e_i>| <= radii_i for all i}."""

    center: np.ndarray
    basis: np.ndarray
    radii: np.ndarray

    @property
    def n(self) -> int:
        return self.basis.shape[0]


def _orthonormal_complement(basis: np.ndarray, direction: np.ndarray) -> np.ndarray:
    """Rows of ``basis`` minus the span of ``direction``, re-orthonormalized."""
    d = direction / np.linalg.norm(direction)
    proj = basis - np.outer(basis @ np.conj(d), d)
    # the projected orthonormal rows have singular values 1, ..., 1, 0; keep
    # the leading right singular vectors (a near-zero row, from a direction
    # close to one basis row, carries no rank information of its own)
    keep = basis.shape[0] - 1
    _, s, vh = np.linalg.svd(proj)
    if not s[keep - 1] > 0.5:
        raise NumericError("slice complement lost rank", {"singular_values": s.tolist()})
    return vh[:keep]


def _ball_frames(pts: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(basis, sigma, unique) of the disk's or ball's frames at points (k, n):
    sigma = (1 - |z|, sqrt(1 - |z|^2), ...), e_1 = z / |z|, then Gram-Schmidt
    of the coordinate axes in order, skipping an axis whose residual is at
    most 1e-8, in real arithmetic so that a row does not depend on the
    batch.  Below |z| = 1e-12: the identity, sigma = 1 and unique False."""
    k, n = pts.shape
    nq = np.sqrt(domains.squared_norm(pts))
    unique = nq >= 1e-12
    nq[~unique] = 0.0  # sigma = 1, and e_1 = first axis gives the identity
    sigma = np.column_stack([1.0 - nq] + [np.sqrt(1.0 - nq * nq)] * (n - 1))
    first = pts / np.where(unique, nq, 1.0)[:, None]
    first[~unique] = np.eye(n)[0]
    re, im = np.zeros((k, n, n)), np.zeros((k, n, n))
    re[:, 0], im[:, 0] = first.real, first.imag
    row = np.ones(k, dtype=int)
    for j in range(n):
        er, ei = np.zeros((k, n)), np.zeros((k, n))
        er[:, j] = 1.0
        for i in range(min(j + 1, n)):  # rows not yet filled are zero
            br, bi = re[:, i], im[:, i]
            cr = (br * er + bi * ei).sum(axis=1)[:, None]  # <e, b_i>
            ci = (br * ei - bi * er).sum(axis=1)[:, None]
            er, ei = er - (br * cr - bi * ci), ei - (br * ci + bi * cr)
        norm = np.sqrt((er * er + ei * ei).sum(axis=1))
        take = np.flatnonzero((norm > 1e-8) & (row < n))
        re[take, row[take]] = er[take] / norm[take, None]
        im[take, row[take]] = ei[take] / norm[take, None]
        row[take] += 1
    if np.any(row != n):
        raise NumericError("frame completion failed", {"rank": int(row.min())})
    basis = np.empty((k, n, n), dtype=complex)
    basis.real, basis.imag = re, im
    return basis, sigma, unique


def _projected_slices(spec: DomainSpec, q: np.ndarray, frame: np.ndarray, sigma: np.ndarray) -> bool:
    """Fill in the rows and radii of q's frame by projection, slices 1..n-1
    (the one slice on C^1), and the last slice's line as the last row;
    return whether the first projection was unique."""
    n = spec.dim
    slice_basis = np.eye(n, dtype=complex)
    for i in range(max(n - 1, 1)):
        proj = project_to_level(spec, q, basis=slice_basis)
        if i == 0:
            unique = proj.unique
        diff = proj.point - q
        norm = float(np.linalg.norm(diff))
        if norm <= 0.0:
            raise NumericError("projection collapsed onto the center", {"step": i})
        frame[i] = diff / norm
        sigma[i] = proj.distance
        if i < n - 1:
            slice_basis = _orthonormal_complement(slice_basis, frame[i])
    if n > 1:
        # the final slice is one complex line; the phase of the frame vector
        # does not affect any polydisk built on it
        frame[n - 1] = slice_basis[0]
    return unique


def minimal_frame(spec: DomainSpec, q) -> MinimalFrame:
    """Greedy minimal frame of D at an interior point q."""
    return minimal_frames(spec, as_point(spec, q)[None])[0]


def minimal_frames(spec: DomainSpec, pts) -> MinimalFrame:
    """The minimal frames of a batch of interior points (k, n), stacked; row
    k is minimal_frame(spec, pts[k]) bit for bit.  One closed form over the
    batch on the disk and ball.  Elsewhere each point's slices 1..n-1 are
    projected, and one line_level_distances call gives every last radius."""
    pts = as_points(spec, pts)
    if not np.all(defining_value(spec, pts) < 0.0):
        raise InputError("minimal_frame expects an interior point")
    if domains.is_ball(spec):
        return MinimalFrame(pts, *_ball_frames(pts))
    k, n = pts.shape
    basis, sigma = np.zeros((k, n, n), dtype=complex), np.zeros((k, n))
    unique = np.array([_projected_slices(spec, q, b, s) for q, b, s in zip(pts, basis, sigma)], dtype=bool)
    if n > 1:
        sigma[:, -1] = domains.line_level_distances(spec, pts, basis[:, -1])
    # the greedy construction makes sigma nondecreasing; tiny numeric
    # inversions are tolerated, real ones are a failure
    floor = -1e-7 * np.maximum(1.0, sigma.max(axis=1))[:, None]
    drop = np.flatnonzero((np.diff(sigma, axis=1) < floor).any(axis=1))
    if len(drop):
        raise NumericError("slice distances are not nondecreasing", {"sigma": sigma[drop[0]].tolist()})
    return MinimalFrame(pts, basis, sigma, unique)


def frame_polydisk(frame: MinimalFrame, scale: float) -> Polydisk:
    """Polydisk with radii scale * sigma in the frame's axes."""
    if not scale > 0.0:
        raise InputError(f"scale must be positive, got {scale}")
    return Polydisk(center=frame.center, basis=frame.basis, radii=scale * frame.sigma)


def polydisk_coordinates(P: Polydisk, pts: np.ndarray) -> np.ndarray:
    """Frame coordinates <z - center, e_i>, shape (..., n); for a stack of K
    polydisks (center (K,n), basis (K,n,n), radii (K,n)) shape (..., K, n)."""
    pts = np.asarray(pts, dtype=complex)
    if P.basis.ndim == 2:
        diff = [pts[..., j] - P.center[j] for j in range(P.n)]
        out = np.empty(pts.shape, dtype=complex)
        for i, row in enumerate(np.conj(P.basis)):
            out[..., i] = domains.coordinate_sum(diff, row)
        return out
    return np.einsum("...kj,kij->...ki", pts[..., None, :] - P.center, np.conj(P.basis))


def polydisk_gauge(P: Polydisk, pts) -> np.ndarray:
    """max_i |<z - center, e_i>| / radii_i, so that P = {gauge <= 1}; shape
    (...) for one polydisk, (..., K) for a stack of K; the maximum is taken
    one coordinate at a time (see domains.coordinate_sum)."""
    coords = polydisk_coordinates(P, pts)
    gauge = np.abs(coords[..., 0]) / P.radii[..., 0]
    for i in range(1, coords.shape[-1]):
        gauge = np.maximum(gauge, np.abs(coords[..., i]) / P.radii[..., i])
    return gauge


def polydisk_contains(P: Polydisk, z) -> bool | np.ndarray:
    """Closed membership test; accepts one point (n,) or a batch (..., n)."""
    inside = polydisk_gauge(P, z) <= 1.0
    return bool(inside) if inside.ndim == 0 else inside


def polydisk_nu_volume(P: Polydisk) -> float:
    """Exact nu-volume n! * prod(radii^2) (nu is Lebesgue with nu(B_1) = 1)."""
    n = P.n
    return math.factorial(n) * float(np.prod(P.radii**2))


def unit_polydisk_sample(n: int, count: int, rng: np.random.Generator) -> np.ndarray:
    """Uniform sample of the unit polydisk in frame coordinates, sqrt(u) *
    exp(2 pi i v), shape (count, n); polydisk_points maps it into any
    polydisk of dimension n."""
    u = np.sqrt(rng.uniform(0.0, 1.0, size=(count, n)))
    return u * np.exp(2j * math.pi * rng.uniform(0.0, 1.0, size=(count, n)))


def polydisk_points(P: Polydisk, coords: np.ndarray) -> np.ndarray:
    """center + (coords * radii) @ basis, one coordinate at a time (see
    domains.coordinate_sum); a uniform sample of the unit polydisk lands on
    a uniform (nu) sample of P."""
    cols = [coords[:, j] * P.radii[j] for j in range(P.n)]
    out = np.empty((len(coords), P.n), dtype=complex)
    for k, column in enumerate(P.basis.T):
        out[:, k] = P.center[k] + domains.coordinate_sum(cols, column)
    return out


def sample_polydisk(P: Polydisk, count: int, rng: np.random.Generator) -> np.ndarray:
    """Uniform (nu) sample of the polydisk, shape (count, n)."""
    return polydisk_points(P, unit_polydisk_sample(P.n, count, rng))
