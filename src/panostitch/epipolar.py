"""Two-view relative pose from bearing matches.

Estimates the essential matrix with a RANSAC-wrapped 8-point solve
operating directly on unit bearing vectors, so full 360-degree fields of
view are handled without any planar-image assumptions. The recovered
pose (R, t_hat) maps frame-a coordinates into frame b:

    p_b = R @ p_a + s * t_hat        (s > 0 is the unknown metric scale)

which makes E = [t_hat]x @ R satisfy b_b^T E b_a = 0 for true matches.

Match m is an inlier of E when |b_b^T E b_a| <= threshold, summed as
_plane_search.residuals(E.ravel(), a, b) with a = b_b repeated and b =
b_a tiled: the terms (b_b,i E_ij) b_a,j in (i, j) order from (0, 0), the
bits of numpy's einsum("ni,cij,nj->cn"). RANSAC counts inliers with
_plane_search.support, whose matrix products only screen that formula
(its docstring derives the band); the masks of the winner and of its
refit come from the formula directly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._plane_search import residuals, sample_distinct, support
from .geometry import check_rotation, check_unit
from .panorama import BearingMatchSet

PARALLEL_RAY_TOL = 1e-8


class EstimationError(RuntimeError):
    """RANSAC could not produce a model meeting the inlier requirements."""


class CheiralityError(RuntimeError):
    """Pose disambiguation failed: no candidate wins the depth vote."""


@dataclass(frozen=True)
class RansacConfig:
    threshold: float = 1e-3      # |b_b^T E b_a| bound, E normalized to ||E||_F = sqrt(2)
    iterations: int = 2000
    min_inliers: int = 8

    def __post_init__(self):
        if not 0 < self.threshold < np.inf or self.iterations <= 0 \
                or self.min_inliers < 8:
            raise ValueError(f"invalid RANSAC config: {self}")


@dataclass(frozen=True)
class EssentialEstimate:
    """RANSAC output: projected essential matrix plus its support."""

    matrix: np.ndarray
    inlier_indices: np.ndarray
    low_confidence: bool


@dataclass(frozen=True)
class RelativePose:
    """Rotation and unit translation direction taking frame a into frame b."""

    rotation: np.ndarray
    direction: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "rotation", check_rotation(self.rotation))
        object.__setattr__(self, "direction", check_unit(self.direction, 1e-9))


@dataclass(frozen=True)
class TriangulatedSet:
    """Points in frame a at the estimator's unit-baseline scale."""

    points: np.ndarray
    inlier_indices: np.ndarray

    def __len__(self) -> int:
        return self.points.shape[0]


def _eight_point(sa: np.ndarray, sb: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Least-squares essential matrices for a stack of samples.

    sa, sb hold C samples of m >= 8 bearing pairs, shape (C, m, 3).
    Returns (E, valid): E of shape (C, 3, 3) projected onto the essential
    manifold (singular values (1, 1, 0), Frobenius norm sqrt(2)), and
    valid False where a sample does not constrain all 8 degrees of
    freedom. For minimal samples (m = 8) the null vector of the 8 x 9
    system A is the last column of Q in a complete QR of A^T, and a sample
    is valid when min |diag R| >= 1e-12 (Hartley & Zisserman ch. 11). For
    m > 8 it is the last right singular vector of a thin SVD of A, valid
    when the 8th singular value is >= 1e-12.
    """
    # Row for pair i is outer(b_b, b_a) flattened row-major, matching E.ravel().
    A = np.einsum("cni,cnj->cnij", sb, sa).reshape(sa.shape[0], sa.shape[1], 9)
    if A.shape[1] == 8:
        q, r = np.linalg.qr(A.transpose(0, 2, 1), mode="complete")
        valid = np.abs(np.diagonal(r, axis1=1, axis2=2)).min(axis=1) >= 1e-12
        E = q[:, :, -1].reshape(-1, 3, 3)
    else:
        _, s, vt = np.linalg.svd(A, full_matrices=False)
        valid = s[:, 7] >= 1e-12
        E = vt[:, -1].reshape(-1, 3, 3)
    u3, _, v3 = np.linalg.svd(E)
    E = u3 @ np.diag([1.0, 1.0, 0.0])[None, :, :] @ v3
    return E, valid


_RANSAC_BATCH = 512


def estimate_essential(matches: BearingMatchSet, cfg: RansacConfig = RansacConfig(),
                       seed: int = 0) -> EssentialEstimate:
    """RANSAC essential-matrix fit over minimal 8-point bearing samples.

    The largest-support sample model is refit once by least squares on its
    inliers, projected back to the essential manifold, and the inlier set
    is re-evaluated against the refit model so every reported inlier
    respects cfg.threshold. Identical (matches, cfg, seed) inputs always
    reproduce the same result. A low_confidence flag marks best models
    supported by under 30% of the matches. Candidates are drawn and solved
    in batches of _RANSAC_BATCH: each batch draws its samples of 8
    distinct match indices with _plane_search.sample_distinct (one integer
    draw per batch, rows holding a repeat drawn again) and solves them by
    QR in _eight_point. The valid samples of each batch are counted by one
    _plane_search.support call against the best count so far; the first
    sample with the most inliers wins, so the result is a pure function of
    the seed and does not depend on how support splits the batch.
    """
    ba, bb = matches.bearings_a, matches.bearings_b
    n = len(matches)
    if n < 8:
        raise EstimationError(f"need at least 8 matches, got {n}")

    rng = np.random.default_rng(seed)
    a, b = np.repeat(bb, 3, axis=1), np.tile(ba, 3)   # b_b^T E b_a = residuals(E.ravel(), a, b)
    count = support(a, b)
    best = 0    # the largest count so far; only a larger one replaces best_h
    best_h: np.ndarray | None = None
    done = 0
    while done < cfg.iterations:
        batch = min(_RANSAC_BATCH, cfg.iterations - done)
        done += batch
        idx = sample_distinct(rng, n, batch, 8)
        E, valid = _eight_point(ba[idx], bb[idx])
        H = E[valid].reshape(-1, 9)
        if not len(H):
            continue
        counts = count(H, cfg.threshold, best)
        j = int(np.argmax(counts))
        if counts[j] > best:
            best, best_h = int(counts[j]), H[j]

    if best_h is None or best < cfg.min_inliers:
        raise EstimationError(
            f"no model with >= {cfg.min_inliers} inliers after {cfg.iterations} iterations")

    best_mask = np.abs(residuals(best_h, a, b)) <= cfg.threshold
    try:
        E, valid = _eight_point(ba[best_mask][None], bb[best_mask][None])
    except np.linalg.LinAlgError as e:
        raise EstimationError("inlier refit did not converge") from e
    if not valid[0]:
        raise EstimationError("inlier refit is degenerate")
    E = E[0]
    mask = np.abs(residuals(E.ravel(), a, b)) <= cfg.threshold
    if int(mask.sum()) < cfg.min_inliers:
        raise EstimationError("refit model lost its inlier support")
    inliers = np.flatnonzero(mask)
    return EssentialEstimate(matrix=E, inlier_indices=inliers,
                             low_confidence=len(inliers) / n < 0.3)


def _factorize(E: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
    """The four (R, t_hat) candidates of an essential matrix."""
    u, _, vt = np.linalg.svd(E)
    if np.linalg.det(u) < 0:
        u = -u
    if np.linalg.det(vt) < 0:
        vt = -vt
    W = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
    r1 = u @ W @ vt
    r2 = u @ W.T @ vt
    t = u[:, 2]
    return [(r1, t), (r1, -t), (r2, t), (r2, -t)]


def _midpoint_depths(ba: np.ndarray, bb: np.ndarray, R: np.ndarray,
                     t: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Vectorized midpoint triangulation at unit baseline.

    Rays in frame a: lam_a * b_a from the origin and c + lam_b * (R^T b_b)
    from camera b's center c = -R^T t. Returns (points, lam_a, lam_b);
    near-parallel rays get lam values of 0 (rejected by depth tests).
    """
    da = ba
    db = bb @ R  # == (R.T @ bb_i) row-wise
    c = -(R.T @ t)
    dot = np.einsum("ni,ni->n", da, db)
    det = 1.0 - dot * dot
    ca = da @ c
    cb = db @ c
    ok = det >= PARALLEL_RAY_TOL ** 2
    lam_a = np.zeros(len(da))
    lam_b = np.zeros(len(da))
    # Solve [[1, -dot], [-dot, 1]] [lam_a, lam_b] = [ca, -cb] per pair.
    lam_a[ok] = (ca[ok] - dot[ok] * cb[ok]) / det[ok]
    lam_b[ok] = (dot[ok] * ca[ok] - cb[ok]) / det[ok]
    pts = 0.5 * (lam_a[:, None] * da + c[None, :] + lam_b[:, None] * db)
    lam_a[~ok] = 0.0
    lam_b[~ok] = 0.0
    return pts, lam_a, lam_b


def decompose_essential(E: np.ndarray, matches: BearingMatchSet,
                        inlier_indices) -> RelativePose:
    """Pick the (R, t_hat) factorization by the positive-depth vote.

    Each candidate is scored by how many inlier pairs triangulate with
    positive depth along both rays; the winner must beat every other
    candidate and hold a strict majority of the inliers.
    """
    idx = np.asarray(inlier_indices, dtype=np.int64)
    if idx.size < 2:
        raise ValueError(f"need at least 2 inliers to disambiguate, got {idx.size}")
    ba = matches.bearings_a[idx]
    bb = matches.bearings_b[idx]

    counts = []
    candidates = _factorize(np.asarray(E, dtype=np.float64))
    for R, t in candidates:
        _, la, lb = _midpoint_depths(ba, bb, R, t)
        counts.append(int(np.sum((la > 0) & (lb > 0))))

    order = np.argsort(counts)[::-1]
    best, runner_up = order[0], order[1]
    if counts[best] <= counts[runner_up] or counts[best] * 2 <= idx.size:
        raise CheiralityError(
            f"depth vote is ambiguous: candidate supports {counts}")
    R, t = candidates[best]
    return RelativePose(R, t / np.linalg.norm(t))


def triangulate_set(matches: BearingMatchSet, pose: RelativePose,
                    indices=None) -> TriangulatedSet:
    """Triangulate many pairs, keeping only cheirality-positive points."""
    idx = (np.arange(len(matches)) if indices is None
           else np.asarray(indices, dtype=np.int64))
    pts, la, lb = _midpoint_depths(matches.bearings_a[idx], matches.bearings_b[idx],
                                   pose.rotation, pose.direction)
    keep = (la > 0) & (lb > 0)
    return TriangulatedSet(points=pts[keep], inlier_indices=idx[keep])
