"""Point-to-plane ICP refinement.

Minimizes the one-sided geometric error

    E = sum_i ((T @ p_a_i - q_i) . n_i)^2

where q_i is the nearest target point to the transformed source point
and n_i the target normal at q_i. Each iteration solves the small-angle
6-dof linearization of E (normal equations), so a good initial pose is
assumed; the coarse panorama-derived pose provides it in the pipeline.

The loop stops for one of three reasons, reported as
IcpResult.stop_reason:

- "rel_tol": the relative error change of a step fell below
  IcpConfig.rel_tol (the only case with converged = True);
- "cycle": the correspondence set at the start of an iteration
  equals the set of an earlier iteration other than the one just
  before. A linearized point-to-plane step, unlike exact point-to-point
  minimization (Besl & McKay 1992), need not decrease the error, so the
  iterates can revisit the same correspondences with any period and
  never meet rel_tol. The lowest-error iterate of the cycle is returned;
- "max_iterations": IcpConfig.max_iterations steps ran.

An empty overlap crop (Rusinkiewicz & Levoy 2001) or correspondence set
raises IcpError("zero correspondences ..."); no pose or error is made up.

A step moves most points by far less than the gap to their second
nearest target point, so their nearest neighbor cannot change. The loop
keeps each point's neighbor and a lower bound on its distance to every
other target point, and sends only the points whose neighbor may have
changed back to the KD-tree (Greenspan & Godin 2001). The result equals
a full query at every iteration, index and distance bit for bit.
"""

from __future__ import annotations

import hashlib
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .geometry import (Aabb, PointCloud, PointIndex, RigidTransform, compose,
                       rotation_exp, thread_count)

SINGULAR_COND = 1e12
NORMAL_BLOCK = 2048     # query points per neighbor gather in estimate_normals
# Relative shrink of every second-neighbor bound _NearestCache stores. It
# must exceed the relative rounding of the distances its test reads plus
# that of the distances cKDTree compares, about 21 units in the last
# place (2.3e-15) together.
_BOUND_SLACK = 1e-12


class IcpError(RuntimeError):
    """Registration failed (no correspondences or singular system)."""


@dataclass(frozen=True)
class IcpConfig:
    max_iterations: int = 50
    rel_tol: float = 1e-6
    max_corr_dist: float | None = None   # None: 3x median initial residual
    normal_k: int = 20
    overlap_margin: float = 0.5          # AABB-intersection expansion, meters

    def __post_init__(self):
        if self.max_iterations <= 0 or self.normal_k < 3 or not 0 < self.rel_tol < 1 \
                or not 0 <= self.overlap_margin < np.inf \
                or not (self.max_corr_dist is None or 0 < self.max_corr_dist < np.inf):
            raise ValueError(f"invalid ICP config: {self}")


@dataclass(frozen=True)
class IcpResult:
    transform: RigidTransform
    final_error: float
    initial_error: float
    iterations: int
    correspondence_count: int
    converged: bool
    error_trace: tuple[float, ...]
    max_corr_dist: float
    stop_reason: str      # "rel_tol", "cycle" or "max_iterations"


def estimate_normals(cloud: PointCloud, k: int = 20,
                     viewpoint=(0.0, 0.0, 0.0)) -> PointCloud:
    """Per-point normals from the k-nearest-neighbor covariance.

    The normal is the smallest-eigenvalue eigenvector of the local
    covariance (neighborhood includes the point itself), flipped so it
    faces the viewpoint: normal . (viewpoint - p) >= 0.

    Query points are processed in blocks of NORMAL_BLOCK on
    thread_count() threads, one neighbor query per block on its own
    thread, so the neighbor gathers take O(threads * NORMAL_BLOCK * k)
    memory rather than O(n * k). Each point's arithmetic depends on
    neither the block nor the thread count.
    """
    n = len(cloud)
    if k < 3:
        raise ValueError("normal estimation needs k >= 3")
    if n < k:
        raise IcpError(f"cloud has {n} points, needs >= k = {k}")
    vp = np.asarray(viewpoint, dtype=np.float64).reshape(3)

    index = PointIndex(cloud.points)
    normals = np.empty((n, 3))

    def block(lo: int) -> None:
        nbr, _ = index.knn(cloud.points[lo:lo + NORMAL_BLOCK], k=k, serial=True)
        centered = cloud.points[nbr]                  # (b, k, 3)
        centered -= centered.mean(axis=1, keepdims=True)
        cov = np.empty((len(nbr), 3, 3))
        for i in range(3):
            for j in range(i, 3):
                cov[:, i, j] = cov[:, j, i] = np.einsum(
                    "nk,nk->n", centered[:, :, i], centered[:, :, j])
        cov /= k
        _, vecs = np.linalg.eigh(cov)                 # ascending eigenvalues
        normals[lo:lo + NORMAL_BLOCK] = vecs[:, :, 0]

    with ThreadPoolExecutor(thread_count()) as pool:
        list(pool.map(block, range(0, n, NORMAL_BLOCK)))   # re-raises failures
    flip = np.einsum("ni,ni->n", normals, vp[None, :] - cloud.points) < 0
    normals[flip] = -normals[flip]
    normals /= np.linalg.norm(normals, axis=1, keepdims=True)
    return PointCloud(cloud.points, normals)


def _overlap_crop(src: np.ndarray, dst: PointCloud, T: RigidTransform,
                  margin: float) -> np.ndarray:
    """Indices of source points whose T-image lies in the intersection of
    both clouds' AABBs grown by margin (bit-equal to growing the raw
    intersection); raises IcpError when none does: no overlap at T."""
    moved = T.apply(src)
    box = Aabb.from_points(moved).expanded(margin).intersection(
        Aabb.from_points(dst.points).expanded(margin))
    keep = np.flatnonzero(box.contains(moved)) if box is not None else []
    if len(keep) == 0:
        raise IcpError("zero correspondences: no source point lies in the "
                       f"overlap of the two clouds' boxes (margin {margin:.3g} m)")
    return keep


class _NearestCache:
    """Nearest target point of each query point, carried across calls.

    knn(qs, 1) returns what PointIndex.knn(qs, 1) returns, indices and
    distances bit for bit, for query sets of one fixed size whose row i
    is always the same source point. For each row it keeps the neighbor
    j, the distance d to it, and a lower bound L on the distance to
    every other target point. A row that moved by delta since the last
    call keeps j when d + 2 delta < L (triangle inequality): d is then
    recomputed the way cKDTree computes it and L lowered by delta. Every
    other row gets a fresh k = 2 query, whose second distance is the new
    L. Where its two distances tie, j and d come from a k = 1 query, so
    ties resolve as PointIndex.knn's do. Every stored L is shrunk by the
    relative _BOUND_SLACK, which covers the rounding of the distances.
    """

    def __init__(self, index: PointIndex):
        self._index = index
        self._qs: np.ndarray | None = None

    def _search(self, qs: np.ndarray
                ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        idx, dist = self._index.knn(qs, 2)
        j, d, bound = idx[:, 0], dist[:, 0], dist[:, 1]
        tie = np.flatnonzero(d == bound)
        if tie.size:
            j[tie], d[tie] = self._index.knn(qs[tie], 1)
        return j, d, bound * (1.0 - _BOUND_SLACK)

    def knn(self, qs: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
        if k != 1:
            raise ValueError("_NearestCache answers k = 1 only")
        if self._qs is None:
            self._idx, self._dist, self._bound = self._search(qs)
        else:
            step = np.sqrt(((qs - self._qs) ** 2).sum(1))
            keep = self._dist + 2.0 * step < self._bound
            idx, dist, bound = self._idx.copy(), self._dist.copy(), self._bound.copy()
            rows = np.flatnonzero(keep)
            dist[rows] = np.sqrt(((qs[rows] - self._index.points[idx[rows]]) ** 2).sum(1))
            bound[rows] = (bound[rows] - step[rows]) * (1.0 - _BOUND_SLACK)
            rows = np.flatnonzero(~keep)
            if rows.size:
                idx[rows], dist[rows], bound[rows] = self._search(qs[rows])
            self._idx, self._dist, self._bound = idx, dist, bound
        self._qs = qs.copy()
        return self._idx, self._dist


def _correspond(src: np.ndarray, T: RigidTransform,
                index: PointIndex | _NearestCache, max_dist: float | None
                ) -> tuple[np.ndarray, np.ndarray, np.ndarray, float]:
    """Nearest-neighbor pairs of T(src) within max_dist of each other.

    Nearest neighbors come from index.knn(T(src), 1): a query of the
    target's KD-tree, or the ICP loop's _NearestCache, which answers
    the same and sends only some points to the tree. A max_dist of None
    resolves to 3x the median of these distances. Returns (T(src),
    surviving source rows, their target indices, max_dist); raises
    IcpError when no pair survives.
    """
    moved = T.apply(src)
    idx, dist = index.knn(moved, 1)
    if max_dist is None:
        med = float(np.median(dist))
        max_dist = 3.0 * med if med > 0 else 1e-9
    rows = np.flatnonzero(dist <= max_dist)
    if rows.size == 0:
        raise IcpError(
            f"zero correspondences within {max_dist:.3g} m; clouds do not overlap")
    return moved, rows, idx[rows], max_dist


def _residuals(moved: np.ndarray, q: np.ndarray, n: np.ndarray) -> np.ndarray:
    return np.einsum("ni,ni->n", moved - q, n)


def _linearize(moved: np.ndarray, q: np.ndarray, n: np.ndarray
               ) -> tuple[np.ndarray, np.ndarray]:
    """Residuals r (N,) and their Jacobian J (N, 6), rows [ (T p) x n , n ],
    w.r.t. the rotation vector and translation of a left-multiplied
    increment exp(xi) @ T at xi = 0."""
    return _residuals(moved, q, n), np.hstack([np.cross(moved, n), n])


def _error_sum(moved: np.ndarray, q: np.ndarray, n: np.ndarray) -> float:
    """Sum of squared point-to-plane residuals of moved points against
    their correspondences (q, n): every ICP error, in einsum's fixed order."""
    r = _residuals(moved, q, n)
    return float(np.einsum("i,i->", r, r))


def correspondence_error(src_pts: np.ndarray, dst_pts: np.ndarray,
                         dst_normals: np.ndarray, T: RigidTransform) -> float:
    """Sum of squared point-to-plane residuals for fixed correspondences."""
    return _error_sum(T.apply(src_pts), dst_pts, dst_normals)


def correspondence_gradient(src_pts: np.ndarray, dst_pts: np.ndarray,
                            dst_normals: np.ndarray,
                            T: RigidTransform) -> np.ndarray:
    """Gradient of the fixed-correspondence error w.r.t. the 6 pose
    parameters of exp(xi) @ T at xi = 0: 2 J^T r, with the Jacobian
    the solver steps with."""
    r, J = _linearize(T.apply(src_pts), dst_pts, dst_normals)
    return 2.0 * (J.T @ r)


def _solve_step(moved: np.ndarray, q: np.ndarray, n: np.ndarray) -> np.ndarray:
    """One Gauss-Newton step of the linearized objective; returns xi (6,)."""
    r, J = _linearize(moved, q, n)
    H = J.T @ J
    if np.linalg.cond(H) > SINGULAR_COND:
        raise IcpError(
            "normal system is singular; correspondences do not constrain "
            "all 6 degrees of freedom")
    return np.linalg.solve(H, -(J.T @ r))


def _check_inputs(source: PointCloud, target: PointCloud) -> None:
    if len(source) == 0 or len(target) == 0:
        raise IcpError("registration inputs must be nonempty")
    if not target.has_normals():
        raise IcpError("target cloud needs normals (see estimate_normals)")


def point_to_plane_icp(source: PointCloud, target: PointCloud,
                       T_init: RigidTransform = RigidTransform.identity(),
                       cfg: IcpConfig = IcpConfig()) -> IcpResult:
    """Refine T_init so the source cloud lands on the target surfaces.

    Iterates correspondence search (nearest neighbors within the
    distance bound inside the overlap region) with the 6-dof
    normal-equation solve. Only the target's normals are read; source
    normals, if any, are ignored. Stops at the first of:

    - rel_tol: a step changed the error by less than cfg.rel_tol
      relative to the step before; the last iterate is returned and
      converged is True.
    - cycle: the correspondence assignment (each cropped source point's
      target index, or -1 beyond the distance bound) at the start of an
      iteration equals the assignment of any earlier iteration except
      the one just before (that repeat is the fixed point rel_tol
      handles). The iterates since that earlier iteration form the
      cycle; the one with the lowest error_trace value (first on a tie)
      is returned, with its correspondence count.
    - max_iterations: cfg.max_iterations steps ran; the last iterate is
      returned.

    iterations and error_trace cover the steps taken, and final_error
    is the point-to-plane error at the returned pose. Assignments are
    remembered by SHA-256 digest only, so memory does not grow with
    the iteration count. Deterministic for identical inputs and config.
    """
    _check_inputs(source, target)
    index = PointIndex(target.points)
    nearest = _NearestCache(index)
    crop = _overlap_crop(source.points, target, T_init, cfg.overlap_margin)
    src = source.points[crop]
    max_dist = cfg.max_corr_dist

    T = T_init
    prev_err: float | None = None
    initial_err: float | None = None
    trace: list[float] = []
    poses: list[RigidTransform] = []    # the iterate each step produced
    counts: list[int] = []              # and its correspondence count
    seen: dict[bytes, int] = {}         # assignment digest -> latest step
    assignment = np.empty(src.shape[0], dtype=np.int64)
    stop_reason = "max_iterations"
    chosen = -1                         # index into poses: the last step

    for step in range(cfg.max_iterations):
        moved, rows, tgt_idx, max_dist = _correspond(src, T, nearest, max_dist)
        assignment.fill(-1)
        assignment[rows] = tgt_idx
        digest = hashlib.sha256(assignment).digest()
        last = seen.get(digest)
        if last is not None and last < step - 1:
            chosen = last + int(np.argmin(trace[last:]))
            stop_reason = "cycle"
            break
        seen[digest] = step

        p = moved[rows]
        q = target.points[tgt_idx]
        n = target.normals[tgt_idx]

        if prev_err is None:
            initial_err = prev_err = _error_sum(p, q, n)

        xi = _solve_step(p, q, n)
        T = compose(RigidTransform(rotation_exp(xi[:3]), xi[3:]), T)

        err = correspondence_error(src[rows], q, n, T)
        trace.append(err)
        poses.append(T)
        counts.append(int(rows.size))
        if abs(prev_err - err) / max(prev_err, 1e-12) < cfg.rel_tol:
            stop_reason = "rel_tol"
            break
        prev_err = err

    T = poses[chosen]
    final_err = _pose_error(source, target, index, T, max_dist, cfg)
    return IcpResult(transform=T, final_error=final_err,
                     initial_error=initial_err, iterations=len(trace),
                     correspondence_count=counts[chosen],
                     converged=stop_reason == "rel_tol",
                     error_trace=tuple(trace), max_corr_dist=max_dist,
                     stop_reason=stop_reason)


def _pose_error(source: PointCloud, target: PointCloud, index: PointIndex,
                T: RigidTransform, max_dist: float | None, cfg: IcpConfig) -> float:
    """Point-to-plane error of T over the overlap crop at T."""
    crop = _overlap_crop(source.points, target, T, cfg.overlap_margin)
    moved, rows, tgt_idx, _ = _correspond(source.points[crop], T, index, max_dist)
    return _error_sum(moved[rows], target.points[tgt_idx], target.normals[tgt_idx])


def eval_icp_error(source: PointCloud, target: PointCloud, T: RigidTransform,
                   cfg: IcpConfig = IcpConfig()) -> float:
    """Point-to-plane error of a pose; evaluation only, no optimization.

    Uses the same overlap crop and correspondence search as
    point_to_plane_icp, and raises IcpError where they find no
    correspondence, as point_to_plane_icp does.
    """
    _check_inputs(source, target)
    return _pose_error(source, target, PointIndex(target.points), T,
                       cfg.max_corr_dist, cfg)
