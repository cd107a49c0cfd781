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

Point selection is the first stage of ICP (Rusinkiewicz & Levoy 2001):
a source of more than SOURCE_SAMPLE points is registered by a fixed
sample of that many, drawn once before the overlap crop with a
fixed-seed generator, so the result is a pure function of the inputs
and the config. A target without normals gets them only where the
correspondences touch it, each one bit-equal to what estimate_normals
gives that point, with the viewpoint at the target's origin.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from .geometry import (Aabb, PointCloud, PointIndex, RigidTransform, compose,
                       rotation_exp)

SINGULAR_COND = 1e12
NORMAL_BLOCK = 2048     # query points per neighbor gather of the normal kernel
SOURCE_SAMPLE = 5000    # source points ICP registers; None: every point
SAMPLE_SEED = 0         # generator seed of the source sample


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
    """
    if k < 3:
        raise ValueError("normal estimation needs k >= 3")
    _check_normal_k(len(cloud), k)
    return PointCloud(cloud.points, _normals(PointIndex(cloud.points), cloud.points,
                                             k, viewpoint))


def _check_normal_k(n: int, k: int) -> None:
    if n < k:
        raise IcpError(f"cloud has {n} points, needs >= k = {k}")


def _normals(index: PointIndex, qs: np.ndarray, k: int, viewpoint) -> np.ndarray:
    """Normals at the query points qs, each from its k nearest points of
    index, oriented toward viewpoint: the kernel of estimate_normals.

    Query points are processed in blocks of NORMAL_BLOCK, one neighbor
    query per block, so the neighbor gathers take O(NORMAL_BLOCK * k)
    memory rather than O(n * k). Each point's arithmetic depends on
    neither the block nor the other query points.
    """
    vp = np.asarray(viewpoint, dtype=np.float64).reshape(3)
    normals = np.empty((len(qs), 3))
    for lo in range(0, len(qs), NORMAL_BLOCK):
        nbr, _ = index.knn(qs[lo:lo + NORMAL_BLOCK], k=k)
        centered = index.points[nbr]                  # (b, k, 3)
        centered -= centered.mean(axis=1, keepdims=True)
        cov = np.empty((len(nbr), 3, 3))
        for i in range(3):
            for j in range(i, 3):
                cov[:, i, j] = cov[:, j, i] = np.einsum(
                    "nk,nk->n", centered[:, :, i], centered[:, :, j])
        cov /= k
        _, vecs = np.linalg.eigh(cov)                 # ascending eigenvalues
        normals[lo:lo + NORMAL_BLOCK] = vecs[:, :, 0]
    flip = np.einsum("ni,ni->n", normals, vp[None, :] - qs) < 0
    normals[flip] = -normals[flip]
    normals /= np.linalg.norm(normals, axis=1, keepdims=True)
    return normals


class _Target:
    """The target's points, KD-tree and normals: its own normals if it has
    them, otherwise each estimated from its normal_k nearest target points
    (viewpoint at the origin) the first time a correspondence reads it."""

    def __init__(self, cloud: PointCloud, normal_k: int):
        self.points, self._k = cloud.points, normal_k
        self._normals, self._missing = cloud.normals, None
        if not cloud.has_normals():
            _check_normal_k(len(cloud), normal_k)
            self._normals = np.empty((len(cloud), 3))
            self._missing = np.ones(len(cloud), dtype=bool)
        self.index = PointIndex(cloud.points)

    def normals(self, idx: np.ndarray) -> np.ndarray:
        if self._missing is not None:
            new = np.unique(idx[self._missing[idx]])
            if new.size:
                self._normals[new] = _normals(self.index, self.points[new], self._k,
                                              (0.0, 0.0, 0.0))
                self._missing[new] = False
        return self._normals[idx]


def _sample(points: np.ndarray) -> np.ndarray:
    """The rows ICP registers: a sorted, fixed-seed draw of SOURCE_SAMPLE
    rows without replacement when there are more, otherwise every row."""
    if SOURCE_SAMPLE is None or len(points) <= SOURCE_SAMPLE:
        return points
    rows = np.random.default_rng(SAMPLE_SEED).choice(len(points), SOURCE_SAMPLE,
                                                     replace=False)
    return points[np.sort(rows)]


def _overlap_crop(src: np.ndarray, dst: np.ndarray, T: RigidTransform,
                  margin: float) -> np.ndarray:
    """Indices of source points whose T-image lies in the intersection of
    both clouds' AABBs grown by margin (bit-equal to growing the raw
    intersection); raises IcpError when none does: no overlap at T."""
    moved = T.apply(src)
    box = Aabb.from_points(moved).expanded(margin).intersection(
        Aabb.from_points(dst).expanded(margin))
    keep = np.flatnonzero(box.contains(moved)) if box is not None else []
    if len(keep) == 0:
        raise IcpError("zero correspondences: no source point lies in the "
                       f"overlap of the two clouds' boxes (margin {margin:.3g} m)")
    return keep


def _correspond(src: np.ndarray, T: RigidTransform,
                index: PointIndex, max_dist: float | None
                ) -> tuple[np.ndarray, np.ndarray, np.ndarray, float]:
    """Nearest-neighbor pairs of T(src) within max_dist of each other.

    Nearest neighbors come from index.knn(T(src), 1), a query of the
    target's KD-tree. A max_dist of None resolves to 3x the median of
    these distances. Returns (T(src), surviving source rows, their
    target indices, max_dist); raises IcpError when no pair survives.
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


def point_to_plane_icp(source: PointCloud, target: PointCloud,
                       T_init: RigidTransform = RigidTransform.identity(),
                       cfg: IcpConfig = IcpConfig()) -> IcpResult:
    """Refine T_init so the source cloud lands on the target surfaces.

    Iterates correspondence search (nearest neighbors within the
    distance bound inside the overlap region) with the 6-dof
    normal-equation solve. A source of more than SOURCE_SAMPLE points
    is registered by its fixed sample (_sample). Only the
    target's normals are read, and a target without normals gets them
    where the correspondences touch it (_Target); source normals, if
    any, are ignored. Stops at the first of:

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
    is the point-to-plane error of the sample at the returned pose, as
    eval_icp_error(source, target, transform, cfg) gives it. Assignments are
    remembered by SHA-256 digest only, so memory does not grow with
    the iteration count. Deterministic for identical inputs and config.
    """
    _check_inputs(source, target)
    sample = _sample(source.points)
    tgt = _Target(target, cfg.normal_k)
    src = sample[_overlap_crop(sample, target.points, T_init, cfg.overlap_margin)]
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
        moved, rows, tgt_idx, max_dist = _correspond(src, T, tgt.index, max_dist)
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
        n = tgt.normals(tgt_idx)

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
    final_err = _pose_error(sample, tgt, T, max_dist, cfg.overlap_margin)
    return IcpResult(transform=T, final_error=final_err,
                     initial_error=initial_err, iterations=len(trace),
                     correspondence_count=counts[chosen],
                     converged=stop_reason == "rel_tol",
                     error_trace=tuple(trace), max_corr_dist=max_dist,
                     stop_reason=stop_reason)


def _pose_error(src: np.ndarray, tgt: _Target, T: RigidTransform,
                max_dist: float | None, margin: float) -> float:
    """Point-to-plane error of T over src's overlap crop at T."""
    crop = _overlap_crop(src, tgt.points, T, margin)
    moved, rows, tgt_idx, _ = _correspond(src[crop], T, tgt.index, max_dist)
    return _error_sum(moved[rows], tgt.points[tgt_idx], tgt.normals(tgt_idx))


def eval_icp_error(source: PointCloud, target: PointCloud, T: RigidTransform,
                   cfg: IcpConfig = IcpConfig()) -> float:
    """Point-to-plane error of a pose; evaluation only, no optimization.

    Uses the same source sample, target normals, overlap crop and
    correspondence search as point_to_plane_icp, and raises IcpError
    where they find no correspondence, as point_to_plane_icp does.
    """
    _check_inputs(source, target)
    return _pose_error(_sample(source.points), _Target(target, cfg.normal_k), T,
                       cfg.max_corr_dist, cfg.overlap_margin)
