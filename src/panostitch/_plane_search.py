"""Shared vectorized RANSAC plane search.

Candidate triples are drawn and scored in batches so the search cost is
a handful of matrix products instead of one numpy call per iteration.
Their sampler, sample_distinct, also draws the essential-matrix RANSAC's
8-match samples.
Results are a pure function of (points, config, rng state).

Candidate (n, d) holds point p when |plane_residuals(p, n, d)| <=
threshold. Scoring computes (n, d) . (p, -1) by matrix products, whose
rounding depends on their shape and BLAS kernel, and uses them only as a
screen (geometry.screened_le): entries within B of the threshold take
their bit from plane_residuals. Each term passes through at most four
roundings in both (a product and three additions in any order, with or
without FMA; or a product, two additions and the subtraction of d), and
|p . n|_1 + |d| <= ||p|| ||n|| + |d|, so

    B = 4 gamma_4 (max ||p|| max ||n|| + max |d|)
        + 64 * 2^-1074 * max(1, max ||n||).

Counts are therefore exact, and the count is the mask's sum at any chunk
size, point block or thread count. Candidates are scored in chunks of _SCORE_BUDGET // n, one chunk per
task on geometry.thread_count() threads, each walking the points in
blocks of _POINT_BLOCK with cache-sized buffers of its own. A candidate
stops being scored once its count plus the points not yet scored is
strictly below `best`, the largest count of a finished chunk, and
reports -1: it cannot be the maximum, and one that ties it is scored to
the end, so the first maximum still wins whichever chunk finishes first.
Threads read `best` without a lock; a stale read only prunes less (a
finished chunk raises it under a lock, so no raise is lost).
"""

from __future__ import annotations

import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .geometry import screened_le, thread_count

# Cap on the candidate-by-point score buffer, in elements (memory only).
_SCORE_BUDGET = 4_000_000
# Points scored per step of a chunk, at most 65,535 (counts are summed in
# uint16); a 40-candidate chunk's buffers (1.6 MB) stay in a core's L2 cache.
_POINT_BLOCK = 4096


def sample_distinct(rng: np.random.Generator, n: int, count: int, k: int) -> np.ndarray:
    """(count, k) indices into range(n), k <= n, distinct within each row.

    For n <= 64 each row is the first k entries of the argsort of n
    uniform keys, a random permutation. Above 64 the rows come from one
    rng.integers draw, and the rows that hold a repeated index are drawn
    again, together and in row order, until none does.
    """
    if n <= 64:
        return np.argsort(rng.random((count, n)), axis=1)[:, :k]
    idx = rng.integers(0, n, size=(count, k))
    rows = np.flatnonzero(_has_repeat(idx))
    while rows.size:
        idx[rows] = rng.integers(0, n, size=(rows.size, k))
        rows = rows[_has_repeat(idx[rows])]
    return idx


def _has_repeat(idx: np.ndarray) -> np.ndarray:
    """Whether each row of idx holds some index twice."""
    s = np.sort(idx, axis=1)
    return (s[:, 1:] == s[:, :-1]).any(axis=1)


def plane_residuals(p: np.ndarray, n: np.ndarray, d) -> np.ndarray:
    """Signed distances ((p0 n0 + p1 n1) + p2 n2) - d of points p from
    planes (n, d), added in that order; rows broadcast."""
    return (p[..., 0] * n[..., 0] + p[..., 1] * n[..., 1]) + p[..., 2] * n[..., 2] - d


def best_plane_support(pts: np.ndarray, iterations: int, threshold: float,
                       rng: np.random.Generator, axis: np.ndarray | None = None,
                       min_cos: float = 0.0) -> tuple[np.ndarray, int] | None:
    """Largest inlier mask over random 3-point plane candidates.

    When `axis` is given, candidates whose unit normal satisfies
    |normal . axis| < min_cos are skipped (used to keep floor fits
    gravity-consistent). Returns (mask, count) for the best candidate,
    the first one with the most inliers, or None when no valid candidate
    exists. The result has the bits of scoring every candidate against
    every point with plane_residuals (see the module docstring).
    """
    n = pts.shape[0]
    idx = sample_distinct(rng, n, iterations, 3)
    a = pts[idx[:, 0]]
    normals = np.cross(pts[idx[:, 1]] - a, pts[idx[:, 2]] - a)
    norms = np.linalg.norm(normals, axis=1)
    valid = norms > 1e-12
    if axis is not None:
        with np.errstate(invalid="ignore", divide="ignore"):
            tilt_ok = np.abs((normals @ axis) / norms) >= min_cos
        valid &= tilt_ok
    keep = np.flatnonzero(valid)
    if keep.size == 0:
        return None
    normals = normals[keep] / norms[keep, None]
    offsets = np.einsum("ij,ij->i", pts[idx[keep, 0]], normals)

    p_norm = np.hypot.reduce(pts, axis=1).max()
    n_norm = np.hypot.reduce(normals, axis=1).max()
    band = np.inf   # where a product could overflow
    if np.max([p_norm, n_norm]) < 2.0 ** 300:
        gamma_4 = 4 * 2.0 ** -53 / (1 - 4 * 2.0 ** -53)
        band = (4 * gamma_4 * (p_norm * n_norm + np.abs(offsets).max())
                + 64 * 2.0 ** -1074 * max(1.0, n_norm))
    chunk = min(keep.size, max(1, _SCORE_BUDGET // max(n, 1)))
    pts_t = np.ascontiguousarray(np.vstack([pts.T, -np.ones(n)]))   # rows p, -1
    planes = np.column_stack([normals, offsets])
    width = min(n, _POINT_BLOCK)

    best = -1   # largest count of a finished chunk; raised under best_lock
    best_lock = threading.Lock()

    def score(start: int) -> np.ndarray:
        """Inlier counts of the candidates in the chunk at start, -1 for
        each candidate that stopped early."""
        nonlocal best
        nc = planes[start:start + chunk]
        dist = np.empty((len(nc), width))
        near, far = np.empty((2, len(nc), width), dtype=bool)
        counts = np.zeros(len(nc), dtype=np.int64)
        rows = np.arange(len(nc))            # chunk rows still scored
        result = np.full(len(nc), -1, dtype=np.int64)
        for lo in range(0, n, _POINT_BLOCK):
            alive = counts + (n - lo) >= best
            if not alive.all():
                nc, counts, rows = nc[alive], counts[alive], rows[alive]
                if not len(nc):
                    return result
            hi = min(lo + _POINT_BLOCK, n)
            d, hit, miss = (buf[:len(nc), :hi - lo] for buf in (dist, near, far))
            np.matmul(nc, pts_t[:, lo:hi], out=d)
            np.abs(d, out=d)
            screened_le(d, threshold, band,
                        lambda i, j: plane_residuals(pts[lo + j], nc[i, :3], nc[i, 3]), hit, miss)
            counts += hit.view(np.uint8).sum(axis=1, dtype=np.uint16)
        result[rows] = counts
        with best_lock:
            best = max(best, int(counts.max()))
        return result

    with ThreadPoolExecutor(thread_count()) as pool:
        counts = np.concatenate(list(pool.map(score, range(0, keep.size, chunk))))
    top = int(np.argmax(counts))     # first maximum: the earliest candidate wins ties
    mask = np.abs(plane_residuals(pts, normals[top], offsets[top])) <= threshold
    return mask, int(counts[top])
