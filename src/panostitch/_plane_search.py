"""Shared vectorized RANSAC machinery: the sampler and the support
kernel of both RANSACs, and the plane search.

Candidates are drawn and scored in batches so the search cost is a
handful of matrix products instead of one numpy call per iteration.
sample_distinct draws plane triples and the essential-matrix RANSAC's
8-match samples; support_counts counts the support of both. Results are
a pure function of (points, config, rng state).

Plane candidate (n, d) holds point p when |plane_residuals(p, n, d)| <=
threshold; its screen is (n, d) . (p, -1). Each term passes through at
most four roundings in both (a product and three additions in any
order, with or without FMA; or a product, two additions and the
subtraction of d), and |p . n|_1 + |d| <= ||p|| ||n|| + |d|, so the band
is geometry.screen_band with k = 4 and S <= max ||p|| max ||n|| + max |d|.
Candidates are scored in chunks of _SCORE_BUDGET // n, one kernel call
per chunk on geometry.thread_count() threads. `best` is the largest
count of a finished chunk, read without a lock (a stale read only prunes
less) and raised under one, so no raise is lost, and the plane does not
depend on the thread count or on which chunk finishes first.
"""

from __future__ import annotations

import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .geometry import screen_band, screened_le, thread_count

# Cap on the candidate-by-point score buffer, in elements (memory only).
_SCORE_BUDGET = 4_000_000
# Columns (points, matches) scored per step of support_counts, at most 65,535
# (counts are summed in uint16); a 40-candidate plane chunk's buffers (1.6 MB)
# stay in a core's L2 cache.
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


def support_counts(hyps: np.ndarray, cols: np.ndarray, threshold: float, band: float,
                   exact, best: list[int]) -> np.ndarray:
    """For each row i of hyps (C, k), the exact count of columns j of cols
    (k, n) with |exact(i, j)| <= threshold (exact takes arrays of row and
    column indices), or -1 for a row that stopped.

    |hyps @ cols|, within `band` of |exact| but rounded by its shape and
    BLAS kernel, only screens each entry (geometry.screened_le), so no
    count depends on how the work is split. Columns go in blocks of
    _POINT_BLOCK; before each block, a row whose count plus the columns
    left is strictly below best[0] stops: it cannot be the maximum, and
    one that ties is scored to the end, so the first maximum still wins.
    """
    n = cols.shape[1]
    width = min(n, _POINT_BLOCK)
    res = np.empty((len(hyps), width))
    near, far = np.empty((2, len(hyps), width), dtype=bool)
    counts = np.zeros(len(hyps), dtype=np.int64)
    rows = np.arange(len(hyps))            # rows still scored
    result = np.full(len(hyps), -1, dtype=np.int64)
    for lo in range(0, n, _POINT_BLOCK):
        alive = counts + (n - lo) >= best[0]
        if not alive.all():
            hyps, counts, rows = hyps[alive], counts[alive], rows[alive]
            if not len(hyps):
                return result
        hi = min(lo + _POINT_BLOCK, n)
        r, hit, miss = (buf[:len(hyps), :hi - lo] for buf in (res, near, far))
        np.matmul(hyps, cols[:, lo:hi], out=r)
        np.abs(r, out=r)
        screened_le(r, threshold, band, lambda i, j: exact(rows[i], lo + j), hit, miss)
        counts += hit.view(np.uint8).sum(axis=1, dtype=np.uint16)
    result[rows] = counts
    return result


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
    band = screen_band(4, (p_norm, n_norm), lambda: p_norm * n_norm + np.abs(offsets).max(),
                       (n_norm,))
    chunk = min(keep.size, max(1, _SCORE_BUDGET // max(n, 1)))
    pts_t = np.ascontiguousarray(np.vstack([pts.T, -np.ones(n)]))   # rows p, -1
    planes = np.column_stack([normals, offsets])
    best = [-1]   # largest count of a finished chunk; raised under best_lock
    best_lock = threading.Lock()

    def score(start: int) -> np.ndarray:
        nc = planes[start:start + chunk]
        counts = support_counts(nc, pts_t, threshold, band,
                                lambda i, j: plane_residuals(pts[j], nc[i, :3], nc[i, 3]), best)
        with best_lock:
            best[0] = max(best[0], int(counts.max()))
        return counts

    with ThreadPoolExecutor(thread_count()) as pool:
        counts = np.concatenate(list(pool.map(score, range(0, keep.size, chunk))))
    top = int(np.argmax(counts))     # first maximum: the earliest candidate wins ties
    mask = np.abs(plane_residuals(pts, normals[top], offsets[top])) <= threshold
    return mask, int(counts[top])
