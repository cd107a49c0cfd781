"""Shared vectorized RANSAC plane search.

Candidate triples are drawn and scored in batches so the search cost is
a handful of matrix products instead of one numpy call per iteration.
Results are a pure function of (points, config, rng state).

Scoring reuses one (chunk, n) distance buffer and one boolean buffer
for every chunk of candidates: the distances are written in place by
matmul, subtract and abs, and each candidate's inliers are counted
along one contiguous row, so a chunk allocates no n-sized temporaries.
"""

from __future__ import annotations

import numpy as np

# Cap on the candidate-by-point score buffer, in elements. It also fixes
# which chunks hold a single candidate (see best_plane_support), so it is
# part of the result, not only of the memory use.
_SCORE_BUDGET = 4_000_000


def sample_triples(rng: np.random.Generator, n: int, count: int) -> np.ndarray:
    """(count, 3) index triples with distinct entries per row."""
    if n <= 64:
        # Exact distinct sampling via per-row random permutation order.
        keys = rng.random((count, n))
        return np.argsort(keys, axis=1)[:, :3]
    idx = rng.integers(0, n, size=(count, 3))
    bad = ((idx[:, 0] == idx[:, 1]) | (idx[:, 0] == idx[:, 2])
           | (idx[:, 1] == idx[:, 2]))
    while np.any(bad):
        idx[bad] = rng.integers(0, n, size=(int(bad.sum()), 3))
        bad = ((idx[:, 0] == idx[:, 1]) | (idx[:, 0] == idx[:, 2])
               | (idx[:, 1] == idx[:, 2]))
    return idx


def best_plane_support(pts: np.ndarray, iterations: int, threshold: float,
                       rng: np.random.Generator, axis: np.ndarray | None = None,
                       min_cos: float = 0.0) -> tuple[np.ndarray, int] | None:
    """Largest inlier mask over random 3-point plane candidates.

    When `axis` is given, candidates whose unit normal satisfies
    |normal . axis| < min_cos are skipped (used to keep floor fits
    gravity-consistent). Returns (mask, count) for the best candidate,
    or None when no valid candidate exists.
    """
    n = pts.shape[0]
    idx = sample_triples(rng, n, iterations)
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

    chunk = min(keep.size, max(1, _SCORE_BUDGET // max(n, 1)))
    pts_t = np.ascontiguousarray(pts.T)
    dist = np.empty((chunk, n))
    near = np.empty((chunk, n), dtype=bool)
    best_count = -1
    best_normal = None
    best_offset = 0.0
    for start in range(0, keep.size, chunk):
        nc = normals[start:start + chunk]
        oc = offsets[start:start + chunk]
        d, hit = dist[:len(nc)], near[:len(nc)]
        if len(nc) == 1:
            # BLAS scores a lone candidate with gemv, whose rounding can
            # differ from gemm's; keep the (points x normal) product.
            np.matmul(pts, nc[0], out=d[0])
        else:
            np.matmul(nc, pts_t, out=d)
        np.subtract(d, oc[:, None], out=d)
        np.abs(d, out=d)
        np.less_equal(d, threshold, out=hit)
        counts = np.count_nonzero(hit, axis=1)
        j = int(np.argmax(counts))
        if counts[j] > best_count:
            best_count = int(counts[j])
            best_normal = nc[j]
            best_offset = float(oc[j])

    mask = np.abs(pts @ best_normal - best_offset) <= threshold
    return mask, best_count
