"""Shared vectorized RANSAC plane search.

Candidate triples are drawn and scored in batches so the search cost is
a handful of matrix products instead of one numpy call per iteration.
Results are a pure function of (points, config, rng state).

Candidates are scored in chunks of _SCORE_BUDGET // n, one chunk per
task on geometry.thread_count() threads. A task walks the points in
blocks of _POINT_BLOCK (a one-point tail joins the last full block) and
keeps one block-wide distance buffer and one boolean buffer of its own:
the distances are written in place by matmul, subtract and abs, and
each candidate's inliers in a block are counted along one contiguous row
and added to its total. The working set of a task stays in cache, and no
n-sized temporaries are allocated. Column blocks of the product round
exactly like the full product as long as none is one point wide (BLAS
then switches from gemm to gemv, or from gemv to dot), so neither the
block size nor the thread count changes a bit.

A candidate stops being scored once it cannot reach the best count: after
a block ending at point hi, a candidate whose count so far plus the
n - hi points not yet scored is strictly below `best`, the largest count
of any chunk that has already finished, leaves its chunk's product and
reports -1. Its full count would be below a count some candidate really
has, so it cannot be the maximum; and since the test is strict, every
candidate that ties the maximum is scored to the end, so the first
maximum (the earliest candidate) still wins, whichever chunk finishes
first. The threads read `best` after every block without a lock: a stale
read is the count of a chunk that finished earlier, at most the current
`best`, and only prunes less (a finished chunk raises `best` under a
lock, so no raise is lost). Which candidates stop early therefore varies
with the thread count and finishing order, but the returned mask and
count do not. Rows of a gemm product keep their bits when other rows are
dropped, as long as two rows remain; a one-row product is gemv and
rounds differently, so a chunk that began with two or more candidates
keeps a second row rather than shrink to one.
"""

from __future__ import annotations

import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .geometry import thread_count

# Cap on the candidate-by-point score buffer, in elements. It also fixes
# which chunks hold a single candidate (see best_plane_support), so it is
# part of the result, not only of the memory use.
_SCORE_BUDGET = 4_000_000
# Points scored per step of a chunk; sized so a 40-candidate chunk's
# buffers (1.3 MB) stay in a core's L2 cache.
_POINT_BLOCK = 4096


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
    the first one with the most inliers, or None when no valid candidate
    exists. A candidate stops being scored once its count can no longer
    reach that of a finished chunk (see the module docstring); the result
    is the same bits as scoring every candidate against every point.
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
    # A block one point wide would turn the chunk's product into gemv (and
    # a lone candidate's into dot), which round unlike the full product;
    # a one-point tail joins the block before it.
    bounds = list(range(0, n, _POINT_BLOCK)) + [n]
    if len(bounds) > 2 and bounds[-1] - bounds[-2] == 1:
        del bounds[-2]
    blocks = list(zip(bounds[:-1], bounds[1:]))
    width = max(hi - lo for lo, hi in blocks)

    best = -1   # largest count of a finished chunk; raised under best_lock
    best_lock = threading.Lock()

    def score(start: int) -> np.ndarray:
        """Inlier counts of the candidates in the chunk at start, -1 for
        each candidate that stopped early."""
        nonlocal best
        nc = normals[start:start + chunk]
        oc = offsets[start:start + chunk, None]
        dist = np.empty((len(nc), width))
        near = np.empty((len(nc), width), dtype=bool)
        counts = np.zeros(len(nc), dtype=np.int64)
        rows = np.arange(len(nc))            # chunk rows still scored
        result = np.full(len(nc), -1, dtype=np.int64)
        for lo, hi in blocks:
            alive = counts + (n - lo) >= best
            if not alive.all():
                if len(nc) > 1 and np.count_nonzero(alive) == 1:
                    alive[np.argmin(alive)] = True   # never a one-row product
                nc, oc, counts, rows = nc[alive], oc[alive], counts[alive], rows[alive]
                if not len(nc):
                    return result
            d, hit = dist[:len(nc), :hi - lo], near[:len(nc), :hi - lo]
            if len(nc) == 1:
                # BLAS scores a lone candidate with gemv, whose rounding can
                # differ from gemm's; keep the (points x normal) product.
                np.matmul(pts[lo:hi], nc[0], out=d[0])
            else:
                np.matmul(nc, pts_t[:, lo:hi], out=d)
            np.subtract(d, oc, out=d)
            np.abs(d, out=d)
            np.less_equal(d, threshold, out=hit)
            counts += np.count_nonzero(hit, axis=1)
        result[rows] = counts
        with best_lock:
            best = max(best, int(counts.max()))
        return result

    with ThreadPoolExecutor(thread_count()) as pool:
        counts = np.concatenate(list(pool.map(score, range(0, keep.size, chunk))))
    top = int(np.argmax(counts))     # first maximum: the earliest candidate wins ties
    mask = np.abs(pts @ normals[top] - offsets[top]) <= threshold
    return mask, int(counts[top])
