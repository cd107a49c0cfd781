"""Shared vectorized RANSAC machinery: the sampler, the inlier formulas,
the support kernel and the adaptive-stop loop of both RANSACs, the
plane search and the plane fit.

Candidates are drawn (sample_distinct) and scored in batches, so a search
costs a handful of matrix products, and results are a pure function of
(points, config, rng state). Both RANSACs start from residuals(h, a_m,
b_m), the fixed-order sum of (a_mk h_k) b_mk over k; only the factors
and the test differ. A plane (n, d) has a = (p, -1) and b = 1, which
gives ((p0 n0 + p1 n1) + p2 n2) - d bit for bit, as multiplying by 1 and
by -1 is exact, and counts point m when |residuals| <= threshold. The
essential matrix takes r = residuals(E.ravel(), a, b) = b_b^T E b_a and
q = t^2 ||E b_a||^2, a 6-term quadratic form in b_a (the factors are in
the epipolar docstring), and counts match m when excess = r r - q <= 0,
that is when the sine of b_b's angle to its epipolar plane is at most t.

support(a, b) counts with one matrix product per block, hyps @ (a o b)^T,
which only screens each entry (geometry.screened_le): the product rounds
by its shape and BLAS kernel, the formula does not. Band: for K terms,
each term passes through at most k = K + 1 roundings on either side (in
the formula two products and K - 1 additions; in the product the entry
of a o b, its product with h_k and K - 1 additions, in any order, with or
without FMA), so each side is within gamma_k S of the exact sum (Higham,
Accuracy and Stability of Numerical Algorithms, sec. 3.1; gamma_k =
k u / (1 - k u), u = 2^-53), S = sum_k |a_mk h_k b_mk| <= K max|a| max|h|
max|b|. The band is 4 gamma_k K max|a| max|h| max|b| (both sides, 2x
slack for the bound's own rounding) plus 4 K 2^-1074 max(1, max|b|,
max|h|): a product below 2^-1022 is off by 2^-1075 at most, scaled by
the factor applied after it. Max-|x| bounds, not norms: np.hypot.reduce
over 100k points costs ~10 ms per plane search, and a looser band only
sends more entries to the formula. Once max|a|, max|b| or max|h| is
2^300 or more or not finite, a product could overflow, so the band is
inf and every entry comes from the formula.

support(a, b, p) screens the excess the same way, with a second product
g @ p^T for q. With dr and dq the bands of r and q above, |r| and the
screen's r are at most R = K max|a| max|h| max|b| + dr, and q and its
screen at most Q = L max|p| max|g| + dq (L = 6 terms), so the two
excesses differ by at most 2 R dr + dq from the sums, plus 4 u (R^2 + Q)
from the two squares and the two subtractions, plus 2 2^-1075 for
squares in the subnormal range; the band doubles that sum for its own
rounding and adds 8 2^-1074. It is one scalar per call, so no count
depends on block sizes or BLAS threads.

search() drives both RANSACs. It scores the candidates in draw order,
in batches of _FIRST_BATCH, twice that, and so on (64, 128, 256, ...).
After each batch it stops once k >= log(1 - _CONFIDENCE) / log(1 -
w^s), with k the valid candidates scored so far, w = best / n the best
inlier ratio among them and s the sample size (3 for a plane, 5 for an
upright essential): k candidates all miss a clean s-point sample of that
model with probability (1 - w^s)^k <= 1 - _CONFIDENCE (Fischler &
Bolles 1981; Hartley & Zisserman, Multiple View Geometry, 2nd ed., sec.
4.7.1). The draw count is the cap. Each batch is one support call on
the calling thread, and `best` is the exact maximum over the scored
prefix when the stop test reads it. Everything runs in a fixed order, so
which candidates are scored and which stop early, not only the model
returned, is a pure function of the inputs and _SCORE_BLOCK.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import GeometryError, Plane, fit_plane_lsq, is_json, screened_le

# A search stops once, with this confidence, some scored candidate was a
# clean sample of the best model so far; its first batch holds
# _FIRST_BATCH candidates, each later batch twice the one before.
_CONFIDENCE = 0.999
_FIRST_BATCH = 64
# Columns (points, matches) scored per step of support, at most 65,535
# (counts are summed in uint16).
_POINT_BLOCK = 4096
# Residuals per block of hypotheses in support: 16 rows of a 4,096-column
# step, whose buffers (640 KiB) stay in a core's L2 cache.
_SCORE_BLOCK = 65_536

_U = 2.0 ** -53


@dataclass(frozen=True)
class PlaneFitConfig:
    distance_threshold: float = 0.01   # meters
    iterations: int = 1000             # candidates drawn: the cap on those scored
    min_inliers: int = 50

    def __post_init__(self):
        if not is_json(self.distance_threshold, float) or self.distance_threshold < 0 \
                or not is_json(self.iterations, int) or self.iterations < 1 \
                or not is_json(self.min_inliers, int) or self.min_inliers < 3:
            raise ValueError(f"invalid plane fit config: {self}")


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


def residuals(h: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The inlier formula of both RANSACs: sum_k (a_k h_k) b_k over the last
    axis, added in k order from k = 0; rows broadcast."""
    r = (a[..., 0] * h[..., 0]) * b[..., 0]
    for k in range(1, h.shape[-1]):
        r = r + (a[..., k] * h[..., k]) * b[..., k]
    return r


def excess(hg: np.ndarray, a: np.ndarray, b: np.ndarray, p: np.ndarray) -> np.ndarray:
    """The quadratic inlier formula: r r - q, with r = residuals(h, a, b)
    and q = residuals(g, p, 1) for hg = (h, g) split after a's K columns;
    rows broadcast."""
    K = a.shape[-1]
    r = residuals(hg[..., :K], a, b)
    return r * r - residuals(hg[..., K:], p, np.broadcast_to(1.0, p.shape))


def _band(K: int, x_max: float, h_max: float, y_max: float) -> float:
    """How far a K-term product x @ h, with y folded into x, may round from
    residuals(h, x, y) (module docstring), or inf past 2^300."""
    if not np.max((x_max, y_max, h_max)) < 2.0 ** 300:
        return np.inf
    gamma = (K + 1) * _U / (1 - (K + 1) * _U)
    return 4 * gamma * K * x_max * h_max * y_max \
        + 4 * K * 2.0 ** -1074 * max(1.0, y_max, h_max)


def _abs_max(x: np.ndarray) -> float:
    return max(x.max(), -x.min())


def support(a: np.ndarray, b: np.ndarray, p: np.ndarray | None = None):
    """The support counter over n columns with factors a, b (n, K) and, for
    the quadratic test, products p (n, L): counts(hyps, threshold, best)
    gives, for each row h of hyps (C, K), the exact count of columns m with
    |residuals(h, a_m, b_m)| <= threshold, or, with p, for each row (h, g)
    of hyps (C, K + L) the exact count with excess((h, g), a_m, b_m, p_m)
    <= threshold (>= 0); -1 for a row that stopped.

    The screens |hyps @ (a o b)^T| and r r - g @ p^T are within the
    module docstring's bands, so no count depends on how the work is
    split. Rows go in blocks of max(1, _SCORE_BLOCK // min(n,
    _POINT_BLOCK)), columns in blocks of _POINT_BLOCK. The int best is the
    running best count: after each block of rows it is raised to that
    block's largest count, and before each block of columns a row whose
    count plus the columns left is strictly below it stops: it cannot be
    the maximum, and one that ties is scored to the end, so the first
    maximum still wins.
    """
    n, K = a.shape
    # C order: from C-ordered factors the product comes out F-ordered, and
    # matmul on that operand took ~16 ms per block instead of ~25 us (2-CPU
    # x86-64, OpenBLAS 0.3.31).
    cols = np.multiply(a.T, b.T, order="C")
    a_max, b_max = _abs_max(a), _abs_max(b)
    quad = p is not None
    if quad:
        pcols, p_max, L = np.ascontiguousarray(p.T), _abs_max(p), p.shape[1]
    width = min(n, _POINT_BLOCK)

    def counts(hyps: np.ndarray, threshold: float, best: int) -> np.ndarray:
        h_max = _abs_max(hyps[:, :K])
        band = _band(K, a_max, h_max, b_max)
        if quad:
            g_max = _abs_max(hyps[:, K:])
            dq = _band(L, p_max, g_max, 1.0)
            R = K * a_max * h_max * b_max + band
            Q = L * p_max * g_max + dq
            band = 2 * (2 * R * band + dq + 4 * _U * (R * R + Q)) + 8 * 2.0 ** -1074
        step = max(1, _SCORE_BLOCK // width)
        res = np.empty((min(step, len(hyps)), width))
        quadratic = np.empty_like(res) if quad else None
        near, far = np.empty((2, *res.shape), dtype=bool)
        result = np.full(len(hyps), -1, dtype=np.int64)
        for top in range(0, len(hyps), step):
            h = hyps[top:top + step]
            rows = np.arange(top, top + len(h))     # rows still scored
            tally = np.zeros(len(h), dtype=np.int64)
            for lo in range(0, n, _POINT_BLOCK):
                alive = tally + (n - lo) >= best
                if not alive.all():
                    h, tally, rows = h[alive], tally[alive], rows[alive]
                    if not len(h):
                        break
                hi = min(lo + _POINT_BLOCK, n)
                r, hit, miss = (buf[:len(h), :hi - lo] for buf in (res, near, far))
                np.matmul(h[:, :K], cols[:, lo:hi], out=r)
                if quad:
                    q = quadratic[:len(h), :hi - lo]
                    np.matmul(h[:, K:], pcols[:, lo:hi], out=q)
                    np.multiply(r, r, out=r)
                    np.subtract(r, q, out=r)
                    # |max(x, 0)| <= threshold exactly when x <= threshold
                    screened_le(r, threshold, band, lambda i, j: np.maximum(
                        excess(h[i], a[lo + j], b[lo + j], p[lo + j]), 0.0), hit, miss)
                else:
                    np.abs(r, out=r)
                    screened_le(r, threshold, band,
                                lambda i, j: residuals(h[i], a[lo + j], b[lo + j]), hit, miss)
                tally += hit.view(np.uint8).sum(axis=1, dtype=np.uint16)
            result[rows] = tally
            best = max(best, int(tally.max(initial=-1)))
        return result
    return counts


def search(count, candidates, draws: int, n: int, s: int,
           threshold: float) -> tuple[np.ndarray | None, int, int]:
    """The adaptive-stop loop of both RANSACs (module docstring).

    candidates(lo, hi) returns the rows of the valid candidates among
    draws lo..hi - 1, in draw order; count is a support counter over n
    columns, called once per batch with `threshold` and the best count so
    far. Returns (row, best, scored): the first row with the largest count,
    or None when no draw was valid, that count (-1 for none), and how many
    draws were scored before the stop or the cap.
    """
    best, top, k, lo, size = -1, None, 0, 0, _FIRST_BATCH
    while lo < draws:
        hi = min(lo + size, draws)
        hyps = candidates(lo, hi)
        if len(hyps):
            counts = count(hyps, threshold, best)
            j = int(np.argmax(counts))     # first maximum: the earliest candidate wins ties
            if counts[j] > best:
                best, top = int(counts[j]), hyps[j]
            k += len(hyps)
        lo, size = hi, 2 * size
        if (1.0 - (best / n) ** s) ** k <= 1.0 - _CONFIDENCE:
            break
    return top, best, lo


def best_plane_support(pts: np.ndarray, iterations: int, threshold: float,
                       rng: np.random.Generator, axis: np.ndarray | None = None,
                       min_cos: float = 0.0) -> tuple[np.ndarray, int] | None:
    """Largest inlier mask over random 3-point plane candidates.

    When `axis` is given, candidates whose unit normal satisfies
    |normal . axis| < min_cos are skipped (used to keep floor fits
    gravity-consistent). All `iterations` triples are drawn up front, so
    the draws depend only on the seed, the input size and the iteration
    count; search() then scores the valid candidates, in draw order, until
    its stop rule holds (s = 3) or all are scored. Returns (mask, count)
    for the best scored candidate, the first one with the most inliers, or
    None when no valid candidate exists. Each candidate (n, d) is counted
    by support over the points, so the result has the bits of scoring each
    scored candidate against every point with residuals: the distance
    ((p0 n0 + p1 n1) + p2 n2) - d.
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

    planes = np.column_stack([normals, offsets])       # h = (n, d)
    a = np.column_stack([pts, -np.ones(n)])             # a = (p, -1), b = 1
    b = np.broadcast_to(1.0, a.shape)
    top, best, _ = search(support(a, b), lambda lo, hi: planes[lo:hi], keep.size,
                          n, 3, threshold)
    mask = np.abs(residuals(top, a, b)) <= threshold
    return mask, best


def fit_plane(pts: np.ndarray, cfg: PlaneFitConfig, rng: np.random.Generator,
              axis: np.ndarray | None = None,
              min_cos: float = 0.0) -> tuple[Plane, np.ndarray]:
    """best_plane_support's winner, refit by least squares on its inliers
    (Chum, Matas & Kittler 2003), and the winner's mask. GeometryError for
    under 3 points, no winner or one below cfg.min_inliers, a degenerate refit."""
    if pts.shape[0] < 3:
        raise GeometryError(f"plane fit needs >= 3 points, got {pts.shape[0]}")
    found = best_plane_support(pts, cfg.iterations, cfg.distance_threshold, rng,
                               axis, min_cos)
    if found is None or found[1] < cfg.min_inliers:
        raise GeometryError(f"no plane with >= {cfg.min_inliers} inliers "
                            f"(best support: {0 if found is None else found[1]})")
    return fit_plane_lsq(pts[found[0]]), found[0]
