"""Two-view relative pose from bearing matches.

Estimates the essential matrix with a RANSAC over upright 5-match
samples, refit by the 8-point solve, operating directly on unit bearing
vectors, so full 360-degree fields of view are handled without any
planar-image assumptions. The recovered pose (R, t_hat) maps frame-a
coordinates into frame b:

    p_b = R @ p_a + s * t_hat        (s > 0 is the unknown metric scale)

which makes E = [t_hat]x @ R satisfy b_b^T E b_a = 0 for true matches.

Match m is an inlier of E in view b when the sine of b_b's angle to the
epipolar plane with normal E b_a, |b_b^T E b_a| / ||E b_a||, is at most
t = _sine_threshold(RansacConfig.threshold, spec_b): the threshold is in
pixels of panorama b, 2 pi / W_b radians each. The test is
_plane_search.excess <= 0, r r - q, with r = b_b^T E b_a =
residuals(E.ravel(), a, b) for a = b_b repeated and b = b_a tiled (the
terms (b_b,i E_ij) b_a,j in (i, j) order from (0, 0)), and q = t^2 ||E
b_a||^2 = sum_k g_k P_k over the 6 products P of b_a's coordinates
(_products), with g = t^2 times the entries of E^T E (_gram). RANSAC
counts view-b inliers with _plane_search.support, whose matrix products
only screen that formula (the _plane_search docstring derives the band);
the refit and the reported inliers take the symmetric test, view b and
view a (E^T b_b, spec_a's width) both, from the formula directly.

The samples assume gravity-levelled cameras (panorama module): with
gravity along -z in both frames, R is a rotation about z and 5 matches
fix E linearly. Half a degree of relative tilt costs no accuracy; from
about 1 degree on, some pairs register worse (README gives the
measurement). There is no fallback to 8-match samples.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._plane_search import excess, sample_distinct, search, support
from .geometry import check_rotation, check_unit, skew, unit
from .panorama import BearingMatchSet, PanoramaSpec

PARALLEL_RAY_TOL = 1e-8
_SAMPLE = 5    # matches per upright minimal sample
_REFITS = 3    # most 8-point refits of the winner's inlier set
_QR_ROWS = 128  # rows per LAPACK call in the refit


class EstimationError(RuntimeError):
    """RANSAC could not produce a model meeting the inlier requirements."""


class CheiralityError(RuntimeError):
    """Pose disambiguation failed: no candidate wins the depth vote."""


@dataclass(frozen=True)
class RansacConfig:
    threshold: float = 3.0       # pixels of angle between a bearing and its epipolar plane
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
    hypotheses: int     # samples drawn and scored before the stop


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
    when the 8th singular value is >= 1e-12; above _QR_ROWS rows, A is
    first replaced by the stacked R factors of QRs of its blocks of
    _QR_ROWS rows (zero-padded), which have A's singular values and
    vectors. OpenBLAS threads the SVD of a system of more than about
    1,000 rows, and a 1,117 x 9 one (a match-heavy refit) then took 16 ms
    instead of 0.16 ms on one thread (2-CPU x86-64, OpenBLAS 0.3.31); it
    runs blocks of 128 x 9 on the calling thread.
    """
    # Row for pair i is outer(b_b, b_a) flattened row-major, matching E.ravel().
    A = np.einsum("cni,cnj->cnij", sb, sa).reshape(sa.shape[0], sa.shape[1], 9)
    if A.shape[1] == 8:
        q, r = np.linalg.qr(A.transpose(0, 2, 1), mode="complete")
        valid = np.abs(np.diagonal(r, axis1=1, axis2=2)).min(axis=1) >= 1e-12
        E = q[:, :, -1].reshape(-1, 3, 3)
    else:
        while A.shape[1] > _QR_ROWS:
            blocks = -(-A.shape[1] // _QR_ROWS)
            A = np.pad(A, ((0, 0), (0, blocks * _QR_ROWS - A.shape[1]), (0, 0)))
            A = np.linalg.qr(A.reshape(-1, blocks, _QR_ROWS, 9), mode="r") \
                .reshape(A.shape[0], blocks * 9, 9)
        _, s, vt = np.linalg.svd(A, full_matrices=False)
        valid = s[:, 7] >= 1e-12
        E = vt[:, -1].reshape(-1, 3, 3)
    return _project(E), valid


def _project(E: np.ndarray) -> np.ndarray:
    """The nearest essential matrices (singular values (1, 1, 0)) to E (C, 3, 3)."""
    u3, _, v3 = np.linalg.svd(E)
    return u3 @ np.diag([1.0, 1.0, 0.0])[None, :, :] @ v3


def _upright_five_point(sa: np.ndarray, sb: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Essential matrices of upright 5-match samples.

    sa, sb hold C samples of 5 bearing pairs, shape (C, 5, 3), in a frame
    where gravity is -z, so R is a rotation about z and E has the form
    [[e0, e1, e2], [-e1, e0, e3], [e4, e5, 0]] (Fraundorfer, Tanskanen &
    Pollefeys 2010). Returns (E, valid) as _eight_point does: E (C, 3, 3)
    from the null vector of the 5 x 6 system M, projected onto the
    essential manifold, and valid False where min |diag R| < 1e-12, a
    sample that does not fix all 5 degrees of freedom. The null vector is
    the last column of Q in a Householder QR of M^T (Golub & Van Loan,
    Matrix Computations, sec. 5.2), written out over the stack with
    elementwise operations in a fixed order, so each sample's bits do not
    depend on the others or on how many are solved at once; a LAPACK call
    per sample cost ~10 us, as much as scoring it.
    """
    x0, x1, x2 = (np.ascontiguousarray(sa[:, :, k].T) for k in range(3))
    y0, y1, y2 = (np.ascontiguousarray(sb[:, :, k].T) for k in range(3))
    # Entry (k, c) of M^T, each a (C,) array: term k of match c.
    m = [list(t) for t in (y0 * x0 + y1 * x1, y0 * x1 - y1 * x0, y0 * x2, y1 * x2,
                           y2 * x0, y2 * x1)]
    vs, betas, diag = [], [], []
    for j in range(5):
        v = [row[j] for row in m[j:]]
        norm = np.sqrt(_dot(v, v))
        v[0] = v[0] + np.where(v[0] < 0, -norm, norm)   # v0 - alpha, alpha = -sign(v0) ||v||
        vv = _dot(v, v)
        beta = 2.0 / np.where(vv > 0, vv, np.inf)        # 0 for a zero column: H = I
        for c in range(j + 1, 5):
            w = beta * _dot(v, [row[c] for row in m[j:]])
            for i, vi in enumerate(v):
                m[j + i][c] = m[j + i][c] - w * vi
        vs.append(v), betas.append(beta), diag.append(norm)
    valid = np.minimum.reduce(diag) >= 1e-12
    # Q e_5 = H_0 (H_1 (... H_4 e_5)).
    y = [np.zeros_like(x0[0]) for _ in range(5)] + [np.ones_like(x0[0])]
    for j in reversed(range(5)):
        w = betas[j] * _dot(vs[j], y[j:])
        y[j:] = [yi - w * vi for yi, vi in zip(y[j:], vs[j])]
    e0, e1, e2, e3, e4, e5 = y
    E = np.stack([e0, e1, e2, -e1, e0, e3, e4, e5, np.zeros_like(e0)],
                 axis=-1).reshape(-1, 3, 3)
    return _project(E), valid


def _dot(u: list, v: list) -> np.ndarray:
    """sum_i u_i v_i over two lists of equal-shape arrays, in list order."""
    s = u[0] * v[0]
    for ui, vi in zip(u[1:], v[1:]):
        s = s + ui * vi
    return s


def _leveling(gravity_axis) -> np.ndarray | None:
    """The rotation Q taking the unit gravity direction g to (0, 0, -1)
    (rotation about g x -z), or None when g is already (0, 0, -1)."""
    g = unit(gravity_axis)
    down = np.array([0.0, 0.0, -1.0])
    if np.array_equal(g, down):
        return None
    c = float(g @ down)
    if c < -1.0 + 1e-12:    # g = +z: half a turn about x
        return np.diag([1.0, -1.0, -1.0])
    V = skew(np.cross(g, down))
    return np.eye(3) + V + V @ V / (1.0 + c)


def _products(x: np.ndarray) -> np.ndarray:
    """(x0 x0, x1 x1, x2 x2, x0 x1, x0 x2, x1 x2) per row of x (n, 3)."""
    return np.column_stack([x[:, 0] * x[:, 0], x[:, 1] * x[:, 1], x[:, 2] * x[:, 2],
                            x[:, 0] * x[:, 1], x[:, 0] * x[:, 2], x[:, 1] * x[:, 2]])


def _gram(E: np.ndarray) -> np.ndarray:
    """Coefficients g (C, 6) of ||E x||^2 = sum_k g_k _products(x)_k for E
    (C, 3, 3): the entries of E^T E, added in row order, off-diagonal ones
    doubled."""
    def G(j, k):
        return (E[:, 0, j] * E[:, 0, k] + E[:, 1, j] * E[:, 1, k]) + E[:, 2, j] * E[:, 2, k]
    return np.column_stack([G(0, 0), G(1, 1), G(2, 2),
                            2.0 * G(0, 1), 2.0 * G(0, 2), 2.0 * G(1, 2)])


def _sine_threshold(pixels: float, spec: PanoramaSpec) -> float:
    """The sine of `pixels` equirectangular pixels of angle (2 pi / width
    radians each) in a panorama of this spec, at most 1 (a quarter turn)."""
    return math.sin(min(2.0 * math.pi * pixels / spec.width, math.pi / 2))


def estimate_essential(matches: BearingMatchSet, cfg: RansacConfig = RansacConfig(),
                       seed: int = 0,
                       gravity_axis=(0.0, 0.0, -1.0)) -> EssentialEstimate:
    """RANSAC essential-matrix fit over upright 5-match bearing samples.

    gravity_axis is the direction toward the floor in both camera frames
    (the panorama module's levelled-camera contract). All cfg.iterations
    samples of 5 distinct matches are drawn up front with
    _plane_search.sample_distinct; _plane_search.search solves them batch
    by batch in the frame where gravity is -z (_upright_five_point),
    rotates each E back and counts the support of the valid ones in view b,
    |b_b^T E b_a| <= t ||E b_a|| with t = _sine_threshold(cfg.threshold,
    spec_b), until its stop rule holds (s = 5) or the cap is reached. The
    first sample with the most inliers wins. Its symmetric inliers (the
    same test in view a as well, with spec_a's t) are refit with the
    8-point solve, and the refit's symmetric inlier set is refit again
    until it repeats, at most _REFITS times (Chum, Matas & Kittler 2003),
    so every reported inlier respects cfg.threshold in both views. There
    is no fallback to 8-match samples. Identical (matches, cfg, seed,
    gravity_axis) inputs always reproduce the same result. A
    low_confidence flag marks best models supported by under 30% of the
    matches.
    """
    ba, bb = matches.bearings_a, matches.bearings_b
    n = len(matches)
    if n < 8:
        raise EstimationError(f"need at least 8 matches, got {n}")

    t2_b = _sine_threshold(cfg.threshold, matches.spec_b) ** 2
    t2_a = _sine_threshold(cfg.threshold, matches.spec_a) ** 2
    # b_b^T E b_a = residuals(E.ravel(), a, b); column-major, so that the
    # formula's terms are contiguous columns.
    a, b = (np.asfortranarray(x) for x in (np.repeat(bb, 3, axis=1), np.tile(ba, 3)))
    p_a, p_b = _products(ba), _products(bb)

    def symmetric(E: np.ndarray) -> np.ndarray:
        """The view-b and the view-a test."""
        h = E.reshape(1, 9)
        return (excess(np.hstack([h, t2_b * _gram(E[None])])[0], a, b, p_a) <= 0) \
            & (excess(np.hstack([h, t2_a * _gram(E.T[None])])[0], a, b, p_b) <= 0)

    level = _leveling(gravity_axis)
    la, lb = (ba, bb) if level is None else (ba @ level.T, bb @ level.T)
    idx = sample_distinct(np.random.default_rng(seed), n, cfg.iterations, _SAMPLE)

    def candidates(lo: int, hi: int) -> np.ndarray:
        E, valid = _upright_five_point(la[idx[lo:hi]], lb[idx[lo:hi]])
        E = E[valid] if level is None else level.T @ E[valid] @ level
        return np.hstack([E.reshape(-1, 9), t2_b * _gram(E)])

    top, best, drawn = search(support(a, b, p_a), candidates, cfg.iterations, n,
                              _SAMPLE, 0.0)
    if top is None or best < cfg.min_inliers:
        raise EstimationError(
            f"no model with >= {cfg.min_inliers} inliers within ransac.threshold = "
            f"{cfg.threshold} px after {drawn} hypotheses")

    mask = symmetric(top[:9].reshape(3, 3))
    for _ in range(_REFITS):
        if int(mask.sum()) < cfg.min_inliers:
            break
        try:
            E, valid = _eight_point(ba[mask][None], bb[mask][None])
        except np.linalg.LinAlgError as e:
            raise EstimationError("inlier refit did not converge") from e
        if not valid[0]:
            raise EstimationError("inlier refit is degenerate")
        E = E[0]
        refit = symmetric(E)
        repeat = np.array_equal(refit, mask)
        mask = refit
        if repeat:
            break
    if int(mask.sum()) < cfg.min_inliers:
        raise EstimationError("refit model lost its inlier support")
    inliers = np.flatnonzero(mask)
    return EssentialEstimate(matrix=E, inlier_indices=inliers,
                             low_confidence=len(inliers) / n < 0.3, hypotheses=drawn)


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
