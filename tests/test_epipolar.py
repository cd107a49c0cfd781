import math
from unittest import mock

import numpy as np
import pytest

from panostitch import _plane_search
from panostitch import epipolar as epipolar_mod
from panostitch._plane_search import _POINT_BLOCK, residuals, sample_distinct, support
from panostitch.epipolar import (CheiralityError, EssentialEstimate, EstimationError,
                                 RansacConfig, RelativePose, decompose_essential,
                                 estimate_essential, triangulate_set)
from panostitch.geometry import rot_z, rotation_angle, skew
from panostitch.panorama import BearingMatchSet, PanoramaSpec, parse_match_dict
from panostitch.testkit import SynthSceneConfig, synth_room_pair

from conftest import random_rotation


def principal_angle(E1, E2):
    """Angle between essential matrices viewed as 9-vectors, sign-invariant."""
    a = E1.ravel() / np.linalg.norm(E1)
    b = E2.ravel() / np.linalg.norm(E2)
    return float(np.arccos(np.clip(abs(a @ b), -1.0, 1.0)))


def direction_angle(u, v):
    return float(np.arccos(np.clip(abs(np.dot(u, v)), -1.0, 1.0)))


def make_match_set(ba, bb):
    spec = PanoramaSpec(2048, 1024)
    return BearingMatchSet(ba, bb, spec, spec)


def pure_translation_matches(n=40, seed=0):
    """Camera b one unit along +x of camera a, same orientation."""
    rng = np.random.default_rng(seed)
    pts = rng.uniform(-4, 4, size=(n, 3))
    pts[:, 0] += 6.0  # keep points in front of both cameras along the baseline
    c_b = np.array([1.0, 0.0, 0.0])
    ba = pts / np.linalg.norm(pts, axis=1, keepdims=True)
    db = pts - c_b
    bb = db / np.linalg.norm(db, axis=1, keepdims=True)
    # p_b = p_a + t with camera center c_b = -t
    gt = RelativePose(np.eye(3), -c_b)
    return make_match_set(ba, bb), gt


# The essential RANSAC's stop rule and sample size, written out here apart
# from the module.
STOP_CONFIDENCE = 0.999
FIRST_BATCH = 64
SAMPLE = 5


def epipolar_products(E, ba, bb):
    """b_b^T E b_a for each matrix of E (C, 3, 3) against every match: the
    terms (b_b,i E_ij) b_a,j added in (i, j) row order."""
    E = E[:, None]
    r = (bb[:, 0] * E[..., 0, 0]) * ba[:, 0]
    for i, j in [(i, j) for i in range(3) for j in range(3)][1:]:
        r = r + (bb[:, i] * E[..., i, j]) * ba[:, j]
    return r


def squared_norms(E, x, t2):
    """t2 ||E x||^2 = sum_k g_k P_k over the products P of x's coordinates,
    with g = t2 times the entries of E^T E, each added in row order."""
    E = E[:, None]

    def G(j, k):
        return (E[..., 0, j] * E[..., 0, k] + E[..., 1, j] * E[..., 1, k]) \
            + E[..., 2, j] * E[..., 2, k]
    g = [t2 * x for x in (G(0, 0), G(1, 1), G(2, 2),
                          2.0 * G(0, 1), 2.0 * G(0, 2), 2.0 * G(1, 2))]
    P = [x[:, 0] * x[:, 0], x[:, 1] * x[:, 1], x[:, 2] * x[:, 2],
         x[:, 0] * x[:, 1], x[:, 0] * x[:, 2], x[:, 1] * x[:, 2]]
    q = g[0] * P[0]
    for gk, pk in zip(g[1:], P[1:]):
        q = q + gk * pk
    return q


def sine_excess(E, ba, bb, t2):
    """The fixed-order inlier formula in view b, r r - t2 ||E b_a||^2."""
    r = epipolar_products(E, ba, bb)
    return r * r - squared_norms(E, ba, t2)


def squared_sine_bound(pixels, spec):
    return math.sin(min(2.0 * math.pi * pixels / spec.width, math.pi / 2)) ** 2


def symmetric_inliers(E, matches, cfg):
    """Matches within cfg.threshold of E's epipolar planes in both views."""
    ba, bb = matches.bearings_a, matches.bearings_b
    r = epipolar_products(E[None], ba, bb)[0]
    in_b = r * r - squared_norms(E[None], ba, squared_sine_bound(cfg.threshold, matches.spec_b))[0]
    in_a = r * r - squared_norms(E.T[None], bb, squared_sine_bound(cfg.threshold, matches.spec_a))[0]
    return (in_b <= 0) & (in_a <= 0)


def reference_essential(matches, cfg=RansacConfig(), seed=0, gravity_axis=(0.0, 0.0, -1.0)):
    """Every drawn 5-match sample solved at once and scored against every
    match by sine_excess; of the prefix the batches of 64, 128, ... keep
    until k >= log(1 - STOP_CONFIDENCE) / log(1 - w^5) (k the valid samples
    scored, w their best count over n), the first maximum wins; then up to
    3 refits until the symmetric inlier set repeats. estimate_essential
    must match it bit for bit, raises included."""
    ba, bb = matches.bearings_a, matches.bearings_b
    n = len(matches)
    if n < 8:
        raise EstimationError(f"need at least 8 matches, got {n}")
    idx = sample_distinct(np.random.default_rng(seed), n, cfg.iterations, SAMPLE)
    level = epipolar_mod._leveling(gravity_axis)
    la, lb = (ba, bb) if level is None else (ba @ level.T, bb @ level.T)
    E, valid = epipolar_mod._upright_five_point(la[idx], lb[idx])
    if level is not None:
        E = level.T @ E @ level
    t2 = squared_sine_bound(cfg.threshold, matches.spec_b)
    counts = np.where(valid, (sine_excess(E, ba, bb, t2) <= 0).sum(axis=1), -1)
    drawn, size, k = 0, FIRST_BATCH, 0
    while drawn < cfg.iterations:
        k += int(valid[drawn:drawn + size].sum())
        drawn, size = min(drawn + size, cfg.iterations), 2 * size
        w = counts[:drawn].max() / n
        if w > 0:   # at w = 0 no count of samples is enough
            with np.errstate(divide="ignore"):
                if k >= np.log(1 - STOP_CONFIDENCE) / np.log(1 - w ** SAMPLE):
                    break
    best = int(counts[:drawn].max())
    if best < cfg.min_inliers:
        raise EstimationError(
            f"no model with >= {cfg.min_inliers} inliers within ransac.threshold = "
            f"{cfg.threshold} px after {drawn} hypotheses")
    model = E[int(np.argmax(counts[:drawn]))]
    mask = symmetric_inliers(model, matches, cfg)
    for _ in range(3):
        if mask.sum() < cfg.min_inliers:
            break
        try:
            refit, ok = epipolar_mod._eight_point(ba[mask][None], bb[mask][None])
        except np.linalg.LinAlgError as e:
            raise EstimationError("inlier refit did not converge") from e
        if not ok[0]:
            raise EstimationError("inlier refit is degenerate")
        model = refit[0]
        again = symmetric_inliers(model, matches, cfg)
        repeat = np.array_equal(again, mask)
        mask = again
        if repeat:
            break
    if mask.sum() < cfg.min_inliers:
        raise EstimationError("refit model lost its inlier support")
    inliers = np.flatnonzero(mask)
    return EssentialEstimate(matrix=model, inlier_indices=inliers,
                             low_confidence=len(inliers) / n < 0.3, hypotheses=drawn)


def sine_config(sine, iterations=2000, width=2048):
    """A RansacConfig whose pixel threshold is the given sine bound in a
    panorama `width` pixels wide."""
    return RansacConfig(math.asin(sine) * width / (2 * math.pi), iterations)


def rigid_motion_matches(n, seed, unit=True, upright=False):
    """n bearing pairs of one random rigid motion, b bearings perturbed by
    ~1e-3 rad and a third of them replaced by random directions. With
    unit=False every bearing is scaled by a factor in [0.5, 2]; with
    upright=True the rotation is about z."""
    rng = np.random.default_rng(seed)
    R = rot_z(rng.uniform(-np.pi, np.pi)) if upright else random_rotation(rng)
    t = rng.normal(size=3)
    pts = rng.uniform(-5.0, 5.0, size=(n, 3))
    pb = pts @ R.T + t / np.linalg.norm(t)
    ba = pts / np.linalg.norm(pts, axis=1, keepdims=True)
    bb = pb / np.linalg.norm(pb, axis=1, keepdims=True)
    bb += rng.normal(0.0, 1e-3, size=bb.shape)
    outliers = rng.random(n) < 1 / 3
    bb[outliers] = rng.normal(size=(int(outliers.sum()), 3))
    bb /= np.linalg.norm(bb, axis=1, keepdims=True)
    if not unit:
        ba = ba * rng.uniform(0.5, 2.0, size=(n, 1))
        bb = bb * rng.uniform(0.5, 2.0, size=(n, 1))
    return make_match_set(ba, bb)


def product_residuals(E, bb, ba):
    """|b_b^T E b_a| from one matrix product, the screen the essential
    scorer rechecks near its threshold."""
    M = (bb[:, :, None] * ba[:, None, :]).reshape(len(bb), 9)
    return np.abs(E.reshape(-1, 9) @ M.T)


def assert_same_as_reference(matches, cfg, seed):
    try:
        ref = reference_essential(matches, cfg, seed)
    except EstimationError as e:
        with pytest.raises(type(e)) as got:
            estimate_essential(matches, cfg, seed)
        assert str(got.value) == str(e)
        return
    est = estimate_essential(matches, cfg, seed)
    assert est.matrix.tobytes() == ref.matrix.tobytes()
    assert est.inlier_indices.dtype == ref.inlier_indices.dtype
    np.testing.assert_array_equal(est.inlier_indices, ref.inlier_indices)
    assert est.low_confidence == ref.low_confidence
    assert est.hypotheses == ref.hypotheses


def svd_eight_point(sa, sb, A=None):
    """_eight_point with the null vector of a full SVD for every sample
    size, as it was before minimal samples were solved by QR; of the
    system A when given, else of the one sa and sb make."""
    if A is None:
        A = np.einsum("cni,cnj->cnij", sb, sa).reshape(sa.shape[0], sa.shape[1], 9)
    _, s, vt = np.linalg.svd(A)
    E = vt[:, -1].reshape(-1, 3, 3)
    u3, _, v3 = np.linalg.svd(E)
    return u3 @ np.diag([1.0, 1.0, 0.0])[None, :, :] @ v3, s[:, 7] >= 1e-12


def upright_samples(rng, count, translation_z=True):
    """Noiseless 5-match samples of random yaw-only motions: bearings
    (count, 5, 3) in both frames and the true [t]x R."""
    R = np.stack([rot_z(a) for a in rng.uniform(-np.pi, np.pi, count)])
    t = rng.normal(size=(count, 3))
    if not translation_z:
        t[:, 2] = 0.0
    t /= np.linalg.norm(t, axis=1, keepdims=True)
    pts = rng.uniform(-5.0, 5.0, size=(count, 5, 3))
    pb = np.einsum("cij,cnj->cni", R, pts) + t[:, None]
    E = np.stack([skew(tc) @ Rc for tc, Rc in zip(t, R)])
    return (pts / np.linalg.norm(pts, axis=2, keepdims=True),
            pb / np.linalg.norm(pb, axis=2, keepdims=True), E)


class TestUprightFivePoint:
    @pytest.mark.parametrize("translation_z", [True, False])
    def test_noiseless_samples_give_the_true_essential(self, translation_z):
        sa, sb, E_gt = upright_samples(np.random.default_rng(1), 500, translation_z)
        E, valid = epipolar_mod._upright_five_point(sa, sb)
        assert valid.all()
        # Unit-norm rows, sign-free: arccos cannot resolve angles this small.
        e, g = (x.reshape(-1, 9) / np.linalg.norm(x.reshape(-1, 9), axis=1, keepdims=True)
                for x in (E, E_gt))
        assert np.minimum(np.abs(e - g).max(axis=1), np.abs(e + g).max(axis=1)).max() < 1e-9
        s = np.linalg.svd(E, compute_uv=False)
        np.testing.assert_allclose(s, np.tile([1.0, 1.0, 0.0], (500, 1)), atol=1e-12)

    def test_sample_with_a_repeated_match_is_invalid(self):
        rng = np.random.default_rng(2)
        sa, sb, _ = upright_samples(rng, 200)
        k = rng.integers(0, 4, size=200)
        sa[:, 4], sb[:, 4] = sa[np.arange(200), k], sb[np.arange(200), k]
        assert not epipolar_mod._upright_five_point(sa, sb)[1].any()

    def test_each_sample_solved_alone_has_the_same_bits(self):
        sa, sb, _ = upright_samples(np.random.default_rng(3), 100)
        sb = sb + np.random.default_rng(4).normal(0.0, 1e-3, size=sb.shape)
        E, valid = epipolar_mod._upright_five_point(sa, sb)
        for c in (0, 17, 99):
            one, ok = epipolar_mod._upright_five_point(sa[c:c + 1], sb[c:c + 1])
            assert one[0].tobytes() == E[c].tobytes() and ok[0] == valid[c]


class TestBreakingPoint:
    # 20 synth scenes per row (300 matches, 1 px noise), default RANSAC.
    @staticmethod
    def row(outliers):
        recall, rot_err, flagged = [], [], []
        for seed in range(20):
            pair = synth_room_pair(SynthSceneConfig(seed=seed, pixel_noise_sigma=1.0,
                                                    outlier_fraction=outliers))
            matches = parse_match_dict(pair.match_data)
            try:
                est = estimate_essential(matches, seed=seed)
            except EstimationError:
                recall.append(0.0), rot_err.append(np.inf), flagged.append(True)
                continue
            true_in = np.flatnonzero(~pair.outlier_mask)
            recall.append(np.intersect1d(est.inlier_indices, true_in).size / true_in.size)
            pose = decompose_essential(est.matrix, matches, est.inlier_indices)
            rot_err.append(np.degrees(rotation_angle(pose.rotation.T @ pair.gt_pose().rotation)))
            flagged.append(est.low_confidence)
        return np.array(recall), np.array(rot_err), np.array(flagged)

    @pytest.mark.parametrize("outliers", [0.2, 0.5])
    def test_recall_and_confidence_up_to_half_outliers(self, outliers):
        recall, _, flagged = self.row(outliers)
        assert np.median(recall) >= 0.9
        assert not flagged.any()

    def test_most_poses_within_half_a_degree_at_70_percent_outliers(self):
        _, rot_err, _ = self.row(0.7)
        assert (rot_err < 0.5).sum() >= 18


class TestEightPoint:
    def test_minimal_samples_match_the_svd_null_vector(self):
        matches = rigid_motion_matches(2000, seed=17)
        idx = sample_distinct(np.random.default_rng(17), 2000, 1000, 8)
        sa, sb = matches.bearings_a[idx], matches.bearings_b[idx]
        E, valid = epipolar_mod._eight_point(sa, sb)
        E_svd, valid_svd = svd_eight_point(sa, sb)
        assert valid.all() and valid_svd.all()
        # Both are projected to Frobenius norm sqrt(2); the sign is free.
        cos = np.abs(np.einsum("cij,cij->c", E, E_svd)) / 2.0
        assert cos.min() >= 1.0 - 1e-12

    def test_samples_with_a_repeated_pair_are_invalid(self):
        matches = rigid_motion_matches(2000, seed=19)
        rng = np.random.default_rng(19)
        idx = sample_distinct(rng, 2000, 500, 8)
        idx[:, 7] = idx[np.arange(500), rng.integers(0, 7, size=500)]
        sa, sb = matches.bearings_a[idx], matches.bearings_b[idx]
        assert not svd_eight_point(sa, sb)[1].any()
        assert not epipolar_mod._eight_point(sa, sb)[1].any()

    @pytest.mark.parametrize("m", [9, 300, 2000, 128, 129])
    def test_refit_has_the_full_svd_bits(self, m):
        matches = rigid_motion_matches(m, seed=m, unit=False)
        sa, sb = matches.bearings_a[None], matches.bearings_b[None]
        A = np.einsum("cni,cnj->cnij", sb, sa).reshape(1, m, 9)
        # Above _QR_ROWS rows the system solved is the stack of the R
        # factors of A's blocks of _QR_ROWS rows, the last padded with zero
        # rows, and so on until at most _QR_ROWS rows are left.
        rows = epipolar_mod._QR_ROWS
        while A.shape[1] > rows:
            padded = np.vstack([A[0], np.zeros((-A.shape[1] % rows, 9))])
            A = np.vstack([np.linalg.qr(padded[i:i + rows], mode="r")
                           for i in range(0, len(padded), rows)])[None]
        assert A.shape[1] == {9: 9, 128: 128, 129: 18, 300: 27, 2000: 18}[m]
        _, s_thin, vt_thin = np.linalg.svd(A, full_matrices=False)
        _, s_full, vt_full = np.linalg.svd(A)
        assert s_thin.tobytes() == s_full.tobytes()
        assert vt_thin.tobytes() == vt_full.tobytes()
        E, valid = epipolar_mod._eight_point(sa, sb)
        E_full, valid_full = svd_eight_point(sa, sb, A)
        assert E.tobytes() == E_full.tobytes() and valid[0] == valid_full[0]


def essential_factors(bb, ba):
    """The factors a, b of b_b^T E b_a = residuals(E.ravel(), a, b)."""
    return np.repeat(bb, 3, axis=1), np.tile(ba, 3)


def essential_counts(E, bb, ba, threshold):
    """Per-hypothesis inlier counts from the essential scorer, from best 0;
    exact for every row while the matches fit one point block, or for a
    lone row."""
    return support(*essential_factors(bb, ba))(E.reshape(-1, 9), threshold, 0)


class TestSupportKernel:
    @pytest.mark.parametrize("n, hypotheses", [(8, 1), (9, 511), (300, 512),
                                                (300, 513), (2000, 512), (2001, 513)])
    @pytest.mark.parametrize("unit", [True, False])
    def test_matches_einsum_at_the_boundary(self, n, hypotheses, unit):
        matches = rigid_motion_matches(n, seed=n + hypotheses, unit=unit)
        rng = np.random.default_rng(n)
        idx = sample_distinct(rng, n, hypotheses, 8)
        ba, bb = matches.bearings_a, matches.bearings_b
        E, _ = epipolar_mod._eight_point(ba[idx], bb[idx])
        res = np.abs(np.einsum("ni,cij,nj->cn", bb, E, ba))
        c, k = np.unravel_index(np.argsort(res, axis=None)[res.size // 3], res.shape)
        on, below = (essential_counts(E, bb, ba, thr)
                     for thr in (res[c, k], np.nextafter(res[c, k], 0.0)))
        np.testing.assert_array_equal(on, (res <= res[c, k]).sum(axis=1))
        np.testing.assert_array_equal(below, (res < res[c, k]).sum(axis=1))
        assert on[c] > below[c]

    def test_one_row_per_block_above_the_budget(self):
        # One hypothesis per call, over 17 point blocks of the kernel.
        n = 16 * _POINT_BLOCK + 7
        matches = rigid_motion_matches(n, seed=3, unit=False)
        ba, bb = matches.bearings_a, matches.bearings_b
        E = np.random.default_rng(3).normal(size=(3, 3, 3))
        res = np.abs(np.einsum("ni,cij,nj->cn", bb, E, ba))
        thr = res[1, 100]
        counts = [essential_counts(E[c:c + 1], bb, ba, thr)[0] for c in range(3)]
        np.testing.assert_array_equal(counts, (res <= thr).sum(axis=1))

    def test_refit_residuals_match_the_single_matrix_einsum(self):
        matches = rigid_motion_matches(2001, seed=5, unit=False)
        ba, bb = matches.bearings_a, matches.bearings_b
        E = np.random.default_rng(5).normal(size=(3, 3))
        res = np.abs(np.einsum("ni,ij,nj->n", bb, E, ba))
        thr = res[17]
        mask = np.abs(residuals(E.ravel(), *essential_factors(bb, ba))) <= thr
        np.testing.assert_array_equal(mask, res <= thr)
        assert essential_counts(E[None], bb, ba, thr)[0] == (res <= thr).sum()

    # The cases below put the threshold where the matrix product and the
    # einsum round to different inlier counts, so only the rounding band and
    # its exact recheck give the einsum counts. Each first asserts that a
    # plain product's counts would be wrong on its data.

    @pytest.mark.parametrize("scale, unit", [(1.0, True), (1.0, False),
                                             (1e6, False), (1e-6, False)])
    def test_threshold_on_a_residual_the_product_rounds_differently(self, scale, unit):
        matches = rigid_motion_matches(300, seed=11, unit=unit)
        ba, bb = matches.bearings_a, matches.bearings_b
        idx = sample_distinct(np.random.default_rng(11), 300, 512, 8)
        E = epipolar_mod._eight_point(ba[idx], bb[idx])[0] * scale
        res = np.abs(np.einsum("ni,cij,nj->cn", bb, E, ba))
        gemm = product_residuals(E, bb, ba)
        differ = np.flatnonzero(gemm != res)
        assert differ.size
        # The differing entry nearest the default threshold, scaled.
        c, k = np.unravel_index(differ[np.argmin(np.abs(res.flat[differ] - 1e-3 * scale))],
                                res.shape)
        thresholds = [np.nextafter(res[c, k], 0.0), res[c, k], np.nextafter(res[c, k], 1.0)]
        assert any(((gemm <= thr).sum(axis=1) != (res <= thr).sum(axis=1)).any()
                   for thr in thresholds)
        for thr in thresholds:
            np.testing.assert_array_equal(essential_counts(E, bb, ba, thr),
                                          (res <= thr).sum(axis=1))

    @pytest.mark.parametrize("threshold", [1e-16, 5e-324])
    def test_thresholds_at_the_rounding_floor(self, threshold):
        # E = [t]x with bb = ba: every exact residual is 0, so the einsum
        # keeps a mix of exact zeros and rounding noise near 1e-16.
        rng = np.random.default_rng(7)
        b = rng.normal(size=(2000, 3)) * rng.uniform(0.5, 2.0, size=(2000, 1))
        E = np.stack([skew(t) for t in rng.normal(size=(64, 3))])
        res = np.abs(np.einsum("ni,cij,nj->cn", b, E, b))
        expected = (res <= threshold).sum(axis=1)
        assert ((product_residuals(E, b, b) <= threshold).sum(axis=1) != expected).any()
        np.testing.assert_array_equal(essential_counts(E, b, b, threshold), expected)


class TestSineSupport:
    """support's quadratic test, as the essential RANSAC calls it, against
    sine_excess."""

    @staticmethod
    def scene(n, seed):
        matches = rigid_motion_matches(n, seed=seed, upright=True)
        ba, bb = matches.bearings_a, matches.bearings_b
        idx = sample_distinct(np.random.default_rng(seed), n, 64, SAMPLE)
        E = epipolar_mod._upright_five_point(ba[idx], bb[idx])[0]
        count = support(*essential_factors(bb, ba), epipolar_mod._products(ba))
        return ba, bb, E, count

    @staticmethod
    def rows(E, t2):
        """The counter's rows (E, t2 times E^T E's six coefficients)."""
        return np.hstack([E.reshape(-1, 9), t2 * epipolar_mod._gram(E)])

    # 120 thresholds, each put on an entry, so that the entry's excess is
    # zero up to rounding: one row per block, 7 and the default 32.
    @pytest.mark.parametrize("rows", [1, 7, None])
    def test_thresholds_on_entries_match_the_formula(self, monkeypatch, rows):
        n = 2001
        ba, bb, E, count = self.scene(n, seed=21)
        if rows:
            monkeypatch.setattr(_plane_search, "_SCORE_BLOCK", rows * n)
        r = epipolar_products(E, ba, bb)
        q = squared_norms(E, ba, 1.0)
        cols = np.multiply(*essential_factors(bb, ba)).T
        rs = E.reshape(-1, 9) @ cols
        rng = np.random.default_rng(21)
        screen_wrong = 0
        for c, k in zip(rng.integers(0, 64, 120), rng.integers(0, n, 120)):
            t2 = r[c, k] ** 2 / q[c, k]
            hyps = self.rows(E, t2)
            formula = sine_excess(E, ba, bb, t2) <= 0
            screen = rs * rs - hyps[:, 9:] @ epipolar_mod._products(ba).T <= 0
            screen_wrong += int((screen != formula).any())
            np.testing.assert_array_equal(count(hyps, 0.0, 0), formula.sum(axis=1))
        assert screen_wrong   # the screen alone would miscount some of them

    def test_rows_stop_across_point_blocks(self):
        # Three point blocks: a row that cannot reach the best count stops,
        # and every row that is scored to the end has the formula's count.
        n = 2 * _POINT_BLOCK + 77
        ba, bb, E, count = self.scene(n, seed=22)
        t2 = squared_sine_bound(3.0, make_match_set(ba, bb).spec_b)
        want = (sine_excess(E, ba, bb, t2) <= 0).sum(axis=1)
        got = count(self.rows(E, t2), 0.0, int(want.max()))
        scored = got >= 0
        assert (~scored).any() and scored.any()
        np.testing.assert_array_equal(got[scored], want[scored])
        assert want[~scored].max() < want.max()


class TestEstimateEssentialOracle:
    # 2 * _POINT_BLOCK + 77 matches take three point blocks, so a hypothesis
    # that falls behind the best count stops before the last 77. The
    # threshold is the sine bound; 1e-3 is about the matches' noise. Caps
    # of 63, 64, 65 and 192 end one below, on and one above the first
    # batch's edge, and on the second's.
    @pytest.mark.parametrize("n", [8, 9, 300, 2000, 2001, 2 * _POINT_BLOCK + 77])
    @pytest.mark.parametrize("iterations", [1, 511, 512, 513, 63, 64, 65, 192])
    @pytest.mark.parametrize("threshold", [1e-4, 1e-3, 1e-2])
    def test_same_result_as_reference(self, n, iterations, threshold):
        matches = rigid_motion_matches(n, seed=n, upright=True)
        scored = []

        def spy(*factors):
            count = support(*factors)

            def counts(*args):
                scored.append(count(*args))
                return scored[-1]
            return counts

        with mock.patch.object(epipolar_mod, "support", spy):
            assert_same_as_reference(matches, sine_config(threshold, iterations),
                                     seed=iterations)
        stopped = sum(int((c < 0).sum()) for c in scored)
        assert stopped > 0 if n > 2 * _POINT_BLOCK and iterations > 1 else stopped == 0

    def test_same_result_with_one_hypothesis_per_block(self):
        matches = rigid_motion_matches(2000, seed=4, upright=True)
        with mock.patch.object(_plane_search, "_SCORE_BLOCK", 2000):
            assert_same_as_reference(matches, sine_config(1e-3, 600), seed=4)

    @pytest.mark.parametrize("n", [9, 300, 2001])
    @pytest.mark.parametrize("threshold", [1e-4, 1e-3, 1e-2])
    def test_same_result_with_non_unit_bearings(self, n, threshold):
        matches = rigid_motion_matches(n, seed=n + 1, unit=False, upright=True)
        assert_same_as_reference(matches, sine_config(threshold, 513), seed=n)

    def test_same_error_without_consensus(self, rng):
        ba = rng.normal(size=(40, 3))
        bb = rng.normal(size=(40, 3))
        cfg = RansacConfig(threshold=1e-9, iterations=50, min_inliers=20)
        with pytest.raises(EstimationError):
            reference_essential(make_match_set(ba, bb), cfg, seed=0)
        assert_same_as_reference(make_match_set(ba, bb), cfg, seed=0)

    def test_same_result_on_synth_scenes(self):
        for seed in range(6):
            pair = synth_room_pair(SynthSceneConfig(seed=seed, pixel_noise_sigma=1.0,
                                                    outlier_fraction=0.2 + 0.1 * seed))
            assert_same_as_reference(parse_match_dict(pair.match_data), RansacConfig(),
                                     seed=seed)

    # A match-heavy scene (2,000 matches at 40 % outliers) stops after its
    # second batch, at 192 samples; one at 70 % runs to its cap.
    @pytest.mark.parametrize("rows", [1, None])
    @pytest.mark.parametrize("outliers, floor, iterations, drawn", [
        (0.4, 1000, 2000, 192), (0.7, 150, 700, 700)])
    def test_stop_rule_matches_the_oracle(self, monkeypatch, rows, outliers, floor,
                                          iterations, drawn):
        if rows == 1:
            monkeypatch.setattr(_plane_search, "_SCORE_BLOCK", 1)
        pair = synth_room_pair(SynthSceneConfig(
            seed=3, pixel_noise_sigma=1.0, outlier_fraction=outliers,
            floor_point_count=floor, wall_point_count=floor))
        matches = parse_match_dict(pair.match_data)
        cfg = RansacConfig(iterations=iterations)
        assert_same_as_reference(matches, cfg, seed=3)
        assert estimate_essential(matches, cfg, seed=3).hypotheses == drawn

    def test_same_result_in_tilted_frames(self):
        pair = synth_room_pair(SynthSceneConfig(seed=8, pixel_noise_sigma=1.0,
                                                outlier_fraction=0.3))
        matches = parse_match_dict(pair.match_data)
        Q = random_rotation(np.random.default_rng(8))
        tilted = BearingMatchSet(matches.bearings_a @ Q.T, matches.bearings_b @ Q.T,
                                 matches.spec_a, matches.spec_b)
        gravity = tuple(Q @ [0.0, 0.0, -1.0])
        ref = reference_essential(tilted, RansacConfig(), 8, gravity)
        est = estimate_essential(tilted, RansacConfig(), 8, gravity)
        assert est.matrix.tobytes() == ref.matrix.tobytes()
        np.testing.assert_array_equal(est.inlier_indices, ref.inlier_indices)


class TestEstimateEssential:
    def test_noiseless_recovers_ground_truth(self, clean_pair, clean_matches):
        est = estimate_essential(clean_matches, seed=3)
        assert len(est.inlier_indices) == len(clean_matches)
        assert not est.low_confidence
        pose = clean_pair.gt_pose()
        E_gt = skew(pose.direction) @ pose.rotation
        assert principal_angle(est.matrix, E_gt) < 1e-6

    def test_outliers_are_excluded(self, noisy_pair, noisy_matches):
        est = estimate_essential(noisy_matches, seed=5)
        outliers = np.flatnonzero(noisy_pair.outlier_mask)
        kept = np.intersect1d(est.inlier_indices, outliers)
        assert len(kept) <= 0.05 * len(outliers)

    def test_pure_translation_essential_matrix(self):
        matches, gt = pure_translation_matches()
        est = estimate_essential(matches, seed=1)
        expected = np.array([[0.0, 0, 0], [0, 0, -1.0], [0, 1.0, 0]])
        assert principal_angle(est.matrix, expected) < 1e-6

    def test_determinism(self, noisy_matches):
        a = estimate_essential(noisy_matches, seed=9)
        b = estimate_essential(noisy_matches, seed=9)
        np.testing.assert_array_equal(a.matrix, b.matrix)
        np.testing.assert_array_equal(a.inlier_indices, b.inlier_indices)

    def test_projected_singular_values(self, clean_matches):
        est = estimate_essential(clean_matches, seed=2)
        s = np.linalg.svd(est.matrix, compute_uv=False)
        assert abs(s[0] - s[1]) < 1e-6
        assert s[2] < 1e-6

    def test_inlier_residuals_respect_threshold(self, noisy_matches):
        # Every inlier's bearings lie within 3 px of their epipolar planes
        # in both views, and some match outside that is not reported.
        cfg = RansacConfig()
        est = estimate_essential(noisy_matches, cfg, seed=4)
        E, ba, bb = est.matrix, noisy_matches.bearings_a, noisy_matches.bearings_b
        r = np.abs(np.einsum("ni,ij,nj->n", bb, E, ba))
        angle = np.arcsin(np.maximum(r / np.linalg.norm(ba @ E.T, axis=1),
                                     r / np.linalg.norm(bb @ E, axis=1)))
        pixels = angle * noisy_matches.spec_b.width / (2 * np.pi)
        inlier = np.zeros(len(r), dtype=bool)
        inlier[est.inlier_indices] = True
        assert np.all(pixels[inlier] <= cfg.threshold * (1 + 1e-9))
        assert np.all(pixels[~inlier] >= cfg.threshold * (1 - 1e-9))
        assert (~inlier).any()

    def test_tilted_frames_register_as_well(self):
        # Both frames turned by one rotation Q, with gravity_axis along
        # Q (0, 0, -1), give the rotation Q R Q^T and the same inliers, up
        # to rounding, as the levelled scene.
        rng = np.random.default_rng(12)
        for seed in range(5):
            pair = synth_room_pair(SynthSceneConfig(seed=seed, pixel_noise_sigma=1.0,
                                                    outlier_fraction=0.5))
            matches = parse_match_dict(pair.match_data)
            Q = random_rotation(rng)
            tilted = BearingMatchSet(matches.bearings_a @ Q.T, matches.bearings_b @ Q.T,
                                     matches.spec_a, matches.spec_b)
            gt = pair.gt_pose().rotation
            errors = []
            for m, g, R in ((matches, (0.0, 0.0, -1.0), gt),
                            (tilted, tuple(Q @ [0.0, 0.0, -1.0]), Q @ gt @ Q.T)):
                est = estimate_essential(m, seed=seed, gravity_axis=g)
                pose = decompose_essential(est.matrix, m, est.inlier_indices)
                errors.append(np.degrees(rotation_angle(pose.rotation.T @ R)))
            assert errors[1] < 0.5
            assert abs(errors[1] - errors[0]) < 0.01

    def test_too_few_matches(self, clean_matches):
        small = make_match_set(clean_matches.bearings_a[:5],
                               clean_matches.bearings_b[:5])
        with pytest.raises(EstimationError, match="at least 8"):
            estimate_essential(small, seed=0)

    def test_low_confidence_flag_below_30_percent_support(self):
        # At 72 % outliers a seed may find no model; over 12 seeds some must,
        # and every model found must be flagged.
        pair = synth_room_pair(SynthSceneConfig(seed=3, outlier_fraction=0.72))
        matches = parse_match_dict(pair.match_data)
        found = 0
        for seed in range(12):
            try:
                est = estimate_essential(matches, RansacConfig(iterations=20000), seed=seed)
            except EstimationError:
                continue
            found += 1
            assert est.low_confidence
            assert len(est.inlier_indices) / len(matches) < 0.3
        assert found

    def test_good_support_is_not_flagged(self, clean_matches):
        assert not estimate_essential(clean_matches, seed=0).low_confidence

    def test_exactly_eight_matches(self, clean_pair, clean_matches):
        # A minimal-size input still admits an exact model.
        idx = np.linspace(0, len(clean_matches) - 1, 8).astype(int)
        minimal = make_match_set(clean_matches.bearings_a[idx],
                                 clean_matches.bearings_b[idx])
        est = estimate_essential(minimal, RansacConfig(iterations=10), seed=0)
        assert len(est.inlier_indices) == 8
        pose = clean_pair.gt_pose()
        E_gt = skew(pose.direction) @ pose.rotation
        assert principal_angle(est.matrix, E_gt) < 1e-6

    def test_no_consensus_raises(self, rng):
        # Independent random bearings admit no epipolar model.
        ba = rng.normal(size=(40, 3))
        ba /= np.linalg.norm(ba, axis=1, keepdims=True)
        bb = rng.normal(size=(40, 3))
        bb /= np.linalg.norm(bb, axis=1, keepdims=True)
        with pytest.raises(EstimationError):
            estimate_essential(make_match_set(ba, bb),
                               RansacConfig(threshold=1e-9, iterations=50,
                                            min_inliers=20), seed=0)


class TestDecomposeEssential:
    def test_noiseless_pose_recovery(self, clean_pair, clean_matches):
        est = estimate_essential(clean_matches, seed=3)
        pose = decompose_essential(est.matrix, clean_matches, est.inlier_indices)
        gt = clean_pair.gt_pose()
        rot_err = rotation_angle(pose.rotation.T @ gt.rotation)
        assert rot_err < 1e-6
        assert direction_angle(pose.direction, gt.direction) < 1e-6
        # Cheirality must resolve the sign, not just the axis.
        assert pose.direction @ gt.direction > 0

    def test_pure_translation_decomposition(self):
        matches, gt = pure_translation_matches()
        est = estimate_essential(matches, seed=1)
        pose = decompose_essential(est.matrix, matches, est.inlier_indices)
        assert rotation_angle(pose.rotation) < 1e-8
        np.testing.assert_allclose(pose.direction, gt.direction, atol=1e-8)

    def test_all_points_at_infinity_is_a_tie(self):
        # Identical bearings in both views: every ray pair is parallel, no
        # candidate collects positive depths, so the vote must tie out.
        rng = np.random.default_rng(0)
        ba = rng.normal(size=(20, 3))
        ba /= np.linalg.norm(ba, axis=1, keepdims=True)
        matches = make_match_set(ba, ba.copy())
        E = skew([1.0, 0, 0])    # [t]x R for R = I, t = x
        with pytest.raises(CheiralityError):
            decompose_essential(E, matches, np.arange(20))

    def test_needs_two_inliers(self, clean_matches):
        E = np.eye(3)
        with pytest.raises(ValueError):
            decompose_essential(E, clean_matches, np.array([0]))


class TestTriangulate:
    def test_exact_two_ray_intersection(self):
        point = np.array([0.5, 1.0, 0.0])
        c_b = np.array([1.0, 0.0, 0.0])
        ba = point / np.linalg.norm(point)
        bb = (point - c_b) / np.linalg.norm(point - c_b)
        pose = RelativePose(np.eye(3), -c_b)
        out = triangulate_set(make_match_set([ba], [bb]), pose)
        np.testing.assert_array_equal(out.inlier_indices, [0])
        np.testing.assert_allclose(out.points[0], point, atol=1e-9)

    def test_parallel_rays_return_none(self):
        b = np.array([0.0, 1.0, 0.0])
        pose = RelativePose(np.eye(3), np.array([1.0, 0.0, 0.0]))
        assert len(triangulate_set(make_match_set([b], [b]), pose)) == 0

    def test_behind_camera_returns_none(self):
        point = np.array([0.5, 1.0, 0.0])
        c_b = np.array([1.0, 0.0, 0.0])
        ba = -point / np.linalg.norm(point)  # ray pointing away from the point
        bb = (point - c_b) / np.linalg.norm(point - c_b)
        pose = RelativePose(np.eye(3), -c_b)
        assert len(triangulate_set(make_match_set([ba], [bb]), pose)) == 0

    def test_recovers_200_synthetic_points(self):
        pair = synth_room_pair(SynthSceneConfig(seed=21, floor_point_count=100,
                                                wall_point_count=100))
        matches = parse_match_dict(pair.match_data)
        tri = triangulate_set(matches, pair.gt_pose())
        assert len(tri) == len(matches)
        expected = pair.match_points_a * pair.scale_factor_k
        np.testing.assert_allclose(tri.points, expected[tri.inlier_indices],
                                   atol=1e-6)


class TestNoiseAccuracy:
    def test_median_errors_under_pixel_noise(self):
        rot_errs, dir_errs = [], []
        for seed in range(20):
            pair = synth_room_pair(SynthSceneConfig(
                seed=seed, pixel_noise_sigma=1.0, pano_width=2048))
            matches = parse_match_dict(pair.match_data)
            est = estimate_essential(matches, seed=seed)
            pose = decompose_essential(est.matrix, matches, est.inlier_indices)
            gt = pair.gt_pose()
            rot_errs.append(np.degrees(rotation_angle(pose.rotation.T @ gt.rotation)))
            dir_errs.append(np.degrees(direction_angle(pose.direction, gt.direction)))
        assert np.median(rot_errs) < 1.0
        assert np.median(dir_errs) < 2.0
