import numpy as np
import pytest

from panostitch.epipolar import (CheiralityError, EstimationError, RansacConfig,
                                 RelativePose, decompose_essential,
                                 estimate_essential, triangulate_set)
from panostitch.geometry import rotation_angle, skew
from panostitch.panorama import BearingMatchSet, PanoramaSpec, parse_match_dict
from panostitch.testkit import SynthSceneConfig, synth_room_pair


def principal_angle(E1, E2):
    """Angle between essential matrices viewed as 9-vectors, sign-invariant."""
    a = E1.ravel() / np.linalg.norm(E1)
    b = E2.ravel() / np.linalg.norm(E2)
    return float(np.arccos(np.clip(abs(a @ b), -1.0, 1.0)))


def direction_angle(u, v):
    return float(np.arccos(np.clip(abs(np.dot(u, v)), -1.0, 1.0)))


def make_match_set(ba, bb):
    spec = PanoramaSpec(2048, 1024)
    return BearingMatchSet(ba, bb, spec, spec, np.ones(len(ba)))


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
        cfg = RansacConfig()
        est = estimate_essential(noisy_matches, cfg, seed=4)
        res = np.abs(np.einsum("ni,ij,nj->n",
                               noisy_matches.bearings_b[est.inlier_indices],
                               est.matrix,
                               noisy_matches.bearings_a[est.inlier_indices]))
        assert np.all(res <= cfg.threshold)

    def test_too_few_matches(self, clean_matches):
        small = make_match_set(clean_matches.bearings_a[:5],
                               clean_matches.bearings_b[:5])
        with pytest.raises(EstimationError, match="at least 8"):
            estimate_essential(small, seed=0)

    def test_low_confidence_flag_below_30_percent_support(self):
        pair = synth_room_pair(SynthSceneConfig(seed=3, outlier_fraction=0.72))
        matches = parse_match_dict(pair.match_data)
        est = estimate_essential(matches, RansacConfig(iterations=20000), seed=0)
        assert est.low_confidence
        assert len(est.inlier_indices) / len(matches) < 0.3

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
