import numpy as np
import pytest

from panostitch.epipolar import (RelativePose, TriangulatedSet,
                                 decompose_essential, estimate_essential,
                                 triangulate_set)
from panostitch.geometry import Plane, RigidTransform
from panostitch.panorama import parse_match_dict
from panostitch.scale import (GroundConfig, GroundModel, GroundPlaneError,
                              apply_scale, recover_scale, select_ground_points)
from panostitch.testkit import SynthSceneConfig, synth_room_pair

GRAVITY = np.array([0.0, 0.0, -1.0])


def ground_model_from_projections(projections, h=1.5):
    """Points stacked so that normal (0,0,-1) projects to the given values.

    Small sets are replicated by an odd factor to satisfy the >= 10 point
    model invariant; whole-set odd replication preserves the median.
    """
    v = np.asarray(projections, dtype=float)
    factor = 1
    while v.size * factor < 10:
        factor += 2
    v = np.tile(v, factor)
    rng = np.random.default_rng(0)
    pts = np.column_stack([rng.normal(size=v.size), rng.normal(size=v.size), -v])
    return GroundModel(plane=Plane(GRAVITY, 0.0), camera_height=h,
                       ground_points=pts)


class TestSelectGroundPoints:
    def test_floor_recovered_from_mixed_scene(self):
        pair = synth_room_pair(SynthSceneConfig(seed=13, floor_point_count=100,
                                                wall_point_count=100))
        matches = parse_match_dict(pair.match_data)
        tri = triangulate_set(matches, pair.gt_pose())
        g = select_ground_points(tri, GRAVITY,
                                 GroundConfig(camera_height=pair.camera_height),
                                 seed=0)
        # In the unit-scale frame floor points sit exactly at z = -h*k.
        floor_z = -pair.camera_height * pair.scale_factor_k
        on_floor = np.abs(g.ground_points[:, 2] - floor_z) < 1e-9
        assert on_floor.sum() >= 95
        assert (~on_floor).sum() <= 2

    def test_single_horizontal_plane_selects_everything(self, rng):
        pts = np.column_stack([rng.uniform(-2, 2, 200), rng.uniform(-2, 2, 200),
                               np.full(200, -1.2)])
        tri = TriangulatedSet(points=pts, inlier_indices=np.arange(200))
        g = select_ground_points(tri, GRAVITY, GroundConfig(), seed=1)
        assert len(g.ground_points) == 200
        np.testing.assert_allclose(g.plane.normal, GRAVITY, atol=1e-6)

    def test_vertical_walls_only_is_an_error(self, rng):
        pts = np.column_stack([np.full(100, 0.5), rng.uniform(-2, 2, 100),
                               rng.uniform(-1.5, 1.5, 100)])
        tri = TriangulatedSet(points=pts, inlier_indices=np.arange(100))
        with pytest.raises(GroundPlaneError):
            select_ground_points(tri, GRAVITY, GroundConfig(), seed=2)

    def test_too_few_points(self):
        tri = TriangulatedSet(points=np.zeros((5, 3)), inlier_indices=np.arange(5))
        with pytest.raises(GroundPlaneError, match=">= 10"):
            select_ground_points(tri, GRAVITY, GroundConfig(), seed=0)

    def test_floor_through_the_camera_is_refused_by_recover_scale(self, rng):
        # The floor fit succeeds; its points' median height is 0, which only
        # recover_scale refuses.
        pts = np.column_stack([rng.uniform(-2, 2, 200), rng.uniform(-2, 2, 200),
                               np.zeros(200)])
        tri = TriangulatedSet(points=pts, inlier_indices=np.arange(200))
        g = select_ground_points(tri, GRAVITY, GroundConfig(), seed=0)
        with pytest.raises(GroundPlaneError, match="not positive"):
            recover_scale(g)

    def test_floor_within_its_noise_of_the_camera_is_refused(self):
        # A floor 0.2 mm below the camera under 5 mm noise: the fitted plane
        # passes 0.04 mm above it, so its points' median projection is
        # negative. Turning that plane over would give an alpha near 5,500
        # instead of a refusal.
        rng = np.random.default_rng(1)
        pts = np.column_stack([rng.uniform(-2, 2, 200), rng.uniform(-2, 2, 200),
                               -0.0002 + rng.normal(0, 0.005, 200)])
        tri = TriangulatedSet(points=pts, inlier_indices=np.arange(200))
        g = select_ground_points(tri, GRAVITY, GroundConfig(), seed=1)
        assert np.median(g.projections()) < 0
        with pytest.raises(GroundPlaneError, match="not positive"):
            recover_scale(g)


class TestRecoverScale:
    def test_identity_when_projections_equal_height(self):
        g = ground_model_from_projections(np.full(20, 1.5), h=1.5)
        assert recover_scale(g) == pytest.approx(1.0, abs=1e-12)

    def test_direct_substitution(self):
        g = ground_model_from_projections([0.70, 0.75, 0.80], h=1.5)
        assert recover_scale(g) == pytest.approx(2.0, abs=1e-12)

    def test_matches_sorting_oracle_on_1001_values(self, rng):
        v = rng.uniform(0.2, 3.0, size=1001)
        g = ground_model_from_projections(v, h=1.5)
        expected = 1.5 / sorted(v)[500]
        assert recover_scale(g) == expected

    def test_even_count_uses_mean_of_central_values(self):
        g = ground_model_from_projections([0.5, 1.0, 2.0, 2.5], h=1.5)
        assert recover_scale(g) == pytest.approx(1.5 / 1.5, abs=1e-12)

    def test_permutation_invariance(self, rng):
        v = rng.uniform(0.5, 2.0, size=101)
        a = recover_scale(ground_model_from_projections(v))
        b = recover_scale(ground_model_from_projections(rng.permutation(v)))
        assert a == b

    def test_scale_equivariance(self, rng):
        v = rng.uniform(0.5, 2.0, size=51)
        alpha = recover_scale(ground_model_from_projections(v))
        for k in (0.1, 2.0, 17.5):
            alpha_k = recover_scale(ground_model_from_projections(k * v))
            assert abs(alpha_k * k - alpha) < 1e-9 * alpha

    def test_median_robust_to_minority_corruption(self, rng):
        clean = rng.uniform(0.7, 0.8, size=60)
        corrupt = np.concatenate([rng.uniform(5.0, 9.0, size=20),
                                  rng.uniform(0.01, 0.05, size=19)])
        v = np.concatenate([clean, corrupt])
        alpha = recover_scale(ground_model_from_projections(v, h=1.5))
        assert 1.5 / clean.max() <= alpha <= 1.5 / clean.min()

    def test_nonpositive_median_is_an_error(self):
        rng = np.random.default_rng(0)
        pts = np.column_stack([rng.normal(size=20), rng.normal(size=20),
                               np.full(20, -1.0)])
        g = GroundModel(plane=Plane(GRAVITY, 0.0), camera_height=1.5,
                        ground_points=pts)
        # Flip the points above the camera after construction checks.
        object.__setattr__(g, "ground_points", -pts)
        with pytest.raises(GroundPlaneError, match="not positive"):
            recover_scale(g)


class TestApplyScale:
    def test_unit_scale_keeps_direction(self):
        pose = RelativePose(np.eye(3), np.array([0.0, 1.0, 0.0]))
        T = apply_scale(pose, 1.0)
        np.testing.assert_array_equal(T.translation, [0.0, 1.0, 0.0])

    def test_scales_translation(self):
        pose = RelativePose(np.eye(3), np.array([0.0, 1.0, 0.0]))
        T = apply_scale(pose, 2.5)
        np.testing.assert_allclose(T.translation, [0.0, 2.5, 0.0])

    def test_rejects_nonpositive(self):
        pose = RelativePose(np.eye(3), np.array([0.0, 1.0, 0.0]))
        for alpha in (0.0, -1.0):
            with pytest.raises(ValueError):
                apply_scale(pose, alpha)

    def test_recovers_metric_baseline(self):
        baseline = 3.2
        t = np.array([-3.0, -np.sqrt(baseline ** 2 - 9.0), 0.0])
        cfg = SynthSceneConfig(seed=17, room_extent=(8.0, 6.0, 3.0),
                               gt_relative_pose=RigidTransform(np.eye(3), t))
        pair = synth_room_pair(cfg)
        matches = parse_match_dict(pair.match_data)
        est = estimate_essential(matches, seed=1)
        pose = decompose_essential(est.matrix, matches, est.inlier_indices)
        tri = triangulate_set(matches, pose, est.inlier_indices)
        g = select_ground_points(tri, GRAVITY,
                                 GroundConfig(camera_height=pair.camera_height),
                                 seed=1)
        T = apply_scale(pose, recover_scale(g))
        assert np.linalg.norm(T.translation) == pytest.approx(baseline, rel=0.01)
