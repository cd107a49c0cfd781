import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from panostitch.geometry import (Aabb, GeometryError, Plane, PointCloud,
                                 PointIndex, RigidTransform, compose,
                                 fit_plane_lsq, is_rotation, pose_difference,
                                 quaternion_to_rotation, rot_z,
                                 rotation_to_quaternion, screened_le,
                                 voxel_downsample)

from conftest import random_rotation, random_transform


class TestRigidTransform:
    def test_compose_identity(self, rng):
        T = random_transform(rng)
        out = compose(RigidTransform.identity(), T)
        np.testing.assert_allclose(out.matrix(), T.matrix(), atol=1e-15)

    def test_compose_inverse_is_identity(self, rng):
        T = random_transform(rng)
        out = compose(T, T.inverse())
        np.testing.assert_allclose(out.matrix(), np.eye(4), atol=1e-8)

    def test_rotz_90_twice_is_180(self):
        quarter = RigidTransform(rot_z(np.pi / 2), np.zeros(3))
        half = compose(quarter, quarter)
        np.testing.assert_allclose(half.rotation, rot_z(np.pi), atol=1e-12)

    def test_compose_matches_sequential_application(self, rng):
        a, b = random_transform(rng), random_transform(rng)
        p = rng.normal(size=3)
        np.testing.assert_allclose(compose(a, b).apply(p), a.apply(b.apply(p)),
                                   atol=1e-12)

    def test_transform_point_trivial_cases(self):
        assert np.allclose(RigidTransform.identity().apply((1, 2, 3)), (1, 2, 3))
        lift = RigidTransform(np.eye(3), (0, 0, 1))
        assert np.allclose(lift.apply((0, 0, 0)), (0, 0, 1))
        turn = RigidTransform(rot_z(np.pi / 2), np.zeros(3))
        np.testing.assert_allclose(turn.apply((1, 0, 0)), (0, 1, 0), atol=1e-12)

    def test_rejects_non_rotation(self):
        with pytest.raises(GeometryError):
            RigidTransform(np.eye(3) * 2.0, np.zeros(3))
        with pytest.raises(GeometryError):
            RigidTransform(np.diag([1.0, 1.0, -1.0]), np.zeros(3))

    def test_quaternion_round_trip(self, rng):
        for _ in range(50):
            R = random_rotation(rng)
            back = quaternion_to_rotation(rotation_to_quaternion(R))
            np.testing.assert_allclose(back, R, atol=1e-12)

    @given(st.integers(0, 10_000))
    @settings(max_examples=30, deadline=None)
    def test_rotation_closure(self, seed):
        rng = np.random.default_rng(seed)
        product = random_rotation(rng) @ random_rotation(rng)
        assert is_rotation(product, tol=1e-8)

    @given(st.integers(0, 10_000))
    @settings(max_examples=30, deadline=None)
    def test_transform_is_isometry(self, seed):
        rng = np.random.default_rng(seed)
        T = random_transform(rng)
        p, q = rng.normal(size=3), rng.normal(size=3)
        before = np.linalg.norm(p - q)
        after = np.linalg.norm(T.apply(p) - T.apply(q))
        assert abs(before - after) < 1e-9


class TestNearestNeighbor:
    def test_simple_query(self):
        index = PointIndex(np.array([[0.0, 0, 0], [1.0, 0, 0]]))
        idx, dist = index.query((0.1, 0, 0))
        assert idx == 0
        assert dist == pytest.approx(0.1)

    def test_exact_hit(self):
        index = PointIndex(np.array([[0.0, 0, 0], [1.0, 0, 0], [2.0, 0, 0]]))
        idx, dist = index.query((2.0, 0, 0))
        assert idx == 2
        assert dist == 0.0

    def test_tie_breaks_to_lowest_index(self):
        index = PointIndex(np.array([[1.0, 0, 0], [-1.0, 0, 0], [1.0, 0, 0]]))
        idx, dist = index.query((0.0, 0, 0))
        assert idx == 0
        assert dist == pytest.approx(1.0)

    def test_matches_exhaustive_scan_for_1000_queries(self, rng):
        pts = rng.uniform(-5, 5, size=(1000, 3))
        index = PointIndex(pts)
        queries = rng.uniform(-5, 5, size=(1000, 3))
        d = np.linalg.norm(pts[None, :, :] - queries[:, None, :], axis=2)
        expected = d.argmin(axis=1)  # argmin takes the lowest index on ties
        for q, expect_idx, drow in zip(queries, expected, d):
            idx, dist = index.query(q)
            assert idx == expect_idx
            assert dist == pytest.approx(drow[expect_idx], abs=1e-12)

    def test_empty_cloud_rejected(self):
        with pytest.raises(GeometryError):
            PointIndex(np.empty((0, 3)))


class TestPointCloud:
    def test_normals_length_must_match(self):
        with pytest.raises(GeometryError):
            PointCloud(np.zeros((3, 3)), np.zeros((2, 3)))

    def test_transformed_rotates_normals(self, rng):
        cloud = PointCloud(rng.normal(size=(10, 3)),
                           np.tile([0.0, 0.0, 1.0], (10, 1)))
        turned = cloud.transformed(RigidTransform(rot_z(np.pi / 2), np.zeros(3)))
        np.testing.assert_allclose(turned.normals, np.tile([0, 0, 1.0], (10, 1)),
                                   atol=1e-12)

    def test_voxel_downsample_keeps_first_per_cell(self):
        pts = np.array([[0.01, 0, 0], [0.02, 0, 0], [1.0, 0, 0]])
        out = voxel_downsample(PointCloud(pts), 0.1)
        np.testing.assert_allclose(out.points, [[0.01, 0, 0], [1.0, 0, 0]])

    @pytest.mark.parametrize("case", ["noise", "duplicates", "negative",
                                      "one-voxel", "one-point"])
    @pytest.mark.parametrize("voxel", [1e-3, 0.02, 0.5, 1e3])
    def test_voxel_downsample_matches_unique_reference(self, case, voxel):
        rng = np.random.default_rng(7)
        pts = rng.normal(size=(3000, 3))
        if case == "duplicates":
            pts = np.vstack([pts, pts[rng.integers(0, 3000, 1000)]])
            pts = pts[rng.permutation(len(pts))]
        elif case == "negative":
            pts = -np.abs(pts) * 7.0
        elif case == "one-voxel":
            pts = 0.25 * voxel + rng.uniform(0, 0.5 * voxel, size=(500, 3))
        elif case == "one-point":
            pts = pts[:1]
        # Reference: the lowest original index of each distinct integer key.
        keys = np.floor(pts / voxel).astype(np.int64)
        _, first = np.unique(keys, axis=0, return_index=True)
        out = voxel_downsample(PointCloud(pts), voxel)
        assert np.array_equal(out.points, pts[np.sort(first)])
        if case == "one-voxel":
            assert len(out) == 1

    @pytest.mark.parametrize("voxel", [0.0, -0.1, np.nan, np.inf, -np.inf])
    def test_voxel_downsample_rejects_bad_voxel(self, voxel):
        with pytest.raises(GeometryError, match="voxel size"):
            voxel_downsample(PointCloud(np.zeros((3, 3))), voxel)


    @pytest.mark.parametrize("voxel", [1e-20, 5e-324])
    def test_voxel_downsample_rejects_index_overflow(self, voxel):
        pts = np.random.default_rng(0).normal(size=(1000, 3))
        with pytest.raises(GeometryError, match=f"voxel size {voxel!r} .*overflow"):
            voxel_downsample(PointCloud(pts), voxel)

    def test_voxel_downsample_accepts_largest_in_range_index(self):
        # floor(x / voxel) = 2**62 and -2**63 still fit in int64.
        pts = np.array([[2.0**62, 0, 0], [-(2.0**63), 1, 0], [2.0**62, 0, 0]])
        out = voxel_downsample(PointCloud(pts), 1.0)
        assert np.array_equal(out.points, pts[:2])


class TestPlane:
    def test_canonical_orientation_makes_d_nonpositive(self):
        p = Plane((0, 0, 1.0), 2.0).canonical()
        assert p.d <= 0
        assert np.allclose(p.normal, (0, 0, -1))

    def test_canonical_through_origin_breaks_tie_by_sign(self):
        p = Plane((0, 0, -1.0), 0.0).canonical()
        assert np.allclose(p.normal, (0, 0, 1.0))
        q = Plane((-1.0, 0, 0), 0.0).canonical()
        assert np.allclose(q.normal, (1.0, 0, 0))

    def test_canonical_is_idempotent(self, rng):
        for _ in range(20):
            p = Plane(rng.normal(size=3), rng.normal()).canonical()
            again = p.canonical()
            np.testing.assert_array_equal(again.normal, p.normal)
            assert again.d == p.d

    def test_projection_lands_on_plane(self, rng):
        plane = Plane((0, 0, 1.0), -0.8)
        pts = rng.normal(size=(20, 3))
        proj = plane.project(pts)
        np.testing.assert_allclose(plane.signed_distance(proj), 0.0, atol=1e-12)

    def test_lsq_fit_recovers_plane(self, rng):
        pts = rng.uniform(-1, 1, size=(100, 3))
        pts[:, 2] = 0.5
        plane = fit_plane_lsq(pts)
        assert abs(abs(plane.normal[2]) - 1.0) < 1e-9
        assert abs(plane.signed_distance((0, 0, 0.5))) < 1e-9

    def test_lsq_fit_rejects_collinear(self):
        pts = np.outer(np.linspace(0, 1, 10), [1.0, 2.0, 3.0])
        with pytest.raises(GeometryError):
            fit_plane_lsq(pts)


class TestAabb:
    def test_contains_includes_boundary(self):
        box = Aabb((0, 0, 0), (1, 1, 1))
        assert box.contains((0, 0, 0))
        assert box.contains((1, 1, 1))
        assert not box.contains((1.0001, 0.5, 0.5))

    def test_intersection_and_overlap(self):
        a = Aabb((0, 0, 0), (2, 2, 2))
        b = Aabb((1, 1, 1), (3, 3, 3))
        inter = a.intersection(b)
        np.testing.assert_allclose(inter.min, (1, 1, 1))
        np.testing.assert_allclose(inter.max, (2, 2, 2))
        assert a.overlaps(b)
        assert a.intersection(Aabb((5, 5, 5), (6, 6, 6))) is None

    def test_min_must_not_exceed_max(self):
        with pytest.raises(GeometryError):
            Aabb((1, 0, 0), (0, 1, 1))


class TestScreenedLe:
    @staticmethod
    def screen(r, threshold, band, exact_values):
        """screened_le's bits and the (row, col) entries it sent to exact,
        whose residuals are exact_values."""
        r = np.atleast_2d(np.asarray(r, dtype=float))
        asked = []

        def exact(rows, cols):
            asked.extend(zip(rows.tolist(), cols.tolist()))
            return np.atleast_2d(exact_values)[rows, cols]

        out, scratch = np.empty(r.shape, dtype=bool), np.empty(r.shape, dtype=bool)
        screened_le(r, threshold, band, exact, out, scratch)
        return out.tolist(), asked

    def test_band_edges(self):
        # threshold 1, band 0.25: the screen decides r <= 0.75 and r > 1.25,
        # and the residual decides the closed band between (where each one
        # here disagrees with the screen).
        r = [0.5, 0.75, np.nextafter(0.75, 1.0), 1.0, 1.25, np.nextafter(1.25, 2.0)]
        exact = [np.nan, np.nan, 2.0, -0.5, -1.0, np.nan]
        out, asked = self.screen(r, 1.0, 0.25, exact)
        assert out == [[True, True, False, True, True, False]]
        assert asked == [(0, 2), (0, 3), (0, 4)]

    def test_rows_and_columns_reach_exact(self):
        r = [[0.0, 1.0, 3.0], [np.nan, 2.9, 1.1]]
        exact = [[9.0, 0.5, 9.0], [-2.0, 9.0, 1.5]]
        out, asked = self.screen(r, 1.0, 0.25, exact)
        assert out == [[True, True, False], [False, False, False]]
        assert asked == [(0, 1), (1, 0), (1, 2)]

    def test_nan_goes_to_exact(self):
        out, asked = self.screen([np.nan, 0.0, 5.0, np.nan], 1.0, 0.25,
                                 [0.5, np.nan, np.nan, np.nan])
        assert out == [[True, True, False, False]]
        assert asked == [(0, 0), (0, 3)]

    def test_infinite_band_sends_every_entry_to_exact(self):
        out, asked = self.screen([0.0, 1.0, 1e300, np.inf], 1.0, np.inf,
                                 [3.0, 1.0, -0.25, np.nan])
        assert out == [[False, True, True, False]]
        assert asked == [(0, 0), (0, 1), (0, 2), (0, 3)]

    def test_zero_band_keeps_the_screen(self):
        r = [0.0, 1.0, np.nextafter(1.0, 2.0), np.nan]
        out, asked = self.screen(r, 1.0, 0.0, [np.nan, np.nan, np.nan, 0.0])
        assert out == [[True, True, False, True]]
        assert asked == [(0, 3)]
        # At threshold 0, only r == 0 is in.
        out, asked = self.screen([0.0, 5e-324], 0.0, 0.0, [np.nan, np.nan])
        assert out == [[True, False]] and asked == []


def test_pose_difference_zero_for_equal(rng):
    T = random_transform(rng)
    r, t = pose_difference(T, T)
    assert r < 1e-9 and t < 1e-12
