import dataclasses
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from panostitch.geometry import (PointCloud, PointIndex, RigidTransform,
                                 compose, pose_difference, rotation_exp,
                                 rotation_from_axis_angle, thread_count,
                                 voxel_downsample)
from panostitch.icp import (IcpConfig, IcpError, IcpResult,
                            correspondence_error, correspondence_gradient,
                            estimate_normals, eval_icp_error,
                            point_to_plane_icp)
from panostitch import icp as icp_mod
from panostitch.panorama import parse_match_dict
from panostitch.pipeline import PairConfig, fork_seed, register_room_pair
from panostitch.scale import GroundConfig
from panostitch.testkit import sample_room_cloud

EXTENT = (5.0, 4.0, 3.0)


@pytest.fixture(scope="module")
def room_cloud():
    # Dense enough that k-NN neighborhoods never span the gap between
    # faces (the sampler keeps a 0.2 m margin off every junction).
    rng = np.random.default_rng(42)
    pts, normals = sample_room_cloud(EXTENT, 20000, 0.2, rng)
    center = np.array([0.0, 0.0, 1.5])
    return PointCloud(pts - center), normals


def small_perturbation(rng, angle_deg=5.0, shift=0.1):
    axis = rng.normal(size=3)
    axis /= np.linalg.norm(axis)
    direction = rng.normal(size=3)
    direction *= shift / np.linalg.norm(direction)
    return RigidTransform(rotation_from_axis_angle(axis, np.deg2rad(angle_deg)),
                          direction)


def reference_normals(cloud, k, viewpoint):
    """The unblocked estimator: one whole-cloud (n, k, 3) gather and one
    batched covariance einsum. estimate_normals must match it bit for bit."""
    vp = np.asarray(viewpoint, dtype=np.float64)
    nbr, _ = PointIndex(cloud.points).knn(cloud.points, k=k)
    nbr_pts = cloud.points[nbr]
    centered = nbr_pts - nbr_pts.mean(axis=1, keepdims=True)
    cov = np.einsum("nki,nkj->nij", centered, centered) / k
    normals = np.linalg.eigh(cov)[1][:, :, 0]
    flip = np.einsum("ni,ni->n", normals, vp[None, :] - cloud.points) < 0
    normals[flip] = -normals[flip]
    normals /= np.linalg.norm(normals, axis=1, keepdims=True)
    return normals


@pytest.fixture
def unsampled(monkeypatch):
    """ICP registers every source point, as reference_icp does."""
    monkeypatch.setattr(icp_mod, "SOURCE_SAMPLE", None)


def reference_icp(source, target, T_init=RigidTransform.identity(),
                  cfg=IcpConfig()):
    """The loop without the cycle stop: it ends on rel_tol or the
    iteration cap only, and registers every source point. point_to_plane_icp
    must match it field for field wherever it does not stop on a cycle and
    does not sample the source. Also returns, per iteration, the
    correspondence assignment at its start and the pose its step
    produced."""
    assert icp_mod.SOURCE_SAMPLE is None or len(source) <= icp_mod.SOURCE_SAMPLE
    icp_mod._check_inputs(source, target)
    index = PointIndex(target.points)
    crop = icp_mod._overlap_crop(source.points, target.points, T_init,
                                 cfg.overlap_margin)
    src = source.points[crop]
    max_dist = cfg.max_corr_dist
    T, prev_err, trace, converged = T_init, None, [], False
    assignments, poses = [], []
    for iterations in range(1, cfg.max_iterations + 1):
        moved, rows, tgt_idx, max_dist = icp_mod._correspond(
            src, T, index, max_dist)
        corr_count = int(rows.size)
        assignment = np.full(len(src), -1)
        assignment[rows] = tgt_idx
        assignments.append(assignment)
        p, q, n = moved[rows], target.points[tgt_idx], target.normals[tgt_idx]
        if prev_err is None:
            r0 = icp_mod._residuals(p, q, n)
            initial_err = prev_err = float(np.einsum("i,i->", r0, r0))
        xi = icp_mod._solve_step(p, q, n)
        T = compose(RigidTransform(rotation_exp(xi[:3]), xi[3:]), T)
        poses.append(T)
        err = correspondence_error(src[rows], q, n, T)
        trace.append(err)
        if abs(prev_err - err) / max(prev_err, 1e-12) < cfg.rel_tol:
            converged = True
            break
        prev_err = err
    result = IcpResult(
        transform=T, final_error=icp_mod._pose_error(
            source.points, icp_mod._Target(target, cfg.normal_k), T, max_dist,
            cfg.overlap_margin),
        initial_error=initial_err, iterations=iterations,
        correspondence_count=corr_count, converged=converged,
        error_trace=tuple(trace), max_corr_dist=max_dist,
        stop_reason="rel_tol" if converged else "max_iterations")
    return result, assignments, poses


def assert_same_result(got: IcpResult, want: IcpResult) -> None:
    """Every IcpResult field exactly equal, the stop reason aside."""
    for f in dataclasses.fields(IcpResult):
        a, b = getattr(got, f.name), getattr(want, f.name)
        if f.name == "transform":
            assert np.array_equal(a.matrix(), b.matrix())
        elif f.name != "stop_reason":
            assert a == b, f.name


# A scene whose ICP assignment at iteration 3 repeats that of iteration 1
# (a period-2 cycle); without the cycle stop it never meets rel_tol.
CYCLING_SCENE_SEED = 2


def resampled_room_scene(resampled_pair, seed):
    """The ICP inputs (source, target, coarse pose) of a conftest
    resampled_pair scene, both clouds voxelled and given estimated
    normals, its registration and its true pose."""
    pair, cloud_b = resampled_pair(seed)
    cloud_a = PointCloud(pair.cloud_a.points)
    pair_cfg = PairConfig(ground=GroundConfig(camera_height=pair.camera_height))
    reg = register_room_pair(parse_match_dict(pair.match_data), cloud_a, cloud_b,
                             pair_cfg, seed=fork_seed(seed, "pair:room_a->room_b"))
    source, target = (estimate_normals(voxel_downsample(c, pair_cfg.voxel_size),
                                       k=pair_cfg.icp.normal_k, viewpoint=(0, 0, 0))
                      for c in (cloud_a, cloud_b))
    return (source, target, reg.T_coarse), reg, pair.gt


class TestEstimateNormals:
    # Clouds that end just before, at and just after the first block
    # boundary and a later one, and one of 8 full blocks plus 3 points.
    @pytest.mark.parametrize("n", [icp_mod.NORMAL_BLOCK - 1, icp_mod.NORMAL_BLOCK,
                                   icp_mod.NORMAL_BLOCK + 1,
                                   4 * icp_mod.NORMAL_BLOCK - 1, 4 * icp_mod.NORMAL_BLOCK,
                                   4 * icp_mod.NORMAL_BLOCK + 1,
                                   8 * icp_mod.NORMAL_BLOCK + 3])
    def test_blocks_match_whole_cloud_reference(self, monkeypatch, n):
        pts, _ = sample_room_cloud(EXTENT, n, 0.2, np.random.default_rng(n))
        cloud = PointCloud(pts + np.random.default_rng(0).normal(0, 0.003, pts.shape))
        want = reference_normals(cloud, 20, (0.3, -0.2, 1.5))
        # The neighbor queries' thread count is all that may vary here.
        for threads in ("1", "2", "8"):
            monkeypatch.setenv("PANOSTITCH_THREADS", threads)
            est = estimate_normals(cloud, k=20, viewpoint=(0.3, -0.2, 1.5))
            assert np.array_equal(est.normals, want), threads

    @pytest.mark.parametrize("case", ["n-equals-k", "duplicates-negative"])
    def test_edge_clouds_match_reference(self, rng, case):
        if case == "n-equals-k":
            pts, k = rng.normal(size=(20, 3)), 20
        else:
            pts = -np.abs(rng.normal(size=(300, 3))) * 50.0
            pts, k = np.vstack([pts, pts[::3], pts[::7]]), 10
        cloud = PointCloud(pts)
        est = estimate_normals(cloud, k=k, viewpoint=(1.0, 2.0, 3.0))
        assert np.array_equal(est.normals, reference_normals(cloud, k, (1.0, 2.0, 3.0)))

    def test_plane_points_get_up_normals(self, rng):
        pts = np.column_stack([rng.uniform(-1, 1, 500), rng.uniform(-1, 1, 500),
                               np.zeros(500)])
        cloud = estimate_normals(PointCloud(pts), k=10, viewpoint=(0, 0, 5.0))
        np.testing.assert_allclose(cloud.normals,
                                   np.tile([0, 0, 1.0], (500, 1)), atol=1e-6)

    def test_sphere_normals_point_inward(self, rng):
        pts = rng.normal(size=(2000, 3))
        pts /= np.linalg.norm(pts, axis=1, keepdims=True)
        cloud = estimate_normals(PointCloud(pts), k=20, viewpoint=(0, 0, 0))
        inward = -pts
        cos = np.einsum("ni,ni->n", cloud.normals, inward)
        assert np.all(cos >= np.cos(np.deg2rad(5.0)))

    def test_room_cloud_matches_analytic_normals(self, room_cloud):
        cloud, analytic = room_cloud
        est = estimate_normals(cloud, k=20, viewpoint=(0, 0, 0))
        cos = np.abs(np.einsum("ni,ni->n", est.normals, analytic))
        frac_good = np.mean(cos >= np.cos(np.deg2rad(10.0)))
        assert frac_good >= 0.99
        # Orientation: viewpoint sits inside the room, so signed agreement
        # should hold wherever the angle is good.
        signed = np.einsum("ni,ni->n", est.normals, analytic)
        assert np.mean(signed > 0) >= 0.99

    def test_cloud_smaller_than_k(self):
        with pytest.raises(IcpError):
            estimate_normals(PointCloud(np.zeros((5, 3)) + np.eye(5, 3)), k=10)


class TestRegisterRoomPair:
    def test_cloud_below_normal_k_after_voxelling_raises(self, clean_pair,
                                                         clean_matches):
        # 2.5 m voxels leave each 5 x 4 x 3 m room fewer than normal_k = 20
        # points; normal estimation runs with k as configured, not shrunk.
        cfg = PairConfig(ground=GroundConfig(camera_height=clean_pair.camera_height),
                         voxel_size=2.5)
        with pytest.raises(IcpError, match="needs >= k = 20"):
            register_room_pair(clean_matches, PointCloud(clean_pair.cloud_a.points),
                               PointCloud(clean_pair.cloud_b.points), cfg)

    @pytest.mark.parametrize("crop_m", [None, 3.0], ids=["full-overlap", "crop-3m"])
    @pytest.mark.parametrize("noise_m", [0.003, 0.01], ids=["3mm", "10mm"])
    def test_junction_samples_register_within_bounds(self, resampled_pair,
                                                     noise_m, crop_m):
        # edge_margin 0: samples reach the face junctions, where room B's
        # estimated normals mix two faces; the crop leaves room A's far
        # side without a partner. Bounds are acceptance criterion 3's.
        for seed in (1, 2, 3):
            pair, cloud_b = resampled_pair(seed, edge_margin=0.0, noise_m=noise_m,
                                           crop_m=crop_m)
            cfg = PairConfig(ground=GroundConfig(camera_height=pair.camera_height))
            reg = register_room_pair(parse_match_dict(pair.match_data),
                                     PointCloud(pair.cloud_a.points), cloud_b, cfg,
                                     seed=fork_seed(seed, "pair:room_a->room_b"))
            rot, trans = pose_difference(reg.T_fine, pair.gt)
            assert np.degrees(rot) < 0.5 and trans < 0.01, (seed, rot, trans)


def shared_band_pair(rng, cut):
    """(source, target with normals, true pose) of two views of a 30,000
    point room sharing only the diagonal band |x + y| < cut, so the
    overlap still sees pieces of every wall (an axis-aligned band would
    leave the cut axis unconstrained)."""
    pts, _ = sample_room_cloud(EXTENT, 30000, 0.1, rng)
    pts = pts - np.array([0.0, 0.0, 1.5])
    diag = pts[:, 0] + pts[:, 1]
    T_star = small_perturbation(rng, angle_deg=3.0, shift=0.08)
    target = estimate_normals(PointCloud(T_star.apply(pts[diag > -cut])), k=20,
                              viewpoint=T_star.apply(np.zeros(3)))
    return PointCloud(pts[diag < cut]), target, T_star


class TestPointToPlaneIcp:
    def test_identity_case(self, room_cloud):
        cloud, _ = room_cloud
        target = estimate_normals(cloud, k=20, viewpoint=(0, 0, 0))
        res = point_to_plane_icp(cloud, target, RigidTransform.identity())
        rot, trans = pose_difference(res.transform, RigidTransform.identity())
        assert rot < 1e-12 and trans < 1e-12
        assert res.final_error < 1e-12
        assert res.converged and res.iterations <= 2

    def test_recovers_known_perturbation(self, room_cloud, rng):
        cloud, _ = room_cloud
        T_star = small_perturbation(rng)
        target_pts = T_star.apply(cloud.points)
        target = estimate_normals(PointCloud(target_pts), k=20,
                                  viewpoint=T_star.apply(np.zeros(3)))
        res = point_to_plane_icp(cloud, target, RigidTransform.identity())
        rot, trans = pose_difference(res.transform, T_star)
        assert np.degrees(rot) < 0.05
        assert trans < 1e-3
        assert res.converged

    def test_partial_overlap_converges_on_shared_band(self, rng):
        source, target, T_star = shared_band_pair(rng, 1.5)
        # A tight distance gate keeps source points past the shared band
        # from latching onto the band boundary and biasing the solve.
        res = point_to_plane_icp(source, target, RigidTransform.identity(),
                                 IcpConfig(max_corr_dist=0.15))
        rot, trans = pose_difference(res.transform, T_star)
        assert np.degrees(rot) < 0.1
        assert trans < 5e-3
        # The overlap crop keeps the far half of the sample out of the solve.
        assert res.correspondence_count < min(len(source), icp_mod.SOURCE_SAMPLE)

    @pytest.mark.parametrize("normals", ["estimated", "perpendicular"])
    def test_source_normals_are_ignored(self, room_cloud, rng, normals):
        # The result is the same, field for field, whatever normals the
        # source carries; perpendicular ones would fail any normal
        # agreement test between the two clouds.
        cloud, analytic = room_cloud
        T_star = small_perturbation(rng)
        target = estimate_normals(PointCloud(T_star.apply(cloud.points)), k=20,
                                  viewpoint=T_star.apply(np.zeros(3)))
        src_normals = (estimate_normals(cloud, k=20).normals if normals == "estimated"
                       else np.roll(analytic, 1, axis=1))   # axis-aligned faces
        bare = point_to_plane_icp(cloud, target)
        res = point_to_plane_icp(PointCloud(cloud.points, src_normals), target)
        assert_same_result(res, bare)
        assert res.stop_reason == bare.stop_reason

    def test_disjoint_clouds_raise(self, rng):
        a = PointCloud(rng.normal(size=(100, 3)))
        b_pts = rng.normal(size=(100, 3)) + np.array([100.0, 0, 0])
        b = estimate_normals(PointCloud(b_pts), k=10, viewpoint=(100.0, 0, 5))
        with pytest.raises(IcpError, match="zero correspondences"):
            point_to_plane_icp(a, b, RigidTransform.identity(),
                               IcpConfig(max_corr_dist=1.0))

    def test_single_plane_is_singular(self, rng):
        pts = np.column_stack([rng.uniform(-1, 1, 400), rng.uniform(-1, 1, 400),
                               np.zeros(400)])
        target = estimate_normals(PointCloud(pts), k=10, viewpoint=(0, 0, 5))
        with pytest.raises(IcpError, match="singular"):
            point_to_plane_icp(PointCloud(pts), target,
                               RigidTransform.identity())

    def test_final_error_not_worse_than_initial(self, room_cloud, rng):
        cloud, _ = room_cloud
        for _ in range(3):
            T_star = small_perturbation(rng, angle_deg=8.0, shift=0.2)
            target = estimate_normals(PointCloud(T_star.apply(cloud.points)),
                                      k=20, viewpoint=T_star.apply(np.zeros(3)))
            res = point_to_plane_icp(cloud, target, RigidTransform.identity())
            assert res.converged
            cfg = IcpConfig(max_corr_dist=res.max_corr_dist)
            final = eval_icp_error(cloud, target, res.transform, cfg)
            initial = eval_icp_error(cloud, target, RigidTransform.identity(), cfg)
            assert final <= initial + 1e-10

    def test_inner_step_decreases_fixed_correspondence_error(self, rng):
        # The Gauss-Newton update must never raise the objective when the
        # correspondences are held fixed (1e-10 slack for rounding).
        from panostitch.geometry import compose
        from panostitch.icp import _solve_step
        for _ in range(20):
            n = int(rng.integers(50, 300))
            src = rng.uniform(-2, 2, size=(n, 3))
            dst = src + rng.normal(scale=0.05, size=src.shape)
            normals = rng.normal(size=src.shape)
            normals /= np.linalg.norm(normals, axis=1, keepdims=True)
            T = small_perturbation(rng, angle_deg=rng.uniform(0, 10),
                                   shift=rng.uniform(0, 0.3))
            before = correspondence_error(src, dst, normals, T)
            xi = _solve_step(T.apply(src), dst, normals)
            T_next = compose(RigidTransform(rotation_exp(xi[:3]), xi[3:]), T)
            after = correspondence_error(src, dst, normals, T_next)
            assert after <= before + 1e-10

    def test_trace_starts_no_worse_than_initial(self, room_cloud, rng):
        cloud, _ = room_cloud
        T_star = small_perturbation(rng, angle_deg=6.0, shift=0.15)
        target = estimate_normals(PointCloud(T_star.apply(cloud.points)), k=20,
                                  viewpoint=T_star.apply(np.zeros(3)))
        res = point_to_plane_icp(cloud, target, RigidTransform.identity())
        assert res.error_trace[0] <= res.initial_error + 1e-10

    def test_determinism(self, room_cloud, rng):
        cloud, _ = room_cloud
        T_star = small_perturbation(rng)
        target = estimate_normals(PointCloud(T_star.apply(cloud.points)), k=20,
                                  viewpoint=T_star.apply(np.zeros(3)))
        r1 = point_to_plane_icp(cloud, target, RigidTransform.identity())
        r2 = point_to_plane_icp(cloud, target, RigidTransform.identity())
        assert r1.iterations == r2.iterations
        assert r1.final_error == r2.final_error
        np.testing.assert_array_equal(r1.transform.matrix(), r2.transform.matrix())

    @pytest.mark.parametrize("source_normals", [False, True])
    def test_final_error_is_eval_at_result_with_one_index(
            self, room_cloud, rng, monkeypatch, source_normals):
        cloud, _ = room_cloud
        T_star = small_perturbation(rng)
        target = estimate_normals(PointCloud(T_star.apply(cloud.points)), k=20,
                                  viewpoint=T_star.apply(np.zeros(3)))
        source = estimate_normals(cloud, k=20) if source_normals else cloud
        built = []

        class CountingIndex(icp_mod.PointIndex):
            def __post_init__(self):
                built.append(1)
                super().__post_init__()

        monkeypatch.setattr(icp_mod, "PointIndex", CountingIndex)
        res = point_to_plane_icp(source, target, RigidTransform.identity())
        assert len(built) == 1
        assert res.final_error == eval_icp_error(
            source, target, res.transform,
            IcpConfig(max_corr_dist=res.max_corr_dist))

    def test_empty_inputs_rejected(self, room_cloud):
        cloud, _ = room_cloud
        target = estimate_normals(cloud, k=10, viewpoint=(0, 0, 0))
        with pytest.raises(IcpError):
            point_to_plane_icp(PointCloud(np.empty((0, 3))), target)


class TestEvalIcpError:
    def test_zero_for_identical_clouds(self, room_cloud):
        cloud, _ = room_cloud
        target = estimate_normals(cloud, k=20, viewpoint=(0, 0, 0))
        err = eval_icp_error(cloud, target, RigidTransform.identity())
        assert err == 0.0

    def test_single_pair_unit_residual(self):
        # The points are 1 m apart: only a margin of at least 1 m grows the
        # boxes' overlap far enough to hold the source point.
        source = PointCloud(np.array([[0.0, 0.0, 1.0]]))
        target = PointCloud(np.array([[0.0, 0.0, 0.0]]),
                            np.array([[0.0, 0.0, 1.0]]))
        err = eval_icp_error(source, target, RigidTransform.identity(),
                             IcpConfig(max_corr_dist=10.0, overlap_margin=1.0))
        assert err == pytest.approx(1.0, abs=1e-15)

    def test_disjoint_clouds_raise(self, rng):
        source = PointCloud(rng.normal(size=(20, 3)))
        far = rng.normal(size=(20, 3)) + np.array([50.0, 0.0, 0.0])
        target = PointCloud(far, np.tile([0.0, 0, 1.0], (20, 1)))
        with pytest.raises(IcpError, match="zero correspondences"):
            eval_icp_error(source, target, RigidTransform.identity(),
                           IcpConfig(max_corr_dist=0.5))

    def test_boxes_meet_but_no_pair_within_max_dist_raises(self):
        # Overlapping boxes, so the crop keeps the source; the gate then
        # drops its only pair.
        source = PointCloud(np.array([[0.0, 0.0, 1.0]]))
        target = PointCloud(np.array([[0.0, 0.0, 0.0]]),
                            np.array([[0.0, 0.0, 1.0]]))
        with pytest.raises(IcpError, match="zero correspondences within 0.5 m"):
            eval_icp_error(source, target, RigidTransform.identity(),
                           IcpConfig(max_corr_dist=0.5, overlap_margin=1.0))

    def test_matches_brute_force_oracle(self, rng):
        src = PointCloud(rng.uniform(-1, 1, size=(60, 3)))
        dst_pts = rng.uniform(-1, 1, size=(80, 3))
        normals = rng.normal(size=(80, 3))
        normals /= np.linalg.norm(normals, axis=1, keepdims=True)
        dst = PointCloud(dst_pts, normals)
        for trial in range(5):
            T = small_perturbation(rng, angle_deg=rng.uniform(0, 20),
                                   shift=rng.uniform(0, 0.5))
            max_dist = 0.8
            cfg = IcpConfig(max_corr_dist=max_dist,
                            overlap_margin=1000.0)  # disable cropping
            got = eval_icp_error(src, dst, T, cfg)

            # Exhaustive re-computation with full distance matrices.
            moved = T.apply(src.points)
            d = np.linalg.norm(moved[:, None, :] - dst_pts[None, :, :], axis=2)
            nn = np.argmin(d, axis=1)
            dist = d[np.arange(len(moved)), nn]
            keep = dist <= max_dist
            r = np.einsum("ni,ni->n", moved[keep] - dst_pts[nn[keep]],
                          normals[nn[keep]])
            assert got == pytest.approx(float(r @ r), rel=1e-12)


def test_error_sum_does_not_depend_on_blas_threads():
    # OpenBLAS reads its thread count only when numpy loads, so each count
    # gets its own interpreter. A BLAS dot product splits a sum this long
    # across its threads, and the split changes the last bits.
    code = ("import numpy as np\n"
            "from panostitch.geometry import RigidTransform\n"
            "from panostitch.icp import correspondence_error\n"
            "p, q, n = np.random.default_rng(7).normal(size=(3, 200_000, 3))\n"
            "print(repr(correspondence_error(p, q, n, RigidTransform.identity())))\n")
    src = str(Path(icp_mod.__file__).parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    sums = [subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                           check=True, timeout=60,
                           env={**os.environ, "PYTHONPATH": path,
                                "OPENBLAS_NUM_THREADS": threads}).stdout
            for threads in ("1", "2")]
    assert sums[0] == sums[1]


class TestGradient:
    def test_matches_central_finite_differences(self, rng):
        src = rng.uniform(-2, 2, size=(200, 3))
        dst = src + rng.normal(scale=0.05, size=src.shape)
        normals = rng.normal(size=src.shape)
        normals /= np.linalg.norm(normals, axis=1, keepdims=True)
        eps = 1e-6
        for _ in range(10):
            T = small_perturbation(rng, angle_deg=rng.uniform(0, 15),
                                   shift=rng.uniform(0, 0.4))
            grad = correspondence_gradient(src, dst, normals, T)
            fd = np.zeros(6)
            for j in range(6):
                xi = np.zeros(6)
                xi[j] = eps
                plus = RigidTransform(rotation_exp(xi[:3]), xi[3:])
                minus = RigidTransform(rotation_exp(-xi[:3]), -xi[3:])
                from panostitch.geometry import compose
                e_plus = correspondence_error(src, dst, normals, compose(plus, T))
                e_minus = correspondence_error(src, dst, normals, compose(minus, T))
                fd[j] = (e_plus - e_minus) / (2 * eps)
            rel = np.linalg.norm(grad - fd) / max(np.linalg.norm(fd), 1e-12)
            assert rel < 1e-5


@pytest.fixture(scope="module")
def cycling_scene(resampled_pair):
    return resampled_room_scene(resampled_pair, CYCLING_SCENE_SEED)


def converging_case(case, room_cloud, rng, resampled_pair=None):
    """(source, target, T_init, cfg) of a run that ends on rel_tol."""
    cloud, _ = room_cloud
    if case == "identity":
        return (cloud, estimate_normals(cloud, k=20, viewpoint=(0, 0, 0)),
                RigidTransform.identity(), IcpConfig())
    if case == "perturbation":
        T_star = small_perturbation(rng)
        target = estimate_normals(PointCloud(T_star.apply(cloud.points)), k=20,
                                  viewpoint=T_star.apply(np.zeros(3)))
        return cloud, target, RigidTransform.identity(), IcpConfig()
    if case == "partial-overlap":
        pts, _ = sample_room_cloud(EXTENT, 30000, 0.1, rng)
        pts = pts - np.array([0.0, 0.0, 1.5])
        diag = pts[:, 0] + pts[:, 1]
        T_star = small_perturbation(rng, angle_deg=3.0, shift=0.08)
        target = estimate_normals(PointCloud(T_star.apply(pts[diag > -1.5])), k=20,
                                  viewpoint=T_star.apply(np.zeros(3)))
        return (PointCloud(pts[diag < 1.5]), target, RigidTransform.identity(),
                IcpConfig(max_corr_dist=0.15))
    (source, target, T_init), _, _ = resampled_room_scene(
        resampled_pair, int(case.split("-")[1]))
    return source, target, T_init, IcpConfig()


def scripted_correspondences(monkeypatch, script, modulus=8):
    """Make the ICP loop see fixed correspondences: those of its first
    iteration, minus the source rows r with r % modulus == script[i] at
    iteration i (the last entry repeats). Other correspondence searches,
    such as the final error evaluation, run unchanged."""
    real = icp_mod._correspond
    state = {}

    def fake(src, T, index, max_dist):
        moved, rows, tgt_idx, max_dist = real(src, T, index, max_dist)
        if state.setdefault("src", src) is not src:
            return moved, rows, tgt_idx, max_dist
        state.setdefault("pairs", (rows, tgt_idx))
        calls = state["calls"] = state.get("calls", -1) + 1
        rows, tgt_idx = state["pairs"]
        keep = rows % modulus != script[min(calls, len(script) - 1)]
        return moved, rows[keep], tgt_idx[keep], max_dist

    monkeypatch.setattr(icp_mod, "_correspond", fake)


class TestStopRule:
    @pytest.mark.parametrize("case", ["identity", "perturbation", "partial-overlap",
                                      "resampled-1", "resampled-3", "resampled-5"])
    def test_converging_runs_match_reference(self, room_cloud, rng, unsampled,
                                             resampled_pair, case):
        source, target, T_init, cfg = converging_case(case, room_cloud, rng,
                                                      resampled_pair)
        ref, _, _ = reference_icp(source, target, T_init, cfg)
        res = point_to_plane_icp(source, target, T_init, cfg)
        assert ref.converged and res.stop_reason == "rel_tol"
        assert_same_result(res, ref)

    def test_iteration_cap_matches_reference(self, cycling_scene):
        (source, target, T_init), _, _ = cycling_scene
        cfg = IcpConfig(max_iterations=3)
        ref, _, _ = reference_icp(source, target, T_init, cfg)
        res = point_to_plane_icp(source, target, T_init, cfg)
        assert res.stop_reason == "max_iterations" and not res.converged
        assert_same_result(res, ref)

    def test_cycle_stops_at_lowest_error_iterate(self, cycling_scene):
        (source, target, T_init), reg, gt = cycling_scene
        ref, assignments, poses = reference_icp(source, target, T_init)
        assert ref.iterations == 50 and not ref.converged

        res = point_to_plane_icp(source, target, T_init)
        assert res.stop_reason == "cycle" and not res.converged
        n = res.iterations
        assert n <= 15
        assert res.error_trace == ref.error_trace[:n]
        # The assignment after the last step taken is the first to repeat
        # one older than the one just before it.
        for i in range(2, n):
            assert not any(np.array_equal(assignments[i], assignments[j])
                           for j in range(i - 1))
        assert not np.array_equal(assignments[n], assignments[n - 1])
        start = max(j for j in range(n - 1)
                    if np.array_equal(assignments[n], assignments[j]))
        best = start + int(np.argmin(ref.error_trace[start:n]))
        assert np.array_equal(res.transform.matrix(), poses[best].matrix())

        crop = icp_mod._overlap_crop(source.points, target.points, T_init,
                                     IcpConfig().overlap_margin)
        rows = np.flatnonzero(assignments[best] >= 0)
        tgt = assignments[best][rows]
        assert res.correspondence_count == rows.size
        assert correspondence_error(source.points[crop][rows], target.points[tgt],
                                    target.normals[tgt], res.transform) \
            == min(res.error_trace[start:])
        assert res.final_error == eval_icp_error(
            source, target, res.transform, IcpConfig(max_corr_dist=res.max_corr_dist))

        rot, trans = pose_difference(res.transform, gt)
        assert np.degrees(rot) < 0.5 and trans < 0.01
        assert reg.icp.stop_reason == "cycle" and reg.icp.iterations == n
        assert np.array_equal(reg.T_fine.matrix(), res.transform.matrix())

    # (script of dropped row classes, stop step, step the repeat matches)
    @pytest.mark.parametrize("script, stop, start", [
        ([0, 1, 0], 2, 0),
        ([0, 1, 2, 3, 1], 4, 1),
        ([0, 1, 2, 3, 4, 5, 6, 1], 7, 1),
        ([0, 1, 1, 2, 1], 4, 2),    # matched against the latest repeat
    ], ids=["period-2", "period-3", "period-6", "after-fixed-point"])
    def test_cycle_of_any_period(self, room_cloud, rng, monkeypatch,
                                 script, stop, start):
        source, target, T_init, _ = converging_case("perturbation", room_cloud, rng)
        # A repeated set would meet the default rel_tol after one step.
        cfg = IcpConfig(rel_tol=1e-300)
        scripted_correspondences(monkeypatch, script)
        res = point_to_plane_icp(source, target, T_init, cfg)
        assert res.stop_reason == "cycle" and res.iterations == stop
        best = start + int(np.argmin(res.error_trace[start:]))

        scripted_correspondences(monkeypatch, script)
        upto = point_to_plane_icp(source, target, T_init,
                                  IcpConfig(max_iterations=best + 1, rel_tol=1e-300))
        assert res.error_trace[:best + 1] == upto.error_trace
        assert np.array_equal(res.transform.matrix(), upto.transform.matrix())
        assert res.correspondence_count == upto.correspondence_count
        assert res.final_error == upto.final_error

    def test_repeat_of_previous_iteration_is_not_a_cycle(self, room_cloud, rng,
                                                         unsampled, monkeypatch):
        # The same set at every iteration after the first: a fixed point
        # that rel_tol would end at once, so it is switched off here.
        source, target, T_init, _ = converging_case("perturbation", room_cloud, rng)
        cfg = IcpConfig(rel_tol=1e-300, max_iterations=10)
        scripted_correspondences(monkeypatch, [0, 1])
        ref, _, _ = reference_icp(source, target, T_init, cfg)
        scripted_correspondences(monkeypatch, [0, 1])
        res = point_to_plane_icp(source, target, T_init, cfg)
        assert res.stop_reason != "cycle"
        assert_same_result(res, ref)


def bare_room_pair(n_source, n_target, seed=0):
    """A source room sample and a target sample of the same room moved by
    a small perturbation, both without normals."""
    rng = np.random.default_rng(seed)
    src, _ = sample_room_cloud(EXTENT, n_source, 0.2, rng)
    dst, _ = sample_room_cloud(EXTENT, n_target, 0.2, rng)
    T_star = small_perturbation(rng, angle_deg=2.0, shift=0.05)
    return PointCloud(src), PointCloud(T_star.apply(dst))


def assert_same_run(got: IcpResult, want: IcpResult) -> None:
    assert_same_result(got, want)
    assert got.stop_reason == want.stop_reason


class TestNormalsOnDemand:
    """A target without normals registers as if estimate_normals (viewpoint
    at its origin) had filled them all."""

    # Targets that end just before and after the first block boundary, and
    # one of 4 full blocks plus 3 points.
    @pytest.mark.parametrize("n", [icp_mod.NORMAL_BLOCK - 1, icp_mod.NORMAL_BLOCK + 1,
                                   4 * icp_mod.NORMAL_BLOCK + 3])
    def test_bit_equal_to_estimated_target(self, monkeypatch, n):
        source, bare = bare_room_pair(6000, n, seed=n)
        cfg = IcpConfig()
        full = estimate_normals(bare, k=cfg.normal_k, viewpoint=(0, 0, 0))
        want = point_to_plane_icp(source, full, cfg=cfg)
        # The neighbor queries' thread count is all that may vary here.
        for threads in ("1", "2", "8"):
            monkeypatch.setenv("PANOSTITCH_THREADS", threads)
            assert_same_run(point_to_plane_icp(source, bare, cfg=cfg), want)
            assert eval_icp_error(source, bare, want.transform, cfg) == \
                eval_icp_error(source, full, want.transform, cfg)

    def test_each_filled_normal_is_the_estimated_one(self, monkeypatch):
        # Batches that overlap, repeat indices and straddle block boundaries.
        _, bare = bare_room_pair(10, 3 * icp_mod.NORMAL_BLOCK + 5, seed=4)
        want = estimate_normals(bare, k=20, viewpoint=(0, 0, 0)).normals
        rng = np.random.default_rng(5)
        for threads in ("1", "8"):
            monkeypatch.setenv("PANOSTITCH_THREADS", threads)
            target = icp_mod._Target(bare, 20)
            for size in (1, 700, icp_mod.NORMAL_BLOCK + 1, 2 * icp_mod.NORMAL_BLOCK):
                idx = rng.integers(0, len(bare), size)
                assert np.array_equal(target.normals(idx), want[idx])

    def test_one_index_serves_normals_and_correspondences(self, monkeypatch):
        source, bare = bare_room_pair(3000, 3000)
        built = []

        class CountingIndex(icp_mod.PointIndex):
            def __post_init__(self):
                built.append(1)
                super().__post_init__()

        monkeypatch.setattr(icp_mod, "PointIndex", CountingIndex)
        point_to_plane_icp(source, bare)
        assert len(built) == 1

    def test_target_below_normal_k_raises(self):
        source, bare = bare_room_pair(500, 19)
        with pytest.raises(IcpError, match="needs >= k = 20"):
            point_to_plane_icp(source, bare)
        with pytest.raises(IcpError, match="needs >= k = 20"):
            eval_icp_error(source, bare, RigidTransform.identity())
        # Normals of its own: no neighborhood is needed.
        with_normals = PointCloud(bare.points, np.tile([0.0, 0.0, 1.0], (19, 1)))
        eval_icp_error(source, with_normals, RigidTransform.identity())


class TestSourceSample:
    def test_repeated_calls_agree(self):
        source, bare = bare_room_pair(12000, 8000, seed=1)
        first = point_to_plane_icp(source, bare)
        assert_same_run(point_to_plane_icp(source, bare), first)
        assert first.correspondence_count <= icp_mod.SOURCE_SAMPLE

    def test_registers_the_sorted_fixed_seed_sample(self, monkeypatch):
        # Drawn before the overlap crop, the crop then keeps sample rows.
        source, bare = bare_room_pair(12000, 8000, seed=2)
        rows = np.sort(np.random.default_rng(icp_mod.SAMPLE_SEED).choice(
            len(source), 5000, replace=False))
        sampled = point_to_plane_icp(source, bare)
        monkeypatch.setattr(icp_mod, "SOURCE_SAMPLE", None)
        assert_same_run(sampled, point_to_plane_icp(PointCloud(source.points[rows]), bare))

    @pytest.mark.parametrize("seed", range(3))
    def test_third_overlap_registers_on_the_cropped_sample(self, seed):
        # The band holds about a third of the source, so the crop leaves
        # about a third of the sample, and the pose still lands well
        # within the acceptance bounds.
        source, target, T_star = shared_band_pair(np.random.default_rng(seed), 0.75)
        res = point_to_plane_icp(source, target, RigidTransform.identity(),
                                 IcpConfig(max_corr_dist=0.15))
        assert res.correspondence_count < 0.4 * icp_mod.SOURCE_SAMPLE
        rot, trans = pose_difference(res.transform, T_star)
        assert np.degrees(rot) < 0.05 and trans < 1e-3

    @pytest.mark.parametrize("n", [100, 5000])
    def test_source_within_the_sample_is_not_sampled(self, monkeypatch, n):
        source, bare = bare_room_pair(n, 4000, seed=3)
        sampled = point_to_plane_icp(source, bare)
        monkeypatch.setattr(icp_mod, "SOURCE_SAMPLE", None)
        assert_same_run(sampled, point_to_plane_icp(source, bare))


class TestWorkerCount:
    def test_unset_or_empty_uses_every_cpu(self, monkeypatch):
        monkeypatch.delenv("PANOSTITCH_THREADS", raising=False)
        assert thread_count() == len(os.sched_getaffinity(0))
        monkeypatch.setenv("PANOSTITCH_THREADS", "")
        assert thread_count() == len(os.sched_getaffinity(0))

    def test_positive_integer_is_the_cap(self, monkeypatch):
        monkeypatch.setenv("PANOSTITCH_THREADS", "2")
        assert thread_count() == 2

    @pytest.mark.parametrize("value", ["abc", "0", "-3", "1.5", " 2"])
    def test_rejects_other_values(self, monkeypatch, value):
        monkeypatch.setenv("PANOSTITCH_THREADS", value)
        with pytest.raises(ValueError, match="PANOSTITCH_THREADS"):
            thread_count()

    def test_thread_count_resolves_every_cpu(self, monkeypatch):
        monkeypatch.delenv("PANOSTITCH_THREADS", raising=False)
        assert thread_count() == len(os.sched_getaffinity(0))
        monkeypatch.setenv("PANOSTITCH_THREADS", "3")
        assert thread_count() == 3
