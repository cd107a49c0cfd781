import numpy as np
import pytest

from panostitch.geometry import (Aabb, Plane, PointCloud, RigidTransform,
                                 compose, pose_difference)
from panostitch.scene import (AssetInstance, ManifestError, PairRegistration,
                              PlacementError, PlaneFitConfig, PlaneFitError,
                              RoomNode, SceneGraphError, SceneManifest,
                              fit_plane_ransac,
                              flatten_to_plane, inlier_stddev, load_manifest,
                              manifest_from_dict, manifest_to_dict, merge_rooms,
                              overlap_rms, place_asset, save_manifest)
from panostitch import _plane_search
from panostitch.testkit import SynthSceneConfig, synth_room_pair

from conftest import build_table_manifest as make_table_manifest, random_transform


def asset_snap_error(manifest: SceneManifest, asset: AssetInstance) -> float:
    """Distance from the asset's posed bottom face to its support plane."""
    sp = manifest.support_plane(asset.support_plane_id)
    mn, mx = asset.aabb_local.min, asset.aabb_local.max
    corners = np.array([[x, y, mn[2]] for x in (mn[0], mx[0]) for y in (mn[1], mx[1])])
    d = sp.plane.signed_distance(asset.pose.apply(corners))
    return float(np.max(np.abs(d)))


def two_room_manifest():
    pair = synth_room_pair(SynthSceneConfig(seed=23, cloud_point_count=3000))
    manifest = SceneManifest(
        rooms=[RoomNode(id="a", cloud=pair.cloud_a),
               RoomNode(id="b", cloud=pair.cloud_b)],
        pair_registrations=[PairRegistration("a", "b", pair.gt, pair.gt)],
        root_room="a")
    return manifest, pair


def chain_manifest(rng):
    """Rooms a - b - c, each pair mapping the first room's frame into the
    second's."""
    clouds = [PointCloud(rng.normal(size=(20, 3))) for _ in range(3)]
    T_ab = random_transform(rng)   # frame a -> frame b
    T_bc = random_transform(rng)
    return SceneManifest(
        rooms=[RoomNode(id=n, cloud=c) for n, c in zip("abc", clouds)],
        pair_registrations=[PairRegistration("a", "b", T_ab, T_ab),
                            PairRegistration("b", "c", T_bc, T_bc)],
        root_room="a")


def tree_manifest(rng):
    """Rooms a - b - c - d, with pair (c, b) pointing against the walk."""
    clouds = {n: PointCloud(rng.normal(size=(10, 3))) for n in "abcd"}
    regs = [PairRegistration(a, b, random_transform(rng), random_transform(rng))
            for a, b in (("a", "b"), ("c", "b"), ("c", "d"))]
    return SceneManifest(
        rooms=[RoomNode(id=n, cloud=c) for n, c in clouds.items()],
        pair_registrations=regs, root_room="a")


class TestMergeRooms:
    def test_single_room_unchanged(self, rng):
        cloud = PointCloud(rng.normal(size=(50, 3)))
        manifest = SceneManifest(rooms=[RoomNode(id="only", cloud=cloud)],
                                 root_room="only")
        merged = merge_rooms(manifest)
        rot, trans = pose_difference(merged.world_transforms["only"],
                                     RigidTransform.identity())
        assert rot == 0.0 and trans == 0.0
        np.testing.assert_array_equal(merged.cloud.points, cloud.points)

    def test_two_rooms_overlap_rms(self):
        manifest, pair = two_room_manifest()
        merged = merge_rooms(manifest)
        n_a = len(pair.cloud_a)
        cloud_a_world = PointCloud(merged.cloud.points[merged.room_ids == 0])
        cloud_b_world = PointCloud(merged.cloud.points[merged.room_ids == 1])
        assert len(cloud_a_world) == n_a
        assert overlap_rms(cloud_a_world, cloud_b_world) < 0.02

    def test_chain_composition(self, rng):
        manifest = chain_manifest(rng)
        T_ab, T_bc = (reg.T_fine for reg in manifest.pair_registrations)
        merged = merge_rooms(manifest)
        expected_c = compose(T_ab.inverse(), T_bc.inverse())
        rot, trans = pose_difference(merged.world_transforms["c"], expected_c)
        assert rot < 1e-12 and trans < 1e-12
        worlds = {"a": RigidTransform.identity(), "b": T_ab.inverse(), "c": expected_c}
        for name, expected in worlds.items():
            np.testing.assert_allclose(merged.world_transforms[name].matrix(),
                                       expected.matrix(), atol=1e-12)

    def test_tree_exactness_invariant(self, rng):
        manifest = tree_manifest(rng)
        merged = merge_rooms(manifest)
        for reg in manifest.pair_registrations:
            w_a = merged.world_transforms[reg.room_a]
            w_b = merged.world_transforms[reg.room_b]
            recovered = compose(w_b.inverse(), w_a)
            np.testing.assert_allclose(recovered.matrix(), reg.T_fine.matrix(),
                                       atol=1e-9)

    @pytest.mark.parametrize("build", [chain_manifest, tree_manifest],
                             ids=["chain", "tree"])
    def test_sets_each_room_local_to_world(self, rng, build):
        manifest = build(rng)
        merged = merge_rooms(manifest)
        for room in manifest.rooms:
            np.testing.assert_array_equal(room.local_to_world.matrix(),
                                          merged.world_transforms[room.id].matrix())

    def test_disconnected_graph(self, rng):
        manifest = SceneManifest(
            rooms=[RoomNode(id=n, cloud=PointCloud(rng.normal(size=(5, 3))))
                   for n in "abc"],
            pair_registrations=[PairRegistration("a", "b", random_transform(rng),
                                                 random_transform(rng))],
            root_room="a")
        with pytest.raises(SceneGraphError, match="disconnected"):
            merge_rooms(manifest)

    def test_cycle_detected(self, rng):
        regs = [PairRegistration(a, b, random_transform(rng),
                                 random_transform(rng))
                for a, b in [("a", "b"), ("b", "c"), ("c", "a")]]
        manifest = SceneManifest(
            rooms=[RoomNode(id=n, cloud=PointCloud(rng.normal(size=(5, 3))))
                   for n in "abc"],
            pair_registrations=regs, root_room="a")
        with pytest.raises(SceneGraphError, match="cycle"):
            merge_rooms(manifest)


class TestFitPlaneRansac:
    def test_noisy_tabletop_with_outliers(self, rng):
        n = 900
        table = np.column_stack([rng.uniform(-0.5, 0.5, n),
                                 rng.uniform(-0.5, 0.5, n),
                                 np.full(n, 0.8)])
        junk = rng.uniform(-1, 1, size=(100, 3))
        cloud = PointCloud(np.vstack([table, junk]))
        plane, inliers = fit_plane_ransac(cloud, seed=0)
        tilt = np.degrees(np.arccos(min(1.0, abs(plane.normal[2]))))
        assert tilt < 0.5
        assert abs(abs(plane.d) - 0.8) < 0.002
        assert inliers.size >= n * 0.99

    def test_three_points_exact_plane(self):
        pts = np.array([[0.0, 0, 0], [1.0, 0, 0], [0.0, 1.0, 1.0]])
        plane, inliers = fit_plane_ransac(PointCloud(pts),
                                          PlaneFitConfig(min_inliers=3), seed=0)
        assert inliers.size == 3
        np.testing.assert_allclose(plane.signed_distance(pts), 0.0, atol=1e-12)

    def test_collinear_points_rejected(self):
        pts = np.outer(np.linspace(0, 1, 30), [1.0, 2.0, 0.5])
        with pytest.raises(PlaneFitError):
            fit_plane_ransac(PointCloud(pts), PlaneFitConfig(min_inliers=3),
                             seed=0)

    def test_under_three_points(self):
        with pytest.raises(PlaneFitError):
            fit_plane_ransac(PointCloud(np.zeros((2, 3)) + np.eye(2, 3)),
                             seed=0)

    def test_determinism(self, rng):
        pts = rng.uniform(-1, 1, size=(500, 3))
        pts[:300, 2] = 0.1 * pts[:300, 0]
        cloud = PointCloud(pts)
        p1, i1 = fit_plane_ransac(cloud, seed=6)
        p2, i2 = fit_plane_ransac(cloud, seed=6)
        np.testing.assert_array_equal(p1.normal, p2.normal)
        np.testing.assert_array_equal(i1, i2)


class TestPlaneFitConfig:
    @pytest.mark.parametrize("field, value", [
        ("distance_threshold", float("nan")), ("distance_threshold", -0.01),
        ("distance_threshold", float("inf")), ("distance_threshold", True),
        ("iterations", 0), ("iterations", -3), ("iterations", 2.5),
        ("iterations", True), ("min_inliers", 0), ("min_inliers", -5),
        ("min_inliers", 2), ("min_inliers", 50.0)])
    def test_refused(self, field, value):
        with pytest.raises(ValueError, match="invalid plane fit config"):
            PlaneFitConfig(**{field: value})

    def test_defaults_and_ground_fit_construct(self):
        from panostitch.scale import GROUND_FIT
        assert PlaneFitConfig() == PlaneFitConfig(0.01, 1000, 50)
        assert GROUND_FIT == PlaneFitConfig(0.02, 500, 10)
        assert PlaneFitConfig(0.0, 1, 3).iterations == 1


def reference_triples(rng, n, count):
    """The plane search's triple sampler before sample_distinct took k:
    sample_distinct(rng, n, count, 3) must return its bytes."""
    if n <= 64:
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


class TestSampleDistinct:
    @pytest.mark.parametrize("n, count", [(40, 2000), (65, 2000), (100_000, 200_000)])
    def test_triples_have_the_reference_bytes(self, n, count):
        if n > 64:   # the first draw holds repeats, so rows are drawn again
            first = np.random.default_rng(n).integers(0, n, size=(count, 3))
            assert _plane_search._has_repeat(first).any()
        got = _plane_search.sample_distinct(np.random.default_rng(n), n, count, 3)
        want = reference_triples(np.random.default_rng(n), n, count)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("n", [8, 9, 64, 65, 2000])
    def test_rows_of_eight_are_distinct(self, n):
        idx = _plane_search.sample_distinct(np.random.default_rng(n), n, 2000, 8)
        assert idx.shape == (2000, 8)
        assert idx.min() >= 0 and idx.max() < n
        s = np.sort(idx, axis=1)
        assert (s[:, 1:] > s[:, :-1]).all()


def plane_candidates(pts, iterations, rng, axis=None, min_cos=0.0):
    """(normals, offsets) of the valid candidates, drawn as
    best_plane_support draws them, or None when there is none."""
    n = pts.shape[0]
    idx = _plane_search.sample_distinct(rng, n, iterations, 3)
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
    return normals, np.einsum("ij,ij->i", pts[idx[keep, 0]], normals)


def plane_residuals(p, n, d):
    """The oracle plane distance ((p0 n0 + p1 n1) + p2 n2) - d, added in
    that order; rows broadcast."""
    return (p[..., 0] * n[..., 0] + p[..., 1] * n[..., 1]) + p[..., 2] * n[..., 2] - d


def product_plane_support(pts, normals, offsets, threshold):
    """The scorer before the rounding band: each block of candidates scores
    the (points x candidates) product and sums its inlier bools down axis 0,
    and the winner's mask is the (points x normal) product. Its bits follow
    whichever BLAS kernel each product's shape selects."""
    n = pts.shape[0]
    rows = max(1, _plane_search._SCORE_BLOCK // min(n, _plane_search._POINT_BLOCK))
    best_count = -1
    best_normal = None
    best_offset = 0.0
    for start in range(0, len(normals), rows):
        nc = normals[start:start + rows]
        oc = offsets[start:start + rows]
        dist = np.abs(pts @ nc.T - oc[None, :])
        counts = (dist <= threshold).sum(axis=0)
        j = int(np.argmax(counts))
        if counts[j] > best_count:
            best_count = int(counts[j])
            best_normal = nc[j]
            best_offset = float(oc[j])

    mask = np.abs(pts @ best_normal - best_offset) <= threshold
    return mask, best_count


# The plane search's stop rule, written out here apart from the module.
STOP_CONFIDENCE = 0.999
FIRST_BATCH = 64


def reference_scored(counts, n, confidence=STOP_CONFIDENCE):
    """How many of the candidates, with these counts in draw order over n
    points, the plane search scores: batches of 64, 128, 256, ... until
    k >= log(1 - confidence) / log(1 - w^3), k the candidates so far and
    w their best count over n, or until the candidates run out."""
    k, size = 0, FIRST_BATCH
    while k < len(counts):
        k, size = min(k + size, len(counts)), 2 * size
        w = max(counts[:k]) / n
        with np.errstate(divide="ignore", invalid="ignore"):
            if k >= np.log(1 - confidence) / np.log(1 - w ** 3):
                break
    return k


def reference_plane_support(pts, iterations, threshold, rng, axis=None,
                            min_cos=0.0, confidence=STOP_CONFIDENCE):
    """Every candidate against every point by plane_residuals; of the
    prefix reference_scored keeps, the first maximum wins (confidence 1
    keeps every candidate, the full scan). best_plane_support must return
    the same mask and count. At a threshold above 0 (where no test that
    calls this puts a distance within the rounding band) the product
    scorer must agree on that prefix too, so masks away from the band are
    those of the product."""
    candidates = plane_candidates(pts, iterations, rng, axis, min_cos)
    if candidates is None:
        return None
    counts = [np.count_nonzero(np.abs(plane_residuals(pts, nrm, off))
                               <= threshold) for nrm, off in zip(*candidates)]
    k = reference_scored(counts, len(pts), confidence)
    normals, offsets = (c[:k] for c in candidates)
    top = int(np.argmax(counts[:k]))
    mask = np.abs(plane_residuals(pts, normals[top], offsets[top])) <= threshold
    if threshold > 0:
        product_mask, product_count = product_plane_support(pts, normals, offsets, threshold)
        assert np.array_equal(product_mask, mask) and product_count == counts[top]
    return mask, counts[top]


class _ScriptedTriples:
    """Stands in for the generator in sample_distinct (n > 64 draws one
    integers() block), so a test decides which candidate lands where."""

    def __init__(self, triples):
        self.triples = np.asarray(triples)

    def integers(self, low, high, size):
        assert size == self.triples.shape
        return self.triples.copy()


class TestBestPlaneSupport:
    @pytest.fixture
    def small_budget(self, monkeypatch):
        # 2000-point clouds then score 10 candidates per block.
        monkeypatch.setattr(_plane_search, "_SCORE_BLOCK", 20_000)

    def floor_and_wall(self, rng, n=2000):
        floor = np.column_stack([rng.uniform(-2, 2, n // 2), rng.uniform(-2, 2, n // 2),
                                 rng.normal(0.0, 0.004, n // 2)])
        wall = np.column_stack([rng.uniform(-2, 2, n // 4), np.full(n // 4, 2.0),
                                rng.uniform(0, 2.5, n // 4)])
        junk = rng.uniform(-2, 2, size=(n - n // 2 - n // 4, 3))
        return np.vstack([floor, wall, junk])

    # 1 and 7 iterations score every candidate. At 201 and 1000 the floor's
    # inlier ratio (about 0.49) stops the search after its first batch, 64
    # candidates in 7 blocks, unless the 10-degree gate leaves fewer valid.
    @pytest.mark.parametrize("iterations", [1, 7, 201, 1000])
    @pytest.mark.parametrize("tilt", [None, 10.0, 89.0])
    def test_matches_reference_over_several_chunks(self, small_budget, iterations, tilt):
        pts = self.floor_and_wall(np.random.default_rng(iterations))
        kw = {} if tilt is None else {"axis": np.array([0.0, 0.0, 1.0]),
                                      "min_cos": np.cos(np.deg2rad(tilt))}
        got = _plane_search.best_plane_support(pts, iterations, 0.01,
                                               np.random.default_rng(5), **kw)
        ref = reference_plane_support(pts, iterations, 0.01,
                                      np.random.default_rng(5), **kw)
        assert (got is None) == (ref is None)
        if ref is not None:
            assert np.array_equal(got[0], ref[0]) and got[1] == ref[1]

    @pytest.mark.parametrize("iterations", [1, 201, 300])
    @pytest.mark.parametrize("threshold", [0.0, 0.02])
    def test_grid_cloud_with_exact_ties_matches_reference(self, small_budget,
                                                          iterations, threshold):
        # Grid points lie exactly on many candidate planes, so distances
        # land on the threshold and expose any change in rounding.
        rng = np.random.default_rng(3)
        pts = np.round(rng.uniform(-1, 1, size=(2000, 3)), 1)
        got = _plane_search.best_plane_support(pts, iterations, threshold,
                                               np.random.default_rng(8))
        ref = reference_plane_support(pts, iterations, threshold,
                                      np.random.default_rng(8))
        assert np.array_equal(got[0], ref[0]) and got[1] == ref[1]

    @pytest.mark.parametrize("seed", range(5, 10))
    def test_lone_candidate_scores_like_reference(self, seed):
        # At threshold 0 the count is how many of the three sampled points
        # land exactly on their own plane by plane_residuals, whatever the
        # one-candidate product rounds their distances to.
        pts = np.random.default_rng(seed).normal(size=(200, 3))
        got = _plane_search.best_plane_support(pts, 1, 0.0,
                                               np.random.default_rng(seed))
        ref = reference_plane_support(pts, 1, 0.0, np.random.default_rng(seed))
        assert np.array_equal(got[0], ref[0]) and got[1] == ref[1]

    def test_table_scan_matches_reference(self, rng):
        # 100k points: 16 candidates per block at the module's _SCORE_BLOCK.
        n = 100_000
        pts = np.column_stack([rng.uniform(-0.6, 0.6, n), rng.uniform(-0.4, 0.4, n),
                               0.75 + rng.normal(0.0, 0.002, n)])
        pts[::5] = rng.uniform(-1, 1, size=(n // 5 + (n % 5 > 0), 3))
        got = _plane_search.best_plane_support(pts, 1000, 0.01,
                                               np.random.default_rng(2))
        ref = reference_plane_support(pts, 1000, 0.01, np.random.default_rng(2))
        assert np.array_equal(got[0], ref[0]) and got[1] == ref[1]

    def test_tie_goes_to_the_earlier_chunk(self, small_budget, rng):
        self.check_earlier_chunk_tie(rng)

    @staticmethod
    def check_earlier_chunk_tie(rng):
        # Two parallel 600-point planes; candidate 3 spans the lower one,
        # candidate 25 (third block) the upper one, the rest are junk.
        low = np.column_stack([rng.uniform(-1, 1, (600, 2)), np.zeros(600)])
        high = np.column_stack([rng.uniform(-1, 1, (600, 2)), np.ones(600)])
        junk = rng.uniform(-3, 3, size=(800, 3)) + [0.0, 0.0, 10.0]
        pts = np.vstack([low, high, junk])
        triples = 1200 + np.arange(30 * 3).reshape(30, 3)
        triples[3] = (0, 1, 2)
        triples[25] = (600, 601, 602)
        for later in (25, 4):   # a later block, then later in the same block
            scripted = triples.copy()
            if later != 25:
                scripted[[later, 25]] = scripted[[25, later]]
            mask, count = _plane_search.best_plane_support(
                pts, 30, 0.01, _ScriptedTriples(scripted))
            assert count == 600
            assert np.array_equal(np.flatnonzero(mask), np.arange(600))
            ref = reference_plane_support(pts, 30, 0.01, _ScriptedTriples(scripted))
            assert np.array_equal(mask, ref[0]) and count == ref[1]

    # Clouds one point short of a point block, exactly one, one point over,
    # and three blocks plus a remainder.
    @pytest.mark.parametrize("n", [_plane_search._POINT_BLOCK - 1,
                                   _plane_search._POINT_BLOCK,
                                   _plane_search._POINT_BLOCK + 1,
                                   3 * _plane_search._POINT_BLOCK + 123])
    @pytest.mark.parametrize("threads", ["1", "2", "8"])
    def test_point_blocks_and_threads_match_reference(self, monkeypatch, threads, n):
        monkeypatch.setenv("PANOSTITCH_THREADS", threads)
        # 21 candidates per block: the floor stops the search after its
        # first batch of 64 (of 101 draws), three full blocks and a last
        # block of one candidate, scored by a one-row product.
        monkeypatch.setattr(_plane_search, "_SCORE_BLOCK",
                            21 * min(n, _plane_search._POINT_BLOCK))
        pts = self.floor_and_wall(np.random.default_rng(n), n)
        got = _plane_search.best_plane_support(pts, 101, 0.01,
                                               np.random.default_rng(5))
        ref = reference_plane_support(pts, 101, 0.01, np.random.default_rng(5))
        assert np.array_equal(got[0], ref[0]) and got[1] == ref[1]

    @pytest.mark.parametrize("seed", [17, 18, 19])
    @pytest.mark.parametrize("threads", ["1", "2", "8"])
    def test_lone_candidate_across_point_blocks_and_threads(self, monkeypatch,
                                                            threads, seed):
        # As test_lone_candidate_scores_like_reference, over three point
        # blocks, each scored by a one-row product.
        monkeypatch.setenv("PANOSTITCH_THREADS", threads)
        n = 2 * _plane_search._POINT_BLOCK + 77
        pts = np.random.default_rng(seed).normal(size=(n, 3))
        got = _plane_search.best_plane_support(pts, 1, 0.0,
                                               np.random.default_rng(seed))
        ref = reference_plane_support(pts, 1, 0.0, np.random.default_rng(seed))
        assert np.array_equal(got[0], ref[0]) and got[1] == ref[1]

    @pytest.mark.parametrize("blocks", [1, 3])
    @pytest.mark.parametrize("threads", ["1", "2", "8"])
    def test_one_point_tail_scores_like_reference(self, monkeypatch, threads, blocks):
        # A cloud one point past whole blocks. At threshold 0 a count is how
        # many of its three points land exactly on their plane, and the last
        # point is scored by a one-column product, which rounds unlike the
        # full product, in the triples that hold it.
        monkeypatch.setenv("PANOSTITCH_THREADS", threads)
        n = blocks * _plane_search._POINT_BLOCK + 1
        rng = np.random.default_rng(blocks)
        pts = rng.normal(size=(n, 3))
        triples = np.array([rng.choice(n - 1, 3, replace=False) for _ in range(8)])
        triples[np.arange(8), np.arange(8) % 3] = n - 1
        # Each triple alone, twice in one block (so its count decides the
        # result), and all eight in one block.
        scripts = [t[None] for t in triples] + [np.stack([t, t]) for t in triples]
        for scripted in scripts + [triples]:
            got = _plane_search.best_plane_support(pts, len(scripted), 0.0,
                                                   _ScriptedTriples(scripted))
            ref = reference_plane_support(pts, len(scripted), 0.0,
                                          _ScriptedTriples(scripted))
            assert np.array_equal(got[0], ref[0]) and got[1] == ref[1]

    @pytest.mark.parametrize("threshold", [0.0, 0.02])
    @pytest.mark.parametrize("threads", ["1", "2", "8"])
    def test_grid_ties_across_point_blocks_and_threads(self, monkeypatch, threads,
                                                       threshold):
        monkeypatch.setenv("PANOSTITCH_THREADS", threads)
        n = 2 * _plane_search._POINT_BLOCK + 77
        monkeypatch.setattr(_plane_search, "_SCORE_BLOCK", 10 * _plane_search._POINT_BLOCK)
        pts = np.round(np.random.default_rng(3).uniform(-1, 1, size=(n, 3)), 1)
        got = _plane_search.best_plane_support(pts, 201, threshold,
                                               np.random.default_rng(8))
        ref = reference_plane_support(pts, 201, threshold, np.random.default_rng(8))
        assert np.array_equal(got[0], ref[0]) and got[1] == ref[1]

    @pytest.mark.parametrize("threads", ["1", "2", "8"])
    def test_tie_goes_to_the_earlier_chunk_on_any_thread_count(
            self, small_budget, rng, monkeypatch, threads):
        monkeypatch.setenv("PANOSTITCH_THREADS", threads)
        self.check_earlier_chunk_tie(rng)

    @staticmethod
    def two_planes_over_three_blocks(rng):
        """Three point blocks: a 5,000-point plane at z = 1, junk, then a
        5,000-point plane at z = 0 that starts 904 points before the last
        block, so after the second block its candidate has 904 inliers and
        exactly 5,000 reachable. Candidate 3 (first block of 10) spans the
        lower plane, candidate 25 (third block) the upper one, the rest
        junk."""
        b = _plane_search._POINT_BLOCK
        n, c = 3 * b, b + 904
        high = np.column_stack([rng.uniform(-1, 1, (c, 2)), np.ones(c)])
        junk = rng.uniform(-3, 3, size=(n - 2 * c, 3)) + [0.0, 0.0, 10.0]
        low = np.column_stack([rng.uniform(-1, 1, (c, 2)), np.zeros(c)])
        triples = c + np.arange(30 * 3).reshape(30, 3)
        triples[3] = n - c + np.arange(3)
        triples[25] = np.arange(3)
        return np.vstack([high, junk, low]), triples

    @staticmethod
    def support_counts(pts, triples, threshold):
        """support's counts for the scripted candidates, all in one call from
        best -1, after best_plane_support is checked against the reference."""
        got = _plane_search.best_plane_support(pts, len(triples), threshold,
                                               _ScriptedTriples(triples))
        ref = reference_plane_support(pts, len(triples), threshold,
                                      _ScriptedTriples(triples))
        assert np.array_equal(got[0], ref[0]) and got[1] == ref[1]
        normals, offsets = plane_candidates(pts, len(triples), _ScriptedTriples(triples))
        a = np.column_stack([pts, -np.ones(len(pts))])
        count = _plane_search.support(a, np.broadcast_to(1.0, a.shape))
        return got, count(np.column_stack([normals, offsets]), threshold, -1)

    def test_later_chunk_pruned_whole(self, monkeypatch, rng):
        # The first block of 10 rows ends with 5,000; no junk candidate of
        # the second block can reach it once two point blocks are scored.
        # The upper plane's candidate in the third block ties it, so it is
        # scored to the end and the earlier candidate still wins.
        pts, triples = self.two_planes_over_three_blocks(rng)
        monkeypatch.setattr(_plane_search, "_SCORE_BLOCK", 10 * _plane_search._POINT_BLOCK)
        (mask, count), counts = self.support_counts(pts, triples, 0.01)
        assert count == 5000 and counts[3] == 5000 and counts[25] == 5000
        assert np.all(counts[10:20] == -1)
        assert np.array_equal(np.flatnonzero(mask), np.arange(len(pts) - 5000, len(pts)))

    def test_threshold_zero_chunk_down_to_one_survivor(self, monkeypatch):
        # At threshold 0 a grid point on a tilted plane counts only when
        # plane_residuals gives exactly 0, as it does for the points kept
        # below; the lone survivor is then scored by a one-row product.
        # Candidate 0 spans 200 points at z = 20 exactly; candidate 7 spans
        # 190 such grid points in the first point block and 20 in the
        # 20-point last one, so after the first point block it is the only
        # one of its block of 5 rows that can still reach 200, and it wins
        # with its last point block.
        rng = np.random.default_rng(0)
        b = _plane_search._POINT_BLOCK
        i, j = rng.integers(-30, 31, (2, 20_000))
        grid = np.round(np.column_stack([i, j, i + 2 * j]) * 0.1, 1)
        a = grid[0]
        normal = np.cross(grid[1] - a, grid[2] - a)
        normal /= np.linalg.norm(normal)
        offset = np.einsum("ij,ij->i", a[None], normal[None])[0]
        exact = 3 + np.flatnonzero(plane_residuals(grid[3:], normal, offset) == 0)
        table = np.column_stack([rng.uniform(-1, 1, (200, 2)), np.full(200, 20.0)])
        junk = rng.uniform(-3, 3, size=(b - 3 - 200 - 190, 3)) + [0.0, 0.0, 40.0]
        pts = np.vstack([grid[:3], table, grid[exact[:190]], junk, grid[exact[190:210]]])
        assert len(pts) == b + 20
        triples = 203 + 190 + np.arange(10 * 3).reshape(10, 3)
        triples[0] = (3, 4, 5)
        triples[7] = (0, 1, 2)
        monkeypatch.setattr(_plane_search, "_SCORE_BLOCK", 5 * b)
        (mask, count), counts = self.support_counts(pts, triples, 0.0)
        assert count >= 210 and counts[7] == count
        assert counts[0] == 200
        assert np.all(counts[[5, 6, 8, 9]] == -1)

    @pytest.mark.parametrize("threads", ["1", "2", "8"])
    def test_table_scan_on_any_thread_count(self, monkeypatch, threads):
        monkeypatch.setenv("PANOSTITCH_THREADS", threads)
        rng = np.random.default_rng(7)
        n = 100_000
        pts = np.column_stack([rng.uniform(-0.6, 0.6, n), rng.uniform(-0.4, 0.4, n),
                               0.75 + rng.normal(0.0, 0.005, n)])
        clutter = rng.random(n) < 0.25
        pts[clutter] = rng.uniform((-0.6, -0.4, 0.75), (0.6, 0.4, 1.05),
                                   size=(int(clutter.sum()), 3))
        got = _plane_search.best_plane_support(pts, 1000, 0.01,
                                               np.random.default_rng(4))
        ref = reference_plane_support(pts, 1000, 0.01, np.random.default_rng(4))
        assert np.array_equal(got[0], ref[0]) and got[1] == ref[1]

    def test_threshold_on_a_distance_the_product_rounds_differently(self):
        # On a table scan the product [n, d] . [p, -1] and plane_residuals
        # differ in the last bits of about a quarter of the entries. A
        # threshold on such an entry of the winner gives the product a wrong
        # count there; only the rounding band and its recheck give the
        # formula's.
        rng = np.random.default_rng(7)
        n = 20_000
        pts = np.column_stack([rng.uniform(-0.6, 0.6, n), rng.uniform(-0.4, 0.4, n),
                               0.75 + rng.normal(0.0, 0.005, n)])
        clutter = rng.random(n) < 0.25
        pts[clutter] = rng.uniform((-0.6, -0.4, 0.75), (0.6, 0.4, 1.05),
                                   size=(int(clutter.sum()), 3))
        normals, offsets = plane_candidates(pts, 100, np.random.default_rng(4))
        res = np.abs(plane_residuals(pts, normals[:, None], offsets[:, None]))
        product = np.abs(np.column_stack([normals, offsets]) @ np.vstack([pts.T, -np.ones(n)]))
        counts = (res <= 0.01).sum(axis=1)
        top = int(np.argmax(counts[:reference_scored(counts, n)]))
        differ = np.flatnonzero(product[top] != res[top])
        k = differ[np.argmin(np.abs(res[top, differ] - 0.01))]
        thresholds = [np.nextafter(res[top, k], 0.0), res[top, k], np.nextafter(res[top, k], 1.0)]
        assert any((product[top] <= t).sum() != (res[top] <= t).sum() for t in thresholds)
        for t in thresholds:
            counts = (res <= t).sum(axis=1)
            counts = counts[:reference_scored(counts, n)]
            mask, count = _plane_search.best_plane_support(pts, 100, t,
                                                           np.random.default_rng(4))
            assert count == counts.max()
            assert np.array_equal(mask, res[int(np.argmax(counts))] <= t)

    @pytest.fixture
    def scored_rows(self, monkeypatch):
        """Every candidate row (n, d) best_plane_support hands to support's
        counter, as tuples, in no particular order."""
        rows = []
        real = _plane_search.support

        def support(a, b):
            counts = real(a, b)

            def counting(hyps, threshold, best):
                rows.extend(map(tuple, hyps))
                return counts(hyps, threshold, best)
            return counting
        monkeypatch.setattr(_plane_search, "support", support)
        return rows

    @staticmethod
    def plane_in_box(rng, n, share):
        """A level plane holding `share` of n points, with 2 mm noise, the
        rest uniform in the same 2 m box."""
        m = int(share * n)
        plane = np.column_stack([rng.uniform(-1, 1, (m, 2)), rng.normal(0.0, 0.002, m)])
        return np.vstack([plane, rng.uniform(-1, 1, size=(n - m, 3))])

    @staticmethod
    def expected_rows(pts, iterations, rng, k):
        normals, offsets = plane_candidates(pts, iterations, rng)
        return sorted(map(tuple, np.column_stack([normals, offsets])[:k]))

    def test_low_inlier_ratio_scores_every_candidate(self, scored_rows):
        # w is about 0.1, so the rule asks for about 6,900 candidates and
        # the 1,000 draws are the cap: the search scores all of them, over
        # five batches, and equals the full scan. The plane's candidate is
        # number 806, in the fourth batch.
        pts = self.plane_in_box(np.random.default_rng(1), 2000, 0.1)
        got = _plane_search.best_plane_support(pts, 1000, 0.01, np.random.default_rng(1))
        full = reference_plane_support(pts, 1000, 0.01, np.random.default_rng(1),
                                       confidence=1.0)
        assert np.array_equal(got[0], full[0]) and got[1] == full[1]
        assert got[1] >= 200
        assert sorted(scored_rows) == self.expected_rows(pts, 1000,
                                                         np.random.default_rng(1), 1000)

    def test_table_scan_scores_only_its_first_batch(self, scored_rows):
        # A compose-style scan: a level table top with 65 % of 100,000
        # points, the floor below it with 15 %, and clutter above the table.
        # The top's w of about 0.65 needs about 22 candidates, so exactly
        # the first 64 valid ones are scored.
        rng = np.random.default_rng(11)
        n, top, floor = 100_000, 65_000, 15_000
        pts = np.vstack([
            np.column_stack([rng.uniform(-0.6, 0.6, top), rng.uniform(-0.4, 0.4, top),
                             0.75 + rng.normal(0.0, 0.002, top)]),
            np.column_stack([rng.uniform(-1.5, 1.5, (floor, 2)),
                             rng.normal(0.0, 0.002, floor)]),
            rng.uniform((-0.6, -0.4, 0.76), (0.6, 0.4, 1.35), size=(n - top - floor, 3))])
        got = _plane_search.best_plane_support(pts, 1000, 0.01, np.random.default_rng(2))
        assert len(scored_rows) == 64
        assert sorted(scored_rows) == self.expected_rows(pts, 1000,
                                                         np.random.default_rng(2), 64)
        ref = reference_plane_support(pts, 1000, 0.01, np.random.default_rng(2))
        assert np.array_equal(got[0], ref[0]) and got[1] == ref[1]
        assert got[1] >= top

    def test_stop_after_third_batch(self, monkeypatch, scored_rows):
        # w is about 0.31, so the rule asks for about 230 candidates and the
        # search stops after its third batch, at 448; one candidate per
        # block. The full scan's winner (number 801) is never scored.
        pts = self.plane_in_box(np.random.default_rng(1), 2000, 0.3)
        ref = reference_plane_support(pts, 1000, 0.01, np.random.default_rng(1))
        monkeypatch.setattr(_plane_search, "_SCORE_BLOCK", 1)
        mask, count = _plane_search.best_plane_support(pts, 1000, 0.01,
                                                       np.random.default_rng(1))
        assert np.array_equal(mask, ref[0]) and count == ref[1]
        assert sorted(scored_rows) == self.expected_rows(pts, 1000,
                                                         np.random.default_rng(1), 448)

    # 300 seeded 200-point normal clouds, 20 candidates each, at threshold 0:
    # each candidate's count is how many of its own three points land
    # exactly on its plane, where the product's rounding would decide.
    NORMAL_CLOUD_SEEDS = range(300)

    @staticmethod
    def normal_cloud_support(seed):
        pts = np.random.default_rng(seed).normal(size=(200, 3))
        return _plane_search.best_plane_support(pts, 20, 0.0, np.random.default_rng(seed))

    def test_count_is_the_mask_sum(self):
        bad = []
        for seed in self.NORMAL_CLOUD_SEEDS:
            mask, count = self.normal_cloud_support(seed)
            if np.count_nonzero(mask) != count:
                bad.append(seed)
        assert bad == []

    def test_result_depends_on_no_chunk_size_or_thread_count(self, monkeypatch):
        # One candidate per block, 7 and all 20. The plane search reads no
        # thread count; this checks that PANOSTITCH_THREADS changes nothing.
        bad = []
        for seed in self.NORMAL_CLOUD_SEEDS:
            results = []
            for block in (1, 1400, 4_000_000):
                for threads in ("1", "2"):
                    monkeypatch.setattr(_plane_search, "_SCORE_BLOCK", block)
                    monkeypatch.setenv("PANOSTITCH_THREADS", threads)
                    results.append(self.normal_cloud_support(seed))
            mask, count = results[0]
            if any(not np.array_equal(m, mask) or c != count for m, c in results[1:]):
                bad.append(seed)
        assert bad == []


class TestFlattenToPlane:
    def make_noisy_table(self, rng, noise=0.005):
        n = 400
        pts = np.column_stack([rng.uniform(-0.5, 0.5, n),
                               rng.uniform(-0.5, 0.5, n),
                               0.8 + rng.normal(0, noise, n)])
        extra = rng.uniform(2, 3, size=(50, 3))
        return PointCloud(np.vstack([pts, extra])), np.arange(n)

    def test_planar_inliers_unchanged(self, rng):
        cloud, inliers = self.make_noisy_table(rng, noise=0.0)
        plane = Plane((0, 0, 1.0), -0.8)
        flat = flatten_to_plane(cloud, plane, inliers)
        np.testing.assert_allclose(flat.points, cloud.points, atol=1e-12)

    def test_flatten_zeroes_inlier_variance(self, rng):
        cloud, inliers = self.make_noisy_table(rng)
        plane = Plane((0, 0, 1.0), -0.8)
        flat = flatten_to_plane(cloud, plane, inliers)
        assert inlier_stddev(flat, plane, inliers) == 0.0
        # Non-inlier points untouched.
        np.testing.assert_array_equal(flat.points[400:], cloud.points[400:])

    def test_idempotent(self, rng):
        cloud, inliers = self.make_noisy_table(rng)
        plane = Plane((0, 0, 1.0), -0.8)
        once = flatten_to_plane(cloud, plane, inliers)
        twice = flatten_to_plane(once, plane, inliers)
        np.testing.assert_array_equal(once.points, twice.points)

    def test_warns_on_spread_beyond_contract(self, rng):
        cloud, inliers = self.make_noisy_table(rng, noise=0.03)
        plane = Plane((0, 0, 1.0), -0.8)
        with pytest.warns(UserWarning, match="exceeds"):
            flatten_to_plane(cloud, plane, inliers)



class TestPlaceAsset:
    def test_cube_lands_on_plane(self, rng):
        manifest = make_table_manifest(rng)
        cube = Aabb((0, 0, 0), (0.1, 0.1, 0.1))
        asset = place_asset(manifest, "table", "cube", cube, seed=3)
        assert asset_snap_error(manifest, asset) <= 1e-3
        assert len(manifest.assets) == 1

    def test_oversized_asset_rejected(self, rng):
        manifest = make_table_manifest(rng)
        huge = Aabb((0, 0, 0), (3.0, 3.0, 0.5))
        with pytest.raises(PlacementError, match="does not fit"):
            place_asset(manifest, "table", "huge", huge, seed=0)

    def test_covered_plane_fails_after_attempts(self, rng):
        manifest = make_table_manifest(rng)
        # One asset whose box blankets the whole supported rectangle.
        blanket = Aabb((-0.5, -0.5, 0.0), (0.5, 0.5, 0.2))
        sp = manifest.support_plane("table")
        pose = RigidTransform(sp.frame_rotation(),
                              sp.center - sp.frame_rotation() @ np.zeros(3))
        manifest.assets.append(AssetInstance("blanket", blanket, pose, "table"))
        cube = Aabb((0, 0, 0), (0.1, 0.1, 0.1))
        with pytest.raises(PlacementError, match="collision-free"):
            place_asset(manifest, "table", "cube", cube, seed=1)

    def test_twenty_cubes_pairwise_disjoint(self, rng):
        manifest = make_table_manifest(rng)
        cube = Aabb((0, 0, 0), (0.1, 0.1, 0.1))
        for i in range(20):
            place_asset(manifest, "table", f"cube{i}", cube, seed=100 + i)
        boxes = [a.world_aabb() for a in manifest.assets]
        for i in range(len(boxes)):
            for j in range(i + 1, len(boxes)):
                assert not boxes[i].overlaps(boxes[j]), (i, j)
        for a in manifest.assets:
            assert asset_snap_error(manifest, a) <= 1e-3

    def test_same_seed_same_pose(self, rng):
        m1 = make_table_manifest(rng)
        m2 = make_table_manifest(np.random.default_rng(1234))
        cube = Aabb((0, 0, 0), (0.1, 0.1, 0.1))
        a1 = place_asset(m1, "table", "c", cube, seed=9)
        a2 = place_asset(m2, "table", "c", cube, seed=9)
        np.testing.assert_array_equal(a1.pose.matrix(), a2.pose.matrix())

    def test_unknown_plane(self, rng):
        manifest = make_table_manifest(rng)
        with pytest.raises(ManifestError):
            place_asset(manifest, "nope", "c", Aabb((0, 0, 0), (0.1, 0.1, 0.1)),
                        seed=0)


class TestManifestSerialization:
    def test_round_trip(self, rng, tmp_path):
        manifest = make_table_manifest(rng)
        cube = Aabb((0, 0, 0), (0.1, 0.1, 0.1))
        place_asset(manifest, "table", "cube", cube, "mug", seed=4)
        manifest.pair_registrations.append(
            PairRegistration("room", "room2", random_transform(rng),
                             random_transform(rng), {"note": 1}))
        manifest.rooms.append(RoomNode(id="room2", cloud_path="r2.ply"))

        path = tmp_path / "scene.json"
        save_manifest(path, manifest)
        back = load_manifest(path)
        assert [r.id for r in back.rooms] == ["room", "room2"]
        reg = back.pair_registrations[0]
        rot, trans = pose_difference(reg.T_fine,
                                     manifest.pair_registrations[0].T_fine)
        assert rot < 1e-12 and trans < 1e-12
        asset = back.assets[0]
        assert asset.semantic_label == "mug"
        assert asset_snap_error(back, asset) <= 1e-3
        # Serialization is stable: a second save emits identical bytes.
        path2 = tmp_path / "scene2.json"
        save_manifest(path2, back)
        save_manifest(tmp_path / "scene3.json", load_manifest(path2))
        assert (tmp_path / "scene2.json").read_bytes() == \
            (tmp_path / "scene3.json").read_bytes()

    def test_duplicate_room_ids_rejected(self):
        with pytest.raises(ManifestError, match="duplicate"):
            SceneManifest(rooms=[RoomNode(id="x"), RoomNode(id="x")])

    def test_asset_with_unknown_plane_rejected(self):
        cube = Aabb((0, 0, 0), (1, 1, 1))
        asset = AssetInstance("a", cube, RigidTransform.identity(), "ghost")
        with pytest.raises(ManifestError, match="unknown plane"):
            SceneManifest(assets=[asset])

    def test_unsupported_schema_version(self):
        with pytest.raises(ManifestError, match="schema"):
            manifest_from_dict({"schema_version": 99})

    def test_dict_shape(self, rng):
        manifest = make_table_manifest(rng)
        d = manifest_to_dict(manifest)
        assert d["schema_version"] == 1
        assert set(d) == {"schema_version", "root_room", "rooms",
                          "pair_registrations", "planes", "assets"}
