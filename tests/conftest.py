import functools

import numpy as np
import pytest

from panostitch.geometry import PointCloud, RigidTransform, rot_z
from panostitch.panorama import parse_match_dict
from panostitch.scene import (RoomNode, SceneManifest, fit_plane_ransac,
                              support_plane_from_inliers)
from panostitch.testkit import SynthSceneConfig, sample_room_cloud, synth_room_pair

# The room pose `panostitch synth` writes by default.
SYNTH_POSE = RigidTransform(rot_z(np.deg2rad(11.0)), np.array([-1.6, -0.4, 0.0]))


def random_rotation(rng: np.random.Generator) -> np.ndarray:
    """Uniform-ish random proper rotation via QR of a Gaussian matrix."""
    Q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    if np.linalg.det(Q) < 0:
        Q[:, 0] *= -1.0
    return Q


def random_transform(rng: np.random.Generator) -> RigidTransform:
    return RigidTransform(random_rotation(rng), rng.normal(size=3))


def build_table_manifest(rng, side=1.0, z=0.8):
    """Single-room manifest with one fitted table-top support plane."""
    n = 500
    pts = np.column_stack([rng.uniform(-side / 2, side / 2, n),
                           rng.uniform(-side / 2, side / 2, n),
                           np.full(n, z)])
    cloud = PointCloud(pts)
    plane, inliers = fit_plane_ransac(cloud, seed=1)
    sp = support_plane_from_inliers("table", cloud, plane, inliers)
    return SceneManifest(rooms=[RoomNode(id="room", cloud=cloud)],
                         planes=[sp], root_room="room")


@pytest.fixture(scope="session")
def clean_pair():
    """Noiseless synthetic room pair shared by oracle tests."""
    return synth_room_pair(SynthSceneConfig(seed=7))


@pytest.fixture(scope="session")
def clean_matches(clean_pair):
    return parse_match_dict(clean_pair.match_data)


@pytest.fixture(scope="session")
def noisy_pair():
    """1 px pixel noise, 30% labeled outliers."""
    return synth_room_pair(
        SynthSceneConfig(seed=11, pixel_noise_sigma=1.0, outlier_fraction=0.3))


@pytest.fixture(scope="session")
def noisy_matches(noisy_pair):
    return parse_match_dict(noisy_pair.match_data)


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture(scope="session")
def resampled_pair():
    """Factory: seed -> (SynthRoomPair, room B cloud) of a scene like the
    benchmark's match-heavy stitch. 3,000 points per room, 1,000 floor
    and 1,000 wall matches at 1 px noise and 40 % outliers, and room B
    sampled again from its own stream with 3 mm noise (noise_m), not
    copied from room A. Both clouds come without normals, as the CLI
    reads them. edge_margin keeps both rooms' samples that far off the
    face junctions; crop_m, if set, keeps only room B points within
    that horizontal distance of camera B, so the rooms overlap in part."""
    @functools.cache
    def build(seed, edge_margin=0.15, noise_m=0.003, crop_m=None):
        cfg = SynthSceneConfig(floor_point_count=1000, wall_point_count=1000,
                               pixel_noise_sigma=1.0, outlier_fraction=0.4,
                               seed=seed, cloud_point_count=3000,
                               gt_relative_pose=SYNTH_POSE, edge_margin=edge_margin)
        pair = synth_room_pair(cfg)
        rng_b = np.random.default_rng([seed, 1])
        pts, _ = sample_room_cloud(cfg.room_extent, 3000, cfg.edge_margin, rng_b)
        pts = pts - np.array([0.0, 0.0, cfg.camera_height])
        pts = SYNTH_POSE.apply(pts + rng_b.normal(0.0, noise_m, size=pts.shape))
        if crop_m is not None:
            pts = pts[np.linalg.norm(pts[:, :2], axis=1) <= crop_m]
        return pair, PointCloud(pts)
    return build
