"""Synthetic ground-truth generators.

Rooms are analytic boxes (floor plus four walls, no ceiling) centered on
the origin in x/y with the floor at z = 0, so every surface normal and
plane offset is known exactly. Camera a sits at (0, 0, h) with axes
aligned to the world; camera b is placed by the configured ground-truth
relative pose (the same frame-a-to-frame-b map the pipeline estimates).
Keypoint "matches" are real projections of sampled room points into both
panoramas, with optional Gaussian pixel noise and labeled uniform-random
outliers; there is no occlusion model.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .geometry import PointCloud, RigidTransform, rot_z
from .metrics import EpisodeRecord, Tier
from .panorama import PanoramaSpec, bearing_to_pixel
from .epipolar import RelativePose


class SynthError(ValueError):
    """Invalid synthetic-scene configuration."""


@dataclass(frozen=True)
class SynthSceneConfig:
    room_extent: tuple[float, float, float] = (5.0, 4.0, 3.0)
    floor_point_count: int = 150
    wall_point_count: int = 150
    camera_height: float = 1.5
    gt_relative_pose: RigidTransform = field(
        default_factory=lambda: RigidTransform(rot_z(-0.2),
                                               np.array([-1.6, -0.4, 0.0])))
    pixel_noise_sigma: float = 0.0
    outlier_fraction: float = 0.0
    seed: int = 0
    pano_width: int = 2048
    cloud_point_count: int = 4000
    edge_margin: float = 0.15   # keep samples off face junctions

    def __post_init__(self):
        if not all(e > 0 for e in self.room_extent):
            raise SynthError(f"room_extent must be > 0, got {self.room_extent!r}")
        for key in ("floor_point_count", "wall_point_count", "cloud_point_count"):
            if getattr(self, key) <= 0:
                raise SynthError(f"{key} must be > 0, got {getattr(self, key)!r}")
        if self.camera_height <= 0:
            raise SynthError("camera height must be positive")
        if not self.pixel_noise_sigma >= 0:
            raise SynthError("pixel_noise_sigma must be >= 0, "
                             f"got {self.pixel_noise_sigma!r}")
        if not (0.0 <= self.outlier_fraction < 1.0):
            raise SynthError("outlier fraction must be in [0, 1)")


@dataclass(frozen=True)
class SynthRoomPair:
    """Everything a test needs to check the pipeline against ground truth."""

    match_data: dict                 # exact match-file JSON structure
    cloud_a: PointCloud              # metric, camera-a frame, with true normals
    cloud_b: PointCloud              # metric, camera-b frame, same surface points
    gt: RigidTransform               # frame a -> frame b
    outlier_mask: np.ndarray         # per match
    floor_mask: np.ndarray           # per match: endpoint lies on the floor
    match_points_a: np.ndarray       # true 3D positions, camera-a frame (metric)
    true_bearings_a: np.ndarray      # noiseless unit bearings, camera a
    true_bearings_b: np.ndarray
    scale_factor_k: float            # unit-baseline frame = k * metric frame
    gravity_a: np.ndarray            # direction toward the floor in frame a
    camera_height: float

    def gt_pose(self) -> RelativePose:
        t = self.gt.translation
        return RelativePose(self.gt.rotation, t / np.linalg.norm(t))


def _sample_box_faces(extent, counts_per_face, margin, rng) -> tuple[np.ndarray, np.ndarray]:
    """Sample points on the floor and four walls of the room box.

    Returns (points, inward_normals) in world coordinates. `counts_per_face`
    maps face index 0..4 (floor, x-, x+, y-, y+) to a sample count.
    """
    ex, ey, ez = extent
    hx, hy = ex / 2.0, ey / 2.0
    pts = []
    nrm = []
    for face, count in counts_per_face.items():
        if count <= 0:
            continue
        u = rng.uniform(-1.0, 1.0, size=count)
        v = rng.uniform(0.0, 1.0, size=count)
        if face == 0:      # floor z = 0, inward normal +z
            x = u * (hx - margin)
            y = (v * 2.0 - 1.0) * (hy - margin)
            p = np.column_stack([x, y, np.zeros(count)])
            n = np.tile([0.0, 0.0, 1.0], (count, 1))
        elif face in (1, 2):   # walls x = -hx / +hx
            sign = -1.0 if face == 1 else 1.0
            y = u * (hy - margin)
            z = margin + v * (ez - 2 * margin)
            p = np.column_stack([np.full(count, sign * hx), y, z])
            n = np.tile([-sign, 0.0, 0.0], (count, 1))
        else:                  # walls y = -hy / +hy
            sign = -1.0 if face == 3 else 1.0
            x = u * (hx - margin)
            z = margin + v * (ez - 2 * margin)
            p = np.column_stack([x, np.full(count, sign * hy), z])
            n = np.tile([0.0, -sign, 0.0], (count, 1))
        pts.append(p)
        nrm.append(n)
    return np.vstack(pts), np.vstack(nrm)


def sample_room_cloud(extent, count: int, margin: float,
                      rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Area-weighted sampling over the five room faces.

    Returns (points, inward_normals) in world coordinates; normals are
    exact, which makes the cloud usable as a normal-estimation oracle.
    """
    ex, ey, ez = extent
    areas = np.array([ex * ey, ey * ez, ey * ez, ex * ez, ex * ez])
    weights = areas / areas.sum()
    counts = np.floor(weights * count).astype(int)
    counts[0] += count - counts.sum()
    return _sample_box_faces(extent, dict(enumerate(counts)), margin, rng)


def _camera_b_world(cfg: SynthSceneConfig) -> tuple[np.ndarray, np.ndarray]:
    """(rotation, center) of camera b in world coordinates.

    The configured gt maps frame a to frame b: p_b = R p_a + t. With
    camera a axis-aligned at (0, 0, h), camera b's world rotation is
    R^T and its center is c_a - R^T t.
    """
    R = cfg.gt_relative_pose.rotation
    t = cfg.gt_relative_pose.translation
    c_a = np.array([0.0, 0.0, cfg.camera_height])
    return R.T, c_a - R.T @ t


def synth_room_pair(cfg: SynthSceneConfig) -> SynthRoomPair:
    """Generate a matched room pair with known registration answer.

    Output is a pure function of the config (same seed, byte-identical
    artifacts). The match file follows the production JSON schema; the
    clouds are metric and carry exact surface normals.
    """
    rng = np.random.default_rng(cfg.seed)
    spec = PanoramaSpec(cfg.pano_width, cfg.pano_width // 2)
    c_a = np.array([0.0, 0.0, cfg.camera_height])
    R_b, c_b = _camera_b_world(cfg)

    ex, ey, ez = cfg.room_extent
    if not (abs(c_b[0]) < ex / 2 and abs(c_b[1]) < ey / 2 and 0 < c_b[2] < ez):
        raise SynthError(
            f"camera b at {c_b} falls outside the room; no co-visible points")

    # Matched keypoints: floor first, then walls split across the 4 faces.
    wall_counts = np.full(4, cfg.wall_point_count // 4)
    wall_counts[: cfg.wall_point_count % 4] += 1
    counts = {0: cfg.floor_point_count}
    counts.update({i + 1: int(c) for i, c in enumerate(wall_counts)})
    X, _ = _sample_box_faces(cfg.room_extent, counts, cfg.edge_margin, rng)
    n_matches = X.shape[0]
    floor_mask = np.zeros(n_matches, dtype=bool)
    floor_mask[: cfg.floor_point_count] = True

    dirs_a = X - c_a
    ba = dirs_a / np.linalg.norm(dirs_a, axis=1, keepdims=True)
    dirs_b = (X - c_b) @ R_b          # row-wise R_b^T @ (X - c_b)
    bb = dirs_b / np.linalg.norm(dirs_b, axis=1, keepdims=True)

    ua, va = bearing_to_pixel(ba, spec)
    ub, vb = bearing_to_pixel(bb, spec)
    if cfg.pixel_noise_sigma > 0:
        noise = rng.normal(0.0, cfg.pixel_noise_sigma, size=(4, n_matches))
        ua = np.mod(ua + noise[0], spec.width)
        ub = np.mod(ub + noise[1], spec.width)
        vmax = np.nextafter(float(spec.height), 0.0)
        va = np.clip(va + noise[2], 0.0, vmax)
        vb = np.clip(vb + noise[3], 0.0, vmax)

    n_outliers = math.ceil(cfg.outlier_fraction * n_matches)
    outlier_mask = np.zeros(n_matches, dtype=bool)
    if n_outliers > 0:
        chosen = rng.choice(n_matches, size=n_outliers, replace=False)
        outlier_mask[chosen] = True
        ub = ub.copy()
        vb = vb.copy()
        ub[chosen] = rng.uniform(0.0, spec.width, size=n_outliers)
        vb[chosen] = rng.uniform(0.0, spec.height, size=n_outliers)

    scores = rng.uniform(0.5, 1.0, size=n_matches)
    match_data = {
        "pano_a": {"width": spec.width, "height": spec.height},
        "pano_b": {"width": spec.width, "height": spec.height},
        "matches": [
            {"ua": float(ua[i]), "va": float(va[i]), "ub": float(ub[i]),
             "vb": float(vb[i]), "score": float(scores[i])}
            for i in range(n_matches)
        ],
    }

    cloud_pts, cloud_nrm = sample_room_cloud(cfg.room_extent,
                                             cfg.cloud_point_count,
                                             cfg.edge_margin, rng)
    gt = cfg.gt_relative_pose
    cloud_a = PointCloud(cloud_pts - c_a, cloud_nrm)
    cloud_b = cloud_a.transformed(gt)

    baseline = float(np.linalg.norm(gt.translation))
    return SynthRoomPair(
        match_data=match_data,
        cloud_a=cloud_a,
        cloud_b=cloud_b,
        gt=gt,
        outlier_mask=outlier_mask,
        floor_mask=floor_mask,
        match_points_a=X - c_a,
        true_bearings_a=ba,
        true_bearings_b=bb,
        scale_factor_k=1.0 / baseline,
        gravity_a=np.array([0.0, 0.0, -1.0]),
        camera_height=cfg.camera_height,
    )


# ---------------------------------------------------------------------------
# Episode synthesis
# ---------------------------------------------------------------------------

EPISODE_SHORTEST_LEN_RANGE = (2.0, 10.0)   # meters, drawn uniformly
EPISODE_MEAN_DETOUR = 0.3   # actual = shortest * (1 + Exp(EPISODE_MEAN_DETOUR))


@dataclass(frozen=True)
class EpisodeSpec:
    task: str
    tier: Tier
    n_trials: int
    true_rate: float
    exact_counts: bool = False        # successes = round(rate * n), shuffled

    def __post_init__(self):
        if not 0.0 <= self.true_rate <= 1.0:
            raise SynthError(f"true_rate must be in [0, 1], got {self.true_rate!r}")
        if self.n_trials <= 0:
            raise SynthError(f"n_trials must be > 0, got {self.n_trials!r}")


@dataclass(frozen=True)
class SynthEpisodes:
    episodes: list[EpisodeRecord]
    empirical_sr: dict[tuple[str, Tier], float]


def synth_episodes(specs: list[EpisodeSpec], seed: int = 0) -> SynthEpisodes:
    """Seeded episode logs with the realized per-cell rates recorded."""
    rng = np.random.default_rng(seed)
    episodes: list[EpisodeRecord] = []
    empirical: dict[tuple[str, Tier], float] = {}
    for s in specs:
        if s.exact_counts:
            wins = int(round(s.true_rate * s.n_trials))
            outcomes = np.zeros(s.n_trials, dtype=bool)
            outcomes[:wins] = True
            rng.shuffle(outcomes)
        else:
            outcomes = rng.uniform(size=s.n_trials) < s.true_rate
        shortest = rng.uniform(*EPISODE_SHORTEST_LEN_RANGE, size=s.n_trials)
        detour = rng.exponential(EPISODE_MEAN_DETOUR, size=s.n_trials)
        for ok, l, dt in zip(outcomes, shortest, detour):
            episodes.append(EpisodeRecord(
                task=s.task, tier=s.tier, success=bool(ok),
                shortest_path_len=float(l),
                actual_path_len=float(l * (1.0 + dt))))
        empirical[(s.task, s.tier)] = float(np.mean(outcomes))
    return SynthEpisodes(episodes=episodes, empirical_sr=empirical)
