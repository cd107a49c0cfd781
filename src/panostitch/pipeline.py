"""Per-pair registration: matches -> coarse metric pose -> ICP refinement.

One call runs the full chain for a room pair: essential-matrix
estimation over the bearing matches, pose decomposition, ground-point
triangulation, camera-height scale recovery, and point-to-plane
refinement between the (optionally downsampled) clouds.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass

import numpy as np

from .epipolar import (RansacConfig, decompose_essential, estimate_essential,
                       triangulate_set)
from ._trace import span
from .geometry import PointCloud, RigidTransform, unit, voxel_downsample
from .icp import IcpConfig, IcpResult, point_to_plane_icp
from .panorama import BearingMatchSet
from .scale import GroundConfig, apply_scale, recover_scale, select_ground_points

DEFAULT_VOXEL_SIZE = 0.02


def fork_seed(seed: int, label: str) -> int:
    """Derive a stable per-stage seed from the run seed and a label."""
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(zlib.crc32(label.encode()),))
    return int(ss.generate_state(1)[0])


@dataclass(frozen=True)
class PairConfig:
    ransac: RansacConfig = RansacConfig()
    ground: GroundConfig = GroundConfig()
    icp: IcpConfig = IcpConfig()
    gravity_axis: tuple[float, float, float] = (0.0, 0.0, -1.0)
    voxel_size: float | None = DEFAULT_VOXEL_SIZE   # None: no downsampling

    def __post_init__(self):
        unit(self.gravity_axis)  # rejects the zero vector
        if not (self.voxel_size is None or 0 < self.voxel_size < np.inf):
            raise ValueError(f"voxel_size must be > 0 or null, got {self.voxel_size!r}")


@dataclass(frozen=True)
class PairResult:
    T_coarse: RigidTransform
    T_fine: RigidTransform
    alpha: float
    essential: np.ndarray
    ransac_inlier_count: int
    low_confidence: bool
    icp: IcpResult

    def diagnostics(self) -> dict:
        """JSON-ready, deterministic diagnostic record (no timings)."""
        return {
            "alpha": self.alpha,
            "baseline_m": float(np.linalg.norm(self.T_coarse.translation)),
            "ransac_inlier_count": self.ransac_inlier_count,
            "low_confidence": self.low_confidence,
            "icp": {
                "iterations": self.icp.iterations,
                "converged": self.icp.converged,
                "stop_reason": self.icp.stop_reason,
                "initial_error": self.icp.initial_error,
                "final_error": self.icp.final_error,
                "correspondence_count": self.icp.correspondence_count,
                "max_corr_dist": self.icp.max_corr_dist,
                "error_trace": list(self.icp.error_trace),
            },
            "T_coarse": self.T_coarse.to_quat_xyz(),
            "T_fine": self.T_fine.to_quat_xyz(),
        }


def register_room_pair(matches: BearingMatchSet, cloud_a: PointCloud,
                       cloud_b: PointCloud, cfg: PairConfig = PairConfig(),
                       seed: int = 0) -> PairResult:
    """Estimate the metric transform taking cloud_a's frame into cloud_b's.

    ICP reads normals of cloud_b only: its own if it has them, otherwise
    estimated where its correspondences touch it, with the viewpoint at
    its origin, the camera center for panorama-derived reconstructions.
    cloud_a's normals are never read.
    """
    with span("epipolar.estimate_essential") as counts:
        est = estimate_essential(matches, cfg.ransac, seed=fork_seed(seed, "ransac"),
                                 gravity_axis=cfg.gravity_axis)
        counts.update(hypotheses=est.hypotheses, inliers=len(est.inlier_indices))
    with span("epipolar.decompose_essential"):
        pose = decompose_essential(est.matrix, matches, est.inlier_indices)
    with span("epipolar.triangulate_set"):
        tri = triangulate_set(matches, pose, est.inlier_indices)
    with span("scale.select_ground_points") as counts:
        ground = select_ground_points(tri, cfg.gravity_axis, cfg.ground,
                                      seed=fork_seed(seed, "ground"))
        counts["ground_points"] = len(ground.ground_points)
    alpha = recover_scale(ground)
    T_coarse = apply_scale(pose, alpha)

    clouds = []
    for c in (cloud_a, cloud_b):
        if cfg.voxel_size:
            with span("geometry.voxel_downsample", points=len(c)) as counts:
                c = voxel_downsample(c, cfg.voxel_size)
                counts["kept"] = len(c)
        clouds.append(c)
    with span("icp.point_to_plane_icp") as counts:
        icp_result = point_to_plane_icp(*clouds, T_coarse, cfg.icp)
        counts["iterations"] = icp_result.iterations

    return PairResult(T_coarse=T_coarse, T_fine=icp_result.transform,
                      alpha=alpha, essential=est.matrix,
                      ransac_inlier_count=int(len(est.inlier_indices)),
                      low_confidence=est.low_confidence, icp=icp_result)
