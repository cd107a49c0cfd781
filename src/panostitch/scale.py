"""Metric scale recovery from the known camera height.

Two-view triangulation fixes geometry only up to the unit-baseline
scale. Selecting the triangulated floor points and comparing their
median height below the camera with the known physical camera height
gives the scale factor that makes the relative translation metric:

    alpha = h / median(n . p_i  for p_i in ground points)

with n the floor-plane normal oriented from the camera toward the floor.
The floor fit's settings are the constants GROUND_ITERATIONS,
GROUND_PLANE_TOL, GROUND_MAX_TILT_DEG and GROUND_MIN_INLIERS.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._plane_search import best_plane_support
from .geometry import GeometryError, Plane, RigidTransform, fit_plane_lsq, unit
from .epipolar import RelativePose, TriangulatedSet

DEFAULT_CAMERA_HEIGHT = 1.5
GROUND_MAX_TILT_DEG = 10.0   # floor normal vs gravity tolerance
GROUND_PLANE_TOL = 0.02      # inlier distance, unit-scale units
GROUND_ITERATIONS = 500
GROUND_MIN_INLIERS = 10


class GroundPlaneError(RuntimeError):
    """No gravity-consistent floor plane with enough support."""


@dataclass(frozen=True)
class GroundConfig:
    camera_height: float = DEFAULT_CAMERA_HEIGHT   # meters above the floor

    def __post_init__(self):
        if not 0 < self.camera_height < np.inf:
            raise ValueError(f"camera height must be > 0, got {self.camera_height!r}")


@dataclass(frozen=True)
class GroundModel:
    """Floor plane, camera height, and the unit-scale floor points."""

    plane: Plane
    camera_height: float
    ground_points: np.ndarray

    def __post_init__(self):
        if self.camera_height <= 0:
            raise ValueError("camera height must be positive")
        pts = np.asarray(self.ground_points, dtype=np.float64)
        if pts.shape[0] < 10:
            raise ValueError(f"ground model needs >= 10 points, got {pts.shape[0]}")
        object.__setattr__(self, "ground_points", pts)
        if float(np.median(pts @ self.plane.normal)) <= 1e-6:
            raise ValueError("floor normal is not oriented toward the floor")

    def projections(self) -> np.ndarray:
        return self.ground_points @ self.plane.normal


def select_ground_points(points: TriangulatedSet, gravity,
                         cfg: GroundConfig = GroundConfig(),
                         seed: int = 0) -> GroundModel:
    """Gravity-constrained RANSAC floor fit over triangulated points.

    Candidate planes whose normal tilts more than GROUND_MAX_TILT_DEG
    away from the gravity direction are discarded, so walls never win the
    vote. The returned plane is refit by least squares on its inliers
    and oriented from the camera toward the floor.
    """
    pts = np.asarray(points.points, dtype=np.float64)
    n_pts = pts.shape[0]
    if n_pts < GROUND_MIN_INLIERS:
        raise GroundPlaneError(
            f"need >= {GROUND_MIN_INLIERS} triangulated points, got {n_pts}")
    g = unit(gravity)

    rng = np.random.default_rng(seed)
    found = best_plane_support(pts, GROUND_ITERATIONS, GROUND_PLANE_TOL, rng, axis=g,
                               min_cos=np.cos(np.deg2rad(GROUND_MAX_TILT_DEG)))
    if found is None or found[1] < GROUND_MIN_INLIERS:
        raise GroundPlaneError(
            f"no gravity-consistent plane with >= {GROUND_MIN_INLIERS} inliers")
    best_mask = found[0]

    try:
        plane = fit_plane_lsq(pts[best_mask])
    except GeometryError as e:
        raise GroundPlaneError(f"floor refit is degenerate: {e}") from e
    ground = pts[best_mask]
    if float(np.median(ground @ plane.normal)) < 0:
        plane = plane.flipped()
    return GroundModel(plane=plane, camera_height=cfg.camera_height,
                       ground_points=ground)


def recover_scale(g: GroundModel) -> float:
    """Scale factor mapping unit-baseline geometry to meters.

    alpha = camera_height / median of floor-point projections onto the
    floor normal. An even point count takes the mean of the two central
    values. Raises when the median is non-positive, which signals an
    upstream frame error (camera at or below the floor).
    """
    med = float(np.median(g.projections()))
    if med <= 1e-6:
        raise GroundPlaneError(
            f"median floor projection {med:.3g} is not positive; "
            "camera sits at or below the reconstructed floor")
    return g.camera_height / med


def apply_scale(pose: RelativePose, alpha: float) -> RigidTransform:
    """Metric coarse pose: rotation unchanged, translation = alpha * t_hat."""
    if not alpha > 0:
        raise ValueError(f"scale must be positive, got {alpha}")
    return RigidTransform(pose.rotation, alpha * pose.direction)
