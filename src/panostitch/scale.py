"""Metric scale recovery from the known camera height.

Two-view triangulation fixes geometry only up to the unit-baseline
scale. Selecting the triangulated floor points and comparing their
median height below the camera with the known physical camera height
gives the scale factor that makes the relative translation metric:

    alpha = h / median(n . p_i  for p_i in ground points)

with n the floor-plane normal oriented from the camera toward the floor.
The floor fit is _plane_search.fit_plane with the settings GROUND_FIT
(inlier distance, iterations, minimum support) and the tilt gate
GROUND_MAX_TILT_DEG.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._plane_search import PlaneFitConfig, fit_plane
from .geometry import GeometryError, Plane, RigidTransform, unit
from .epipolar import RelativePose, TriangulatedSet

DEFAULT_CAMERA_HEIGHT = 1.5
GROUND_MAX_TILT_DEG = 10.0   # floor normal vs gravity tolerance
GROUND_FIT = PlaneFitConfig(0.02, 500, 10)   # inlier distance in unit-scale units


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
        if pts.shape[0] < GROUND_FIT.min_inliers:
            raise ValueError(f"ground model needs >= {GROUND_FIT.min_inliers} "
                             f"points, got {pts.shape[0]}")
        object.__setattr__(self, "ground_points", pts)

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
    g = unit(gravity)
    try:
        plane, mask = fit_plane(pts, GROUND_FIT, np.random.default_rng(seed), axis=g,
                                min_cos=np.cos(np.deg2rad(GROUND_MAX_TILT_DEG)))
    except GeometryError as e:
        raise GroundPlaneError(f"no gravity-consistent floor: {e}") from e
    return GroundModel(plane=plane, camera_height=cfg.camera_height,
                       ground_points=pts[mask])


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
