"""Core spatial primitives shared by the whole pipeline.

Points and directions are plain float64 numpy arrays of shape (3,);
point sets are (N, 3). Rigid transforms are stored as a rotation matrix
plus a translation vector, which is the representation the point-to-plane
linearization consumes directly. All values are immutable after
construction and safe to share across threads. The module also holds
`from_json`, the one typed reader of the JSON configs.
"""

from __future__ import annotations

import dataclasses
import math
import os
import typing
from dataclasses import dataclass, field

import numpy as np

ROTATION_TOL = 1e-8
UNIT_TOL = 1e-9


class GeometryError(ValueError):
    """Invalid geometric input (non-finite values, broken invariants)."""


_NOUNS = {int: ("an integer", "integers"), float: ("a finite number", "finite numbers"),
          bool: ("true or false", "booleans"), str: ("a string", "strings")}


def is_json(value, tp) -> bool:
    """True if a decoded JSON value has annotation type `tp`: an int, or a
    finite int or float for float (neither a bool), a bool, a str, a
    fixed-length tuple (an array, each item of its own type) or `X | None`."""
    if tp is int or tp is float:
        return isinstance(value, (int, tp)) and not isinstance(value, bool) \
            and abs(value) < math.inf
    if tp is bool or tp is str:
        return isinstance(value, tp)
    args = typing.get_args(tp)
    if typing.get_origin(tp) is tuple:
        return isinstance(value, (list, tuple)) and len(value) == len(args) \
            and all(map(is_json, value, args))
    return value is None or is_json(value, args[0])    # X | None


def _describe(tp) -> str:
    args = typing.get_args(tp)
    if typing.get_origin(tp) is tuple:
        return f"{len(args)} {_NOUNS[args[0]][1]}"
    return _NOUNS[tp][0] if tp in _NOUNS else "null or " + _describe(args[0])


def from_json(cls, data, /, _path: str = "", **parsers):
    """Build the frozen dataclass `cls` from a decoded JSON object. Every key
    must be a field, and every field without a default a key; each value must
    have its field's type (is_json), a config dataclass field being read the
    same way from a nested object, or go through `parsers[name]` if it is a
    string. Faults raise ValueError naming the key, as in `ransac.threshold
    must be a finite number, got nan`; __post_init__ then checks ranges."""
    if not isinstance(data, dict):
        raise ValueError(f"{_path} must be an object, got {data!r}" if _path
                         else f"{data!r} is not an object")
    fields = dataclasses.fields(cls)
    required = {f.name for f in fields if f.default is dataclasses.MISSING
                and f.default_factory is dataclasses.MISSING}
    for what, keys in (("unknown", set(data) - {f.name for f in fields}),
                       ("missing", required - set(data))):
        if keys:
            where = f" in {_path}" if _path else ""
            raise ValueError(f"{what} keys {sorted(keys)}{where}")
    types = typing.get_type_hints(cls)
    kwargs = {}
    for name, value in data.items():
        key = f"{_path}.{name}" if _path else name
        tp = str if name in parsers else types[name]
        if dataclasses.is_dataclass(tp):
            value = from_json(tp, value, key)
        elif not is_json(value, tp):
            raise ValueError(f"{key} must be {_describe(tp)}, got {value!r}")
        elif name in parsers:
            value = parsers[name](value)
        kwargs[name] = tuple(value) if isinstance(value, list) else value
    return cls(**kwargs)


def as_vec3(v) -> np.ndarray:
    """Coerce to a finite float64 vector of shape (3,)."""
    a = np.asarray(v, dtype=np.float64).reshape(3)
    if not np.all(np.isfinite(a)):
        raise GeometryError(f"non-finite vector: {a}")
    return a


def as_points(pts) -> np.ndarray:
    """Coerce to a finite float64 array of shape (N, 3)."""
    a = np.asarray(pts, dtype=np.float64)
    if a.ndim == 1:
        a = a.reshape(1, 3)
    if a.ndim != 2 or a.shape[1] != 3:
        raise GeometryError(f"expected (N, 3) points, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise GeometryError("non-finite point coordinates")
    return a


def unit(v) -> np.ndarray:
    """Normalize to unit length; reject near-zero vectors."""
    a = as_vec3(v)
    n = float(np.linalg.norm(a))
    if n < 1e-12:
        raise GeometryError("cannot normalize a near-zero vector")
    return a / n


def check_unit(v, tol: float = UNIT_TOL) -> np.ndarray:
    a = as_vec3(v)
    if abs(float(np.linalg.norm(a)) - 1.0) > tol:
        raise GeometryError(f"vector is not unit length: |v| = {np.linalg.norm(a)}")
    return a


# ---------------------------------------------------------------------------
# Rotations
# ---------------------------------------------------------------------------

def is_rotation(R: np.ndarray, tol: float = ROTATION_TOL) -> bool:
    R = np.asarray(R, dtype=np.float64)
    if R.shape != (3, 3) or not np.all(np.isfinite(R)):
        return False
    if np.max(np.abs(R.T @ R - np.eye(3))) > tol:
        return False
    return abs(float(np.linalg.det(R)) - 1.0) <= tol


def check_rotation(R, tol: float = ROTATION_TOL) -> np.ndarray:
    R = np.asarray(R, dtype=np.float64)
    if not is_rotation(R, tol):
        raise GeometryError("matrix is not a proper rotation")
    return R


def skew(v) -> np.ndarray:
    """Skew-symmetric matrix [v]x with [v]x p = v x p."""
    x, y, z = as_vec3(v)
    return np.array([[0.0, -z, y], [z, 0.0, -x], [-y, x, 0.0]])


def rotation_from_axis_angle(axis, angle: float) -> np.ndarray:
    """Rodrigues formula for a rotation of `angle` radians about `axis`."""
    k = unit(axis)
    K = skew(k)
    return np.eye(3) + np.sin(angle) * K + (1.0 - np.cos(angle)) * (K @ K)


def rotation_exp(w) -> np.ndarray:
    """Exponential map from a rotation vector (axis * angle) to SO(3)."""
    w = as_vec3(w)
    theta = float(np.linalg.norm(w))
    if theta < 1e-12:
        W = skew(w)
        return np.eye(3) + W + 0.5 * (W @ W)
    return rotation_from_axis_angle(w / theta, theta)


def rotation_angle(R) -> float:
    """Angle of rotation in radians, in [0, pi]."""
    R = np.asarray(R, dtype=np.float64)
    c = np.clip((np.trace(R) - 1.0) * 0.5, -1.0, 1.0)
    return float(np.arccos(c))


def rot_z(angle: float) -> np.ndarray:
    return rotation_from_axis_angle((0.0, 0.0, 1.0), angle)


def rotation_to_quaternion(R) -> np.ndarray:
    """Unit quaternion (w, x, y, z) for a rotation matrix, w >= 0."""
    R = check_rotation(R)
    t = np.trace(R)
    if t > 0:
        s = np.sqrt(t + 1.0) * 2.0
        q = np.array([0.25 * s,
                      (R[2, 1] - R[1, 2]) / s,
                      (R[0, 2] - R[2, 0]) / s,
                      (R[1, 0] - R[0, 1]) / s])
    else:
        i = int(np.argmax(np.diag(R)))
        j, k = (i + 1) % 3, (i + 2) % 3
        s = np.sqrt(R[i, i] - R[j, j] - R[k, k] + 1.0) * 2.0
        q = np.empty(4)
        q[0] = (R[k, j] - R[j, k]) / s
        q[1 + i] = 0.25 * s
        q[1 + j] = (R[j, i] + R[i, j]) / s
        q[1 + k] = (R[k, i] + R[i, k]) / s
    if q[0] < 0:
        q = -q
    return q / np.linalg.norm(q)


def quaternion_to_rotation(q) -> np.ndarray:
    """Rotation matrix for a (w, x, y, z) quaternion (normalized first)."""
    q = np.asarray(q, dtype=np.float64).reshape(4)
    q = q / np.linalg.norm(q)
    w, x, y, z = q
    return np.array([
        [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
        [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
        [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
    ])


# ---------------------------------------------------------------------------
# Rigid transforms
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RigidTransform:
    """SE(3) pose: p_out = rotation @ p_in + translation (meters)."""

    rotation: np.ndarray
    translation: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "rotation", check_rotation(self.rotation))
        object.__setattr__(self, "translation", as_vec3(self.translation))
        self.rotation.flags.writeable = False
        self.translation.flags.writeable = False

    @staticmethod
    def identity() -> "RigidTransform":
        return RigidTransform(np.eye(3), np.zeros(3))

    def inverse(self) -> "RigidTransform":
        Rt = self.rotation.T
        return RigidTransform(Rt, -Rt @ self.translation)

    def apply(self, points: np.ndarray) -> np.ndarray:
        """Transform one point (3,) or many points (N, 3)."""
        p = np.asarray(points, dtype=np.float64)
        if p.ndim == 1:
            return self.rotation @ p + self.translation
        return p @ self.rotation.T + self.translation

    def matrix(self) -> np.ndarray:
        T = np.eye(4)
        T[:3, :3] = self.rotation
        T[:3, 3] = self.translation
        return T

    def to_quat_xyz(self) -> dict:
        """Serializable form: quaternion wxyz plus translation xyz."""
        return {
            "quat_wxyz": [float(v) for v in rotation_to_quaternion(self.rotation)],
            "translation_xyz": [float(v) for v in self.translation],
        }

    @staticmethod
    def from_quat_xyz(d: dict) -> "RigidTransform":
        return RigidTransform(quaternion_to_rotation(d["quat_wxyz"]),
                              as_vec3(d["translation_xyz"]))


def compose(a: RigidTransform, b: RigidTransform) -> RigidTransform:
    """Transform equal to applying b first, then a: compose(a, b)(p) = a(b(p))."""
    return RigidTransform(a.rotation @ b.rotation,
                          a.rotation @ b.translation + a.translation)


def pose_difference(a: RigidTransform, b: RigidTransform) -> tuple[float, float]:
    """(rotation angle rad, translation distance m) between two poses."""
    d = compose(a.inverse(), b)
    return rotation_angle(d.rotation), float(np.linalg.norm(d.translation))


# ---------------------------------------------------------------------------
# Point clouds
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PointCloud:
    """Positions in meters, with optional per-point unit normals."""

    points: np.ndarray
    normals: np.ndarray | None = None

    def __post_init__(self):
        pts = as_points(self.points) if len(self.points) else np.empty((0, 3))
        object.__setattr__(self, "points", pts)
        if self.normals is not None:
            nrm = as_points(self.normals)
            if nrm.shape != pts.shape:
                raise GeometryError(
                    f"normals shape {nrm.shape} does not match points {pts.shape}")
            object.__setattr__(self, "normals", nrm)
            self.normals.flags.writeable = False
        self.points.flags.writeable = False

    def __len__(self) -> int:
        return self.points.shape[0]

    def has_normals(self) -> bool:
        return self.normals is not None

    def transformed(self, T: RigidTransform) -> "PointCloud":
        nrm = None if self.normals is None else self.normals @ T.rotation.T
        return PointCloud(T.apply(self.points), nrm)

    def subset(self, indices) -> "PointCloud":
        idx = np.asarray(indices)
        nrm = None if self.normals is None else self.normals[idx]
        return PointCloud(self.points[idx], nrm)


def voxel_downsample(cloud: PointCloud, voxel: float) -> PointCloud:
    """Keep one representative point per cubic voxel (first by index).

    Deterministic: the surviving point of each voxel is the one with the
    lowest original index, so results do not depend on hash ordering.
    """
    if not (np.isfinite(voxel) and voxel > 0):
        raise GeometryError(f"voxel size must be finite and positive, got {voxel}")
    if len(cloud) == 0:
        return cloud
    with np.errstate(over="ignore"):
        scaled = np.floor(cloud.points / voxel)
    if not (scaled.min() >= -2.0**63 and scaled.max() < 2.0**63):
        raise GeometryError(f"voxel size {voxel} is too small for the cloud's "
                            "extent: voxel indices overflow int64")
    keys = scaled.astype(np.int64)
    # Stable sort by (x, y, z) key: each run of equal keys is one voxel and
    # starts at its lowest original index.
    order = np.lexsort(keys.T[::-1])
    sorted_keys = keys[order]
    run_start = np.ones(len(order), dtype=bool)
    run_start[1:] = np.any(sorted_keys[1:] != sorted_keys[:-1], axis=1)
    return cloud.subset(np.sort(order[run_start]))


# ---------------------------------------------------------------------------
# Planes and boxes
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Plane:
    """Plane {p : normal . p + d = 0} with unit normal, d in meters.

    Canonical orientation keeps d <= 0 (origin on the non-positive side);
    ties at d == 0 orient the first nonzero normal component positive.
    Callers needing a semantic direction re-orient explicitly.
    """

    normal: np.ndarray
    d: float

    def __post_init__(self):
        object.__setattr__(self, "normal", check_unit(unit(self.normal), 1e-12))
        object.__setattr__(self, "d", float(self.d))
        self.normal.flags.writeable = False

    def canonical(self) -> "Plane":
        n, d = self.normal, self.d
        if d > 0:
            return Plane(-n, -d)
        if d == 0:
            nz = np.nonzero(n)[0]
            if len(nz) and n[nz[0]] < 0:
                return Plane(-n, -0.0)
        return self

    def signed_distance(self, points) -> np.ndarray:
        return np.asarray(points, dtype=np.float64) @ self.normal + self.d

    def project(self, points) -> np.ndarray:
        """Orthogonal projection of points onto the plane."""
        p = np.asarray(points, dtype=np.float64)
        s = self.signed_distance(p)
        return p - np.multiply.outer(s, self.normal) if p.ndim > 1 else p - s * self.normal

    @staticmethod
    def from_point_normal(point, normal) -> "Plane":
        n = unit(normal)
        return Plane(n, -float(n @ as_vec3(point)))


def fit_plane_lsq(points: np.ndarray) -> Plane:
    """Least-squares plane through a point set (smallest covariance axis)."""
    pts = as_points(points)
    if pts.shape[0] < 3:
        raise GeometryError("plane fit needs at least 3 points")
    centroid = pts.mean(axis=0)
    _, s, vt = np.linalg.svd(pts - centroid, full_matrices=False)
    if s[1] < 1e-12 * max(s[0], 1e-300):
        raise GeometryError("points are collinear; plane is underdetermined")
    n = vt[2]
    return Plane.from_point_normal(centroid, n).canonical()


@dataclass(frozen=True)
class Aabb:
    """Axis-aligned box; min <= max componentwise, boundary counts as inside."""

    min: np.ndarray
    max: np.ndarray

    def __post_init__(self):
        mn, mx = as_vec3(self.min), as_vec3(self.max)
        if np.any(mn > mx):
            raise GeometryError(f"Aabb min {mn} exceeds max {mx}")
        object.__setattr__(self, "min", mn)
        object.__setattr__(self, "max", mx)
        self.min.flags.writeable = False
        self.max.flags.writeable = False

    @staticmethod
    def from_points(points) -> "Aabb":
        pts = as_points(points)
        if pts.shape[0] == 0:
            raise GeometryError("cannot bound an empty point set")
        return Aabb(pts.min(axis=0), pts.max(axis=0))

    def contains(self, points) -> np.ndarray:
        p = np.asarray(points, dtype=np.float64)
        single = p.ndim == 1
        p = np.atleast_2d(p)
        inside = np.all((p >= self.min) & (p <= self.max), axis=1)
        return bool(inside[0]) if single else inside

    def expanded(self, margin: float) -> "Aabb":
        return Aabb(self.min - margin, self.max + margin)

    def intersection(self, other: "Aabb") -> "Aabb | None":
        mn = np.maximum(self.min, other.min)
        mx = np.minimum(self.max, other.max)
        if np.any(mn > mx):
            return None
        return Aabb(mn, mx)

    def overlaps(self, other: "Aabb") -> bool:
        return bool(np.all(self.min <= other.max) and np.all(other.min <= self.max))


def screened_le(r: np.ndarray, threshold: float, band: float, exact,
                out: np.ndarray, scratch: np.ndarray) -> None:
    """out = |x| <= threshold for a 2-D array x of residuals defined by a
    fixed-order formula, exact(rows, cols), given a screen r within `band`
    of |x|: out = r <= threshold - band and scratch = r > threshold + band
    come from the screen, and only the entries the two leave over (in the
    band, or NaN) from exact, so no bit depends on how r was rounded
    (_plane_search.support derives its band).
    """
    np.less_equal(r, threshold - band, out=out)
    np.greater(r, threshold + band, out=scratch)
    if not np.logical_or(out, scratch, out=scratch).all():
        rows, cols = np.nonzero(~scratch)
        out[rows, cols] = np.abs(exact(rows, cols)) <= threshold


# ---------------------------------------------------------------------------
# Nearest-neighbor index
# ---------------------------------------------------------------------------

def thread_count() -> int:
    """Threads for KD-tree queries, the package's only parallel stage:
    the PANOSTITCH_THREADS cap (a positive decimal integer), or the
    number of CPUs this process may run on when it is unset or empty; any
    other value raises ValueError. Results do not depend on it."""
    cap = os.environ.get("PANOSTITCH_THREADS")
    if not cap:
        return len(os.sched_getaffinity(0))
    if not (cap.isascii() and cap.isdigit() and int(cap) > 0):
        raise ValueError(f"PANOSTITCH_THREADS must be a positive integer, got {cap!r}")
    return int(cap)


@dataclass
class PointIndex:
    """Exact nearest-neighbor index over a point cloud.

    Backed by a balanced axis-aligned KD partition (scipy cKDTree,
    imported when the first index is built: the commands that never
    build one skip the 0.4 s import of scipy.spatial).
    query resolves equal-distance ties to the lowest point index,
    matching a brute-force scan; knn returns them in cKDTree's order.
    """

    points: np.ndarray
    _tree: "cKDTree" = field(init=False, repr=False)

    def __post_init__(self):
        from scipy.spatial import cKDTree

        self.points = as_points(self.points)
        if self.points.shape[0] == 0:
            raise GeometryError("cannot index an empty point cloud")
        self._tree = cKDTree(self.points)

    def query(self, q) -> tuple[int, float]:
        """Index and Euclidean distance of the nearest point to q."""
        q = as_vec3(q)
        k = min(2, self.points.shape[0])
        dist, idx = self._tree.query(q, k=k)
        dist, idx = np.atleast_1d(dist), np.atleast_1d(idx)
        if k == 2 and dist[1] == dist[0]:
            # Exact tie: fall back to scanning every point at that distance.
            cand = self._tree.query_ball_point(q, dist[0] + 1e-12)
            d = np.linalg.norm(self.points[cand] - q, axis=1)
            exact = [c for c, dc in zip(cand, d) if dc == np.min(d)]
            return int(min(exact)), float(np.min(d))
        return int(idx[0]), float(dist[0])

    def knn(self, qs, k: int) -> tuple[np.ndarray, np.ndarray]:
        """k nearest neighbors per query point: (indices, distances), each
        (N, k), or (N,) at k = 1. Runs on thread_count() threads; results
        do not depend on the thread count."""
        qs = as_points(qs)
        dist, idx = self._tree.query(qs, k=k, workers=thread_count())
        return np.asarray(idx, dtype=np.int64), np.asarray(dist, dtype=np.float64)
