"""Scene assembly: merge registered rooms, extract support planes,
and place assets with physically valid alignment.

The registration graph must be a spanning tree over the rooms; pairwise
transforms map the first room's frame into the second's, and world
transforms are composed along tree paths from the chosen root room.

Manifest mutation (placement, registration appends) is single-writer;
reads are safe from any thread.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass, field

import numpy as np

from ._atomic import write_json
from ._plane_search import PlaneFitConfig, fit_plane
from .geometry import (Aabb, GeometryError, Plane, PointCloud, PointIndex,
                       RigidTransform, as_vec3, compose, is_json, rot_z, unit)

SCHEMA_VERSION = 1
FLATTEN_STDDEV_LIMIT = 0.01  # meters; pre-flatten inlier spread contract
ASSET_SNAP_TOL = 1e-3        # meters; bottom face must sit on the plane
PLACE_MAX_ATTEMPTS = 100


class SceneGraphError(RuntimeError):
    """Registration graph is not a spanning tree (disconnected or cyclic)."""


class PlaneFitError(RuntimeError):
    """RANSAC could not find a supported plane."""


class PlacementError(RuntimeError):
    """No valid pose for the requested asset."""


class ManifestError(ValueError):
    """Manifest contents violate the schema or its invariants."""


# ---------------------------------------------------------------------------
# Manifest types
# ---------------------------------------------------------------------------

@dataclass
class RoomNode:
    id: str
    cloud: PointCloud | None = None
    cloud_path: str | None = None
    local_to_world: RigidTransform = field(default_factory=RigidTransform.identity)


@dataclass
class PairRegistration:
    room_a: str
    room_b: str
    T_coarse: RigidTransform       # frame a -> frame b
    T_fine: RigidTransform
    diagnostics: dict = field(default_factory=dict)


@dataclass
class SupportPlane:
    """A fitted plane plus the rectangle of its supported region.

    center/u_axis/v_axis span the inlier bounding rectangle in plane
    coordinates; half_extent holds the rectangle half widths along
    (u_axis, v_axis).
    """

    id: str
    plane: Plane
    center: np.ndarray
    u_axis: np.ndarray
    v_axis: np.ndarray
    half_extent: tuple[float, float]

    def frame_rotation(self) -> np.ndarray:
        """World-from-plane rotation with columns (u, v, normal)."""
        return np.column_stack([self.u_axis, self.v_axis, self.plane.normal])

    def point_at(self, u: float, v: float) -> np.ndarray:
        return self.center + u * self.u_axis + v * self.v_axis


@dataclass
class AssetInstance:
    asset_id: str
    aabb_local: Aabb
    pose: RigidTransform
    support_plane_id: str
    semantic_label: str = ""

    def world_aabb(self) -> Aabb:
        """Conservative world-axis-aligned box of the posed asset."""
        mn, mx = self.aabb_local.min, self.aabb_local.max
        corners = np.array([[x, y, z] for x in (mn[0], mx[0])
                            for y in (mn[1], mx[1]) for z in (mn[2], mx[2])])
        return Aabb.from_points(self.pose.apply(corners))


@dataclass
class SceneManifest:
    rooms: list[RoomNode] = field(default_factory=list)
    pair_registrations: list[PairRegistration] = field(default_factory=list)
    planes: list[SupportPlane] = field(default_factory=list)
    assets: list[AssetInstance] = field(default_factory=list)
    root_room: str | None = None

    def __post_init__(self):
        ids = [r.id for r in self.rooms]
        if len(set(ids)) != len(ids):
            raise ManifestError(f"duplicate room ids: {ids}")
        plane_ids = {p.id for p in self.planes}
        for a in self.assets:
            if a.support_plane_id not in plane_ids:
                raise ManifestError(
                    f"asset {a.asset_id!r} references unknown plane "
                    f"{a.support_plane_id!r}")

    def support_plane(self, plane_id: str) -> SupportPlane:
        for p in self.planes:
            if p.id == plane_id:
                return p
        raise ManifestError(f"unknown plane {plane_id!r}")


# ---------------------------------------------------------------------------
# Room merging
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MergeResult:
    cloud: PointCloud
    room_ids: np.ndarray                      # index into manifest.rooms per point
    world_transforms: dict[str, RigidTransform]


def spanning_tree_order(room_ids, edges, root: str) -> list[tuple[int, str, str, bool]]:
    """Depth-first walk of the registration graph from the root room.

    edges lists (room_a, room_b) per registration. Returns one
    (edge index, reached-from room, reached room, reached room is
    room_b) entry per tree edge, in visit order, so a parent always
    precedes its children. Raises when the graph has a cycle or does
    not reach every room.
    """
    adj: dict[str, list[tuple[int, str, bool]]] = {i: [] for i in room_ids}
    if root not in adj:
        raise ManifestError(f"root room {root!r} is not in the manifest")
    for k, (a, b) in enumerate(edges):
        for endpoint in (a, b):
            if endpoint not in adj:
                raise ManifestError(f"registration references unknown room {endpoint!r}")
        adj[a].append((k, b, True))
        adj[b].append((k, a, False))

    order = []
    reached = {root}
    stack = [root]
    visited_edges: set[int] = set()
    while stack:
        cur = stack.pop()
        for edge_key, other, forward in adj[cur]:
            if edge_key in visited_edges:
                continue
            visited_edges.add(edge_key)
            if other in reached:
                raise SceneGraphError(
                    f"registration graph has a cycle through {cur!r} and {other!r}")
            reached.add(other)
            order.append((edge_key, cur, other, forward))
            stack.append(other)

    missing = [i for i in adj if i not in reached]
    if missing:
        raise SceneGraphError(f"registration graph disconnected; unreachable: {missing}")
    return order


def merge_rooms(manifest: SceneManifest) -> MergeResult:
    """Concatenate room clouds in the unified frame, labeling each point
    with its source room, and set each room's local_to_world.

    For a pair (a, b) with transform T mapping a-frame into b-frame,
    world(b) = world(a) o T^-1, which keeps the tree-exactness identity
    world(b)^-1 o world(a) = T. Poses compose from the root room along
    spanning_tree_order, which raises on a cycle or an unreachable room.
    """
    if not manifest.rooms:
        raise SceneGraphError("manifest has no rooms")
    ids = [r.id for r in manifest.rooms]
    root = manifest.root_room or ids[0]
    regs = manifest.pair_registrations
    world = {root: RigidTransform.identity()}
    for k, cur, other, forward in spanning_tree_order(
            ids, [(r.room_a, r.room_b) for r in regs], root):
        # forward: cur == room_a, T: cur -> other; world(other) = world(cur) o T^-1
        T = regs[k].T_fine
        world[other] = compose(world[cur], T.inverse() if forward else T)
    parts = []
    labels = []
    for i, room in enumerate(manifest.rooms):
        if room.cloud is None:
            raise ManifestError(f"room {room.id!r} has no loaded cloud")
        moved = room.cloud.transformed(world[room.id])
        parts.append(moved.points)
        labels.append(np.full(len(moved), i, dtype=np.int64))
    for room in manifest.rooms:   # set last: a refused manifest keeps its poses
        room.local_to_world = world[room.id]
    merged = PointCloud(np.vstack(parts))
    return MergeResult(cloud=merged, room_ids=np.concatenate(labels),
                       world_transforms=world)


def overlap_rms(cloud_a: PointCloud, cloud_b: PointCloud,
                max_dist: float = 0.2) -> float:
    """RMS nearest-neighbor distance between two clouds over their
    overlap region (pairs within max_dist)."""
    index = PointIndex(cloud_b.points)
    _, dist = index.knn(cloud_a.points, 1)
    near = dist[dist <= max_dist]
    if near.size == 0:
        return float("inf")
    return float(np.sqrt(np.mean(near ** 2)))


# ---------------------------------------------------------------------------
# Plane extraction and flattening
# ---------------------------------------------------------------------------

def fit_plane_ransac(cloud: PointCloud, cfg: PlaneFitConfig = PlaneFitConfig(),
                     seed: int = 0) -> tuple[Plane, np.ndarray]:
    """Largest-support plane in the cloud.

    cfg.iterations random 3-point candidates are drawn, and the valid ones
    are scored by inlier count under the distance threshold in draw-order
    batches of 64, 128, 256, ... until, with 99.9 % confidence, one of
    them was drawn from the best plane's inliers alone (see _plane_search),
    so cfg.iterations is a cap. The first candidate with the most inliers
    wins; it is refit by least squares on its inliers and the inlier set
    re-evaluated once against the refit. Support below cfg.min_inliers
    raises PlaneFitError at any cloud size.
    """
    try:
        plane, _ = fit_plane(cloud.points, cfg, np.random.default_rng(seed))
    except GeometryError as e:
        raise PlaneFitError(str(e)) from e
    dist = np.abs(plane.signed_distance(cloud.points))
    inliers = np.flatnonzero(dist <= cfg.distance_threshold)
    if inliers.size < cfg.min_inliers:
        raise PlaneFitError("refit plane lost its inlier support")
    return plane, inliers


def inlier_stddev(cloud: PointCloud, plane: Plane, inliers) -> float:
    """Standard deviation of signed inlier distances to the plane."""
    d = plane.signed_distance(cloud.points[np.asarray(inliers)])
    return float(np.std(d))


def flatten_to_plane(cloud: PointCloud, plane: Plane, inliers) -> PointCloud:
    """Project inlier points orthogonally onto the plane.

    Idempotent, and leaves non-inlier points untouched. The pre-flatten
    inlier spread is expected to be within FLATTEN_STDDEV_LIMIT (1 cm);
    a larger spread triggers a warning rather than an error. After
    flattening the recomputed inlier distances, and hence their
    variance, are exactly zero: the projection is iterated to its
    floating-point fixed point, so one rounding pass of the plane dot
    product cannot leave a residual behind.
    """
    idx = np.asarray(inliers, dtype=np.int64)
    spread = inlier_stddev(cloud, plane, idx)
    if spread > FLATTEN_STDDEV_LIMIT:
        warnings.warn(
            f"pre-flatten inlier stddev {spread * 100:.2f} cm exceeds "
            f"{FLATTEN_STDDEV_LIMIT * 100:.0f} cm; plane fit may be poor")
    pts = cloud.points.copy()
    flat = pts[idx]
    for _ in range(8):
        s = plane.signed_distance(flat)
        if not np.any(s):
            break
        flat = flat - np.outer(s, plane.normal)
    pts[idx] = flat
    normals = cloud.normals.copy() if cloud.has_normals() else None
    return PointCloud(pts, normals)


def support_plane_from_inliers(plane_id: str, cloud: PointCloud, plane: Plane,
                               inliers) -> SupportPlane:
    """Build the placement rectangle for a fitted plane.

    The rectangle is the principal-axis bounding box of the inliers
    projected into plane coordinates, so placement sampling covers the
    supported region tightly.
    """
    pts = plane.project(cloud.points[np.asarray(inliers)])
    centroid = pts.mean(axis=0)
    n = plane.normal
    # In-plane principal axes from the projected covariance.
    centered = pts - centroid
    cov = centered.T @ centered
    _, vecs = np.linalg.eigh(cov)
    u = vecs[:, 2] - (vecs[:, 2] @ n) * n
    u = unit(u)
    v = np.cross(n, u)
    cu = centered @ u
    cv = centered @ v
    center = centroid + ((cu.min() + cu.max()) / 2) * u + ((cv.min() + cv.max()) / 2) * v
    return SupportPlane(id=plane_id, plane=plane, center=center, u_axis=u,
                        v_axis=v,
                        half_extent=((cu.max() - cu.min()) / 2,
                                     (cv.max() - cv.min()) / 2))


# ---------------------------------------------------------------------------
# Asset placement
# ---------------------------------------------------------------------------

def _footprint_half_extent(aabb: Aabb, yaw: float) -> tuple[float, float]:
    """Half extents of the yawed box footprint re-fit to the plane axes."""
    hx, hy = (aabb.max[0] - aabb.min[0]) / 2, (aabb.max[1] - aabb.min[1]) / 2
    c, s = abs(np.cos(yaw)), abs(np.sin(yaw))
    return hx * c + hy * s, hx * s + hy * c


def place_asset(manifest: SceneManifest, plane_id: str, asset_id: str,
                aabb_local: Aabb, semantic_label: str = "",
                seed: int = 0) -> AssetInstance:
    """Sample a collision-free pose on a support plane.

    Position and yaw are drawn uniformly (seeded) over the plane's
    supported rectangle; the asset's bottom face is snapped onto the
    plane. Candidate poses overlapping an existing asset on the same
    plane are rejected and resampled, up to PLACE_MAX_ATTEMPTS times.
    The accepted instance is appended to the manifest.
    """
    sp = manifest.support_plane(plane_id)
    rng = np.random.default_rng(seed)
    existing = [a.world_aabb() for a in manifest.assets
                if a.support_plane_id == plane_id]
    base = sp.frame_rotation()
    mn, mx = aabb_local.min, aabb_local.max
    bottom_center = np.array([(mn[0] + mx[0]) / 2, (mn[1] + mx[1]) / 2, mn[2]])

    hx, hy = (mx[0] - mn[0]) / 2, (mx[1] - mn[1]) / 2
    hu, hv = sp.half_extent
    if not ((hx <= hu and hy <= hv) or (hy <= hu and hx <= hv)):
        raise PlacementError(
            f"asset {asset_id!r} does not fit the supported region of "
            f"plane {plane_id!r} at any axis-aligned yaw")

    for _ in range(PLACE_MAX_ATTEMPTS):
        yaw = float(rng.uniform(0.0, 2.0 * np.pi))
        fu, fv = _footprint_half_extent(aabb_local, yaw)
        if fu > sp.half_extent[0] or fv > sp.half_extent[1]:
            continue  # this yaw does not fit; costs one attempt
        du = float(rng.uniform(-(sp.half_extent[0] - fu), sp.half_extent[0] - fu))
        dv = float(rng.uniform(-(sp.half_extent[1] - fv), sp.half_extent[1] - fv))
        rotation = base @ rot_z(yaw)
        target = sp.point_at(du, dv)
        translation = target - rotation @ bottom_center
        candidate = AssetInstance(asset_id=asset_id, aabb_local=aabb_local,
                                  pose=RigidTransform(rotation, translation),
                                  support_plane_id=plane_id,
                                  semantic_label=semantic_label)
        box = candidate.world_aabb()
        if any(box.overlaps(other) for other in existing):
            continue
        manifest.assets.append(candidate)
        return candidate

    raise PlacementError(
        f"no collision-free pose for {asset_id!r} on plane {plane_id!r} "
        f"after {PLACE_MAX_ATTEMPTS} attempts")


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def _aabb_to_dict(a: Aabb) -> dict:
    return {"min_xyz": [float(v) for v in a.min],
            "max_xyz": [float(v) for v in a.max]}


def manifest_to_dict(m: SceneManifest) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "root_room": m.root_room,
        "rooms": [{
            "id": r.id,
            "cloud": r.cloud_path,
            "local_to_world": r.local_to_world.to_quat_xyz(),
        } for r in m.rooms],
        "pair_registrations": [{
            "room_a": p.room_a,
            "room_b": p.room_b,
            "T_coarse": p.T_coarse.to_quat_xyz(),
            "T_fine": p.T_fine.to_quat_xyz(),
            "diagnostics": p.diagnostics,
        } for p in m.pair_registrations],
        "planes": [{
            "id": sp.id,
            "normal_xyz": [float(v) for v in sp.plane.normal],
            "d": float(sp.plane.d),
            "center_xyz": [float(v) for v in sp.center],
            "u_axis_xyz": [float(v) for v in sp.u_axis],
            "v_axis_xyz": [float(v) for v in sp.v_axis],
            "half_extent_uv": [float(sp.half_extent[0]), float(sp.half_extent[1])],
        } for sp in m.planes],
        "assets": [{
            "asset_id": a.asset_id,
            "aabb_local": _aabb_to_dict(a.aabb_local),
            "pose": a.pose.to_quat_xyz(),
            "support_plane_id": a.support_plane_id,
            "semantic_label": a.semantic_label,
        } for a in m.assets],
    }


def manifest_from_dict(d: dict) -> SceneManifest:
    if not isinstance(d, dict):
        raise ManifestError(f"manifest must be a JSON object, got {type(d).__name__}")
    version = d.get("schema_version")
    if not (is_json(version, int) and version == SCHEMA_VERSION):
        raise ManifestError(f"unsupported manifest schema version: {version!r}")
    try:
        return _manifest_from_dict(d)
    except (KeyError, TypeError, IndexError) as e:
        raise ManifestError(f"malformed manifest entry: {e!r}") from e


_VEC3 = tuple[float, float, float]


def _value(d: dict, key: str, tp, *default):
    """d[key] (or the default, if one is given and key is absent), refused
    with ManifestError naming the key unless geometry.is_json(value, tp)."""
    value = d.get(key, *default) if default else d[key]
    if not is_json(value, tp):
        raise ManifestError(f"bad manifest value for {key!r}: {value!r}")
    return value


def _pose(d: dict) -> RigidTransform:
    _value(d, "quat_wxyz", tuple[float, float, float, float])
    _value(d, "translation_xyz", _VEC3)
    return RigidTransform.from_quat_xyz(d)


def _manifest_from_dict(d: dict) -> SceneManifest:
    # Ids, labels, paths, numbers and vectors are type-checked; diagnostics
    # are free-form.
    rooms = [RoomNode(id=_value(r, "id", str), cloud=None,
                      cloud_path=_value(r, "cloud", str | None, None),
                      local_to_world=_pose(r["local_to_world"]))
             for r in d.get("rooms", [])]
    pairs = [PairRegistration(
        room_a=_value(p, "room_a", str), room_b=_value(p, "room_b", str),
        T_coarse=_pose(p["T_coarse"]), T_fine=_pose(p["T_fine"]),
        diagnostics=p.get("diagnostics", {}),
    ) for p in d.get("pair_registrations", [])]
    planes = [SupportPlane(
        id=_value(sp, "id", str),
        plane=Plane(as_vec3(_value(sp, "normal_xyz", _VEC3)), float(_value(sp, "d", float))),
        center=as_vec3(_value(sp, "center_xyz", _VEC3)),
        u_axis=as_vec3(_value(sp, "u_axis_xyz", _VEC3)),
        v_axis=as_vec3(_value(sp, "v_axis_xyz", _VEC3)),
        half_extent=tuple(map(float, _value(sp, "half_extent_uv", tuple[float, float]))),
    ) for sp in d.get("planes", [])]
    assets = [AssetInstance(
        asset_id=_value(a, "asset_id", str),
        aabb_local=Aabb(*(as_vec3(_value(a["aabb_local"], k, _VEC3))
                          for k in ("min_xyz", "max_xyz"))),
        pose=_pose(a["pose"]),
        support_plane_id=_value(a, "support_plane_id", str),
        semantic_label=_value(a, "semantic_label", str, ""),
    ) for a in d.get("assets", [])]
    return SceneManifest(rooms=rooms, pair_registrations=pairs, planes=planes,
                         assets=assets, root_room=_value(d, "root_room", str | None, None))


def save_manifest(path, m: SceneManifest) -> None:
    """Write manifest JSON atomically (temp file + rename)."""
    write_json(path, manifest_to_dict(m))


def load_manifest(path) -> SceneManifest:
    with open(path, "r", encoding="utf-8") as fh:
        return manifest_from_dict(json.load(fh))
