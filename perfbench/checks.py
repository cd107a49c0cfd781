"""Correctness checks for benchmark jobs.

Each check reads the job's outputs (files the CLI wrote, or values the
library returned) and compares them with the ground truth the benchmark
generated. It returns a list of failure messages; an empty list is a
pass. The checks use only numpy and the standard library, so a defect in
the code under test cannot also hide itself in its check.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

# Acceptance criterion 3: fine pose within 0.5 degrees and 1 cm.
POSE_ROT_TOL_DEG = 0.5
POSE_TRANS_TOL_M = 0.01
PLANE_NORMAL_TOL_DEG = 1.0
DTW_REL_TOL = 1e-12


def quat_to_rotation(q) -> np.ndarray:
    w, x, y, z = np.asarray(q, dtype=np.float64) / np.linalg.norm(q)
    return np.array([
        [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
        [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
        [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
    ])


def rotation_error_deg(R: np.ndarray, R_true: np.ndarray) -> float:
    c = np.clip((np.trace(R.T @ R_true) - 1.0) / 2.0, -1.0, 1.0)
    return math.degrees(math.acos(c))


def pose_error(pose: dict, R_true: np.ndarray, t_true: np.ndarray) -> tuple[float, float]:
    """(rotation error in degrees, translation error in metres) of a
    serialized {"quat_wxyz", "translation_xyz"} pose."""
    dt = np.asarray(pose["translation_xyz"], dtype=np.float64) - t_true
    return (rotation_error_deg(quat_to_rotation(pose["quat_wxyz"]), R_true),
            float(np.linalg.norm(dt)))


def ply_vertex_count(path) -> int:
    """Vertex count declared in a PLY header."""
    with open(path, "rb") as fh:
        for raw in fh:
            parts = raw.split()
            if parts[:2] == [b"element", b"vertex"]:
                return int(parts[2])
            if parts[:1] == [b"end_header"]:
                break
    raise ValueError(f"{path}: no vertex element")


def check_stitch(out_dir: Path, R_true, t_true, expected_points: int) -> list[str]:
    """Fine pose against ground truth, and the merged cloud's size."""
    fails = []
    diag = json.loads((out_dir / "diagnostics.json").read_text())
    rot, trans = pose_error(diag["pairs"][0]["T_fine"], R_true, t_true)
    if not rot <= POSE_ROT_TOL_DEG:
        fails.append(f"fine rotation error {rot:.4f} deg > {POSE_ROT_TOL_DEG}")
    if not trans <= POSE_TRANS_TOL_M:
        fails.append(f"fine translation error {trans * 1000:.2f} mm > "
                     f"{POSE_TRANS_TOL_M * 1000:.0f} mm")
    merged = ply_vertex_count(out_dir / "merged.ply")
    if merged != expected_points:
        fails.append(f"merged.ply holds {merged} points, rooms hold {expected_points}")
    return fails


def check_plane(report: dict, n_true, flat_ply: Path, expected_points: int) -> list[str]:
    """Plane normal within 1 degree of the table's; flattened inliers with
    exactly zero spread (acceptance criterion 5)."""
    fails = []
    n = np.asarray(report["normal_xyz"], dtype=np.float64)
    cos = abs(float(n @ np.asarray(n_true))) / float(np.linalg.norm(n))
    angle = math.degrees(math.acos(min(1.0, cos)))
    if not angle <= PLANE_NORMAL_TOL_DEG:
        fails.append(f"plane normal {angle:.3f} deg from the table normal")
    if report.get("post_flatten_stddev_m") != 0.0:
        fails.append(f"flattened inlier spread {report.get('post_flatten_stddev_m')!r} "
                     "is not exactly 0")
    if ply_vertex_count(flat_ply) != expected_points:
        fails.append("flattened cloud lost points")
    return fails


def _corners(asset: dict, bottom_only: bool = False) -> np.ndarray:
    """World coordinates of the posed box corners (or its bottom face)."""
    mn = asset["aabb_local"]["min_xyz"]
    mx = asset["aabb_local"]["max_xyz"]
    zs = (mn[2],) if bottom_only else (mn[2], mx[2])
    local = np.array([[x, y, z] for x in (mn[0], mx[0]) for y in (mn[1], mx[1])
                      for z in zs])
    R = quat_to_rotation(asset["pose"]["quat_wxyz"])
    return local @ R.T + np.asarray(asset["pose"]["translation_xyz"])


def check_placements(manifest: dict, plane_id: str, expected: list[str],
                     snap_tol: float) -> list[str]:
    """Every expected asset sits on the plane within snap_tol, and no two
    assets' world boxes intersect."""
    fails = []
    plane = next(p for p in manifest["planes"] if p["id"] == plane_id)
    n = np.asarray(plane["normal_xyz"])
    assets = [a for a in manifest["assets"] if a["support_plane_id"] == plane_id]
    if sorted(a["asset_id"] for a in assets) != sorted(expected):
        fails.append(f"placed {[a['asset_id'] for a in assets]}, expected {expected}")
    boxes = []
    for a in assets:
        snap = float(np.max(np.abs(_corners(a, bottom_only=True) @ n + plane["d"])))
        if not snap <= snap_tol:
            fails.append(f"{a['asset_id']} sits {snap:.2e} m off the plane")
        corners = _corners(a)
        boxes.append((a["asset_id"], corners.min(axis=0), corners.max(axis=0)))
    for i in range(len(boxes)):
        for j in range(i + 1, len(boxes)):
            (ida, mna, mxa), (idb, mnb, mxb) = boxes[i], boxes[j]
            if np.all(mna <= mxb) and np.all(mnb <= mxa):
                fails.append(f"{ida} and {idb} overlap")
    return fails


def dtw_reference(a, b) -> float:
    """DTW by the plain recurrence D[i,j] = c[i,j] + min(D[i-1,j-1],
    D[i-1,j], D[i,j-1]) with Euclidean point cost."""
    cost = np.linalg.norm(np.asarray(a)[:, None, :] - np.asarray(b)[None, :, :],
                          axis=2).tolist()
    nb = len(cost[0])
    prev = [0.0] + [math.inf] * nb
    for row in cost:
        cur = [math.inf] * (nb + 1)
        for j in range(1, nb + 1):
            cur[j] = row[j - 1] + min(prev[j - 1], prev[j], cur[j - 1])
        prev = cur
    return prev[nb]


def check_dtw(value: float, a, b) -> list[str]:
    ref = dtw_reference(a, b)
    if not abs(value - ref) <= DTW_REL_TOL * abs(ref):
        return [f"dtw {value!r} differs from the reference recurrence {ref!r}"]
    return []


def check_report(sr: dict, empirical: dict) -> list[str]:
    """Report success rates equal the rates the episode generator realized."""
    if set(sr) != set(empirical):
        return [f"report cells {sorted(sr)} != generated cells {sorted(empirical)}"]
    return [f"SR {key}: {sr[key]!r} != empirical {empirical[key]!r}"
            for key in sorted(sr) if sr[key] != empirical[key]]


def check_correlation(r: float, pairs) -> list[str]:
    """Raw sim/real Pearson r against numpy's."""
    arr = np.asarray(pairs, dtype=np.float64)
    ref = float(np.corrcoef(arr[:, 0], arr[:, 1])[0, 1])
    if not abs(r - ref) <= 1e-9:
        return [f"sim-real r {r!r} != {ref!r}"]
    return []
