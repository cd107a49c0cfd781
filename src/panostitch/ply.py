"""PLY point-cloud I/O.

Supports ASCII and binary little-endian PLY with float32 x, y, z,
optional float32 nx, ny, nz, and optional int32 room_id. Files whose
payload does not match the declared vertex count are rejected.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from ._atomic import write_atomic
from .geometry import PointCloud

_FLOAT_NAMES = {"float", "float32"}
_INT_NAMES = {"int", "int32"}


class PlyError(ValueError):
    """Malformed or unsupported PLY content."""


def _parse_header(fh) -> tuple[str, int, list[tuple[str, str]], int]:
    """Returns (format, vertex_count, [(prop_type, prop_name)], data_offset)."""
    magic = fh.readline()
    if magic.strip() != b"ply":
        raise PlyError("not a PLY file (missing 'ply' magic)")
    fmt = None
    count = None
    props: list[tuple[str, str]] = []
    in_vertex = False
    while True:
        raw = fh.readline()
        if not raw:
            raise PlyError("unexpected end of header")
        line = raw.decode("ascii", errors="replace").strip()
        if not line or line.startswith("comment"):
            continue
        parts = line.split()
        if parts[0] == "format":
            fmt = parts[1]
        elif parts[0] == "element":
            in_vertex = parts[1] == "vertex"
            if in_vertex:
                count = int(parts[2])
        elif parts[0] == "property" and in_vertex:
            if parts[1] == "list":
                raise PlyError("list properties are not supported")
            props.append((parts[1], parts[2]))
        elif parts[0] == "end_header":
            break
    if fmt not in ("ascii", "binary_little_endian"):
        raise PlyError(f"unsupported PLY format: {fmt}")
    if count is None:
        raise PlyError("no vertex element in header")
    return fmt, count, props, fh.tell()


def _prop_dtype(ptype: str) -> np.dtype:
    if ptype in _FLOAT_NAMES:
        return np.dtype("<f4")
    if ptype in _INT_NAMES:
        return np.dtype("<i4")
    if ptype in ("uchar", "uint8"):
        return np.dtype("<u1")
    if ptype == "double" or ptype == "float64":
        return np.dtype("<f8")
    raise PlyError(f"unsupported property type: {ptype}")


def read_ply(path) -> tuple[PointCloud, np.ndarray | None]:
    """Read a PLY point cloud.

    Returns (cloud, room_ids) where room_ids is None unless the file
    carries an integer room_id property.
    """
    path = Path(path)
    with open(path, "rb") as fh:
        fmt, count, props, offset = _parse_header(fh)
        names = [n for _, n in props]
        for need in ("x", "y", "z"):
            if need not in names:
                raise PlyError(f"missing required vertex property '{need}'")

        dtype = np.dtype([(n, _prop_dtype(t)) for t, n in props])
        if fmt == "binary_little_endian":
            payload = fh.read()
            if len(payload) < count * dtype.itemsize:
                raise PlyError(
                    f"vertex count mismatch: header declares {count}, "
                    f"payload holds {len(payload) // dtype.itemsize}")
            rec = np.frombuffer(payload, dtype=dtype, count=count)
        else:
            text = fh.read().decode("ascii", errors="replace")
            rows = [ln.split() for ln in text.splitlines() if ln.strip()]
            if len(rows) < count:
                raise PlyError(
                    f"vertex count mismatch: header declares {count}, "
                    f"file holds {len(rows)} rows")
            rec = np.zeros(count, dtype=dtype)
            for i in range(count):
                row = rows[i]
                if len(row) != len(props):
                    raise PlyError(f"row {i} has {len(row)} values, expected {len(props)}")
                for (ptype, name), val in zip(props, row):
                    rec[name][i] = float(val)

    pts = np.column_stack([rec["x"], rec["y"], rec["z"]]).astype(np.float64)
    normals = None
    if all(n in names for n in ("nx", "ny", "nz")):
        normals = np.column_stack([rec["nx"], rec["ny"], rec["nz"]]).astype(np.float64)
        norms = np.linalg.norm(normals, axis=1)
        good = norms > 1e-12
        normals[good] = normals[good] / norms[good, None]
        normals[~good] = np.array([0.0, 0.0, 1.0])
    room_ids = None
    if "room_id" in names:
        room_ids = np.asarray(rec["room_id"], dtype=np.int64)
    return PointCloud(pts, normals), room_ids


def write_ply(path, cloud: PointCloud, binary: bool = True,
              room_ids: np.ndarray | None = None) -> None:
    """Write a PLY point cloud atomically (temp file + rename)."""
    n = len(cloud)
    if room_ids is not None and len(room_ids) != n:
        raise PlyError("room_ids length does not match point count")

    header = ["ply",
              f"format {'binary_little_endian' if binary else 'ascii'} 1.0",
              f"element vertex {n}",
              "property float x", "property float y", "property float z"]
    if cloud.has_normals():
        header += ["property float nx", "property float ny", "property float nz"]
    if room_ids is not None:
        header.append("property int room_id")
    header.append("end_header")

    if binary:
        fields = [("x", "<f4"), ("y", "<f4"), ("z", "<f4")]
        if cloud.has_normals():
            fields += [("nx", "<f4"), ("ny", "<f4"), ("nz", "<f4")]
        if room_ids is not None:
            fields.append(("room_id", "<i4"))
        rec = np.zeros(n, dtype=np.dtype(fields))
        rec["x"], rec["y"], rec["z"] = cloud.points.T.astype(np.float32)
        if cloud.has_normals():
            rec["nx"], rec["ny"], rec["nz"] = cloud.normals.T.astype(np.float32)
        if room_ids is not None:
            rec["room_id"] = np.asarray(room_ids, dtype=np.int32)
        body = rec.tobytes()
    else:
        cols: list[np.ndarray] = [cloud.points.astype(np.float32)]
        if cloud.has_normals():
            cols.append(cloud.normals.astype(np.float32))
        flat = np.hstack(cols)
        rows = []
        for i in range(n):
            row = " ".join(f"{v:.7g}" for v in flat[i])
            if room_ids is not None:
                row += f" {int(room_ids[i])}"
            rows.append(row + "\n")
        body = "".join(rows).encode("ascii")
    write_atomic(path, ("\n".join(header) + "\n").encode("ascii") + body)
