"""PLY point-cloud I/O.

Supports ASCII and binary little-endian PLY with float32 x, y, z,
optional float32 nx, ny, nz, and optional int32 room_id. Rejected: fewer
vertices than declared, a value that is not a number, a non-finite
coordinate or normal, a zero normal, or an out-of-range integer.
"""

from __future__ import annotations

import io
import warnings
from pathlib import Path

import numpy as np

from ._atomic import write_atomic
from .geometry import PointCloud

_PROP_DTYPES = {"float": "<f4", "float32": "<f4", "int": "<i4", "int32": "<i4",
                "uchar": "<u1", "uint8": "<u1", "double": "<f8", "float64": "<f8"}
# The ASCII line breaks that str.splitlines knows and numpy's text reader
# does not (it ends rows at "\n" and "\r\n" only).
_LINE_BREAKS = str.maketrans("\r\v\f\x1c\x1d\x1e", "\n" * 6)


class PlyError(ValueError):
    """Malformed or unsupported PLY content."""


def _parse_header(fh) -> tuple[str, int, list[tuple[str, str]]]:
    """Returns (format, vertex_count, [(prop_type, prop_name)])."""
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
        if len(parts) < {"format": 2, "element": 3, "property": 3}.get(parts[0], 1):
            raise PlyError(f"malformed header line {line!r}")
        if parts[0] == "format":
            fmt = parts[1]
        elif parts[0] == "element":
            in_vertex = parts[1] == "vertex"
            if in_vertex:
                try:
                    count = int(parts[2])
                except ValueError:
                    raise PlyError(f"bad vertex count {parts[2]!r} in header") from None
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
    if count < 0:
        raise PlyError(f"negative vertex count {count} in header")
    return fmt, count, props


def _vertex_dtype(props: list[tuple[str, str]]) -> np.dtype:
    """Record dtype of a vertex layout [(prop_type, prop_name)]."""
    names = [n for _, n in props]
    for ptype, name in props:
        if ptype not in _PROP_DTYPES:
            raise PlyError(f"unsupported property type: {ptype}")
        if names.count(name) > 1:
            raise PlyError(f"vertex property {name!r} declared more than once")
    return np.dtype([(n, _PROP_DTYPES[t]) for t, n in props])


def read_ply(path) -> tuple[PointCloud, np.ndarray | None]:
    """Read a PLY point cloud.

    Returns (cloud, room_ids) where room_ids is None unless the file
    carries an integer room_id property.
    """
    path = Path(path)
    with open(path, "rb") as fh:
        fmt, count, props = _parse_header(fh)
        dtype = _vertex_dtype(props)
        for need in ("x", "y", "z"):
            if need not in dtype.names:
                raise PlyError(f"missing required vertex property '{need}'")

        if fmt == "binary_little_endian":
            payload = fh.read()
            if len(payload) < count * dtype.itemsize:
                raise PlyError(
                    f"vertex count mismatch: header declares {count}, "
                    f"payload holds {len(payload) // dtype.itemsize}")
            rec = np.frombuffer(payload, dtype=dtype, count=count)
        else:
            rec = _parse_ascii(fh.read().decode("ascii", errors="replace"), count, dtype)

    pts = np.column_stack([rec["x"], rec["y"], rec["z"]]).astype(np.float64)
    if not np.isfinite(pts).all():
        raise PlyError("non-finite vertex coordinates")
    normals = None
    if all(n in dtype.names for n in ("nx", "ny", "nz")):
        normals = np.column_stack([rec["nx"], rec["ny"], rec["nz"]]).astype(np.float64)
        norms = np.linalg.norm(normals, axis=1)
        bad = np.flatnonzero(~((norms > 1e-12) & (norms < np.inf)))
        if bad.size:
            raise PlyError(f"zero-length or non-finite normal at vertex {bad[0]}")
        normals /= norms[:, None]
    room_ids = (np.asarray(rec["room_id"], dtype=np.int64)
                if "room_id" in dtype.names else None)
    return PointCloud(pts, normals), room_ids


def _parse_ascii(text: str, count: int, dtype: np.dtype) -> np.ndarray:
    """Records of the first `count` nonblank rows, later rows ignored. Values
    parse as float64 with numpy's C reader; an int truncates ("3.7" reads 3)
    and must fit its type. Only a failed parse scans the rows again, to
    name the fault."""
    if count == 0:
        return np.empty(0, dtype=dtype)
    text = text.translate(_LINE_BREAKS)
    width = len(dtype.names)
    try:
        with warnings.catch_warnings():
            # Blank lines warn that they do not count towards max_rows.
            warnings.simplefilter("ignore", UserWarning)
            vals = np.loadtxt(io.StringIO(text), dtype=np.float64, ndmin=2,
                              max_rows=count, comments=None)
    except ValueError as e:
        raise PlyError(_row_fault(text, count, width)
                       or f"bad vertex value: {e}") from None
    if vals.shape != (count, width):
        # numpy's reader and str.split agree on rows and fields of ASCII
        # text, so a row count or width the reader got wrong is named here.
        fault = _row_fault(text, count, width)
        assert fault is not None, vals.shape
        raise PlyError(fault)
    rec = np.empty(count, dtype=dtype)
    for name, col in zip(dtype.names, vals.T):
        lim = np.iinfo(dtype[name]) if dtype[name].kind in "iu" else None
        if lim is not None and not np.all((col > lim.min - 1) & (col < lim.max + 1)):
            raise PlyError(f"value out of range for integer property '{name}'")
        rec[name] = col
    return rec


def _row_fault(text: str, count: int, width: int) -> str | None:
    """What is wrong with the rows of `text`: fewer than `count` nonblank
    rows, or one of the first `count` without `width` values; None when
    neither holds."""
    rows = [ln.split() for ln in text.splitlines() if ln.strip()]
    if len(rows) < count:
        return (f"vertex count mismatch: header declares {count}, "
                f"file holds {len(rows)} rows")
    bad = next((i for i, row in enumerate(rows[:count]) if len(row) != width), None)
    if bad is not None:
        return f"row {bad} has {len(rows[bad])} values, expected {width}"
    return None


def write_ply(path, cloud: PointCloud, binary: bool = True,
              room_ids: np.ndarray | None = None) -> None:
    """Write a PLY point cloud atomically (temp file + rename). One
    vertex layout drives the header, the records and both encodings.
    Room ids must fit the int32 room_id property; others raise PlyError."""
    n = len(cloud)
    if room_ids is not None:
        room_ids = np.asarray(room_ids)
        if len(room_ids) != n:
            raise PlyError("room_ids length does not match point count")
        lim = np.iinfo(np.int32)
        if not np.all((room_ids >= lim.min) & (room_ids <= lim.max)):
            raise PlyError("room_id out of range for property type int")

    props = [("float", "x"), ("float", "y"), ("float", "z")]
    if cloud.has_normals():
        props += [("float", "nx"), ("float", "ny"), ("float", "nz")]
    if room_ids is not None:
        props.append(("int", "room_id"))
    rec = np.zeros(n, dtype=_vertex_dtype(props))
    rec["x"], rec["y"], rec["z"] = cloud.points.T
    if cloud.has_normals():
        rec["nx"], rec["ny"], rec["nz"] = cloud.normals.T
    if room_ids is not None:
        rec["room_id"] = room_ids

    header = ["ply", f"format {'binary_little_endian' if binary else 'ascii'} 1.0",
              f"element vertex {n}", *(f"property {t} {name}" for t, name in props),
              "end_header", ""]
    if binary:
        body = rec.tobytes()
    else:
        buf = io.StringIO()
        np.savetxt(buf, rec, fmt=["%d" if t == "int" else "%.7g" for t, _ in props])
        body = buf.getvalue().encode("ascii")
    write_atomic(path, "\n".join(header).encode("ascii") + body)
