import re

import numpy as np
import pytest

from panostitch.cli import main
from panostitch.geometry import PointCloud
from panostitch.ply import PlyError, _parse_ascii, _vertex_dtype, read_ply, write_ply


@pytest.fixture
def cloud(rng):
    pts = rng.uniform(-3, 3, size=(57, 3))
    normals = rng.normal(size=(57, 3))
    normals /= np.linalg.norm(normals, axis=1, keepdims=True)
    return PointCloud(pts, normals)


@pytest.mark.parametrize("binary", [True, False])
def test_round_trip(tmp_path, cloud, binary):
    path = tmp_path / "cloud.ply"
    write_ply(path, cloud, binary=binary)
    back, room_ids = read_ply(path)
    assert room_ids is None
    # Storage is float32, so compare at that precision.
    np.testing.assert_allclose(back.points, cloud.points, atol=1e-5)
    np.testing.assert_allclose(back.normals, cloud.normals, atol=1e-5)


@pytest.mark.parametrize("binary", [True, False])
def test_room_ids_round_trip(tmp_path, cloud, binary):
    ids = np.arange(len(cloud)) % 3
    path = tmp_path / "cloud.ply"
    write_ply(path, cloud, binary=binary, room_ids=ids)
    _, back_ids = read_ply(path)
    np.testing.assert_array_equal(back_ids, ids)


@pytest.mark.parametrize("binary", [True, False])
@pytest.mark.parametrize("bad_id", [3_000_000_000, -2**31 - 1])
def test_rejects_room_ids_outside_int32(tmp_path, cloud, binary, bad_id):
    ids = np.zeros(len(cloud), dtype=np.int64)
    ids[5] = bad_id
    path = tmp_path / "cloud.ply"
    with pytest.raises(PlyError, match="room_id out of range"):
        write_ply(path, cloud, binary=binary, room_ids=ids)
    assert not path.exists()


def test_positions_only(tmp_path, rng):
    cloud = PointCloud(rng.normal(size=(10, 3)))
    path = tmp_path / "bare.ply"
    write_ply(path, cloud)
    back, _ = read_ply(path)
    assert not back.has_normals()
    assert len(back) == 10


def test_rejects_truncated_binary(tmp_path, cloud):
    path = tmp_path / "cloud.ply"
    write_ply(path, cloud, binary=True)
    raw = path.read_bytes()
    path.write_bytes(raw[:-16])  # drop part of the payload
    with pytest.raises(PlyError, match="vertex count mismatch"):
        read_ply(path)


def test_rejects_short_ascii(tmp_path):
    text = ("ply\nformat ascii 1.0\nelement vertex 3\n"
            "property float x\nproperty float y\nproperty float z\n"
            "end_header\n0 0 0\n1 1 1\n")
    path = tmp_path / "short.ply"
    path.write_text(text)
    with pytest.raises(PlyError, match="vertex count mismatch"):
        read_ply(path)


def test_rejects_non_ply(tmp_path):
    path = tmp_path / "nope.ply"
    path.write_text("hello\n")
    with pytest.raises(PlyError, match="magic"):
        read_ply(path)


def test_rejects_unsupported_format(tmp_path):
    path = tmp_path / "big.ply"
    path.write_text("ply\nformat binary_big_endian 1.0\nelement vertex 0\n"
                    "property float x\nproperty float y\nproperty float z\n"
                    "end_header\n")
    with pytest.raises(PlyError, match="unsupported"):
        read_ply(path)


def test_ascii_golden_bytes(tmp_path):
    cloud = PointCloud(np.array([[1.0, -2.5, 0.125], [1e-7, 123456789.0, -0.0]]),
                       np.array([[0.0, 0.0, 1.0], [0.6, 0.8, 0.0]]))
    path = tmp_path / "golden.ply"
    write_ply(path, cloud, binary=False, room_ids=np.array([0, 7]))
    assert path.read_bytes() == (
        b"ply\nformat ascii 1.0\nelement vertex 2\n"
        b"property float x\nproperty float y\nproperty float z\n"
        b"property float nx\nproperty float ny\nproperty float nz\n"
        b"property int room_id\nend_header\n"
        b"1 -2.5 0.125 0 0 1 0\n"
        b"1e-07 1.234568e+08 -0 0.6 0.8 0 7\n")


ASCII_HEADER = ("ply\nformat ascii 1.0\nelement vertex 2\nproperty float x\n"
                "property float y\nproperty float z\nproperty int room_id\n"
                "end_header\n")


@pytest.mark.parametrize("body, expected", [
    ("\n1 2 3 0\n\n   \n4 5 6 1\n", [0, 1]),               # blank lines skipped
    ("1 2 3 0\n4 5 6 1\n7 8 9 2\nnot a row\n", [0, 1]),    # rows after count ignored
    ("1 2 3 3.7\n4 5 6 -3.7\n", [3, -3]),                  # int truncates via float
    ("1 2 3 0\n4 5 6\n", "row 1 has 3 values, expected 4"),
], ids=["blank-lines", "rows-after-count", "int-through-float", "wrong-width"])
def test_ascii_reader_tolerances(tmp_path, body, expected):
    path = tmp_path / "t.ply"
    path.write_text(ASCII_HEADER + body)
    if isinstance(expected, str):
        with pytest.raises(PlyError, match=expected):
            read_ply(path)
        return
    cloud, room_ids = read_ply(path)
    np.testing.assert_array_equal(cloud.points, [[1, 2, 3], [4, 5, 6]])
    np.testing.assert_array_equal(room_ids, expected)


@pytest.mark.parametrize("binary", [True, False])
def test_rejects_negative_vertex_count(tmp_path, binary):
    path = tmp_path / "neg.ply"
    fmt = "binary_little_endian" if binary else "ascii"
    path.write_bytes(f"ply\nformat {fmt} 1.0\nelement vertex -1\nproperty float x\n"
                     "property float y\nproperty float z\nend_header\n".encode()
                     + (np.zeros(6, "<f4").tobytes() if binary else b"0 0 0\n1 1 1\n"))
    with pytest.raises(PlyError, match="negative vertex count -1"):
        read_ply(path)


# One malformed header line each, in an otherwise valid one-vertex ASCII file.
HEADER_FAULTS = {
    "vertex-without-count": ("element vertex 1", "element vertex",
                             "malformed header line 'element vertex'"),
    "vertex-count-not-integer": ("element vertex 1", "element vertex 1.5",
                                 "bad vertex count '1.5' in header"),
    "property-without-name": ("property float z", "property float",
                              "malformed header line 'property float'"),
    "format-without-value": ("format ascii 1.0", "format",
                             "malformed header line 'format'"),
    "repeated-property": ("property float z", "property float z\nproperty float z",
                          "vertex property 'z' declared more than once"),
}


@pytest.mark.parametrize("fault", HEADER_FAULTS)
def test_malformed_header_line_exits_2(tmp_path, capsys, fault):
    line, bad, message = HEADER_FAULTS[fault]
    text = ("ply\nformat ascii 1.0\nelement vertex 1\nproperty float x\n"
            "property float y\nproperty float z\nend_header\n0 0 0\n")
    path = tmp_path / "bad.ply"
    path.write_text(text.replace(line, bad, 1))
    with pytest.raises(PlyError, match=re.escape(message)):
        read_ply(path)
    assert main(["plane", str(path)]) == 2
    assert f"bad PLY {path}: {message}" in capsys.readouterr().err


def reference_parse_ascii(text, count, dtype):
    """The ASCII body reader before numpy's C reader: rows split in Python,
    values converted by np.array. _parse_ascii must return the same records
    or raise PlyError with the same message, except where README says."""
    rows = [ln.split() for ln in text.splitlines() if ln.strip()]
    if len(rows) < count:
        raise PlyError(
            f"vertex count mismatch: header declares {count}, "
            f"file holds {len(rows)} rows")
    rows, width = rows[:count], len(dtype.names)
    bad = next((i for i, row in enumerate(rows) if len(row) != width), None)
    if bad is not None:
        raise PlyError(f"row {bad} has {len(rows[bad])} values, expected {width}")
    try:
        vals = np.array(rows, dtype=np.float64).reshape(count, width)
    except ValueError as e:
        raise PlyError(f"bad vertex value: {e}") from None
    rec = np.empty(count, dtype=dtype)
    for name, col in zip(dtype.names, vals.T):
        lim = np.iinfo(dtype[name]) if dtype[name].kind in "iu" else None
        if lim is not None and not np.all((col > lim.min - 1) & (col < lim.max + 1)):
            raise PlyError(f"value out of range for integer property '{name}'")
        rec[name] = col
    return rec


def parse_outcome(reader, body, count):
    """("ok", record bytes) or ("error", message) of one ASCII body read
    with the x, y, z, room_id layout."""
    dtype = _vertex_dtype([("float", "x"), ("float", "y"), ("float", "z"),
                           ("int", "room_id")])
    try:
        return "ok", reader(body, count, dtype).tobytes()
    except PlyError as e:
        return "error", str(e)


ASCII_BODIES = {
    "tabs": ("1\t2\t3\t0\n4\t5\t6\t1\n", 2),
    "crlf": ("1 2 3 0\r\n4 5 6 1\r\n", 2),
    "lone-cr": ("1 2 3 0\r4 5 6 1\r", 2),
    "vt-ff-fs-breaks": ("1 2 3 0\v4 5 6 1\f7 8 9 2\x1c", 3),
    "unit-separator-space": ("1\x1f2\x1f3\x1f0\n4 5 6 1\n", 2),
    "blank-and-space-lines": ("\n1 2 3 0\n\n   \n\t\n4 5 6 1\n\n", 2),
    "garbage-after-count": ("1 2 3 0\n4 5 6 1\nnot a row\n7 8\n", 2),
    "exponents": ("1e-07 1.5E+02 -2.5e3 0\n.5 5. +1e0 1e1\n", 2),
    "nan-inf": ("nan inf -inf 0\nNaN Infinity -Infinity 1\n", 2),
    "int-truncation": ("1 2 3 3.7\n4 5 6 -3.7\n", 2),
    "int-out-of-range": ("1 2 3 0\n4 5 6 3e9\n", 2),
    "int-nan": ("1 2 3 nan\n", 1),
    "wrong-width-first": ("1 2 3\n4 5 6 1\n7 8 9 2\n", 3),
    "wrong-width-middle": ("1 2 3 0\n\n4 5 6\n7 8 9 2\n", 3),
    "wrong-width-last": ("1 2 3 0\n4 5 6 1\n7 8 9 2 5\n", 3),
    "wrong-width-every-row": ("1 2 3\n4 5 6\n", 2),
    "wrong-width-after-bad-value": ("x 2 3 0\n4 5 6\n", 2),
    "count-0": ("", 0),
    "count-0-garbage": ("not a row\n", 0),
    "too-few-rows": ("1 2 3 0\n", 2),
    "too-few-rows-wrong-width": ("1 2 3\n", 2),
    "empty-body": ("\n  \n", 2),
}


@pytest.mark.parametrize("body, count", ASCII_BODIES.values(), ids=ASCII_BODIES.keys())
def test_ascii_parse_matches_reference(body, count):
    assert parse_outcome(_parse_ascii, body, count) == \
        parse_outcome(reference_parse_ascii, body, count)


def test_ascii_underscore_digits_rejected():
    # Python's float reads "1_0" as 10; numpy's reader refuses it.
    assert parse_outcome(reference_parse_ascii, "1 2 3 1_0\n", 1)[0] == "ok"
    status, message = parse_outcome(_parse_ascii, "1 2 3 1_0\n", 1)
    assert status == "error" and message.startswith("bad vertex value: ")


def test_ascii_bad_value_message_names_numpy_detail():
    # Both readers refuse a non-number; the detail after the prefix is the
    # converter's own wording, which differs between them.
    for reader in (_parse_ascii, reference_parse_ascii):
        status, message = parse_outcome(reader, "1 2 abc 0\n", 1)
        assert status == "error" and message.startswith("bad vertex value: ")
        assert "abc" in message
