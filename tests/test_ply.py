import numpy as np
import pytest

from panostitch.geometry import PointCloud
from panostitch.ply import PlyError, read_ply, write_ply


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
