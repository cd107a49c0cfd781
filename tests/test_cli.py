import csv
import dataclasses
import io
import json
import os
import shutil
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

import panostitch
from panostitch.cli import SceneSpec, StitchPair, build_parser, main
from panostitch.epipolar import RansacConfig
from panostitch.geometry import from_json, pose_difference
from panostitch.ply import read_ply, write_ply
from panostitch.scene import load_manifest, overlap_rms
from panostitch.geometry import PointCloud, RigidTransform
from panostitch.icp import IcpConfig
from panostitch.pipeline import PairConfig
from panostitch.metrics import parse_tier
from panostitch.testkit import EpisodeSpec

DATA = Path(__file__).parent / "data"
README = Path(__file__).parent.parent / "README.md"


def run(*argv):
    return main([str(a) for a in argv])


@pytest.fixture(scope="module")
def synth_dir(tmp_path_factory):
    """Artifacts for a noiseless two-room scene, via the synth command."""
    out = tmp_path_factory.mktemp("synth")
    config = out / "config.json"
    config.write_text(json.dumps({
        "seed": 5,
        "scene": {"pixel_noise_sigma": 0.0, "outlier_fraction": 0.0,
                  "cloud_point_count": 3000},
        "episodes": [
            {"task": "microwave", "tier": "train", "n_trials": 20,
             "true_rate": 0.7, "exact_counts": True},
            {"task": "microwave", "tier": "unseen_scene", "n_trials": 20,
             "true_rate": 0.5, "exact_counts": True},
        ],
    }))
    assert run("synth", config, "--out", out / "art") == 0
    return out / "art"


# A scene whose ICP correspondences cycle (see test_icp.CYCLING_SCENE_SEED);
# stitching it at this seed reproduces the cycle.
CYCLING_SCENE_SEED = 2


@pytest.fixture(scope="module")
def cycling_dir(tmp_path_factory, resampled_pair):
    """A stitch manifest with binary room PLYs of the cycling scene."""
    out = tmp_path_factory.mktemp("cycling")
    pair, cloud_b = resampled_pair(CYCLING_SCENE_SEED)
    (out / "matches.json").write_text(json.dumps(pair.match_data))
    write_ply(out / "room_a.ply", PointCloud(pair.cloud_a.points), binary=True)
    write_ply(out / "room_b.ply", cloud_b, binary=True)
    (out / "stitch_manifest.json").write_text(json.dumps({"pairs": [{
        "room_a": "room_a", "room_b": "room_b", "match_file": "matches.json",
        "cloud_a": "room_a.ply", "cloud_b": "room_b.ply",
        "camera_height_m": pair.camera_height,
        "gravity_axis": [float(v) for v in pair.gravity_a]}]}))
    return out


def _pair_manifest(synth_dir, tmp_path, **fields):
    """The synth stitch manifest with `fields` set on its pair, written
    into tmp_path next to copies of its inputs."""
    manifest = json.loads((synth_dir / "stitch_manifest.json").read_text())
    manifest["pairs"][0].update(fields)
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps(manifest))
    for name in ("matches.json", "room_a.ply", "room_b.ply"):
        shutil.copy(synth_dir / name, tmp_path / name)
    return path


EPISODE = {"task": "microwave", "tier": "train", "n_trials": 4, "true_rate": 0.5}
# (scene key, value) pairs that synth reads as a number and must refuse.
SCENE_NUMBER_FAULTS = [(key, value) for key in ("gt_yaw_deg", "camera_height_m",
                                                "pixel_noise_sigma", "outlier_fraction")
                       for value in (True, "1")] + [
    ("pixel_noise_sigma", float("nan")), ("pixel_noise_sigma", float("inf"))]
# gt_translation values synth must refuse: not three finite non-bool numbers.
GT_TRANSLATION_FAULTS = [["-1.6", "-0.4", "0"], [-1.6, -0.4, True], [-1.6, -0.4],
                         [-1.6, -0.4, 0.0, 1.0], [-1.6, float("nan"), 0.0],
                         [-1.6, -0.4, None], "-1.6", None, {"x": 1.0}]
# room_extent values synth must refuse: not three finite non-bool numbers > 0.
ROOM_EXTENT_FAULTS = [[True, 4, 3], [0, 4, 3], [5, -4, 3], ["5", 4, 3],
                      [5, 4, float("inf")], [5, 4, 3, 1], None]


class TestSynthCommand:
    def test_artifacts_exist(self, synth_dir):
        for name in ("matches.json", "room_a.ply", "room_b.ply",
                     "ground_truth.json", "stitch_manifest.json",
                     "episodes.csv", "episodes_empirical.json"):
            assert (synth_dir / name).exists(), name

    def test_deterministic_artifacts(self, synth_dir, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({
            "seed": 5,
            "scene": {"pixel_noise_sigma": 0.0, "outlier_fraction": 0.0,
                      "cloud_point_count": 3000}}))
        assert run("synth", config, "--out", tmp_path / "a") == 0
        assert run("synth", config, "--out", tmp_path / "b") == 0
        for name in ("matches.json", "room_a.ply", "ground_truth.json"):
            assert (tmp_path / "a" / name).read_bytes() == \
                (tmp_path / "b" / name).read_bytes()

    def test_missing_config(self, tmp_path):
        assert run("synth", tmp_path / "nope.json", "--out", tmp_path) == 2

    @pytest.mark.parametrize("config, what", [
        ({"scene": {"floor_point_count": "abc"}}, "scene"),
        ({"scene": {"room_extent": [1, 2]}}, "scene"),
        ({"scene": {"pano_width": 2049}}, "scene"),
        ({"episodes": [{**EPISODE, "n_trials": "abc"}]}, "episode"),
        ({"episodes": [{**EPISODE, "tier": 5}]}, "episode"),
    ], ids=["floor-count-string", "extent-2d", "odd-pano-width",
            "trials-string", "tier-number"])
    def test_malformed_values_exit_2(self, tmp_path, capsys, config, what):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        assert run("synth", path, "--out", tmp_path / "o") == 2
        assert f"bad {what} spec" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("config, message", [
        ({"seed": "abc", "scene": {}},
         "bad synth config: seed must be an integer, got 'abc'"),
        ({"seed": 1.5, "episodes": [EPISODE]},
         "bad synth config: seed must be an integer, got 1.5"),
        ({"scene": {"floor_points": 5}}, "bad scene spec: unknown keys ['floor_points']"),
        ({"scene": {"floor_point_count": 2.7}},
         "bad scene spec: floor_point_count must be an integer, got 2.7"),
        ({"scene": {"cloud_point_count": True}},
         "bad scene spec: cloud_point_count must be an integer, got True"),
        ({"episodes": [{**EPISODE, "n_trials": 2.7}]},
         "bad episode spec: n_trials must be an integer, got 2.7"),
        ({"episodes": [{**EPISODE, "exact_counts": "false"}]},
         "bad episode spec: exact_counts must be true or false, got 'false'"),
        ({"episodes": [{**EPISODE, "exact_counts": 1}]},
         "bad episode spec: exact_counts must be true or false, got 1"),
        ({"episodes": [{**EPISODE, "true_rate": True}]},
         "bad episode spec: true_rate must be a finite number, got True"),
        ({"episodes": [{**EPISODE, "true_rate": "1"}]},
         "bad episode spec: true_rate must be a finite number, got '1'"),
        ({"episodes": [{**EPISODE, "task": None}]},
         "bad episode spec: task must be a string, got None"),
        ({"episodes": [{**EPISODE, "task": 1}]},
         "bad episode spec: task must be a string, got 1"),
        ({"episodes": [{**EPISODE, "exact_count": True}]},
         "bad episode spec: unknown keys ['exact_count']"),
        ({"scene": {"pixel_noise_sigma": -1}},
         "bad scene spec: pixel_noise_sigma must be >= 0, got -1"),
        ({"scene": {"cloud_point_count": -5}},
         "bad scene spec: cloud_point_count must be > 0, got -5"),
        ({"scene": {"cloud_point_count": 0}},
         "bad scene spec: cloud_point_count must be > 0, got 0"),
        ({"episodes": []}, "bad synth config: episodes must be a non-empty list, got []"),
        ({"episodes": {"a": 1}},
         "bad synth config: episodes must be a non-empty list, got {'a': 1}"),
        ({"scene": {"cloud_point_count": 500}, "episodes": []},
         "bad synth config: episodes must be a non-empty list, got []"),
        ({"seed": 3}, "synth config needs 'scene' and/or 'episodes'")] + [
        ({"scene": {"gt_translation": value}},
         f"bad scene spec: gt_translation must be 3 finite numbers, got {value!r}")
        for value in GT_TRANSLATION_FAULTS] + [
        ({"scene": {key: value}},
         f"bad scene spec: {key} must be a finite number, got {value!r}")
        for key, value in SCENE_NUMBER_FAULTS] + [
        ({"scene": {"room_extent": value, "gt_translation": [0.1, 0.1, 0],
                    "cloud_point_count": 500}},
         f"bad scene spec: room_extent must be > 0, got {tuple(value)!r}"
         if value in ([0, 4, 3], [5, -4, 3]) else
         f"bad scene spec: room_extent must be 3 finite numbers, got {value!r}")
        for value in ROOM_EXTENT_FAULTS],
        ids=["seed-string", "seed-float", "unknown-scene-key", "floor-count-float",
             "cloud-count-bool", "trials-float", "exact-counts-string",
             "exact-counts-number", "true-rate-bool", "true-rate-string", "task-null",
             "task-number", "misspelled-episode-key", "pixel-noise-negative",
             "cloud-count-negative", "cloud-count-zero", "episodes-empty",
             "episodes-object", "episodes-empty-with-scene", "no-scene-or-episodes"] + [
            f"gt-translation-{value}" for value in GT_TRANSLATION_FAULTS] + [
            f"{key}-{value}" for key, value in SCENE_NUMBER_FAULTS] + [
            f"room-extent-{value}" for value in ROOM_EXTENT_FAULTS])
    def test_bad_seed_key_or_count_exits_2(self, tmp_path, capsys, config, message):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        assert run("synth", path, "--out", tmp_path / "o") == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("settings, message", [
        ({"icp": {"bogus": 1}}, "'bogus'"),
        ({"ransac": {"iterations": 2.5}}, "ransac.iterations must be an integer, got 2.5"),
        ({"voxel_size": "0.02"}, "voxel_size must be null or a finite number, got '0.02'"),
        ({"ransac": {"threshold": True}}, "ransac.threshold must be a finite number, got True"),
        ({"ransac": {"threshold": float("inf")}},
         "ransac.threshold must be a finite number, got inf")],
        ids=["icp-unknown-key", "ransac-iterations-float", "voxel-size-string",
             "ransac-threshold-bool", "ransac-threshold-inf"])
    def test_bad_stitch_settings_exit_2_before_writing(self, tmp_path, capsys,
                                                       settings, message):
        # The blocks synth copies into stitch_manifest.json are checked as
        # stitch checks them, so the fault shows here and not at stitch.
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"scene": {"cloud_point_count": 500}, **settings}))
        assert run("synth", path, "--out", tmp_path / "o") == 2
        err = capsys.readouterr().err
        assert "bad pair config: " in err and message in err
        assert not (tmp_path / "o").exists()

    def test_unknown_top_level_key_exits_2(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"seeed": 3, "episodes": [EPISODE]}))
        assert run("synth", path, "--out", tmp_path / "o") == 2
        assert "bad synth config: unknown keys ['seeed']" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("config", ["[1]", '"scene"', "null", "3", '{"seed": '],
                             ids=["array", "string", "null", "number", "truncated"])
    def test_config_that_is_not_an_object_exits_2(self, tmp_path, capsys, config):
        path = tmp_path / "config.json"
        path.write_text(config)
        assert run("synth", path, "--out", tmp_path / "o") == 2
        assert "malformed synth config" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_main_calls_share_one_parser_but_not_its_arguments(self, tmp_path):
        assert build_parser() is build_parser()
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"seed": 5, "episodes": [EPISODE] * 4}))
        assert run("synth", config, "--out", tmp_path / "a", "--seed", 9) == 0
        assert run("synth", config, "--out", tmp_path / "b") == 0
        assert run("synth", config, "--out", tmp_path / "c", "--seed", 5) == 0
        rows = {d: (tmp_path / d / "episodes.csv").read_bytes() for d in "abc"}
        assert rows["b"] == rows["c"] != rows["a"]

    def test_stitch_settings_are_copied(self, tmp_path):
        path = tmp_path / "config.json"
        settings = {"icp": {"max_iterations": 30}, "voxel_size": None}
        path.write_text(json.dumps({"scene": {"cloud_point_count": 500}, **settings}))
        assert run("synth", path, "--out", tmp_path / "o") == 0
        [entry] = json.loads((tmp_path / "o" / "stitch_manifest.json").read_text())["pairs"]
        assert {k: entry[k] for k in settings} == settings


# Every field of every JSON input, sent each of these values. A value the
# field's type accepts is skipped; every other one must exit 2 naming the key.
ODD_VALUES = {"true": True, "string": "1", "null": None, "nan": float("nan"),
              "inf": float("inf"), "array": [1], "object": {}}
ACCEPTED = {("pair", k, "string") for k in ("room_a", "room_b", "match_file",
                                            "cloud_a", "cloud_b")} | {
    ("pair", "ransac", "object"), ("pair", "icp", "object"),
    ("pair", "voxel_size", "null"), ("icp", "max_corr_dist", "null"),
    ("episode", "task", "string"), ("episode", "tier", "string"),
    ("episode", "exact_counts", "true")}
JSON_INPUTS = {"pair": StitchPair, "ransac": RansacConfig, "icp": IcpConfig,
               "scene": SceneSpec, "episode": EpisodeSpec}
ODD_VALUE_CASES = [(kind, f.name, name) for kind, cls in JSON_INPUTS.items()
                   for f in dataclasses.fields(cls) for name in ODD_VALUES
                   if (kind, f.name, name) not in ACCEPTED]


@pytest.mark.parametrize("kind, key, name", ODD_VALUE_CASES,
                         ids=["-".join(case) for case in ODD_VALUE_CASES])
def test_value_of_wrong_type_exits_2(tmp_path, capsys, kind, key, name):
    value = ODD_VALUES[name]
    pair = {"room_a": "room_a", "room_b": "room_b", "match_file": "matches.json",
            "cloud_a": "room_a.ply", "cloud_b": "room_b.ply"}
    if kind in ("pair", "ransac", "icp"):
        pair.update({key: value} if kind == "pair" else {kind: {key: value}})
        command, doc, prefix = "stitch", {"pairs": [pair]}, "bad pair config"
        if kind != "pair":
            key = f"{kind}.{key}"
    elif kind == "scene":
        command, doc, prefix = "synth", {"scene": {key: value}}, "bad scene spec"
    else:
        command, prefix = "synth", "bad episode spec"
        doc = {"episodes": [{**EPISODE, key: value}]}
    path = tmp_path / "input.json"
    path.write_text(json.dumps(doc))
    assert run(command, path, "--out", tmp_path / "o") == 2
    err = capsys.readouterr().err
    assert f"error: {prefix}: {key} must be " in err and f"got {value!r}" in err, err
    assert not (tmp_path / "o").exists()


class TestStitchCommand:
    def test_two_room_stitch(self, synth_dir, tmp_path):
        out = tmp_path / "stitched"
        assert run("stitch", synth_dir / "stitch_manifest.json",
                   "--out", out, "--seed", 7) == 0
        manifest = load_manifest(out / "scene_manifest.json")
        assert {r.id for r in manifest.rooms} == {"room_a", "room_b"}

        gt = RigidTransform.from_quat_xyz(
            json.loads((synth_dir / "ground_truth.json").read_text())["gt_a_to_b"])
        reg = manifest.pair_registrations[0]
        rot, trans = pose_difference(reg.T_fine, gt)
        assert np.degrees(rot) < 0.01 and trans < 1e-3

        cloud, room_ids = read_ply(out / "merged.ply")
        a = PointCloud(cloud.points[room_ids == 0])
        b = PointCloud(cloud.points[room_ids == 1])
        assert overlap_rms(a, b) < 0.02
        diag = json.loads((out / "diagnostics.json").read_text())
        assert diag["pairs"][0]["icp"]["converged"]

    def test_byte_identical_reruns(self, synth_dir, tmp_path):
        out1, out2 = tmp_path / "s1", tmp_path / "s2"
        for out in (out1, out2):
            assert run("stitch", synth_dir / "stitch_manifest.json",
                       "--out", out, "--seed", 3) == 0
        for name in ("scene_manifest.json", "diagnostics.json", "merged.ply"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name

    def test_missing_file_exits_2(self, synth_dir, tmp_path, capsys):
        manifest = json.loads((synth_dir / "stitch_manifest.json").read_text())
        manifest["pairs"][0]["match_file"] = "missing.json"
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(manifest))
        assert run("stitch", bad, "--out", tmp_path / "o") == 2
        assert "file not found" in capsys.readouterr().err

    def test_disconnected_graph_exits_3(self, synth_dir, tmp_path, capsys):
        base = json.loads((synth_dir / "stitch_manifest.json").read_text())
        pair = dict(base["pairs"][0])
        far = {**pair, "room_a": "room_c", "room_b": "room_d"}
        bad = tmp_path / "disconnected.json"
        # Reference the same real files so the input check passes.
        bad.write_text(json.dumps({"root_room": "room_a",
                                   "pairs": [pair, far]}))
        shutil.copy(synth_dir / "matches.json", tmp_path / "matches.json")
        shutil.copy(synth_dir / "room_a.ply", tmp_path / "room_a.ply")
        shutil.copy(synth_dir / "room_b.ply", tmp_path / "room_b.ply")
        assert run("stitch", bad, "--out", tmp_path / "o") == 3
        assert "disconnected" in capsys.readouterr().err

    def test_cycle_exits_3(self, synth_dir, tmp_path, capsys):
        base = json.loads((synth_dir / "stitch_manifest.json").read_text())
        pair = dict(base["pairs"][0])
        dup = {**pair, "room_a": "room_b", "room_b": "room_a"}
        bad = tmp_path / "cycle.json"
        bad.write_text(json.dumps({"root_room": "room_a",
                                   "pairs": [pair, dup]}))
        shutil.copy(synth_dir / "matches.json", tmp_path / "matches.json")
        shutil.copy(synth_dir / "room_a.ply", tmp_path / "room_a.ply")
        shutil.copy(synth_dir / "room_b.ply", tmp_path / "room_b.ply")
        assert run("stitch", bad, "--out", tmp_path / "o") == 3
        assert "cycle" in capsys.readouterr().err

    def test_room_with_two_cloud_files_exits_2(self, synth_dir, tmp_path, capsys):
        pair = dict(json.loads(
            (synth_dir / "stitch_manifest.json").read_text())["pairs"][0])
        # room_b is room_b.ply in the first pair and room_a.ply in the second.
        other = {**pair, "room_a": "room_b", "room_b": "room_c"}
        bad = tmp_path / "two_clouds.json"
        bad.write_text(json.dumps({"root_room": "room_a", "pairs": [pair, other]}))
        for name in ("matches.json", "room_a.ply", "room_b.ply"):
            shutil.copy(synth_dir / name, tmp_path / name)
        assert run("stitch", bad, "--out", tmp_path / "o") == 2
        assert (f"room 'room_b' has two cloud files: {tmp_path / 'room_b.ply'} "
                f"and {tmp_path / 'room_a.ply'}") in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("shape", ["cycle", "disconnected"])
    def test_graph_checked_before_clouds_are_read(self, synth_dir, tmp_path,
                                                   capsys, shape):
        pair = dict(json.loads(
            (synth_dir / "stitch_manifest.json").read_text())["pairs"][0])
        other = ({**pair, "room_a": "room_b", "room_b": "room_a"}
                 if shape == "cycle"
                 else {**pair, "room_a": "room_c", "room_b": "room_d"})
        bad = tmp_path / "graph.json"
        bad.write_text(json.dumps({"root_room": "room_a", "pairs": [pair, other]}))
        shutil.copy(synth_dir / "matches.json", tmp_path / "matches.json")
        # The clouds exist but are not PLY: reading them would exit 2.
        for name in ("room_a.ply", "room_b.ply"):
            (tmp_path / name).write_text("not a ply file\n")
        assert run("stitch", bad, "--out", tmp_path / "o") == 3
        assert shape in capsys.readouterr().err

    @pytest.mark.parametrize("gravity", [[0.0, 0.0, 0.0], [0.0, float("nan"), -1.0],
                                         [0.0, -1.0], ["0", "0", "-1"], [True, 0, 0]])
    def test_bad_gravity_axis_exits_2(self, synth_dir, tmp_path, capsys, gravity):
        base = json.loads((synth_dir / "stitch_manifest.json").read_text())
        base["pairs"][0]["gravity_axis"] = gravity
        bad = tmp_path / "bad_gravity.json"
        bad.write_text(json.dumps(base))
        shutil.copy(synth_dir / "matches.json", tmp_path / "matches.json")
        shutil.copy(synth_dir / "room_a.ply", tmp_path / "room_a.ply")
        shutil.copy(synth_dir / "room_b.ply", tmp_path / "room_b.ply")
        assert run("stitch", bad, "--out", tmp_path / "o") == 2
        assert "bad pair config" in capsys.readouterr().err

    def test_unknown_config_key_exits_2(self, synth_dir, tmp_path, capsys):
        base = json.loads((synth_dir / "stitch_manifest.json").read_text())
        base["pairs"][0]["icp"] = {"not_a_real_option": 1}
        bad = tmp_path / "bad_cfg.json"
        bad.write_text(json.dumps(base))
        shutil.copy(synth_dir / "matches.json", tmp_path / "matches.json")
        shutil.copy(synth_dir / "room_a.ply", tmp_path / "room_a.ply")
        shutil.copy(synth_dir / "room_b.ply", tmp_path / "room_b.ply")
        assert run("stitch", bad, "--out", tmp_path / "o") == 2
        assert "bad pair config" in capsys.readouterr().err

    @pytest.mark.parametrize("voxel", ["0.02", float("nan"), float("inf"), -1.0,
                                       0, True, [0.02]],
                             ids=["string", "nan", "inf", "negative", "zero",
                                  "bool", "list"])
    def test_bad_voxel_size_exits_2(self, synth_dir, tmp_path, capsys, voxel):
        bad = _pair_manifest(synth_dir, tmp_path, voxel_size=voxel)
        assert run("stitch", bad, "--out", tmp_path / "o") == 2
        assert "bad pair config: voxel_size" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("block, values", [
        ("icp", {"max_iterations": 2.5}), ("icp", {"max_iterations": True}),
        ("ransac", {"iterations": 2.5}), ("ransac", {"min_inliers": 8.5}),
        ("icp", {"normal_k": 2}), ("icp", {"normal_k": 20.0}),
        ("icp", {"overlap_margin": -5}), ("icp", {"max_corr_dist": True}),
        ("icp", {"max_corr_dist": float("inf")}), ("icp", {"overlap_margin": True}),
        ("icp", {"overlap_margin": float("inf")})],
        ids=["icp-iterations-float", "icp-iterations-bool", "ransac-iterations-float",
             "ransac-min-inliers-float", "normal-k-2", "normal-k-float",
             "overlap-margin-negative", "max-corr-dist-bool", "max-corr-dist-inf",
             "overlap-margin-bool", "overlap-margin-inf"])
    def test_bad_count_exits_2(self, synth_dir, tmp_path, capsys, block, values):
        bad = _pair_manifest(synth_dir, tmp_path, **{block: values})
        assert run("stitch", bad, "--out", tmp_path / "o") == 2
        assert "bad pair config" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("threshold", [True, float("inf"), float("nan"), 0, -1e-3,
                                           "0.001", None],
                             ids=["bool", "inf", "nan", "zero", "negative", "string",
                                  "null"])
    def test_bad_ransac_threshold_exits_2(self, synth_dir, tmp_path, capsys, threshold):
        bad = _pair_manifest(synth_dir, tmp_path, ransac={"threshold": threshold})
        assert run("stitch", bad, "--out", tmp_path / "o") == 2
        message = ("invalid RANSAC config" if threshold in (0, -1e-3)
                   else f"ransac.threshold must be a finite number, got {threshold!r}")
        assert f"bad pair config: {message}" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("fields, message", [
        ({"ransac": {"seed": 4242}}, "'seed'"),
        ({"ground": {"camera_height": 1.5}}, "unknown keys ['ground']"),
        ({"voxel": 1.0}, "unknown keys ['voxel']"),
        ({"camera_height_m": "abc"}, "camera_height_m must be a finite number, got 'abc'")],
        ids=["ransac-seed", "ground-block", "misspelled-key", "camera-height-string"])
    def test_unknown_or_removed_setting_exits_2(self, synth_dir, tmp_path, capsys,
                                                fields, message):
        bad = _pair_manifest(synth_dir, tmp_path, **fields)
        assert run("stitch", bad, "--out", tmp_path / "o") == 2
        err = capsys.readouterr().err
        assert "bad pair config: " in err and message in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("clouds", ["ply", "not-ply"])
    def test_every_pair_config_checked_before_clouds_are_read(
            self, synth_dir, tmp_path, capsys, clouds):
        pair = json.loads((synth_dir / "stitch_manifest.json").read_text())["pairs"][0]
        second = {**pair, "room_a": "room_b", "room_b": "room_c",
                  "cloud_a": "room_b.ply", "cloud_b": "room_c.ply",
                  "icp": {"max_iterations": 2.5}}
        bad = tmp_path / "two_pairs.json"
        bad.write_text(json.dumps({"root_room": "room_a", "pairs": [pair, second]}))
        shutil.copy(synth_dir / "matches.json", tmp_path / "matches.json")
        for name, src in (("room_a.ply", "room_a.ply"), ("room_b.ply", "room_b.ply"),
                          ("room_c.ply", "room_a.ply")):
            if clouds == "ply":
                shutil.copy(synth_dir / src, tmp_path / name)
            else:  # reading these would exit 2 with "bad PLY"
                (tmp_path / name).write_text("not a ply file\n")
        assert run("stitch", bad, "--out", tmp_path / "o") == 2
        err = capsys.readouterr().err
        assert "bad pair config" in err and "bad PLY" not in err
        events = [json.loads(line) for line in err.splitlines() if line.startswith("{")]
        assert not [e for e in events if e["event"] == "pair_registered"]

    def test_readme_manifest_is_accepted(self):
        """The README's stitch manifest and synth config examples use only
        accepted keys, document each of them, and show the defaults."""
        def section(title):
            text = README.read_text().split(f"### {title}", 1)[1].split("\n### ", 1)[0]
            return text, json.loads(text.split("```json", 1)[1].split("```", 1)[0])

        text, example = section("Stitch manifest")
        [entry] = example["pairs"]
        assert from_json(StitchPair, entry).config() == PairConfig()
        for cfg in (StitchPair, RansacConfig, IcpConfig):
            for f in dataclasses.fields(cfg):
                assert f"`{f.name}`" in text, f.name
        text, example = section("Synth config")
        assert from_json(SceneSpec, example["scene"]) == SceneSpec()
        [episode] = example["episodes"]
        assert not from_json(EpisodeSpec, episode, tier=parse_tier).exact_counts
        for cfg in (SceneSpec, EpisodeSpec):
            for f in dataclasses.fields(cfg):
                assert f"`{f.name}`" in text, f.name

    @pytest.mark.parametrize("change, message", [
        (lambda m: m.update(pairs=[5]), "bad pair config: 5 is not an object"),
        (lambda m: m["pairs"][0].update(room_a=[1]),
         "bad pair config: room_a must be a string, got [1]"),
        (lambda m: m["pairs"][0].update(cloud_b=7),
         "bad pair config: cloud_b must be a string, got 7"),
        (lambda m: m.update(pairs={"a": 1}), "needs a non-empty list of pairs"),
        (lambda m: m.update(root_room=[1]), "root room [1] not present in pairs")],
        ids=["pair-not-object", "room-id-list", "file-name-number", "pairs-not-list",
             "root-room-list"])
    def test_malformed_manifest_entry_exits_2(self, synth_dir, tmp_path, capsys,
                                              change, message):
        path = _pair_manifest(synth_dir, tmp_path)
        manifest = json.loads(path.read_text())
        change(manifest)
        path.write_text(json.dumps(manifest))
        # Reading these clouds would exit 2 with "bad PLY".
        for name in ("room_a.ply", "room_b.ply"):
            (tmp_path / name).write_text("not a ply file\n")
        assert run("stitch", path, "--out", tmp_path / "o") == 2
        err = capsys.readouterr().err
        assert message in err and "bad PLY" not in err
        assert not (tmp_path / "o").exists()

    def test_nan_keypoint_exits_2(self, synth_dir, tmp_path, capsys):
        path = _pair_manifest(synth_dir, tmp_path)
        data = json.loads((tmp_path / "matches.json").read_text())
        data["matches"][0].update(score=0.9, ua=float("nan"))
        (tmp_path / "matches.json").write_text(json.dumps(data))
        assert run("stitch", path, "--out", tmp_path / "o") == 2
        assert ("pair:room_a->room_b: malformed match entry 0: ua must be a finite "
                "number, got nan") in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_unknown_top_level_key_exits_2(self, synth_dir, tmp_path, capsys):
        path = _pair_manifest(synth_dir, tmp_path)
        manifest = json.loads(path.read_text())
        manifest["root_rooom"] = manifest.pop("root_room")
        path.write_text(json.dumps(manifest))
        assert run("stitch", path, "--out", tmp_path / "o") == 2
        assert ("bad stitch manifest: unknown keys ['root_rooom']"
                in capsys.readouterr().err)
        assert not (tmp_path / "o").exists()

    def test_manifest_that_is_not_an_object_exits_2(self, tmp_path, capsys):
        path = tmp_path / "manifest.json"
        path.write_text("[1]")
        assert run("stitch", path, "--out", tmp_path / "o") == 2
        assert "malformed stitch manifest" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_truncated_manifest_exits_2(self, tmp_path, capsys):
        path = tmp_path / "manifest.json"
        path.write_text('{"seed": ')
        assert run("stitch", path, "--out", tmp_path / "o") == 2
        assert f"malformed stitch manifest {path}: Expecting value" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_rooms_out_of_reach_exit_5(self, synth_dir, tmp_path, capsys):
        # Room B moved 9 m along x: at the coarse pose the clouds' boxes,
        # each grown by the 0.5 m overlap margin, do not meet, so no ICP
        # correspondence exists and no pose may be reported.
        path = _pair_manifest(synth_dir, tmp_path)
        cloud, _ = read_ply(tmp_path / "room_b.ply")
        write_ply(tmp_path / "room_b.ply", PointCloud(cloud.points + [9.0, 0.0, 0.0]))
        assert run("stitch", path, "--out", tmp_path / "o") == 5
        assert "room_a->room_b: zero correspondences" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_null_voxel_size_disables_downsampling(self, synth_dir, tmp_path):
        manifest = _pair_manifest(synth_dir, tmp_path, voxel_size=None)
        assert run("stitch", manifest, "--out", tmp_path / "o") == 0

    def test_voxel_too_fine_for_cloud_exits_5(self, synth_dir, tmp_path, capsys):
        # A valid number, but room coordinates over 1e-20 overflow the
        # int64 voxel indices; downsampling must fail, not merge points.
        bad = _pair_manifest(synth_dir, tmp_path, voxel_size=1e-20)
        assert run("stitch", bad, "--out", tmp_path / "o") == 5
        err = capsys.readouterr().err
        assert "room_a->room_b: voxel size 1e-20 is too small" in err
        assert "overflow int64" in err
        assert not (tmp_path / "o").exists()

    def test_pair_log_reports_icp_converged(self, synth_dir, tmp_path, capsys):
        out = tmp_path / "o"
        assert run("stitch", synth_dir / "stitch_manifest.json", "--out", out) == 0
        events = [json.loads(line) for line in capsys.readouterr().err.splitlines()]
        [pair] = [e for e in events if e["event"] == "pair_registered"]
        diag = json.loads((out / "diagnostics.json").read_text())
        assert pair["icp_converged"] is diag["pairs"][0]["icp"]["converged"]

    @pytest.mark.parametrize("scene, seed, reason", [
        ("synth_dir", 0, "rel_tol"), ("cycling_dir", CYCLING_SCENE_SEED, "cycle")])
    def test_pair_log_reports_icp_stop_reason(self, request, tmp_path, capsys,
                                              scene, seed, reason):
        out = tmp_path / "o"
        manifest = request.getfixturevalue(scene) / "stitch_manifest.json"
        assert run("stitch", manifest, "--out", out, "--seed", seed) == 0
        events = [json.loads(line) for line in capsys.readouterr().err.splitlines()]
        [pair] = [e for e in events if e["event"] == "pair_registered"]
        diag = json.loads((out / "diagnostics.json").read_text())["pairs"][0]["icp"]
        saved = json.loads((out / "scene_manifest.json").read_text())
        assert pair["icp_stop_reason"] == diag["stop_reason"] == reason
        assert saved["pair_registrations"][0]["diagnostics"]["icp"] == diag
        assert diag["converged"] is (reason == "rel_tol")
        assert diag["iterations"] == len(diag["error_trace"]) <= 15

    def test_stage_log_names_each_stage(self, cycling_dir, tmp_path, capsys):
        # The match-heavy cycling scene (2,000 matches, 40 % outliers):
        # RANSAC stops after two batches, well under its 2,000-sample cap.
        out = tmp_path / "o"
        manifest = cycling_dir / "stitch_manifest.json"
        assert run("stitch", manifest, "--out", out, "--seed", CYCLING_SCENE_SEED) == 0
        events = [json.loads(line) for line in capsys.readouterr().err.splitlines()]
        stages = [e for e in events if e["event"] == "stage_done"]
        assert [e["span"] for e in stages] == [
            "ply.read_ply", "ply.read_ply", "panorama.load_matches",
            "epipolar.estimate_essential", "epipolar.decompose_essential",
            "epipolar.triangulate_set", "scale.select_ground_points",
            "geometry.voxel_downsample", "geometry.voxel_downsample",
            "icp.point_to_plane_icp", "scene.merge_rooms", "ply.write_ply",
            "scene.save_manifest"]
        assert all(e["elapsed_s"] >= 0 for e in stages)
        by_span = {e["span"]: e for e in stages}
        diag = json.loads((out / "diagnostics.json").read_text())["pairs"][0]
        ransac = by_span["epipolar.estimate_essential"]
        assert ransac["pair"] == "pair:room_a->room_b"
        assert ransac["hypotheses"] == 192
        assert ransac["inliers"] == diag["ransac_inlier_count"]
        assert by_span["icp.point_to_plane_icp"]["iterations"] == diag["icp"]["iterations"]
        assert by_span["panorama.load_matches"]["matches"] == 2000
        assert "pair" not in by_span["scene.merge_rooms"]

    def test_numerical_failure_exits_5(self, synth_dir, tmp_path, capsys):
        # Scramble the matches so no epipolar consensus exists; the pair
        # label must appear in the error detail.
        matches = json.loads((synth_dir / "matches.json").read_text())
        rng = np.random.default_rng(0)
        for m in matches["matches"]:
            m["ub"] = float(rng.uniform(0, matches["pano_b"]["width"]))
            m["vb"] = float(rng.uniform(0, matches["pano_b"]["height"]))
        (tmp_path / "matches.json").write_text(json.dumps(matches))
        shutil.copy(synth_dir / "room_a.ply", tmp_path / "room_a.ply")
        shutil.copy(synth_dir / "room_b.ply", tmp_path / "room_b.ply")
        base = json.loads((synth_dir / "stitch_manifest.json").read_text())
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps(base))
        assert run("stitch", manifest, "--out", tmp_path / "o") == 5
        assert "room_a->room_b" in capsys.readouterr().err


class TestPlaneCommand:
    @pytest.fixture
    def table_ply(self, tmp_path, rng):
        n = 800
        pts = np.column_stack([rng.uniform(-0.5, 0.5, n),
                               rng.uniform(-0.5, 0.5, n),
                               0.8 + rng.normal(0, 0.005, n)])
        path = tmp_path / "table.ply"
        write_ply(path, PointCloud(pts))
        return path

    def test_plane_report(self, table_ply, tmp_path):
        report_path = tmp_path / "plane.json"
        assert run("plane", table_ply, "--report", report_path, "--seed", 2) == 0
        report = json.loads(report_path.read_text())
        assert report["stddev_within_1cm"] is True
        assert abs(abs(report["normal_xyz"][2]) - 1.0) < 1e-3

    def test_flatten_zeroes_variance(self, table_ply, tmp_path):
        report_path = tmp_path / "plane.json"
        flat_path = tmp_path / "flat.ply"
        assert run("plane", table_ply, "--report", report_path,
                   "--flatten", flat_path) == 0
        report = json.loads(report_path.read_text())
        assert report["post_flatten_stddev_m"] == 0.0

    def test_outputs_into_missing_directories(self, table_ply, tmp_path):
        flat = tmp_path / "new" / "dir" / "flat.ply"
        report = tmp_path / "other" / "plane.json"
        assert run("plane", table_ply, "--flatten", flat, "--report", report) == 0
        assert len(read_ply(flat)[0]) == 800
        assert json.loads(report.read_text())["flattened_ply"] == str(flat)

    def test_missing_cloud_exits_2(self, tmp_path):
        assert run("plane", tmp_path / "none.ply") == 2

    def test_empty_cloud_exits_2(self, tmp_path):
        path = tmp_path / "empty.ply"
        write_ply(path, PointCloud(np.empty((0, 3))))
        assert run("plane", path) == 2

    @pytest.mark.parametrize("fmt, body", [
        ("ascii", b"1 2 3 0\n4 x 6 0\n"),
        ("ascii", b"1 2 3 0\n4 nan 6 0\n"),
        ("ascii", b"1 2 3 0\n4 5 6 nan\n"),
        ("ascii", b"1 2 3 0\n4 5 6 3e9\n"),
        ("binary_little_endian", np.array(
            [(1, 2, 3, 0), (4, np.nan, 6, 0)],
            dtype=[("x", "<f4"), ("y", "<f4"), ("z", "<f4"), ("r", "<i4")]).tobytes()),
    ], ids=["non-numeric", "nan-coordinate", "nan-room-id", "room-id-out-of-range",
            "binary-nan-coordinate"])
    def test_malformed_values_exit_2(self, tmp_path, capsys, fmt, body):
        path = tmp_path / "bad.ply"
        path.write_bytes(
            f"ply\nformat {fmt} 1.0\nelement vertex 2\nproperty float x\n"
            "property float y\nproperty float z\nproperty int room_id\n"
            "end_header\n".encode("ascii") + body)
        assert run("plane", path) == 2
        assert "bad PLY" in capsys.readouterr().err


    @pytest.mark.parametrize("normal", [[np.nan, 0.0, 0.0], [0.0, 0.0, 0.0],
                                        [np.inf, 0.0, 1.0]],
                             ids=["nan", "zero", "inf"])
    @pytest.mark.parametrize("binary", [True, False], ids=["binary", "ascii"])
    def test_bad_normal_exits_2(self, tmp_path, capsys, normal, binary):
        # Written by hand: PointCloud itself refuses a non-finite normal.
        rec = np.zeros(60, dtype=[(n, "<f4") for n in ("x", "y", "z", "nx", "ny", "nz")])
        rec["x"], rec["y"], rec["nz"] = np.arange(60) % 8, np.arange(60) // 8, 1.0
        rec[7] = (7.0, 0.0, 0.0, *normal)
        header = (f"ply\nformat {'binary_little_endian' if binary else 'ascii'} 1.0\n"
                  "element vertex 60\n"
                  + "".join(f"property float {n}\n" for n in rec.dtype.names)
                  + "end_header\n")
        buf = io.StringIO()
        np.savetxt(buf, rec, fmt="%g")
        path = tmp_path / "bad_normal.ply"
        path.write_bytes(header.encode() + (rec.tobytes() if binary
                                            else buf.getvalue().encode()))
        assert run("plane", path) == 2
        err = capsys.readouterr().err
        assert "bad PLY" in err and "normal at vertex 7" in err

    def test_too_few_points_for_a_plane_exits_5(self, tmp_path, capsys):
        # 30 coplanar points: every one is an inlier, but a plane needs 50.
        pts = np.column_stack([np.arange(30.0) % 6, np.arange(30.0) // 6, np.zeros(30)])
        path = tmp_path / "small.ply"
        write_ply(path, PointCloud(pts))
        assert run("plane", path) == 5
        assert "no plane with >= 50 inliers (best support: 30)" in capsys.readouterr().err

    @pytest.mark.parametrize("case, message", [
        ("missing", "file not found"),
        ("schema-99", "unsupported manifest schema version: 99"),
        ("duplicate-id", "plane id 'table' already in manifest"),
    ])
    def test_refused_manifest_writes_nothing(self, table_ply, tmp_path, rng, capsys,
                                             case, message):
        from conftest import build_table_manifest

        from panostitch.scene import save_manifest
        manifest = tmp_path / "scene.json"
        if case == "schema-99":
            manifest.write_text('{"schema_version": 99}')
        elif case == "duplicate-id":
            save_manifest(manifest, build_table_manifest(rng))
        before = manifest.read_bytes() if manifest.exists() else None
        flat, report = tmp_path / "flat.ply", tmp_path / "plane.json"
        assert run("plane", table_ply, "--flatten", flat, "--report", report,
                   "--add-to-manifest", manifest, "--plane-id", "table") == 2
        assert message in capsys.readouterr().err
        assert not flat.exists() and not report.exists()
        assert (manifest.read_bytes() if manifest.exists() else None) == before

    def test_plane_id_without_manifest_exits_2_before_reading(self, table_ply, tmp_path,
                                                              capsys, monkeypatch):
        from panostitch import cli

        monkeypatch.setattr(cli, "_read_cloud", lambda path: pytest.fail("cloud read"))
        flat, report = tmp_path / "flat.ply", tmp_path / "plane.json"
        assert run("plane", table_ply, "--flatten", flat, "--report", report,
                   "--plane-id", "table") == 2
        assert "--plane-id needs --add-to-manifest" in capsys.readouterr().err
        assert not flat.exists() and not report.exists()


class TestPlaceCommand:
    @pytest.fixture
    def scene_manifest(self, tmp_path, rng):
        from conftest import build_table_manifest

        from panostitch.scene import save_manifest
        manifest = build_table_manifest(rng)
        path = tmp_path / "scene.json"
        save_manifest(path, manifest)
        return path

    def test_place_cube(self, scene_manifest):
        assert run("place", scene_manifest, "--plane", "table",
                   "--asset-id", "mug", "--aabb-min", 0, 0, 0,
                   "--aabb-max", 0.1, 0.1, 0.12, "--label", "mug",
                   "--seed", 4) == 0
        manifest = load_manifest(scene_manifest)
        assert manifest.assets[0].asset_id == "mug"

    @pytest.mark.parametrize("plane, box_min, message", [
        ("table", [0.2, 0, 0], "bad asset box: Aabb min"),
        ("shelf", [0, 0, 0], "unknown plane 'shelf'")],
        ids=["min-above-max", "unknown-plane"])
    def test_bad_request_exits_2(self, scene_manifest, capsys, plane, box_min, message):
        before = scene_manifest.read_bytes()
        assert run("place", scene_manifest, "--plane", plane, "--asset-id", "mug",
                   "--aabb-min", *box_min, "--aabb-max", 0.1, 0.1, 0.1) == 2
        assert message in capsys.readouterr().err
        assert scene_manifest.read_bytes() == before

    def test_oversized_exits_4(self, scene_manifest):
        assert run("place", scene_manifest, "--plane", "table",
                   "--asset-id", "couch", "--aabb-min", 0, 0, 0,
                   "--aabb-max", 4, 4, 1) == 4

    def test_out_into_missing_directory(self, scene_manifest, tmp_path):
        out = tmp_path / "new" / "dir" / "placed.json"
        assert run("place", scene_manifest, "--plane", "table",
                   "--asset-id", "mug", "--aabb-min", 0, 0, 0,
                   "--aabb-max", 0.1, 0.1, 0.1, "--out", out) == 0
        assert load_manifest(out).assets[0].asset_id == "mug"

    def test_same_seed_same_pose(self, scene_manifest, tmp_path):
        outs = []
        for name in ("m1.json", "m2.json"):
            out = tmp_path / name
            assert run("place", scene_manifest, "--plane", "table",
                       "--asset-id", "mug", "--aabb-min", 0, 0, 0,
                       "--aabb-max", 0.1, 0.1, 0.1, "--seed", 11,
                       "--out", out) == 0
            outs.append(load_manifest(out).assets[0].pose.matrix())
        np.testing.assert_array_equal(outs[0], outs[1])


# Scene manifests that place and plane --add-to-manifest must refuse.
BAD_SCENE_MANIFESTS = {
    "array": ("[1]", "manifest must be a JSON object, got list"),
    "room-not-object": ('{"schema_version": 1, "rooms": [5]}',
                        "malformed manifest entry: TypeError"),
    "version-true": ('{"schema_version": true}',
                     "unsupported manifest schema version: True"),
    "room-id-number": ('{"schema_version": 1, "rooms": [{"id": 5, "local_to_world": '
                       '{"quat_wxyz": [1, 0, 0, 0], "translation_xyz": [0, 0, 0]}}]}',
                       "bad manifest value for 'id': 5"),
    "root-room-number": ('{"schema_version": 1, "root_room": 7}',
                         "bad manifest value for 'root_room': 7"),
    "plane-d-string": ('{"schema_version": 1, "planes": [{"id": "table", '
                       '"normal_xyz": [0, 0, 1], "d": "-0.8"}]}',
                       "bad manifest value for 'd': '-0.8'"),
    "half-extent-bool-and-string": (
        '{"schema_version": 1, "planes": [{"id": "table", "normal_xyz": [0, 0, 1], '
        '"d": -0.8, "center_xyz": [0, 0, 0.8], "u_axis_xyz": [1, 0, 0], '
        '"v_axis_xyz": [0, 1, 0], "half_extent_uv": [true, "0.3"]}]}',
        "bad manifest value for 'half_extent_uv': [True, '0.3']"),
}


@pytest.mark.parametrize("command", ["place", "plane"])
@pytest.mark.parametrize("case", BAD_SCENE_MANIFESTS)
def test_bad_scene_manifest_exits_2(tmp_path, capsys, rng, command, case):
    text, message = BAD_SCENE_MANIFESTS[case]
    path = tmp_path / "scene.json"
    path.write_text(text)
    if command == "place":
        argv = ["place", path, "--plane", "table", "--asset-id", "mug",
                "--aabb-min", 0, 0, 0, "--aabb-max", 0.1, 0.1, 0.1]
    else:
        table = tmp_path / "table.ply"
        write_ply(table, PointCloud(np.column_stack(
            [rng.uniform(-0.5, 0.5, (200, 2)), np.full(200, 0.8)])))
        argv = ["plane", table, "--add-to-manifest", path]
    assert run(*argv) == 2
    assert f"bad scene manifest: {message}" in capsys.readouterr().err
    assert path.read_text() == text


class TestFullWorkflow:
    def test_synth_stitch_plane_place(self, synth_dir, tmp_path):
        out = tmp_path / "stitched"
        assert run("stitch", synth_dir / "stitch_manifest.json",
                   "--out", out, "--seed", 1) == 0
        manifest_path = out / "scene_manifest.json"
        report_path = tmp_path / "floor.json"
        # The merged cloud's dominant plane is the shared floor.
        assert run("plane", out / "merged.ply", "--report", report_path,
                   "--add-to-manifest", manifest_path,
                   "--plane-id", "floor") == 0
        report = json.loads(report_path.read_text())
        assert report["plane_id"] == "floor"
        assert run("place", manifest_path, "--plane", "floor",
                   "--asset-id", "crate", "--aabb-min", 0, 0, 0,
                   "--aabb-max", 0.4, 0.4, 0.4, "--seed", 2) == 0
        manifest = load_manifest(manifest_path)
        assert manifest.assets[0].support_plane_id == "floor"
        assert [p.id for p in manifest.planes] == ["floor"]

    def test_duplicate_plane_id_rejected(self, synth_dir, tmp_path):
        out = tmp_path / "stitched"
        assert run("stitch", synth_dir / "stitch_manifest.json",
                   "--out", out, "--seed", 1) == 0
        manifest_path = out / "scene_manifest.json"
        for expect in (0, 2):
            assert run("plane", out / "merged.ply",
                       "--add-to-manifest", manifest_path,
                       "--plane-id", "floor") == expect


class TestEvalCommand:
    def test_report_from_episode_csv(self, tmp_path):
        report = tmp_path / "report.csv"
        detail = tmp_path / "detail.csv"
        assert run("eval", "--episodes", DATA / "microwave_episodes.csv",
                   "--report", report, "--detail", detail) == 0
        rows = report.read_text().strip().splitlines()
        assert rows[0].startswith("task,")
        assert rows[1].split(",")[1] == "0.7000"
        assert "wilson_low" in detail.read_text()

    def test_report_csvs_quote_fields(self, tmp_path):
        path = tmp_path / "episodes.csv"
        path.write_text("task,tier,success,shortest_len,actual_len,traj_file\n"
                        '"pick, cup",train,1,2.0,2.5,\n')
        report, detail = tmp_path / "report.csv", tmp_path / "detail.csv"
        assert run("eval", "--episodes", path, "--report", report,
                   "--detail", detail) == 0
        for out in (report, detail):
            with open(out, newline="") as fh:
                rows = list(csv.reader(fh))
            assert len(rows) == 2 and len(rows[0]) == len(rows[1])
            assert rows[1][0] == "pick, cup"

    def test_correlation_summary(self, capsys):
        assert run("eval", "--correlate", DATA / "simreal_rates.csv") == 0
        out = json.loads(capsys.readouterr().out)
        assert out["n_averaged"] == 16
        assert abs(out["r_task_averaged"] - 0.91) <= 0.03

    def test_single_row_csv(self, tmp_path, capsys):
        path = tmp_path / "one.csv"
        path.write_text("task,tier,success,shortest_len,actual_len,traj_file\n"
                        "nav,train,1,2.0,2.5,\n")
        assert run("eval", "--episodes", path) == 0
        assert "nav" in capsys.readouterr().out

    def test_malformed_csv_exits_2_with_line(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_text("task,tier,success,shortest_len,actual_len,traj_file\n"
                        "nav,train,1,2.0\n")
        assert run("eval", "--episodes", path) == 2
        assert "line 2" in capsys.readouterr().err

    def test_malformed_rates_csv_exits_2_with_line(self, tmp_path, capsys):
        path = tmp_path / "rates.csv"
        path.write_text("method,task,tier,sim_rate,real_rate\n"
                        "ACT,set_tableware,train,0.83,0.7\n"
                        "ACT,set_tableware,unseen_scene\n")
        assert run("eval", "--correlate", path) == 2
        assert f"{path}: line 3: expected 5 fields, got 3" in capsys.readouterr().err

    def test_zero_variance_rates_exit_5(self, tmp_path, capsys):
        # The published rates with every sim rate set to 0.5.
        rows = [line.split(",") for line in
                (DATA / "simreal_rates.csv").read_text().splitlines()]
        path = tmp_path / "rates.csv"
        path.write_text("".join(",".join(r if i == 0 else [*r[:3], "0.5", r[4]]) + "\n"
                                for i, r in enumerate(rows)))
        assert run("eval", "--correlate", path) == 5
        assert "pearson undefined for zero-variance input" in capsys.readouterr().err

    def test_no_inputs_exits_2(self):
        assert run("eval") == 2

    @pytest.mark.parametrize("flag", ["--report", "--detail"])
    def test_output_flag_without_episodes_exits_2(self, tmp_path, capsys, flag):
        # Checked before the rates table is read: a missing one is not named.
        out = tmp_path / "out.csv"
        assert run("eval", "--correlate", tmp_path / "missing.csv", flag, out) == 2
        assert "need --episodes" in capsys.readouterr().err
        assert not out.exists()


@pytest.mark.parametrize("case", ["stitch", "plane", "place", "synth-flag",
                                  "synth-episodes", "synth-scene"])
def test_negative_seed_exits_2(synth_dir, tmp_path, rng, capsys, case):
    from conftest import build_table_manifest

    from panostitch.scene import save_manifest
    scene = tmp_path / "scene.json"
    save_manifest(scene, build_table_manifest(rng))
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "seed": 0 if case == "synth-flag" else -1,
        **({"scene": {}} if case == "synth-scene" else {"episodes": [EPISODE]})}))
    out = tmp_path / "o"
    argv = {
        "stitch": ["stitch", synth_dir / "stitch_manifest.json", "--out", out,
                   "--seed", -1],
        "plane": ["plane", synth_dir / "room_a.ply", "--seed", -1],
        "place": ["place", scene, "--plane", "table", "--asset-id", "mug",
                  "--aabb-min", 0, 0, 0, "--aabb-max", 0.1, 0.1, 0.1, "--seed", -1],
        "synth-flag": ["synth", config, "--out", out, "--seed", -1],
        "synth-episodes": ["synth", config, "--out", out],
        "synth-scene": ["synth", config, "--out", out],
    }[case]
    try:
        code = run(*argv)
    except SystemExit as e:   # argparse refuses the value
        code = e.code
    assert code == 2
    assert "seed must be >= 0, got -1" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("case", ["stitch", "synth", "plane", "plane-manifest", "place",
                                  "eval-episodes", "eval-correlate"])
def test_missing_input_exits_2(tmp_path, capsys, case):
    missing = tmp_path / "missing"
    cloud = tmp_path / "cloud.ply"
    write_ply(cloud, PointCloud(np.eye(3)))
    argv = {
        "stitch": ["stitch", missing, "--out", tmp_path / "o"],
        "synth": ["synth", missing, "--out", tmp_path / "o"],
        "plane": ["plane", missing],
        "plane-manifest": ["plane", cloud, "--add-to-manifest", missing],
        "place": ["place", missing, "--plane", "table", "--asset-id", "mug",
                  "--aabb-min", 0, 0, 0, "--aabb-max", 0.1, 0.1, 0.1],
        "eval-episodes": ["eval", "--episodes", missing],
        "eval-correlate": ["eval", "--correlate", missing],
    }[case]
    assert run(*argv) == 2
    err = capsys.readouterr().err.splitlines()
    assert json.loads(err[0]) == {"stage": argv[0], "event": "error", "code": 2,
                                  "message": f"file not found: {missing}"}
    assert err[1] == f"error: file not found: {missing}"


@pytest.mark.parametrize("case", ["stitch-out-file", "stitch-cloud-dir", "eval-report-dir",
                                  "eval-episodes-dir", "synth-out-under-file",
                                  "plane-report-under-file", "eval-detail-under-file",
                                  "plane-flatten-is-report", "plane-report-is-manifest",
                                  "eval-report-is-detail"])
def test_os_error_exits_2(synth_dir, tmp_path, capsys, rng, case):
    # Directories and files in the wrong place, not permissions: a test run
    # as root is never denied.
    from conftest import build_table_manifest

    from panostitch.scene import save_manifest
    a_file, a_dir = tmp_path / "a_file", tmp_path / "a_dir"
    a_file.write_text("")
    a_dir.mkdir()
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"episodes": [EPISODE]}))
    episodes = DATA / "microwave_episodes.csv"
    table, scene = tmp_path / "table.ply", tmp_path / "scene.json"
    write_ply(table, PointCloud(np.column_stack(
        [rng.uniform(-0.5, 0.5, (200, 2)), np.full(200, 0.8)])))
    save_manifest(scene, build_table_manifest(rng))
    argv, path = {
        "stitch-out-file": (["stitch", synth_dir / "stitch_manifest.json", "--out", a_file],
                            a_file),
        "stitch-cloud-dir": (["stitch", _pair_manifest(synth_dir, tmp_path, cloud_b="a_dir"),
                              "--out", tmp_path / "o"], a_dir),
        "eval-report-dir": (["eval", "--episodes", episodes, "--report", a_dir], a_dir),
        "eval-episodes-dir": (["eval", "--episodes", a_dir], a_dir),
        "synth-out-under-file": (["synth", config, "--out", a_file / "x"], a_file / "x"),
        # Every output is checked before the first is written.
        "plane-report-under-file": (["plane", table, "--flatten", tmp_path / "flat.ply",
                                     "--add-to-manifest", scene, "--plane-id", "top",
                                     "--report", a_file / "r.json"], a_file),
        "eval-detail-under-file": (["eval", "--episodes", episodes, "--report",
                                    tmp_path / "ok.csv", "--detail", a_file / "d.csv"],
                                   a_file),
        # Two outputs that resolve to one file: one would replace the other.
        "plane-flatten-is-report": (["plane", table, "--flatten", tmp_path / "same.out",
                                     "--report", a_dir / ".." / "same.out"],
                                    a_dir / ".." / "same.out"),
        "plane-report-is-manifest": (["plane", table, "--report", scene,
                                      "--add-to-manifest", scene], scene),
        "eval-report-is-detail": (["eval", "--episodes", episodes, "--report",
                                   tmp_path / "s.csv", "--detail", tmp_path / "s.csv"],
                                  tmp_path / "s.csv"),
    }[case]
    files = {p: p.read_bytes() if p.is_file() else None for p in tmp_path.rglob("*")}
    assert run(*argv) == 2
    # No output written, no input (the scene manifest among them) changed.
    assert {p: p.read_bytes() if p.is_file() else None
            for p in tmp_path.rglob("*")} == files
    err = capsys.readouterr().err
    assert "Traceback" not in err
    events = [json.loads(line) for line in err.splitlines() if line.startswith("{")]
    errors = [e for e in events if e["event"] == "error"]
    assert len(errors) == 1 and errors[0]["code"] == 2
    assert str(path) in errors[0]["message"]


@pytest.mark.parametrize("under", ["file", "below-file"])
def test_stitch_out_under_a_file_is_refused_before_any_pair(synth_dir, tmp_path,
                                                             capsys, under):
    a_file = tmp_path / "a_file"
    a_file.write_text("")
    out = a_file if under == "file" else a_file / "sub" / "dir"
    assert run("stitch", synth_dir / "stitch_manifest.json", "--out", out) == 2
    events = [json.loads(line) for line in capsys.readouterr().err.splitlines()
              if line.startswith("{")]
    assert [e["event"] for e in events] == ["error"]
    assert events[0]["message"] == f"{a_file}: Not a directory"


def test_closed_stdout_exits_141_quietly():
    # The pipe's read end is closed before the child starts, so its first
    # write to stdout fails with EPIPE.
    src = Path(panostitch.__file__).parent.parent
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        child = subprocess.run(
            [sys.executable, "-m", "panostitch.cli", "eval", "--correlate",
             str(DATA / "simreal_rates.csv")],
            stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=60)
    finally:
        os.close(write_end)
    assert child.returncode == 141
    assert child.stderr == b""


class TestThreadsVariable:
    @pytest.mark.parametrize("value", ["abc", "0", "-3"])
    def test_bad_value_exits_2_before_the_command(self, tmp_path, capsys,
                                                  monkeypatch, value):
        monkeypatch.setenv("PANOSTITCH_THREADS", value)
        report = tmp_path / "report.csv"
        assert run("eval", "--episodes", DATA / "microwave_episodes.csv",
                   "--report", report) == 2
        err = capsys.readouterr().err
        assert f"PANOSTITCH_THREADS must be a positive integer, got {value!r}" in err
        assert not report.exists()

    def test_positive_value_runs(self, tmp_path, monkeypatch):
        monkeypatch.setenv("PANOSTITCH_THREADS", "1")
        report = tmp_path / "report.csv"
        assert run("eval", "--episodes", DATA / "microwave_episodes.csv",
                   "--report", report) == 0
        assert report.exists()

    def test_no_command_starts_a_thread(self, tmp_path, monkeypatch):
        # KD-tree queries are the only parallel stage, and at one thread
        # cKDTree runs them on the calling thread; both RANSACs and the
        # normal kernel always do, so the whole workflow runs with
        # Thread.start refused.
        def refuse(thread):
            raise RuntimeError(f"{thread!r} started")
        monkeypatch.setenv("PANOSTITCH_THREADS", "1")
        monkeypatch.setattr(threading.Thread, "start", refuse)
        config = tmp_path / "config.json"
        config.write_text(json.dumps({
            "seed": 5, "episodes": [EPISODE],
            "scene": {"pixel_noise_sigma": 0.0, "outlier_fraction": 0.0,
                      "cloud_point_count": 3000}}))
        art, out = tmp_path / "art", tmp_path / "stitched"
        manifest = out / "scene_manifest.json"
        codes = [run("synth", config, "--out", art),
                 run("stitch", art / "stitch_manifest.json", "--out", out),
                 run("plane", out / "merged.ply", "--add-to-manifest", manifest,
                     "--plane-id", "floor"),
                 run("place", manifest, "--plane", "floor", "--asset-id", "crate",
                     "--aabb-min", 0, 0, 0, "--aabb-max", 0.4, 0.4, 0.4),
                 run("eval", "--episodes", art / "episodes.csv")]
        assert codes == [0] * 5


def test_import_leaves_scipy_spatial_unloaded():
    # plane, place, eval and synth build no KD-tree, so importing the CLI
    # must not import scipy.spatial; PointIndex imports it on first use.
    src = Path(panostitch.__file__).parent.parent
    code = ("import sys, panostitch.cli, panostitch.geometry as g; "
            "print('scipy.spatial' in sys.modules); g.PointIndex([[0.0, 0.0, 0.0]]); "
            "print('scipy.spatial' in sys.modules)")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=60).stdout
    assert out.split() == ["False", "True"]
