"""Run a fixed end-to-end CLI flow, replay it under every variant that
must not change a byte, and print a sha256 per artifact.

    PYTHONPATH=src python tools/artifact_digest.py OUT_DIR

The flow: `synth` (a two-room scene plus episode logs), `stitch` at
seeds 0 and 7, `synth` and `stitch` of a denser two-room scene (20,000
points per room, so ICP registers its 5,000-point source sample and
estimates the target normals it reads in more than one query block),
`plane` on an ASCII PLY table with `--flatten` and `--add-to-manifest`
(into the seed-0 scene manifest), three `place` calls on that plane, and
`eval` of the synthesized episodes. A second `plane --flatten` runs on a
106,000-point table under 70 % clutter. Its inlier ratio of about 0.3
keeps the plane search going through three batches of candidates (64,
128 and 256, to 448 of 1,000), each scored in blocks of 16, and a
candidate stops early once it cannot reach the best count of an earlier
block, in its own batch or an earlier one. A labeled cloud (normals and room ids) is
also written as ASCII PLY, read back and written as binary, so both
directions of the ASCII codec are covered. `dtw.json` holds the `repr`
of `dtw` and of `dtw(normalize=True)` over seeded float and
integer-grid trajectory pairs, the grid ones full of equal-cost ties.
Last, a two-room scene built with the library the way the benchmark
builds its match-heavy scenes (room B sampled again with 3 mm noise,
binary PLYs, 2,000 matches at 40 % outliers) is stitched; its ICP
correspondences cycle, so it covers the cycle stop, and the script exits
non-zero unless its diagnostics report stop reason "cycle". The same
scene is stitched again with RANSAC at a 1.5 px threshold and a cap of
100 samples, a second inlier boundary and a last batch of 36 samples
that ends at the cap.
Every step is seeded, so two source trees that produce the same
artifacts print the same digests.

The whole flow then runs again into the same OUT_DIR under each entry
of VARIANTS: PANOSTITCH_THREADS=1 and =8, _plane_search._SCORE_BLOCK
patched to 1, so both RANSACs score one hypothesis per block of rows,
ICP's NORMAL_BLOCK patched to one target normal per neighbor query, and
OPENBLAS_NUM_THREADS=1, which OpenBLAS reads only when numpy loads, so
that run is a child interpreter that imports this script. The script
exits non-zero, naming the first artifact and variant, unless every
run writes every artifact with the same bytes.

After the digests, two more lines give exit codes whose outputs are not
hashed. The first is a `stitch` of the first synth scene with room B's
cloud moved 9 m along x, so far that the two clouds' boxes no longer
meet at the coarse pose: a tree that refuses the pair prints 5, one
that stitches it anyway prints 0. The second is a `stitch` of a synth
scene with 5 floor matches, fewer than the floor fit's 10 inliers, which
covers the floor fit's refusal: a tree that refuses the floor prints 5.

To compare two source trees, run this script once against each (set
PYTHONPATH to that tree's `src`) with the SAME OUT_DIR, and diff the
outputs. The directory matters: scene manifests record cloud paths and
plane reports record the flattened PLY path as absolute paths. Each
run overwrites the artifacts it lists, so OUT_DIR can be reused.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np

from panostitch import _plane_search, cli, icp
from panostitch.geometry import PointCloud, RigidTransform, rot_z
from panostitch.metrics import dtw
from panostitch.ply import read_ply, write_ply
from panostitch.testkit import SynthSceneConfig, sample_room_cloud, synth_room_pair

SYNTH_CONFIG = {
    "seed": 5,
    "scene": {"pixel_noise_sigma": 0.5, "outlier_fraction": 0.1,
              "cloud_point_count": 3000},
    "episodes": [
        {"task": "microwave", "tier": "train", "n_trials": 20, "true_rate": 0.7},
        {"task": "microwave", "tier": "unseen_scene", "n_trials": 20,
         "true_rate": 0.5},
        {"task": "drawer", "tier": "train", "n_trials": 15, "true_rate": 0.6},
    ],
}
DENSE_SYNTH_CONFIG = {
    "seed": 11,
    "scene": {"pixel_noise_sigma": 0.5, "outlier_fraction": 0.1,
              "cloud_point_count": 20000},
}
# A scene with too few floor matches for the floor fit.
FLOORLESS_SYNTH_CONFIG = {"seed": 5, "scene": {**SYNTH_CONFIG["scene"],
                                               "floor_point_count": 5}}
BIG_TABLE_POINTS = 106_000
BIG_TABLE_CLUTTER = 0.7   # share of the big table's points off the table top
# (label, length a, length b, integer grid?)
DTW_PAIRS = [("float-150x150", 150, 150, False), ("float-60x90", 60, 90, False),
             ("float-1x40", 1, 40, False), ("float-40x1", 40, 1, False),
             ("grid-30x45", 30, 45, True), ("grid-25x25", 25, 25, True),
             ("grid-1x1", 1, 1, True)]
PLACES = [("mug", (0.1, 0.1, 0.12)), ("box", (0.2, 0.15, 0.1)),
          ("can", (0.07, 0.07, 0.12))]
# The files each stitch writes.
STITCH_ARTIFACTS = ("merged.ply", "diagnostics.json", "scene_manifest.json")
# Scene and stitch seed of a resampled scene whose ICP cycles (the scene
# tests/test_icp.py and tests/test_cli.py use for the cycle stop). The
# iterate the cycle stop returns is not the one the 50th step lands on,
# so the merged cloud shows the change.
CYCLING_SEED = 2
# RANSAC settings of the second stitch of that scene: 100 = 64 + 36, a
# cap inside the second batch (its inlier share asks for more samples).
RANSAC_VARIANT = {"threshold": 1.5, "iterations": 100}
# (label, patch, run in a child interpreter?): each replays the whole flow.
VARIANTS = (
    ("PANOSTITCH_THREADS=1", mock.patch.dict(os.environ, PANOSTITCH_THREADS="1"), False),
    ("PANOSTITCH_THREADS=8", mock.patch.dict(os.environ, PANOSTITCH_THREADS="8"), False),
    ("one hypothesis per block", mock.patch.object(_plane_search, "_SCORE_BLOCK", 1), False),
    ("one normal per block", mock.patch.object(icp, "NORMAL_BLOCK", 1), False),
    ("OPENBLAS_NUM_THREADS=1",
     mock.patch.dict(os.environ, OPENBLAS_NUM_THREADS="1"), True),
)


def table_cloud(n: int = 2000, seed: int = 0) -> PointCloud:
    """A level 1.2 m x 0.8 m table top at z = 0.75 with 2 mm noise."""
    rng = np.random.default_rng(seed)
    return PointCloud(np.column_stack([rng.uniform(-0.6, 0.6, n),
                                       rng.uniform(-0.4, 0.4, n),
                                       0.75 + rng.normal(0.0, 0.002, n)]))


def cluttered_table(n: int, seed: int) -> PointCloud:
    """A table top with 5 mm noise under BIG_TABLE_CLUTTER of clutter
    points, so candidate planes differ in support instead of all taking
    every point."""
    table = table_cloud(n, seed).points.copy()
    rng = np.random.default_rng(seed + 1)
    table[:, 2] += rng.normal(0.0, 0.005, n)
    clutter = rng.random(n) < BIG_TABLE_CLUTTER
    table[clutter] = rng.uniform((-0.6, -0.4, 0.75), (0.6, 0.4, 1.05),
                                 size=(int(clutter.sum()), 3))
    return PointCloud(table)


def labeled_cloud(n: int = 500, seed: int = 1) -> tuple[PointCloud, np.ndarray]:
    """Points spanning several decades of scale, unit normals, room ids."""
    rng = np.random.default_rng(seed)
    pts = rng.normal(size=(n, 3)) * 10.0 ** rng.uniform(-4, 4, size=(n, 1))
    normals = rng.normal(size=(n, 3))
    normals /= np.linalg.norm(normals, axis=1, keepdims=True)
    return PointCloud(pts, normals), rng.integers(0, 5, size=n)


def write_resampled_scene(out: Path, seed: int) -> Path:
    """A two-room stitch input: synth_room_pair matches and room A, room B
    sampled again from its own stream with 3 mm noise; returns the
    stitch manifest path."""
    pose = RigidTransform(rot_z(np.deg2rad(11.0)), np.array([-1.6, -0.4, 0.0]))
    cfg = SynthSceneConfig(floor_point_count=1000, wall_point_count=1000,
                           pixel_noise_sigma=1.0, outlier_fraction=0.4, seed=seed,
                           cloud_point_count=3000, gt_relative_pose=pose)
    pair = synth_room_pair(cfg)
    rng_b = np.random.default_rng([seed, 1])
    pts, _ = sample_room_cloud(cfg.room_extent, 3000, cfg.edge_margin, rng_b)
    pts = pts - np.array([0.0, 0.0, cfg.camera_height])
    pts = pts + rng_b.normal(0.0, 0.003, size=pts.shape)
    out.mkdir(parents=True, exist_ok=True)
    (out / "matches.json").write_text(json.dumps(pair.match_data))
    write_ply(out / "room_a.ply", PointCloud(pair.cloud_a.points), binary=True)
    write_ply(out / "room_b.ply", PointCloud(pose.apply(pts)), binary=True)
    manifest = out / "stitch_manifest.json"
    manifest.write_text(json.dumps({"root_room": "room_a", "pairs": [{
        "room_a": "room_a", "room_b": "room_b", "match_file": "matches.json",
        "cloud_a": "room_a.ply", "cloud_b": "room_b.ply",
        "camera_height_m": pair.camera_height,
        "gravity_axis": [float(v) for v in pair.gravity_a]}]}))
    return manifest


def dtw_values(seed: int = 3) -> list[dict]:
    """`repr` of dtw, plain and normalized, over the DTW_PAIRS."""
    rng = np.random.default_rng(seed)
    rows = []
    for label, na, nb, grid in DTW_PAIRS:
        if grid:
            a, b = (rng.integers(0, 3, size=(k, 3)).astype(float) for k in (na, nb))
        else:
            a, b = (np.cumsum(rng.normal(0.0, 0.05, size=(k, 3)), axis=0)
                    for k in (na, nb))
        rows.append({"pair": label, "dtw": repr(dtw(a, b)),
                     "dtw_normalized": repr(dtw(a, b, normalize=True))})
    return rows


def shifted_stitch_code(out: Path) -> int:
    """Exit code of stitching the synth scene in out/synth with room B
    moved 9 m along x."""
    shifted = out / "shifted"
    shifted.mkdir(parents=True, exist_ok=True)
    for name in ("matches.json", "room_a.ply", "stitch_manifest.json"):
        (shifted / name).write_bytes((out / "synth" / name).read_bytes())
    cloud, _ = read_ply(out / "synth" / "room_b.ply")
    write_ply(shifted / "room_b.ply", PointCloud(cloud.points + [9.0, 0.0, 0.0]))
    return cli.main(["stitch", str(shifted / "stitch_manifest.json"),
                     "--out", str(out / "stitch_shifted")])


def floorless_stitch_code(out: Path) -> int:
    """Exit code of stitching a synth scene with 5 floor matches."""
    config = out / "synth_floorless_config.json"
    config.write_text(json.dumps(FLOORLESS_SYNTH_CONFIG))
    run("synth", config, "--out", out / "synth_floorless")
    return cli.main(["stitch", str(out / "synth_floorless" / "stitch_manifest.json"),
                     "--out", str(out / "stitch_floorless")])


def run(*argv) -> None:
    code = cli.main([str(a) for a in argv])
    if code != 0:
        raise SystemExit(f"panostitch {argv[0]} exited {code}")


def flow(out: Path) -> list[Path]:
    """Run every step into `out` and return the artifact paths."""
    # Subdirectories are made here: older trees do not create them.
    for sub in ("synth", "plane", "place", "eval"):
        (out / sub).mkdir(parents=True, exist_ok=True)
    config = out / "synth_config.json"
    config.write_text(json.dumps(SYNTH_CONFIG))
    synth = out / "synth"
    run("synth", config, "--out", synth)
    for seed in (0, 7):
        run("stitch", synth / "stitch_manifest.json", "--out", out / f"stitch{seed}",
            "--seed", seed)
    dense_config = out / "synth_dense_config.json"
    dense_config.write_text(json.dumps(DENSE_SYNTH_CONFIG))
    run("synth", dense_config, "--out", out / "synth_dense")
    run("stitch", out / "synth_dense" / "stitch_manifest.json",
        "--out", out / "stitch_dense", "--seed", 0)
    scene = out / "stitch0" / "scene_manifest.json"
    write_ply(out / "table.ply", table_cloud(), binary=False)
    run("plane", out / "table.ply", "--flatten", out / "plane" / "flat.ply",
        "--report", out / "plane" / "report.json", "--add-to-manifest", scene,
        "--plane-id", "table", "--seed", 2)
    write_ply(out / "big_table.ply", cluttered_table(BIG_TABLE_POINTS, seed=3))
    run("plane", out / "big_table.ply", "--flatten", out / "plane" / "big_flat.ply",
        "--report", out / "plane" / "big_report.json", "--seed", 4)
    for k, (asset, size) in enumerate(PLACES):
        dest = [] if k < 2 else ["--out", out / "place" / "placed.json"]
        run("place", scene, "--plane", "table", "--asset-id", asset,
            "--aabb-min", 0, 0, 0, "--aabb-max", *size, "--seed", k, *dest)
    run("eval", "--episodes", synth / "episodes.csv",
        "--report", out / "eval" / "report.csv", "--detail", out / "eval" / "detail.csv")
    cloud, room_ids = labeled_cloud()
    write_ply(out / "labeled_ascii.ply", cloud, binary=False, room_ids=room_ids)
    back, back_ids = read_ply(out / "labeled_ascii.ply")
    write_ply(out / "labeled_binary.ply", back, room_ids=back_ids)
    (out / "dtw.json").write_text(json.dumps(dtw_values(), indent=2) + "\n")
    cycling = write_resampled_scene(out / "cycling", CYCLING_SEED)
    run("stitch", cycling, "--out", out / "stitch_cycling", "--seed", CYCLING_SEED)
    diagnostics = json.loads((out / "stitch_cycling" / "diagnostics.json").read_text())
    reason = diagnostics["pairs"][0]["icp"]["stop_reason"]
    if reason != "cycle":
        raise SystemExit(f"stitch_cycling ICP stopped on {reason!r}, not 'cycle'")
    variant = json.loads(cycling.read_text())
    variant["pairs"][0]["ransac"] = RANSAC_VARIANT
    variant_path = cycling.with_name("stitch_manifest_ransac.json")
    variant_path.write_text(json.dumps(variant))
    run("stitch", variant_path, "--out", out / "stitch_ransac", "--seed", CYCLING_SEED)

    artifacts = [synth / name for name in (
        "matches.json", "room_a.ply", "room_b.ply", "ground_truth.json",
        "stitch_manifest.json", "episodes.csv", "episodes_empirical.json")]
    for seed in (0, 7):
        artifacts += [out / f"stitch{seed}" / name for name in STITCH_ARTIFACTS]
    artifacts += [out / "stitch_dense" / name for name in STITCH_ARTIFACTS]
    artifacts += [out / "table.ply", out / "plane" / "flat.ply",
                  out / "plane" / "report.json", out / "plane" / "big_flat.ply",
                  out / "plane" / "big_report.json", out / "place" / "placed.json",
                  out / "eval" / "report.csv", out / "eval" / "detail.csv",
                  out / "labeled_ascii.ply", out / "labeled_binary.ply",
                  out / "dtw.json"]
    for sub in ("stitch_cycling", "stitch_ransac"):
        artifacts += [out / sub / name for name in STITCH_ARTIFACTS]
    return artifacts


def digests(out: Path, flow=flow) -> dict[str, str]:
    """sha256 of each artifact `flow` writes into `out`, by path under `out`."""
    return {str(path.relative_to(out)): hashlib.sha256(path.read_bytes()).hexdigest()
            for path in flow(out)}


def child_digests(out: Path) -> dict[str, str]:
    """`digests(out)` in a new interpreter that inherits this environment."""
    paths = [Path(__file__).resolve().parent, Path(cli.__file__).resolve().parent.parent]
    path = os.pathsep.join(filter(None, [*map(str, paths), os.environ.get("PYTHONPATH")]))
    code = ("import json, sys, pathlib, artifact_digest\n"
            "print(json.dumps(artifact_digest.digests(pathlib.Path(sys.argv[1]))))")
    child = subprocess.run([sys.executable, "-c", code, str(out)], text=True,
                           stdout=subprocess.PIPE, env={**os.environ, "PYTHONPATH": path})
    if child.returncode != 0:
        raise SystemExit(f"the child interpreter exited {child.returncode}")
    return json.loads(child.stdout.splitlines()[-1])


def replay(out: Path, flow=flow, variants=VARIANTS) -> dict[str, str]:
    """`digests(out, flow)`, after the flow is replayed under each variant
    (a child one runs this script's own flow); exits non-zero naming the
    first artifact and variant whose bytes differ."""
    first = digests(out, flow)
    for label, patch, in_child in variants:
        with patch:   # undone when the run ends
            again = child_digests(out) if in_child else digests(out, flow)
        for name, digest in first.items():
            if again.get(name) != digest:
                raise SystemExit(f"{name} differs at {label}")
    return first


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    out = Path(argv[0]).resolve()
    for name, digest in replay(out).items():
        print(f"{digest}  {name}")
    print(f"exit {shifted_stitch_code(out)}  stitch of synth with room B moved 9 m")
    print(f"exit {floorless_stitch_code(out)}  stitch of synth with 5 floor matches")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
