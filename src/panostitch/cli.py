"""Command-line pipeline driver.

Subcommands: stitch, plane, place, eval, synth. Every command is
deterministic given identical inputs and --seed; all randomness forks
from that seed by stable stage labels. Output files are written
atomically (temp file + rename), creating missing parent directories.
Structured JSON-lines progress logs, including stage timings, go to
stderr; result artifacts never contain timings so repeated runs are
byte-identical.

Exit codes: 0 success, 2 input error (any file that cannot be read or
written; a bad stitch pair, or an output under a file or a directory named
as an output file, exits 2 before any cloud, manifest or CSV is read), 3
graph, 4 placement, 5 numerical failure, 141 a closed stdout (128 + SIGPIPE).
PANOSTITCH_THREADS caps the KD-tree query threads, the only ones the
package starts, not the BLAS library's own pool; a value that is not a
positive integer exits 2 before the command runs.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import os
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import scene as scene_mod
from ._atomic import write_atomic, write_json
from ._trace import recording, span
from .epipolar import CheiralityError, EstimationError, RansacConfig
from .geometry import (Aabb, GeometryError, PointCloud, RigidTransform, from_json,
                       is_json, rot_z, thread_count)
from .icp import IcpConfig, IcpError
from .metrics import (MetricError, generalization_report, parse_tier,
                      read_episode_csv, read_rates_csv, simreal_correlation,
                      write_episode_csv)
from .panorama import MatchFileError, load_matches
from .pipeline import PairConfig, PairResult, fork_seed, register_room_pair
from .ply import PlyError, read_ply, write_ply
from .scale import DEFAULT_CAMERA_HEIGHT, GroundConfig, GroundPlaneError
from .scene import (ManifestError, PlacementError, PlaneFitError,
                    SceneGraphError, fit_plane_ransac, flatten_to_plane,
                    inlier_stddev, merge_rooms, place_asset,
                    support_plane_from_inliers)
from .testkit import (EpisodeSpec, SynthSceneConfig, synth_episodes,
                      synth_room_pair)

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_GRAPH = 3
EXIT_PLACEMENT = 4
EXIT_NUMERIC = 5


class CliError(Exception):
    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


def _log(stage: str, event: str, **fields) -> None:
    print(json.dumps({"stage": stage, "event": event, **fields}, sort_keys=True),
          file=sys.stderr)


def _load_json(path: Path, what: str, keys: tuple[str, ...]) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except json.JSONDecodeError as e:
        raise CliError(EXIT_INPUT, f"malformed {what} {path}: {e}") from e
    if not isinstance(data, dict):
        raise CliError(EXIT_INPUT, f"malformed {what} {path}: not a JSON object")
    unknown = sorted(set(data) - set(keys))
    if unknown:
        raise CliError(EXIT_INPUT, f"bad {what}: unknown keys {unknown}")
    return data


def _read_cloud(path: Path) -> PointCloud:
    try:
        cloud, _ = read_ply(path)
    except PlyError as e:
        raise CliError(EXIT_INPUT, f"bad PLY {path}: {e}") from e
    if len(cloud) == 0:
        raise CliError(EXIT_INPUT, f"empty point cloud: {path}")
    return cloud


def _check_outputs(*paths, directory: bool = False) -> None:
    """Exit 2 if two output paths resolve to one file, or one lies under a
    file, or is a directory (a file, if `directory`); called before any
    input is read."""
    seen = set()
    for path in map(Path, filter(None, paths)):
        if path.resolve() in seen:
            raise CliError(EXIT_INPUT, f"{path}: named by two outputs")
        seen.add(path.resolve())
        near = next(d for d in (path, *path.parents) if d.exists())
        if (is_dir := near.is_dir()) == (near == path and not directory):
            raise CliError(EXIT_INPUT, f"{near}: {'Is' if is_dir else 'Not'} a directory")


# ---------------------------------------------------------------------------
# stitch
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class StitchPair:
    """One entry of a stitch manifest's `pairs` list."""

    room_a: str
    room_b: str
    match_file: str
    cloud_a: str
    cloud_b: str
    camera_height_m: float = DEFAULT_CAMERA_HEIGHT
    gravity_axis: tuple[float, float, float] = PairConfig.gravity_axis
    ransac: RansacConfig = RansacConfig()
    icp: IcpConfig = IcpConfig()
    voxel_size: float | None = PairConfig.voxel_size

    def config(self) -> PairConfig:
        return PairConfig(self.ransac, GroundConfig(self.camera_height_m), self.icp,
                          self.gravity_axis, self.voxel_size)


def cmd_stitch(args) -> int:
    manifest_path = Path(args.manifest)
    out_dir = Path(args.out)
    data = _load_json(manifest_path, "stitch manifest", ("pairs", "root_room"))
    entries = data.get("pairs")
    if not entries or not isinstance(entries, list):
        raise CliError(EXIT_INPUT, "stitch manifest needs a non-empty list of pairs")
    base = manifest_path.parent

    try:
        pairs = [from_json(StitchPair, entry) for entry in entries]
        configs = [p.config() for p in pairs]
    except ValueError as e:
        raise CliError(EXIT_INPUT, f"bad pair config: {e}") from e
    rooms: dict[str, Path] = {}
    for p in pairs:
        rooms.setdefault(p.room_a, base / p.cloud_a)
        rooms.setdefault(p.room_b, base / p.cloud_b)
        for f in (p.match_file, p.cloud_a, p.cloud_b):
            if not (base / f).is_file():
                raise CliError(EXIT_INPUT, f"file not found: {base / f}")
    _check_outputs(out_dir, directory=True)

    root = data.get("root_room", pairs[0].room_a)
    if not isinstance(root, str) or root not in rooms:
        raise CliError(EXIT_INPUT, f"root room {root!r} not present in pairs")
    try:
        scene_mod.spanning_tree_order(
            rooms, [(p.room_a, p.room_b) for p in pairs], root)
    except SceneGraphError as e:
        raise CliError(EXIT_GRAPH, str(e)) from e
    for p in pairs:
        for rid, path in ((p.room_a, base / p.cloud_a), (p.room_b, base / p.cloud_b)):
            if path != rooms[rid]:
                raise CliError(EXIT_INPUT, f"room {rid!r} has two cloud files: "
                                           f"{rooms[rid]} and {path}")

    label = None

    def stage_done(name: str, seconds: float, counts: dict) -> None:
        _log("stitch", "stage_done", span=name, elapsed_s=round(seconds, 4),
             **({"pair": label} if label else {}), **counts)

    with recording(stage_done):
        clouds = {}
        for rid, path in rooms.items():
            with span("ply.read_ply", room=rid) as counts:
                clouds[rid] = _read_cloud(path)
                counts["points"] = len(clouds[rid])
        registrations = []
        for p, cfg in zip(pairs, configs):
            label = f"pair:{p.room_a}->{p.room_b}"
            t0 = time.perf_counter()
            try:
                with span("panorama.load_matches") as counts:
                    matches = load_matches(base / p.match_file)
                    counts["matches"] = len(matches)
                result: PairResult = register_room_pair(
                    matches, clouds[p.room_a], clouds[p.room_b],
                    cfg=cfg, seed=fork_seed(args.seed, label))
            except MatchFileError as e:
                raise CliError(EXIT_INPUT, f"{label}: {e}") from e
            except (EstimationError, CheiralityError, GroundPlaneError, IcpError,
                    GeometryError, ValueError) as e:
                raise CliError(EXIT_NUMERIC, f"{label}: {e}") from e
            _log("stitch", "pair_registered", pair=label,
                 elapsed_s=round(time.perf_counter() - t0, 4),
                 alpha=result.alpha, icp_iterations=result.icp.iterations,
                 icp_converged=result.icp.converged,
                 icp_stop_reason=result.icp.stop_reason)
            registrations.append((p, result))
        label = None

        manifest = scene_mod.SceneManifest(
            rooms=[scene_mod.RoomNode(id=rid, cloud=clouds[rid],
                                      cloud_path=str(rooms[rid]))
                   for rid in sorted(rooms)],
            pair_registrations=[
                scene_mod.PairRegistration(
                    room_a=p.room_a, room_b=p.room_b,
                    T_coarse=r.T_coarse, T_fine=r.T_fine,
                    diagnostics=r.diagnostics())
                for p, r in registrations],
            root_room=root)

        try:
            with span("scene.merge_rooms", rooms=len(manifest.rooms)):
                merged = merge_rooms(manifest)
        except (SceneGraphError, ManifestError) as e:
            raise CliError(EXIT_GRAPH, str(e)) from e
        _log("stitch", "merged", rooms=len(manifest.rooms), points=len(merged.cloud))

        with span("ply.write_ply", points=len(merged.cloud)):
            write_ply(out_dir / "merged.ply", merged.cloud, binary=True,
                      room_ids=merged.room_ids)
        with span("scene.save_manifest"):
            scene_mod.save_manifest(out_dir / "scene_manifest.json", manifest)
    write_json(out_dir / "diagnostics.json", {
        "root_room": root,
        "pairs": [{"room_a": p.room_a, "room_b": p.room_b,
                   **r.diagnostics()} for p, r in registrations],
        "merged_points": len(merged.cloud),
    })
    _log("stitch", "done", out=str(out_dir))
    return EXIT_OK


# ---------------------------------------------------------------------------
# plane
# ---------------------------------------------------------------------------

def _load_scene_manifest(path: Path) -> scene_mod.SceneManifest:
    try:
        return scene_mod.load_manifest(path)
    except (ManifestError, json.JSONDecodeError, ValueError) as e:
        raise CliError(EXIT_INPUT, f"bad scene manifest: {e}") from e


def cmd_plane(args) -> int:
    # Every check comes before any work, so a refused run writes nothing.
    manifest = plane_id = None
    if args.plane_id is not None and not args.add_to_manifest:
        raise CliError(EXIT_INPUT, "--plane-id needs --add-to-manifest")
    _check_outputs(args.flatten, args.add_to_manifest, args.report)
    if args.add_to_manifest:
        manifest = _load_scene_manifest(Path(args.add_to_manifest))
        plane_id = args.plane_id or f"plane{len(manifest.planes)}"
        if any(p.id == plane_id for p in manifest.planes):
            raise CliError(EXIT_INPUT,
                           f"plane id {plane_id!r} already in manifest")
    cloud = _read_cloud(Path(args.cloud))
    try:
        plane, inliers = fit_plane_ransac(cloud, seed=fork_seed(args.seed, "plane"))
    except PlaneFitError as e:
        raise CliError(EXIT_NUMERIC, str(e)) from e

    spread = inlier_stddev(cloud, plane, inliers)
    report = {
        "normal_xyz": [float(v) for v in plane.normal],
        "d": plane.d,
        "inlier_count": int(inliers.size),
        "point_count": len(cloud),
        "pre_flatten_stddev_m": spread,
        "stddev_within_1cm": bool(spread <= scene_mod.FLATTEN_STDDEV_LIMIT),
    }
    if args.flatten:
        flat = flatten_to_plane(cloud, plane, inliers)
        write_ply(Path(args.flatten), flat, binary=True)
        report["flattened_ply"] = str(args.flatten)
        report["post_flatten_stddev_m"] = inlier_stddev(flat, plane, inliers)
    if manifest is not None:
        manifest.planes.append(
            support_plane_from_inliers(plane_id, cloud, plane, inliers))
        scene_mod.save_manifest(Path(args.add_to_manifest), manifest)
        report["plane_id"] = plane_id
    if args.report:
        write_json(Path(args.report), report)
    else:
        print(json.dumps(report, indent=2, sort_keys=True))
    return EXIT_OK


# ---------------------------------------------------------------------------
# place
# ---------------------------------------------------------------------------

def cmd_place(args) -> int:
    path = Path(args.manifest)
    manifest = _load_scene_manifest(path)
    try:
        aabb = Aabb(np.array(args.aabb_min), np.array(args.aabb_max))
    except GeometryError as e:
        raise CliError(EXIT_INPUT, f"bad asset box: {e}") from e
    try:
        asset = place_asset(manifest, args.plane, args.asset_id, aabb,
                            semantic_label=args.label,
                            seed=fork_seed(args.seed, f"place:{args.asset_id}"))
    except ManifestError as e:
        raise CliError(EXIT_INPUT, str(e)) from e
    except PlacementError as e:
        raise CliError(EXIT_PLACEMENT, str(e)) from e

    out = Path(args.out) if args.out else path
    scene_mod.save_manifest(out, manifest)
    _log("place", "placed", asset=asset.asset_id, plane=asset.support_plane_id,
         pose=asset.pose.to_quat_xyz())
    return EXIT_OK


# ---------------------------------------------------------------------------
# eval
# ---------------------------------------------------------------------------

def cmd_eval(args) -> int:
    if not args.episodes and not args.correlate:
        raise CliError(EXIT_INPUT, "eval needs --episodes and/or --correlate")
    if (args.report or args.detail) and not args.episodes:
        raise CliError(EXIT_INPUT, "--report and --detail need --episodes")
    _check_outputs(args.report, args.detail)
    if args.episodes:
        try:
            episodes = read_episode_csv(Path(args.episodes))
        except MetricError as e:
            raise CliError(EXIT_INPUT, f"{args.episodes}: {e}") from e
        report = generalization_report(episodes)
        for dest, rows in ((args.report, report.to_csv_rows()),
                           (args.detail, report.detail_rows())):
            if dest:
                buf = io.StringIO()
                csv.writer(buf, lineterminator="\n").writerows(rows)
                write_atomic(Path(dest), buf.getvalue())
        if not args.report and not args.detail:
            print(report.to_text())

    if args.correlate:
        try:
            entries = read_rates_csv(Path(args.correlate))
        except MetricError as e:
            raise CliError(EXIT_INPUT, f"{args.correlate}: {e}") from e
        try:
            corr = simreal_correlation(entries)
        except MetricError as e:
            raise CliError(EXIT_NUMERIC, str(e)) from e
        print(json.dumps({"r_task_averaged": corr.r_task_averaged, "r_raw": corr.r_raw,
                          "n_averaged": corr.n_averaged, "n_raw": corr.n_raw},
                         indent=2, sort_keys=True))
    return EXIT_OK


# ---------------------------------------------------------------------------
# synth
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SceneSpec:
    """A synth config's `scene` object."""

    room_extent: tuple[float, float, float] = (5.0, 4.0, 3.0)
    floor_point_count: int = 150
    wall_point_count: int = 150
    camera_height_m: float = 1.5
    gt_yaw_deg: float = 11.0
    gt_translation: tuple[float, float, float] = (-1.6, -0.4, 0.0)
    pixel_noise_sigma: float = 0.0
    outlier_fraction: float = 0.0
    pano_width: int = 2048
    cloud_point_count: int = 4000

    def config(self, seed: int) -> SynthSceneConfig:
        gt = RigidTransform(rot_z(np.deg2rad(self.gt_yaw_deg)), self.gt_translation)
        return SynthSceneConfig(
            room_extent=self.room_extent, floor_point_count=self.floor_point_count,
            wall_point_count=self.wall_point_count,
            camera_height=float(self.camera_height_m), gt_relative_pose=gt,
            pixel_noise_sigma=float(self.pixel_noise_sigma),
            outlier_fraction=float(self.outlier_fraction), seed=seed,
            pano_width=self.pano_width, cloud_point_count=self.cloud_point_count)


def cmd_synth(args) -> int:
    config = _load_json(Path(args.config), "synth config",
                        ("seed", "scene", "episodes", "ransac", "icp", "voxel_size"))
    out_dir = Path(args.out)
    seed = args.seed if args.seed is not None else config.get("seed", 0)
    if not is_json(seed, int):
        raise CliError(EXIT_INPUT, f"bad synth config: seed must be an integer, got {seed!r}")
    if seed < 0:
        raise CliError(EXIT_INPUT, f"bad synth config: seed must be >= 0, got {seed}")

    if "scene" not in config and "episodes" not in config:
        raise CliError(EXIT_INPUT, "synth config needs 'scene' and/or 'episodes'")
    specs = []
    if "episodes" in config:
        episodes = config["episodes"]
        if not isinstance(episodes, list) or not episodes:
            raise CliError(EXIT_INPUT, "bad synth config: episodes must be a non-empty "
                                       f"list, got {episodes!r}")
        try:
            specs = [from_json(EpisodeSpec, e, tier=parse_tier) for e in episodes]
        except (TypeError, ValueError) as e:
            raise CliError(EXIT_INPUT, f"bad episode spec: {e}") from e

    if "scene" in config:
        try:
            pair = synth_room_pair(from_json(SceneSpec, config["scene"]).config(seed))
        except ValueError as e:
            raise CliError(EXIT_INPUT, f"bad scene spec: {e}") from e
        entry = {"room_a": "room_a", "room_b": "room_b", "match_file": "matches.json",
                 "cloud_a": "room_a.ply", "cloud_b": "room_b.ply",
                 "camera_height_m": pair.camera_height,
                 "gravity_axis": [float(v) for v in pair.gravity_a],
                 **{k: config[k] for k in ("ransac", "icp", "voxel_size") if k in config}}
        try:   # exit 2 now, not when the manifest is stitched
            from_json(StitchPair, entry).config()
        except ValueError as e:
            raise CliError(EXIT_INPUT, f"bad pair config: {e}") from e
        write_json(out_dir / "matches.json", pair.match_data)
        # Clouds ship positions only; the pipeline estimates normals itself.
        write_ply(out_dir / "room_a.ply", PointCloud(pair.cloud_a.points))
        write_ply(out_dir / "room_b.ply", PointCloud(pair.cloud_b.points))
        write_json(out_dir / "ground_truth.json", {
            "gt_a_to_b": pair.gt.to_quat_xyz(),
            "scale_factor_k": pair.scale_factor_k,
            "camera_height_m": pair.camera_height,
            "gravity_axis": [float(v) for v in pair.gravity_a],
            "outlier_indices": [int(i) for i in np.flatnonzero(pair.outlier_mask)],
            "floor_match_count": int(pair.floor_mask.sum()),
        })
        write_json(out_dir / "stitch_manifest.json",
                   {"root_room": "room_a", "pairs": [entry]})
        _log("synth", "scene_written", out=str(out_dir),
             matches=len(pair.match_data["matches"]))

    if specs:
        synth = synth_episodes(specs, seed=fork_seed(seed, "episodes"))
        write_episode_csv(out_dir / "episodes.csv", synth.episodes)
        write_json(out_dir / "episodes_empirical.json", {
            f"{task}/{tier.value}": rate
            for (task, tier), rate in synth.empirical_sr.items()})
        _log("synth", "episodes_written", count=len(synth.episodes))
    return EXIT_OK


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def non_negative_int(text: str) -> int:
    """argparse type of every --seed; a negative value exits 2."""
    seed = int(text)
    if seed < 0:
        raise argparse.ArgumentTypeError(f"seed must be >= 0, got {seed}")
    return seed


@functools.cache   # one parser per process; parse_args leaves it unchanged
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="panostitch",
        description="Stitch room point clouds from panorama matches, "
                    "compose assets onto planes, and evaluate episodes.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("stitch", help="register and merge rooms per a manifest")
    p.add_argument("manifest", help="stitch manifest JSON")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--seed", type=non_negative_int, default=0)
    p.set_defaults(func=cmd_stitch)

    p = sub.add_parser("plane", help="fit a support plane to a cloud")
    p.add_argument("cloud", help="input PLY")
    p.add_argument("--flatten", help="write flattened cloud to this PLY")
    p.add_argument("--report", help="write plane report JSON here")
    p.add_argument("--add-to-manifest", dest="add_to_manifest",
                   help="register the plane in this scene manifest")
    p.add_argument("--plane-id", dest="plane_id",
                   help="id for --add-to-manifest (default: plane<N>)")
    p.add_argument("--seed", type=non_negative_int, default=0)
    p.set_defaults(func=cmd_plane)

    p = sub.add_parser("place", help="place an asset on a support plane")
    p.add_argument("manifest", help="scene manifest JSON")
    p.add_argument("--plane", required=True, help="support plane id")
    p.add_argument("--asset-id", required=True, dest="asset_id")
    p.add_argument("--aabb-min", type=float, nargs=3, required=True,
                   dest="aabb_min", metavar=("X", "Y", "Z"))
    p.add_argument("--aabb-max", type=float, nargs=3, required=True,
                   dest="aabb_max", metavar=("X", "Y", "Z"))
    p.add_argument("--label", default="")
    p.add_argument("--out", help="write updated manifest here (default: in place)")
    p.add_argument("--seed", type=non_negative_int, default=0)
    p.set_defaults(func=cmd_place)

    p = sub.add_parser("eval", help="episode reports and sim-real correlation")
    p.add_argument("--episodes", help="episode log CSV")
    p.add_argument("--report", help="write wide SR table CSV here")
    p.add_argument("--detail", help="write per-cell detail CSV here")
    p.add_argument("--correlate", help="sim/real rates CSV for Pearson r")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("synth", help="generate synthetic scenes and episodes")
    p.add_argument("config", help="synth config JSON")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--seed", type=non_negative_int, default=None)
    p.set_defaults(func=cmd_synth)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        try:
            thread_count()
        except ValueError as e:
            raise CliError(EXIT_INPUT, str(e)) from e
        try:
            code = args.func(args)
            sys.stdout.flush()   # a closed pipe fails here, not at exit
            return code
        except BrokenPipeError:
            # As Python's signal docs advise: stdout to devnull, so the flush
            # at exit cannot fail again. 141 = 128 + SIGPIPE, as a shell reports.
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
            return 141
        except FileNotFoundError as e:
            raise CliError(EXIT_INPUT, f"file not found: {e.filename}") from e
        except OSError as e:   # e.g. a directory named as a file
            path = e.filename2 or e.filename   # a rename names the user's path second
            raise CliError(EXIT_INPUT, f"{path}: {e.strerror}" if path else str(e)) from e
    except CliError as e:
        _log(args.command, "error", code=e.code, message=str(e))
        print(f"error: {e}", file=sys.stderr)
        return e.code


if __name__ == "__main__":
    sys.exit(main())
