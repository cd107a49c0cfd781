"""Benchmark workloads: seeded inputs, jobs, and traced replays.

Every input is a pure function of the workload seed. A job is one
user-level operation called in-process through the public API
(`panostitch.cli.main` where the CLI offers the operation, library calls
where it does not) and timed from outside. A traced job replays the same
operation as the sequence of public calls the CLI makes, with a span
around each call, and is checked against the untraced job's outputs.
"""

from __future__ import annotations

import contextlib
import io
import json
import time
import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from panostitch import cli
from panostitch.epipolar import (RansacConfig, decompose_essential,
                                 estimate_essential, triangulate_set)
from panostitch.geometry import Aabb, PointCloud, RigidTransform, rot_z, voxel_downsample
from panostitch.icp import IcpConfig, estimate_normals, point_to_plane_icp
from panostitch.metrics import (EPISODE_HEADER, RateEntry, Tier, dtw,
                                generalization_report, read_episode_csv,
                                simreal_correlation)
from panostitch.panorama import load_matches
from panostitch.pipeline import DEFAULT_VOXEL_SIZE, PairConfig, PairResult, fork_seed
from panostitch.ply import read_ply, write_ply
from panostitch.scale import GroundConfig, apply_scale, recover_scale, select_ground_points
from panostitch.scene import (ASSET_SNAP_TOL, FLATTEN_STDDEV_LIMIT,
                              PairRegistration, PlaneFitConfig,
                              RoomNode, SceneManifest, fit_plane_ransac,
                              flatten_to_plane, inlier_stddev, load_manifest,
                              merge_rooms, place_asset, save_manifest,
                              support_plane_from_inliers)
from panostitch.testkit import (EpisodeSpec, SynthSceneConfig, sample_room_cloud,
                                synth_episodes, synth_room_pair)

import checks

ROOM_B_NOISE_M = 0.003

# The room-pair pose `panostitch synth` writes by default.
SYNTH_DEFAULT_POSE = RigidTransform(rot_z(np.deg2rad(11.0)), np.array([-1.6, -0.4, 0.0]))

# Sizes per stitch workload. The dense rooms hold 40k points, not 100k: at
# 100k a job takes 2.6 s, and about half of the scenes end ICP in the
# 2-cycle described below and take 7.7 s, so a run would hold too few
# jobs for the tail percentile. See README.md.
STITCH_SPECS = {
    "stitch_dense": {"points": 40_000, "floor": 150, "wall": 150,
                     "outliers": 0.2, "scenes": 8},
    "stitch_match_heavy": {"points": 3_000, "floor": 1000, "wall": 1000,
                           "outliers": 0.4, "scenes": 8},
}

# Stitch scenes come from a fixed pool per workload; the seed picks which.
SCENE_POOL = 160
SCENE_POOL_SEED = 0
# Pool ids whose ICP ends in a 2-cycle and runs all 50 iterations (2.6x
# the job time on stitch_dense), as listed by `python3 perfbench/strata.py
# <workload>`: 19 of 160 dense scenes, 11 of 160 match-heavy ones. Each
# run takes exactly one of its scenes from this stratum, so the defect
# shows at the same rate in every run rather than at a random one.
ICP_2CYCLE_SCENES = {
    "stitch_dense": [3, 5, 9, 24, 29, 32, 36, 39, 48, 53, 61, 66, 107, 110, 137,
                     138, 145, 147, 159],
    "stitch_match_heavy": [1, 2, 27, 56, 57, 80, 84, 89, 116, 121, 155],
}

TABLE_POINTS = 100_000
TABLE_HALF_UV = (0.6, 0.4)
TABLE_NOISE_M = 0.002
PLACE_COUNT = 6
TASKS = ("pick_cup", "open_drawer", "pour_water")
TRIALS_PER_CELL = 16
TRAJECTORIES = 6
REF_PATH_POINTS = 150


def derive_seed(seed: int, *labels) -> int:
    """Stable 32-bit seed for a labelled input stream of the workload seed."""
    key = tuple(zlib.crc32(str(x).encode()) for x in labels)
    return int(np.random.SeedSequence(entropy=seed, spawn_key=key).generate_state(1)[0])


def _run_cli(argv: list[str]) -> tuple[int, str]:
    """cli.main with its JSON-lines stderr log captured."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, err.getvalue()


def _cli_failure(what: str, code: int, log: str) -> list[str]:
    tail = log.strip().splitlines()[-1:] or [""]
    return [f"{what} exited {code}: {tail[0]}"]


def _write_json(path: Path, data) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _normalized(data):
    """JSON round trip, so in-memory results compare equal to files."""
    return json.loads(json.dumps(data, sort_keys=True))


def traced_read_ply(tr, path: Path, fmt: str) -> PointCloud:
    with tr.span("ply.read_ply", fmt=fmt, bytes=path.stat().st_size):
        cloud, _ = read_ply(path)
    return cloud


def traced_write_ply(tr, path: Path, cloud: PointCloud, binary: bool, room_ids=None):
    with tr.span("ply.write_ply", fmt="binary" if binary else "ascii") as rec:
        write_ply(path, cloud, binary=binary, room_ids=room_ids)
    rec["bytes"] = path.stat().st_size


# ---------------------------------------------------------------------------
# stitch_dense / stitch_match_heavy
# ---------------------------------------------------------------------------

@dataclass
class StitchScene:
    name: str
    dir: Path
    gt: RigidTransform
    scale_k: float
    outlier_mask: np.ndarray
    points: int
    stitch_seed: int


class StitchWorkload:
    """One job: `panostitch stitch` on a two-room manifest. Jobs cycle
    through a fixed set of scenes derived from the seed."""

    def __init__(self, name: str, seed: int, work: Path):
        self.name = name
        self.spec = STITCH_SPECS[name]
        self.seed = seed
        self.work = work
        self.scenes: list[StitchScene] = []

    def scene_ids(self) -> list[int]:
        """The run's scenes: pool ids picked by the workload seed, exactly
        one of them from the pool's ICP 2-cycle stratum when it has one."""
        rng = np.random.default_rng(derive_seed(self.seed, self.name, "scenes"))
        cycle = ICP_2CYCLE_SCENES.get(self.name, [])
        others = [i for i in range(SCENE_POOL) if i not in cycle]
        ids = [int(i) for i in rng.choice(others, self.spec["scenes"] - bool(cycle),
                                          replace=False)]
        if cycle:
            ids.insert(int(rng.integers(0, len(ids) + 1)), int(rng.choice(cycle)))
        return ids

    def setup(self, tr, ids: list[int] | None = None) -> None:
        ids = self.scene_ids() if ids is None else ids
        self.scenes = [self._make_scene(i, scene_id, tr) for i, scene_id in enumerate(ids)]
        self.cycle = len(self.scenes)

    def _make_scene(self, i: int, scene_id: int, tr) -> StitchScene:
        spec = self.spec
        scene_seed = derive_seed(SCENE_POOL_SEED, self.name, scene_id)
        gt = SYNTH_DEFAULT_POSE
        cfg = SynthSceneConfig(floor_point_count=spec["floor"],
                               wall_point_count=spec["wall"],
                               pixel_noise_sigma=1.0,
                               outlier_fraction=spec["outliers"],
                               seed=scene_seed, cloud_point_count=spec["points"],
                               gt_relative_pose=gt)
        pair = synth_room_pair(cfg)
        # synth_room_pair makes room B an exact rigid copy of room A, so
        # ICP would converge on identical points. Re-sample the same
        # surfaces from a separate stream and add sensor noise instead.
        rng_b = np.random.default_rng([scene_seed, 1])
        pts, _ = sample_room_cloud(cfg.room_extent, spec["points"], cfg.edge_margin, rng_b)
        pts = pts - np.array([0.0, 0.0, cfg.camera_height])
        pts = pts + rng_b.normal(0.0, ROOM_B_NOISE_M, size=pts.shape)
        cloud_a = PointCloud(pair.cloud_a.points)
        cloud_b = PointCloud(gt.apply(pts))

        d = self.work / f"scene{i}"
        d.mkdir(parents=True, exist_ok=True)
        _write_json(d / "matches.json", pair.match_data)
        traced_write_ply(tr, d / "room_a.ply", cloud_a, binary=True)
        traced_write_ply(tr, d / "room_b.ply", cloud_b, binary=True)
        _write_json(d / "stitch_manifest.json", {
            "root_room": "room_a",
            "pairs": [{
                "room_a": "room_a", "room_b": "room_b",
                "match_file": "matches.json",
                "cloud_a": "room_a.ply", "cloud_b": "room_b.ply",
                "camera_height_m": pair.camera_height,
                "gravity_axis": [float(v) for v in pair.gravity_a],
            }],
        })
        return StitchScene(name=f"{self.name}/pool{scene_id}", dir=d, gt=gt,
                           scale_k=pair.scale_factor_k,
                           outlier_mask=pair.outlier_mask,
                           points=len(cloud_a) + len(cloud_b),
                           stitch_seed=scene_seed % 2**31)

    def job_name(self, i: int) -> str:
        return f"{self.scenes[i % len(self.scenes)].name} (job {i})"

    def job(self, i: int) -> tuple[float, list[str]]:
        sc = self.scenes[i % len(self.scenes)]
        argv = ["stitch", str(sc.dir / "stitch_manifest.json"),
                "--out", str(sc.dir / "out"), "--seed", str(sc.stitch_seed)]
        t0 = time.perf_counter()
        code, log = _run_cli(argv)
        elapsed = time.perf_counter() - t0
        if code != 0:
            return elapsed, _cli_failure("stitch", code, log)
        return elapsed, checks.check_stitch(sc.dir / "out", sc.gt.rotation,
                                            sc.gt.translation, sc.points)

    def traced_job(self, i: int, tr) -> tuple[float, list[str]]:
        """Replay cmd_stitch call by call; compare with the last CLI job's
        outputs for this scene, which must be identical."""
        sc = self.scenes[i % len(self.scenes)]
        out = sc.dir / "out_traced"
        out.mkdir(exist_ok=True)
        t0 = time.perf_counter()
        result, merged_points = self._replay(sc, out, tr)
        elapsed = time.perf_counter() - t0

        cli_diag = json.loads((sc.dir / "out" / "diagnostics.json").read_text())
        want = {k: v for k, v in cli_diag["pairs"][0].items()
                if k not in ("room_a", "room_b")}
        fails = []
        if _normalized(result.diagnostics()) != want:
            fails.append("traced replay diagnostics (T_fine included) differ from the CLI run")
        if merged_points != cli_diag["merged_points"]:
            fails.append("traced replay merged a different point count")
        if (out / "merged.ply").read_bytes() != (sc.dir / "out" / "merged.ply").read_bytes():
            fails.append("traced replay merged.ply differs from the CLI run")
        return elapsed, fails

    def _replay(self, sc: StitchScene, out: Path, tr) -> tuple[PairResult, int]:
        entry = json.loads((sc.dir / "stitch_manifest.json").read_text())["pairs"][0]
        clouds = {"room_a": traced_read_ply(tr, sc.dir / entry["cloud_a"], "binary"),
                  "room_b": traced_read_ply(tr, sc.dir / entry["cloud_b"], "binary")}
        label = f"pair:{entry['room_a']}->{entry['room_b']}"
        with tr.span("panorama.load_matches") as rec:
            matches = load_matches(sc.dir / entry["match_file"])
        rec["matches"] = len(matches)

        cfg = PairConfig(ransac=RansacConfig(),
                         ground=GroundConfig(camera_height=float(entry["camera_height_m"])),
                         icp=IcpConfig(), gravity_axis=tuple(entry["gravity_axis"]),
                         voxel_size=DEFAULT_VOXEL_SIZE)
        seed = fork_seed(sc.stitch_seed, label)
        result, recs, stages = self._register(matches, clouds["room_a"], clouds["room_b"],
                                              cfg, seed, tr)
        self._annotate(sc, matches, result, recs, *stages)

        manifest = SceneManifest(
            rooms=[RoomNode(id=rid, cloud=clouds[rid], cloud_path=str(sc.dir / entry[key]))
                   for rid, key in (("room_a", "cloud_a"), ("room_b", "cloud_b"))],
            pair_registrations=[PairRegistration(
                room_a="room_a", room_b="room_b", T_coarse=result.T_coarse,
                T_fine=result.T_fine, diagnostics=result.diagnostics())],
            root_room="room_a")
        with tr.span("scene.merge_rooms"):
            merged = merge_rooms(manifest)
        for room in manifest.rooms:
            room.local_to_world = merged.world_transforms[room.id]
        traced_write_ply(tr, out / "merged.ply", merged.cloud, binary=True,
                         room_ids=merged.room_ids)
        with tr.span("scene.save_manifest"):
            save_manifest(out / "scene_manifest.json", manifest)
        _write_json(out / "diagnostics.json", {
            "root_room": "room_a",
            "pairs": [{"room_a": "room_a", "room_b": "room_b", **result.diagnostics()}],
            "merged_points": len(merged.cloud)})
        return result, len(merged.cloud)

    @staticmethod
    def _register(matches, cloud_a, cloud_b, cfg: PairConfig, seed: int, tr):
        """register_room_pair, one span per public call, same seed labels.

        Returns the result, the span records to annotate, and the RANSAC,
        pose and ground-plane stage outputs the annotations need.
        """
        recs = {}
        with tr.span("pipeline.register_room_pair") as recs["pipeline"]:
            with tr.span("epipolar.estimate_essential") as recs["essential"]:
                est = estimate_essential(matches, cfg.ransac, seed=fork_seed(seed, "ransac"))
            # The program reports no hypothesis count; this is the configured one.
            recs["essential"]["hypotheses"] = cfg.ransac.iterations
            with tr.span("epipolar.decompose_essential") as recs["decompose"]:
                pose = decompose_essential(est.matrix, matches, est.inlier_indices)
            with tr.span("epipolar.triangulate_set"):
                tri = triangulate_set(matches, pose, est.inlier_indices)
            with tr.span("scale.select_ground_points") as recs["ground"]:
                ground = select_ground_points(tri, cfg.gravity_axis, cfg.ground,
                                              seed=fork_seed(seed, "ground"))
            with tr.span("scale.recover_scale") as recs["alpha"]:
                alpha = recover_scale(ground)
            with tr.span("scale.apply_scale") as recs["coarse"]:
                T_coarse = apply_scale(pose, alpha)
            prepared = []
            for cloud in (cloud_a, cloud_b):
                with tr.span("geometry.voxel_downsample") as rec:
                    down = voxel_downsample(cloud, cfg.voxel_size)
                rec["keep_frac"] = len(down) / len(cloud)
                k = min(cfg.icp.normal_k, max(3, len(down)))
                with tr.span("icp.estimate_normals"):
                    prepared.append(estimate_normals(down, k=k, viewpoint=(0.0, 0.0, 0.0)))
            with tr.span("icp.point_to_plane_icp") as recs["icp"]:
                icp = point_to_plane_icp(prepared[0], prepared[1], T_coarse, cfg.icp)
            recs["icp"]["source_points"] = len(prepared[0])
        result = PairResult(T_coarse=T_coarse, T_fine=icp.transform, alpha=alpha,
                            essential=est.matrix,
                            ransac_inlier_count=int(len(est.inlier_indices)),
                            low_confidence=est.low_confidence, icp=icp)
        return result, recs, (est, pose, ground)

    @staticmethod
    def _annotate(sc: StitchScene, matches, result: PairResult, recs: dict,
                  est, pose, ground) -> None:
        """Attach per-stage quality counts, computed after the spans closed."""
        inl = np.asarray(est.inlier_indices)
        true_in = np.flatnonzero(~sc.outlier_mask)
        leaked = np.intersect1d(inl, np.flatnonzero(sc.outlier_mask)).size
        recs["essential"].update(
            inlier_frac=inl.size / len(matches),
            true_inlier_recall=np.intersect1d(inl, true_in).size / true_in.size,
            outlier_leak_frac=leaked / max(inl.size, 1),
            low_confidence=bool(est.low_confidence))
        recs["decompose"]["rot_err_deg"] = checks.rotation_error_deg(pose.rotation, sc.gt.rotation)
        recs["ground"]["ground_points"] = len(ground.ground_points)
        recs["alpha"]["alpha_rel_err"] = abs(result.alpha * sc.scale_k - 1.0)
        recs["coarse"]["trans_err_mm"] = 1000.0 * float(
            np.linalg.norm(result.T_coarse.translation - sc.gt.translation))
        icp = result.icp
        recs["icp"].update(iterations=icp.iterations, converged=bool(icp.converged),
                           correspondence_frac=icp.correspondence_count
                           / recs["icp"]["source_points"])
        recs["pipeline"]["rot_err_deg"] = checks.rotation_error_deg(result.T_fine.rotation, sc.gt.rotation)
        recs["pipeline"]["trans_err_mm"] = 1000.0 * float(
            np.linalg.norm(result.T_fine.translation - sc.gt.translation))


# ---------------------------------------------------------------------------
# compose_eval
# ---------------------------------------------------------------------------

STITCH_SPECS["compose_eval/base"] = {"points": 10_000, "floor": 150, "wall": 150,
                                     "outliers": 0.2, "scenes": 1}


def _grid(x: np.ndarray) -> np.ndarray:
    """Snap to a 0.1 mm grid: at most 6 significant digits below 10 m, so
    values survive the ASCII PLY float32 round trip unchanged."""
    return np.round(x, 4)


def _table_scan(rng: np.random.Generator, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Level table top, the floor below it, boxes standing on the table and
    loose points above it, in the gravity-aligned frame a levelled capture
    gives. Returns (points, table normal).

    The table is level because a tilted one (1 degree or more) breaks the
    exact-zero flatten contract of flatten_to_plane on many scans; see
    perfbench/README.md. A check that fails on every job measures nothing.
    """
    normal = np.array([0.0, 0.0, 1.0])
    u, v = np.array([1.0, 0.0, 0.0]), np.array([0.0, 1.0, 0.0])
    center = np.array([rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5), 0.75])
    hu, hv = TABLE_HALF_UV

    def on_table(su, sv, h):
        return center + su[:, None] * u + sv[:, None] * v + h[:, None] * normal

    n_top, n_floor, n_boxes = int(0.65 * n), int(0.15 * n), int(0.12 * n)
    n_air = n - n_top - n_floor - n_boxes
    top = on_table(rng.uniform(-hu, hu, n_top), rng.uniform(-hv, hv, n_top),
                   rng.normal(0.0, TABLE_NOISE_M, n_top))
    floor = np.column_stack([rng.uniform(-1.5, 1.5, n_floor), rng.uniform(-1.5, 1.5, n_floor),
                             rng.normal(0.0, TABLE_NOISE_M, n_floor)])
    boxes = []
    for count in np.diff(np.linspace(0, n_boxes, 5).astype(int)):
        bu, bv = rng.uniform(-hu + 0.15, hu - 0.15), rng.uniform(-hv + 0.15, hv - 0.15)
        half, height = rng.uniform(0.04, 0.1), rng.uniform(0.08, 0.3)
        boxes.append(on_table(bu + rng.uniform(-half, half, count),
                              bv + rng.uniform(-half, half, count),
                              rng.uniform(0.0, height, count)))
    air = on_table(rng.uniform(-hu, hu, n_air), rng.uniform(-hv, hv, n_air),
                   rng.uniform(0.05, 0.6, n_air))
    return _grid(np.vstack([top, floor, *boxes, air])), normal


def _reference_path(rng: np.random.Generator) -> np.ndarray:
    """Cubic Bezier through four random control points, REF_PATH_POINTS long."""
    ctrl = rng.uniform(-0.8, 0.8, size=(4, 3)) + np.array([0.0, 0.0, 1.0])
    t = np.linspace(0.0, 1.0, REF_PATH_POINTS)[:, None]
    basis = [(1 - t) ** 3, 3 * (1 - t) ** 2 * t, 3 * (1 - t) * t ** 2, t ** 3]
    return _grid(sum(b * c for b, c in zip(basis, ctrl)))


def _episode_path(rng: np.random.Generator, ref: np.ndarray) -> np.ndarray:
    """The reference path replayed at another speed profile, with jitter."""
    n = int(rng.integers(REF_PATH_POINTS - 10, REF_PATH_POINTS + 11))
    s = np.linspace(0.0, 1.0, n) ** rng.uniform(0.8, 1.25) * (len(ref) - 1)
    path = np.column_stack([np.interp(s, np.arange(len(ref)), ref[:, k]) for k in range(3)])
    return _grid(path + rng.normal(0.0, 0.01, size=path.shape))


class ComposeWorkload:
    """One job on a scene that set-up stitched once: `panostitch plane`
    with --flatten and --add-to-manifest on an ASCII table scan, then
    PLACE_COUNT `panostitch place` calls, then the episode metrics."""

    name = "compose_eval"
    cycle = 1    # every job does the same work

    def __init__(self, seed: int, work: Path):
        self.seed = seed
        self.work = work

    def setup(self, tr) -> None:
        w = self.work
        base = StitchWorkload("compose_eval/base", self.seed, w / "base")
        base.setup(tr)
        _, fails = base.job(0)
        if fails:
            raise RuntimeError(f"compose_eval set-up stitch failed: {fails}")
        self.pristine = (base.scenes[0].dir / "out" / "scene_manifest.json").read_bytes()
        self.plane_seed = derive_seed(self.seed, "plane") % 2**31
        self.place_seed = derive_seed(self.seed, "place") % 2**31

        rng = np.random.default_rng(derive_seed(self.seed, "table"))
        points, self.table_normal = _table_scan(rng, TABLE_POINTS)
        self.table = w / "table.ply"
        traced_write_ply(tr, self.table, PointCloud(points), binary=False)
        self.assets = []
        for k in range(PLACE_COUNT):
            hx, hy, hz = rng.uniform(0.03, 0.07), rng.uniform(0.03, 0.07), rng.uniform(0.05, 0.2)
            self.assets.append((f"obj{k}", (-hx, -hy, 0.0), (hx, hy, hz)))

        rng = np.random.default_rng(derive_seed(self.seed, "episodes"))
        specs = [EpisodeSpec(task=task, tier=tier, n_trials=TRIALS_PER_CELL,
                             true_rate=float(rng.uniform(0.2, 0.9)))
                 for task in TASKS for tier in Tier]
        synth = synth_episodes(specs, seed=derive_seed(self.seed, "outcomes"))
        self.empirical = {(t, tier.value): sr for (t, tier), sr in synth.empirical_sr.items()}
        self.refs = {task: _reference_path(rng) for task in TASKS}
        traj_rows = set(np.linspace(0, len(synth.episodes) - 1, TRAJECTORIES).astype(int))
        (w / "traj").mkdir(exist_ok=True)
        self.trajs = []   # (task, path as the PLY file stores it)
        rows = [",".join(EPISODE_HEADER)]
        for idx, e in enumerate(synth.episodes):
            traj_file = ""
            if idx in traj_rows:
                path = _episode_path(rng, self.refs[e.task])
                traj_file = f"traj/ep{idx}.ply"
                traced_write_ply(tr, w / traj_file, PointCloud(path), binary=False)
                self.trajs.append((e.task, path.astype(np.float32).astype(np.float64)))
            rows.append(f"{e.task},{e.tier.value},{int(e.success)},"
                        f"{e.shortest_path_len:.6g},{e.actual_path_len:.6g},{traj_file}")
        self.episodes_csv = w / "episodes.csv"
        self.episodes_csv.write_text("\n".join(rows) + "\n")

        self.rates = []
        for method in ("policy_a", "policy_b", "policy_c"):
            for task in TASKS:
                for tier in Tier:
                    sim = float(rng.uniform(0.1, 0.9))
                    real = float(np.clip(sim + rng.normal(0.0, 0.1), 0.0, 1.0))
                    self.rates.append(RateEntry(method=method, task=task, tier=tier,
                                                sim_rate=sim, real_rate=real))

    def job_name(self, i: int) -> str:
        return f"compose_eval (job {i})"

    def _paths(self, traced: bool) -> tuple[Path, Path, Path]:
        tag = "_traced" if traced else ""
        return (self.work / f"scene{tag}.json", self.work / f"flat{tag}.ply",
                self.work / f"plane_report{tag}.json")

    def job(self, i: int) -> tuple[float, list[str]]:
        manifest, flat, report_path = self._paths(traced=False)
        manifest.write_bytes(self.pristine)     # untimed restore
        t0 = time.perf_counter()
        code, log = _run_cli(["plane", str(self.table), "--flatten", str(flat),
                              "--add-to-manifest", str(manifest), "--plane-id", "table",
                              "--report", str(report_path), "--seed", str(self.plane_seed)])
        if code != 0:
            return time.perf_counter() - t0, _cli_failure("plane", code, log)
        for asset_id, mn, mx in self.assets:
            code, log = _run_cli(["place", str(manifest), "--plane", "table",
                                  "--asset-id", asset_id,
                                  "--aabb-min", *map(repr, mn), "--aabb-max", *map(repr, mx),
                                  "--seed", str(self.place_seed)])
            if code != 0:
                return time.perf_counter() - t0, _cli_failure("place", code, log)
        episodes = read_episode_csv(self.episodes_csv, load_trajectories=True)
        dists = [dtw(e.trajectory, self.refs[e.task])
                 for e in episodes if e.trajectory is not None]
        report = generalization_report(episodes)
        corr = simreal_correlation(self.rates)
        elapsed = time.perf_counter() - t0

        self.last = {"dists": dists, "r_raw": corr.r_raw,
                     "sr": {(t, tier.value): c.sr for (t, tier), c in report.cells.items()}}
        fails = checks.check_plane(json.loads(report_path.read_text()), self.table_normal,
                                   flat, TABLE_POINTS)
        fails += checks.check_placements(json.loads(manifest.read_text()), "table",
                                         [a[0] for a in self.assets], ASSET_SNAP_TOL)
        if len(dists) != len(self.trajs):
            fails.append(f"{len(dists)} trajectories loaded, {len(self.trajs)} written")
        else:
            task, path = self.trajs[i % len(self.trajs)]
            fails += checks.check_dtw(dists[i % len(dists)], path, self.refs[task])
        fails += checks.check_report(self.last["sr"], self.empirical)
        fails += checks.check_correlation(corr.r_raw, [(e.sim_rate, e.real_rate)
                                                       for e in self.rates])
        return elapsed, fails

    def traced_job(self, i: int, tr) -> tuple[float, list[str]]:
        """Replay cmd_plane and cmd_place call by call, then the metrics
        steps; compare with the CLI job that ran just before."""
        manifest, flat, report_path = self._paths(traced=True)
        manifest.write_bytes(self.pristine)
        t0 = time.perf_counter()
        report = self._replay_plane(tr, manifest, flat)
        for asset_id, mn, mx in self.assets:
            with tr.span("scene.load_manifest"):
                m = load_manifest(manifest)
            with tr.span("scene.place_asset"):
                place_asset(m, "table", asset_id, Aabb(np.array(mn), np.array(mx)),
                            semantic_label="", seed=fork_seed(self.place_seed,
                                                              f"place:{asset_id}"))
            with tr.span("scene.save_manifest"):
                save_manifest(manifest, m)
        with tr.span("metrics.read_episode_csv"):
            episodes = read_episode_csv(self.episodes_csv, load_trajectories=True)
        dists = []
        for e in episodes:
            if e.trajectory is None:
                continue
            ref = self.refs[e.task]
            with tr.span("metrics.dtw", cells=len(e.trajectory) * len(ref)):
                dists.append(dtw(e.trajectory, ref))
        with tr.span("metrics.generalization_report"):
            gen = generalization_report(episodes)
        with tr.span("metrics.simreal_correlation"):
            corr = simreal_correlation(self.rates)
        elapsed = time.perf_counter() - t0
        _write_json(report_path, report)

        cli_manifest, _, cli_report = self._paths(traced=False)
        want = json.loads(cli_report.read_text())
        fails = []
        if {k: v for k, v in _normalized(report).items() if k != "flattened_ply"} != \
                {k: v for k, v in want.items() if k != "flattened_ply"}:
            fails.append("traced plane report differs from the CLI run")
        if json.loads(manifest.read_text()) != json.loads(cli_manifest.read_text()):
            fails.append("traced scene manifest differs from the CLI run")
        sr = {(t, tier.value): c.sr for (t, tier), c in gen.cells.items()}
        if dists != self.last["dists"] or sr != self.last["sr"] \
                or corr.r_raw != self.last["r_raw"]:
            fails.append("traced metrics differ from the untraced run")
        return elapsed, fails

    def _replay_plane(self, tr, manifest: Path, flat_path: Path) -> dict:
        """cmd_plane with the CLI's default plane-fit settings."""
        cloud = traced_read_ply(tr, self.table, "ascii")
        cfg = PlaneFitConfig(distance_threshold=0.01, iterations=1000, min_inliers=50)
        with tr.span("scene.fit_plane_ransac") as rec:
            plane, inliers = fit_plane_ransac(cloud, cfg,
                                              seed=fork_seed(self.plane_seed, "plane"))
        rec["inlier_frac"] = inliers.size / len(cloud)
        spread = inlier_stddev(cloud, plane, inliers)
        report = {"normal_xyz": [float(v) for v in plane.normal], "d": plane.d,
                  "inlier_count": int(inliers.size), "point_count": len(cloud),
                  "pre_flatten_stddev_m": spread,
                  "stddev_within_1cm": bool(spread <= FLATTEN_STDDEV_LIMIT)}
        with tr.span("scene.flatten_to_plane"):
            flat = flatten_to_plane(cloud, plane, inliers)
        traced_write_ply(tr, flat_path, flat, binary=True)
        report["flattened_ply"] = str(flat_path)
        report["post_flatten_stddev_m"] = inlier_stddev(flat, plane, inliers)
        with tr.span("scene.load_manifest"):
            m = load_manifest(manifest)
        m.planes.append(support_plane_from_inliers("table", cloud, plane, inliers))
        with tr.span("scene.save_manifest"):
            save_manifest(manifest, m)
        report["plane_id"] = "table"
        return report


def make(name: str, seed: int, work: Path):
    if name == ComposeWorkload.name:
        return ComposeWorkload(seed, work)
    return StitchWorkload(name, seed, work)


WORKLOADS = ("stitch_dense", "stitch_match_heavy", "compose_eval")
