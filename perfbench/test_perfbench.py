"""Tests of the benchmark itself: a perturbed job result must be counted
as a failed job, and the statistics must follow their definitions.

    python -m pytest perfbench -q
"""

import json
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

from panostitch import cli  # noqa: E402
from panostitch.geometry import RigidTransform, rot_z  # noqa: E402
from panostitch.metrics import dtw  # noqa: E402

import checks  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def _pose(R, t) -> dict:
    return RigidTransform(R, t).to_quat_xyz()


@pytest.fixture
def tiny_stitch(monkeypatch, tmp_path):
    monkeypatch.setitem(workloads.STITCH_SPECS, "tiny", {
        "points": 3000, "floor": 150, "wall": 150, "outliers": 0.2, "scenes": 2})
    wl = workloads.StitchWorkload("tiny", seed=3, work=tmp_path)
    wl.setup(spans.NullTracer())
    return wl


def _loop(wl, trace=0, jobs=3):
    args = SimpleNamespace(trace=trace, seconds=0.0)
    old = run.MIN_JOBS, run.MIN_TRACED_JOBS
    run.MIN_JOBS = run.MIN_TRACED_JOBS = jobs
    try:
        return run.run_jobs(wl, args, spans.Tracer() if trace else spans.NullTracer())
    finally:
        run.MIN_JOBS, run.MIN_TRACED_JOBS = old


def test_stitch_jobs_pass_and_traced_replay_matches(tiny_stitch):
    res = _loop(tiny_stitch, trace=1, jobs=2)
    assert res["attempted"] == 2 and res["failed"] == []
    assert len(res["traced"]) == 2


def test_pose_rotated_one_degree_is_a_failed_job(tiny_stitch, monkeypatch):
    real_main = cli.main

    def rotated(argv):
        code = real_main(argv)
        path = Path(argv[argv.index("--out") + 1]) / "diagnostics.json"
        diag = json.loads(path.read_text())
        fine = RigidTransform.from_quat_xyz(diag["pairs"][0]["T_fine"])
        diag["pairs"][0]["T_fine"] = _pose(rot_z(np.deg2rad(1.0)) @ fine.rotation,
                                           fine.translation)
        path.write_text(json.dumps(diag))
        return code

    monkeypatch.setattr(workloads.cli, "main", rotated)
    res = _loop(tiny_stitch, jobs=2)
    assert res["attempted"] == 2 and len(res["failed"]) == 2
    assert "fine rotation error" in res["failed"][0]["failures"][0]


def test_traced_replay_that_diverges_is_a_failed_job(tiny_stitch, monkeypatch):
    real = workloads.point_to_plane_icp
    monkeypatch.setattr(workloads, "point_to_plane_icp",
                        lambda s, d, T, cfg: real(s, d, T, type(cfg)(max_iterations=1)))
    res = _loop(tiny_stitch, trace=1, jobs=1)
    assert res["attempted"] == 2 and len(res["failed"]) == 2     # whole scene cycle
    assert "differ" in " ".join(res["failed"][0]["failures"])


@pytest.fixture
def tiny_compose(monkeypatch, tmp_path):
    monkeypatch.setattr(workloads, "TABLE_POINTS", 5000)
    wl = workloads.ComposeWorkload(seed=4, work=tmp_path)
    wl.setup(spans.NullTracer())
    return wl


def test_compose_job_passes_and_traced_replay_matches(tiny_compose):
    res = _loop(tiny_compose, trace=1, jobs=1)
    assert res["failed"] == []


def test_unsnapped_asset_is_a_failed_job(tiny_compose, monkeypatch):
    real_main = cli.main

    def lifted(argv):
        code = real_main(argv)
        if argv[0] == "place":
            manifest = json.loads(Path(argv[1]).read_text())
            manifest["assets"][-1]["pose"]["translation_xyz"][2] += 0.002
            Path(argv[1]).write_text(json.dumps(manifest))
        return code

    monkeypatch.setattr(workloads.cli, "main", lifted)
    res = _loop(tiny_compose, jobs=1)
    assert len(res["failed"]) == 1
    assert "off the plane" in res["failed"][0]["failures"][0]


def test_raising_job_is_counted_not_fatal():
    class Broken:
        cycle = 1

        def job(self, i):
            if i == 1:
                raise RuntimeError("boom")
            return 0.01, []

        def job_name(self, i):
            return f"broken (job {i})"

    res = _loop(Broken())
    assert res["attempted"] == 3
    assert [f["job"] for f in res["failed"]] == ["broken (job 1)"]
    assert "boom" in res["failed"][0]["failures"][0]


def test_check_stitch_tolerances(tmp_path):
    R, t = rot_z(0.2), np.array([-1.6, -0.4, 0.0])
    header = "ply\nformat binary_little_endian 1.0\nelement vertex 10\nend_header\n"
    (tmp_path / "merged.ply").write_text(header)

    def fails(pose, points=10):
        (tmp_path / "diagnostics.json").write_text(json.dumps({"pairs": [{"T_fine": pose}]}))
        return checks.check_stitch(tmp_path, R, t, points)

    assert fails(_pose(R, t)) == []
    assert fails(_pose(rot_z(np.deg2rad(0.4)) @ R, t + 0.009 / np.sqrt(3))) == []
    assert fails(_pose(rot_z(np.deg2rad(1.0)) @ R, t))
    assert fails(_pose(R, t + np.array([0.0, 0.02, 0.0])))
    assert fails(_pose(R, t), points=11)


def test_check_plane(tmp_path):
    flat = tmp_path / "flat.ply"
    flat.write_text("ply\nformat ascii 1.0\nelement vertex 4\nend_header\n")
    good = {"normal_xyz": [0.0, 0.0, -1.0], "post_flatten_stddev_m": 0.0}
    assert checks.check_plane(good, [0, 0, 1], flat, 4) == []
    tilted = dict(good, normal_xyz=[np.sin(np.deg2rad(2)), 0.0, np.cos(np.deg2rad(2))])
    assert checks.check_plane(tilted, [0, 0, 1], flat, 4)
    assert checks.check_plane(dict(good, post_flatten_stddev_m=1e-19), [0, 0, 1], flat, 4)
    assert checks.check_plane(good, [0, 0, 1], flat, 5)


def _asset(asset_id, x, z=0.75):
    return {"asset_id": asset_id, "support_plane_id": "table",
            "aabb_local": {"min_xyz": [-0.05, -0.05, 0.0], "max_xyz": [0.05, 0.05, 0.1]},
            "pose": _pose(np.eye(3), [x, 0.0, z])}


def test_check_placements():
    plane = {"id": "table", "normal_xyz": [0.0, 0.0, 1.0], "d": -0.75}

    def fails(*assets):
        return checks.check_placements({"planes": [plane], "assets": list(assets)}, "table",
                                       [a["asset_id"] for a in assets], 1e-3)

    assert fails(_asset("a", 0.0), _asset("b", 0.2)) == []
    assert fails(_asset("a", 0.0), _asset("b", 0.2, z=0.752))        # not snapped
    assert fails(_asset("a", 0.0), _asset("b", 0.08))                # overlapping


def test_check_dtw_against_reference_recurrence():
    rng = np.random.default_rng(0)
    a, b = rng.normal(size=(30, 3)), rng.normal(size=(25, 3))
    value = dtw(a, b)
    assert checks.check_dtw(value, a, b) == []
    assert checks.check_dtw(value * (1 + 1e-9), a, b)


def test_check_report_and_correlation():
    emp = {("t", "train"): 0.5, ("t", "unseen_scene"): 0.25}
    assert checks.check_report(dict(emp), emp) == []
    assert checks.check_report({**emp, ("t", "train"): 0.5625}, emp)
    pairs = [(0.1, 0.2), (0.5, 0.4), (0.9, 0.95)]
    r = float(np.corrcoef(*zip(*pairs))[0, 1])
    assert checks.check_correlation(r, pairs) == []
    assert checks.check_correlation(r - 1e-6, pairs)


@pytest.mark.parametrize("n, p, rank", [(11, 9, 1), (20, 50, 10), (25, 60, 15), (60, 83, 50)])
def test_tail_percentile_leaves_ten_jobs_beyond(n, p, rank):
    times = list(np.random.default_rng(n).permutation(np.arange(1.0, n + 1)))
    got_p, value = run.tail_percentile(times)
    assert (got_p, value) == (p, float(rank))
    assert sum(t > value for t in times) >= 10
    assert run.tail_percentile(times[:10]) == (100, max(times[:10]))


def test_layer_metrics_from_spans():
    tr = spans.Tracer()
    for it in (4, 6, 50):
        with tr.span("pipeline.register_room_pair"):
            with tr.span("icp.point_to_plane_icp") as rec:
                pass
        rec.update(iterations=it, converged=it < 50, correspondence_frac=1.0)
    m = spans.layer_metrics(tr.spans)
    assert m["icp.iterations"] == {"value": 6.0, "unit": "count", "n": 3}
    assert m["icp.converged_frac"]["value"] == pytest.approx(2 / 3)
    assert m["metrics.dtw.s"] == {"value": 0.0, "unit": "s", "n": 0}
    summary = spans.span_summary(tr.spans)
    assert summary["pipeline.register_room_pair"]["median_self_s"] <= \
        summary["pipeline.register_room_pair"]["median_s"]
