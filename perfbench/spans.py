"""In-memory spans around calls into panostitch, and the per-module
metrics derived from them.

A span records name, job, parent span, start and end (perf_counter
seconds) plus any counts the caller attaches. Spans stay in memory for
the whole run; the caller writes them out once, when the run ends.
"""

from __future__ import annotations

import statistics
import time
from contextlib import contextmanager


class Tracer:
    """Collects spans for one run. Not thread-safe: the load is one client."""

    def __init__(self):
        self.spans: list[dict] = []
        self.job: str | None = None
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, **counts):
        rec = {"id": len(self.spans), "name": name, "job": self.job,
               "parent": self._stack[-1] if self._stack else None, **counts}
        self.spans.append(rec)
        self._stack.append(rec["id"])
        rec["start"] = time.perf_counter()
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()


class NullTracer:
    """Tracer stand-in for untraced runs: spans cost one dict and record nothing."""

    job: str | None = None

    @contextmanager
    def span(self, name: str, **counts):
        yield dict(counts)


def _dur(s: dict) -> float:
    return s["end"] - s["start"]


# (metric name, unit, span name, how). `how` is "s" (median duration),
# an attribute name (median of that count), "mean:<attr>" (mean of a
# 0/1 attribute), or a callable span -> value whose median is taken.
# A span filter "name|key=value" selects spans carrying that attribute.
LAYER_METRICS = [
    ("panorama.load_matches.s", "s", "panorama.load_matches", "s"),
    ("panorama.matches", "count", "panorama.load_matches", "matches"),
    ("epipolar.estimate_essential.s", "s", "epipolar.estimate_essential", "s"),
    ("epipolar.ransac_hypotheses", "count", "epipolar.estimate_essential", "hypotheses"),
    ("epipolar.inlier_frac", "frac", "epipolar.estimate_essential", "inlier_frac"),
    ("epipolar.true_inlier_recall", "frac", "epipolar.estimate_essential", "true_inlier_recall"),
    ("epipolar.outlier_leak_frac", "frac", "epipolar.estimate_essential", "outlier_leak_frac"),
    ("epipolar.low_confidence_frac", "frac", "epipolar.estimate_essential", "mean:low_confidence"),
    ("epipolar.decompose_essential.s", "s", "epipolar.decompose_essential", "s"),
    ("epipolar.triangulate_set.s", "s", "epipolar.triangulate_set", "s"),
    ("epipolar.coarse_rot_err_deg", "deg", "epipolar.decompose_essential", "rot_err_deg"),
    ("scale.select_ground_points.s", "s", "scale.select_ground_points", "s"),
    ("scale.ground_points", "count", "scale.select_ground_points", "ground_points"),
    ("scale.alpha_rel_err", "frac", "scale.recover_scale", "alpha_rel_err"),
    ("scale.coarse_trans_err_mm", "mm", "scale.apply_scale", "trans_err_mm"),
    ("geometry.voxel_downsample.s", "s", "geometry.voxel_downsample", "s"),
    ("geometry.voxel_keep_frac", "frac", "geometry.voxel_downsample", "keep_frac"),
    ("icp.estimate_normals.s", "s", "icp.estimate_normals", "s"),
    ("icp.point_to_plane_icp.s", "s", "icp.point_to_plane_icp", "s"),
    ("icp.iterations", "count", "icp.point_to_plane_icp", "iterations"),
    ("icp.s_per_iteration", "s", "icp.point_to_plane_icp",
     lambda s: _dur(s) / s["iterations"]),
    ("icp.correspondence_frac", "frac", "icp.point_to_plane_icp", "correspondence_frac"),
    ("icp.converged_frac", "frac", "icp.point_to_plane_icp", "mean:converged"),
    ("pipeline.register_room_pair.s", "s", "pipeline.register_room_pair", "s"),
    ("pipeline.fine_rot_err_deg", "deg", "pipeline.register_room_pair", "rot_err_deg"),
    ("pipeline.fine_trans_err_mm", "mm", "pipeline.register_room_pair", "trans_err_mm"),
    ("ply.read_ply.binary.s", "s", "ply.read_ply|fmt=binary", "s"),
    ("ply.read_ply.ascii.s", "s", "ply.read_ply|fmt=ascii", "s"),
    ("ply.read_mb_per_s.binary", "MB/s", "ply.read_ply|fmt=binary",
     lambda s: s["bytes"] / 1e6 / _dur(s)),
    ("ply.read_mb_per_s.ascii", "MB/s", "ply.read_ply|fmt=ascii",
     lambda s: s["bytes"] / 1e6 / _dur(s)),
    ("ply.write_ply.binary.s", "s", "ply.write_ply|fmt=binary", "s"),
    ("ply.write_ply.ascii.s", "s", "ply.write_ply|fmt=ascii", "s"),
    ("ply.write_mb_per_s.binary", "MB/s", "ply.write_ply|fmt=binary",
     lambda s: s["bytes"] / 1e6 / _dur(s)),
    ("ply.write_mb_per_s.ascii", "MB/s", "ply.write_ply|fmt=ascii",
     lambda s: s["bytes"] / 1e6 / _dur(s)),
    ("scene.merge_rooms.s", "s", "scene.merge_rooms", "s"),
    ("scene.fit_plane_ransac.s", "s", "scene.fit_plane_ransac", "s"),
    ("scene.plane_inlier_frac", "frac", "scene.fit_plane_ransac", "inlier_frac"),
    ("scene.flatten_to_plane.s", "s", "scene.flatten_to_plane", "s"),
    ("scene.place_asset.s", "s", "scene.place_asset", "s"),
    ("scene.load_manifest.s", "s", "scene.load_manifest", "s"),
    ("scene.save_manifest.s", "s", "scene.save_manifest", "s"),
    ("metrics.read_episode_csv.s", "s", "metrics.read_episode_csv", "s"),
    ("metrics.dtw.s", "s", "metrics.dtw", "s"),
    ("metrics.dtw_cells_per_s", "1/s", "metrics.dtw", lambda s: s["cells"] / _dur(s)),
    ("metrics.generalization_report.s", "s", "metrics.generalization_report", "s"),
    ("metrics.simreal_correlation.s", "s", "metrics.simreal_correlation", "s"),
]


def _select(spans: list[dict], selector: str) -> list[dict]:
    name, _, cond = selector.partition("|")
    out = [s for s in spans if s["name"] == name]
    if cond:
        key, _, value = cond.partition("=")
        out = [s for s in out if str(s.get(key)) == value]
    return out


def layer_metrics(spans: list[dict]) -> dict[str, dict]:
    """Per-module metrics: {name: {"value", "unit", "n"}}.

    A module the workload never calls reports value 0.0 with n = 0. A span
    without the count a metric needs (its call raised before the count
    was attached) is left out of that metric.
    """
    out = {}
    for name, unit, selector, how in LAYER_METRICS:
        mean = isinstance(how, str) and how.startswith("mean:")
        if how == "s":
            fn = _dur
        elif callable(how):
            fn = how
        else:
            key = how[5:] if mean else how
            fn = (lambda k: lambda s: float(s[k]))(key)
        values = []
        for s in _select(spans, selector):
            try:
                values.append(fn(s))
            except KeyError:
                continue
        if not values:
            out[name] = {"value": 0.0, "unit": unit, "n": 0}
            continue
        value = statistics.fmean(values) if mean else statistics.median(values)
        out[name] = {"value": float(value), "unit": unit, "n": len(values)}
    return out


def span_summary(spans: list[dict]) -> dict[str, dict]:
    """Per span name: call count, median duration and median self time
    (duration minus the time its direct children cover)."""
    child_time: dict[int, float] = {}
    for s in spans:
        if s["parent"] is not None:
            child_time[s["parent"]] = child_time.get(s["parent"], 0.0) + _dur(s)
    by_name: dict[str, list[dict]] = {}
    for s in spans:
        by_name.setdefault(s["name"], []).append(s)
    return {name: {"n": len(group),
                   "median_s": statistics.median(_dur(s) for s in group),
                   "median_self_s": statistics.median(_dur(s) - child_time.get(s["id"], 0.0)
                                                      for s in group)}
            for name, group in sorted(by_name.items())}
