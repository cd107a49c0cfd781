"""Policy-evaluation metrics: success rate, SPL, Pearson sim-to-real
correlation, DTW trajectory distance, fluid containment, and tiered
generalization reports.

All functions are pure over immutable records and safe to call from
any thread.
"""

from __future__ import annotations

import csv
import enum
import io
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ._atomic import write_atomic
from .geometry import Aabb


class MetricError(ValueError):
    """Invalid metric input (empty sets, missing fields, bad ranges)."""


class Tier(enum.Enum):
    TRAIN = "train"
    UNSEEN_SCENE = "unseen_scene"
    UNSEEN_OBJECT = "unseen_object"
    UNSEEN_SCENE_OBJECT = "unseen_scene_object"


_TIER_ALIASES = {
    "train": Tier.TRAIN,
    "scene": Tier.UNSEEN_SCENE,
    "unseen_scene": Tier.UNSEEN_SCENE,
    "object": Tier.UNSEEN_OBJECT,
    "unseen_object": Tier.UNSEEN_OBJECT,
    "scene_object": Tier.UNSEEN_SCENE_OBJECT,
    "unseen_scene_object": Tier.UNSEEN_SCENE_OBJECT,
}

TIER_ORDER = (Tier.TRAIN, Tier.UNSEEN_SCENE, Tier.UNSEEN_OBJECT,
              Tier.UNSEEN_SCENE_OBJECT)


def parse_tier(text: str) -> Tier:
    key = str(text).strip().lower().replace(" & ", "_").replace(" ", "_")
    if key not in _TIER_ALIASES:
        raise MetricError(f"unknown generalization tier: {text!r}")
    return _TIER_ALIASES[key]


@dataclass(frozen=True)
class EpisodeRecord:
    """One evaluation trial."""

    task: str
    tier: Tier
    success: bool
    shortest_path_len: float | None = None    # meters
    actual_path_len: float | None = None      # meters
    trajectory: np.ndarray | None = None      # optional (N, 3) waypoints

    def __post_init__(self):
        for name in ("shortest_path_len", "actual_path_len"):
            v = getattr(self, name)
            if v is not None and (not math.isfinite(v) or v < 0):
                raise MetricError(f"{name} must be a finite non-negative length")


# ---------------------------------------------------------------------------
# Core metrics
# ---------------------------------------------------------------------------

def success_rate(episodes: list[EpisodeRecord]) -> float:
    """Fraction of successful episodes."""
    if not episodes:
        raise MetricError("success_rate over an empty episode list")
    return sum(1 for e in episodes if e.success) / len(episodes)


def spl(episodes: list[EpisodeRecord]) -> float:
    """Success weighted by path length: mean of S_i * l_i / max(p_i, l_i).

    The standard embodied-navigation definition; requires both the
    shortest and actual path length on every episode.
    """
    if not episodes:
        raise MetricError("spl over an empty episode list")
    total = 0.0
    for e in episodes:
        if e.shortest_path_len is None or e.actual_path_len is None:
            raise MetricError(f"episode missing path lengths: {e.task}/{e.tier.value}")
        if e.success:
            denom = max(e.actual_path_len, e.shortest_path_len)
            total += 1.0 if denom == 0 else e.shortest_path_len / denom
    return total / len(episodes)


def wilson_interval(successes: int, total: int, z: float = 1.96) -> tuple[float, float]:
    """Wilson score 95% interval for a binomial proportion."""
    if total <= 0:
        raise MetricError("wilson_interval needs at least one trial")
    p = successes / total
    denom = 1.0 + z * z / total
    center = (p + z * z / (2 * total)) / denom
    half = z * math.sqrt(p * (1 - p) / total + z * z / (4 * total * total)) / denom
    return max(0.0, center - half), min(1.0, center + half)


def pearson(pairs) -> float:
    """Sample Pearson correlation over (x, y) pairs.

    Requires at least 3 pairs and nonzero variance in both coordinates.
    """
    arr = np.asarray(pairs, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise MetricError("pearson expects a list of (x, y) pairs")
    if arr.shape[0] < 3:
        raise MetricError(f"pearson needs >= 3 pairs, got {arr.shape[0]}")
    x = arr[:, 0] - arr[:, 0].mean()
    y = arr[:, 1] - arr[:, 1].mean()
    sx = float(x @ x)
    sy = float(y @ y)
    if sx <= 0 or sy <= 0:
        raise MetricError("pearson undefined for zero-variance input")
    return float((x @ y) / math.sqrt(sx * sy))


def dtw(traj_a, traj_b, normalize: bool = False) -> float:
    """Dynamic time warping distance between two 3D trajectories.

    Euclidean point cost with the symmetric step pattern
    {(1,0), (0,1), (1,1)}; returns the unnormalized total cost, or the
    per-step average when normalize is set.

    The recurrence acc[i, j] = cost[i-1, j-1] + min(diag, up, left)
    (Sakoe & Chiba 1978) runs as a wavefront: every cell on one
    anti-diagonal i + j depends only on the two diagonals before it, so
    each diagonal is one vectorized step over strided views of the flat
    accumulator. Path steps follow the first minimum in diag, up, left
    order, so ties pick the same path as a cell-by-cell scan.
    """
    a, b = _trajectory(traj_a), _trajectory(traj_b)
    na, nb = a.shape[0], b.shape[0]
    w = nb + 1
    grid = np.full((na + 1, w), np.inf)
    grid[1:, 1:] = np.linalg.norm(a[:, None, :] - b[None, :, :], axis=2)
    grid[0, 0] = 0.0
    # Flat row-major (na + 1) x (nb + 1) accumulator: cell (i, j) sits at
    # i * w + j, so a diagonal steps by nb and its predecessors sit at
    # offsets -w - 1 (diag), -w (up) and -1 (left).
    acc = grid.ravel()
    steps = np.zeros(acc.size, dtype=np.int64) if normalize else None
    for d in range(2, na + nb + 1):
        lo = max(1, d - nb) * nb + d
        hi = min(na, d - 1) * nb + d + 1
        diag = slice(lo - w - 1, hi - w - 1, nb)
        up = slice(lo - w, hi - w, nb)
        left = slice(lo - 1, hi - 1, nb)
        up_left = np.minimum(acc[up], acc[left])
        if steps is not None:
            prev = np.where(acc[diag] <= up_left, steps[diag],
                            np.where(acc[up] <= acc[left], steps[up], steps[left]))
            steps[lo:hi:nb] = prev + 1
        acc[lo:hi:nb] += np.minimum(acc[diag], up_left)
    total = float(acc[-1])
    return total / steps[-1] if normalize else total


def _trajectory(traj) -> np.ndarray:
    """Coerce to a nonempty, finite float64 (N, 3) waypoint array."""
    try:
        t = np.asarray(traj, dtype=np.float64)
    except (TypeError, ValueError) as e:
        raise MetricError(f"dtw trajectory is not a numeric array: {e}") from e
    if t.ndim != 2 or t.shape[0] == 0 or t.shape[1] != 3:
        raise MetricError("dtw needs two nonempty (N, 3) trajectories, "
                          f"got shape {t.shape}")
    if not np.all(np.isfinite(t)):
        raise MetricError("dtw trajectory has non-finite waypoints")
    return t


def fluid_containment_success(particles, receptacle: Aabb,
                              threshold: float = 0.6) -> bool:
    """True when strictly more than `threshold` of the particles lie
    inside the receptacle box (boundary counts as inside)."""
    pts = np.asarray(particles, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[0] == 0:
        raise MetricError("fluid containment needs a nonempty particle set")
    if not (0.0 < threshold < 1.0):
        raise MetricError(f"threshold must be in (0, 1), got {threshold}")
    inside = int(np.count_nonzero(receptacle.contains(pts)))
    return inside / pts.shape[0] > threshold


# ---------------------------------------------------------------------------
# Generalization report
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CellStats:
    trials: int
    successes: int
    sr: float
    wilson_low: float
    wilson_high: float
    spl: float | None


@dataclass(frozen=True)
class GeneralizationReport:
    """Success rate per (task, tier), with Wilson 95% intervals."""

    cells: dict[tuple[str, Tier], CellStats]
    tasks: tuple[str, ...]

    def sr(self, task: str, tier: Tier) -> float | None:
        cell = self.cells.get((task, tier))
        return None if cell is None else cell.sr

    def to_csv_rows(self) -> list[list[str]]:
        """Wide CSV: one row per task, one column per tier; empty cells
        for missing (task, tier) combinations."""
        rows = [["task"] + [t.value for t in TIER_ORDER]]
        for task in self.tasks:
            row = [task]
            for tier in TIER_ORDER:
                v = self.sr(task, tier)
                row.append("" if v is None else f"{v:.4f}")
            rows.append(row)
        return rows

    def detail_rows(self) -> list[list[str]]:
        rows = [["task", "tier", "trials", "successes", "sr",
                 "wilson_low", "wilson_high", "spl"]]
        for task in self.tasks:
            for tier in TIER_ORDER:
                cell = self.cells.get((task, tier))
                if cell is None:
                    continue
                rows.append([task, tier.value, str(cell.trials),
                             str(cell.successes), f"{cell.sr:.4f}",
                             f"{cell.wilson_low:.4f}", f"{cell.wilson_high:.4f}",
                             "" if cell.spl is None else f"{cell.spl:.4f}"])
        return rows

    def to_text(self) -> str:
        widths = [max(len(r[0]) for r in self.to_csv_rows())] + [18] * len(TIER_ORDER)
        lines = []
        for row in self.to_csv_rows():
            lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip())
        return "\n".join(lines)


def generalization_report(episodes: list[EpisodeRecord]) -> GeneralizationReport:
    """Group episodes by (task, tier) and report SR with Wilson bounds.

    SPL is included for cells where every episode carries path lengths.
    The result is independent of input order.
    """
    if not episodes:
        raise MetricError("generalization_report over an empty episode list")
    groups: dict[tuple[str, Tier], list[EpisodeRecord]] = {}
    for e in episodes:
        groups.setdefault((e.task, e.tier), []).append(e)

    cells = {}
    for key, eps in groups.items():
        trials = len(eps)
        wins = sum(1 for e in eps if e.success)
        low, high = wilson_interval(wins, trials)
        has_lengths = all(e.shortest_path_len is not None
                          and e.actual_path_len is not None for e in eps)
        cells[key] = CellStats(trials=trials, successes=wins, sr=wins / trials,
                               wilson_low=low, wilson_high=high,
                               spl=spl(eps) if has_lengths else None)
    tasks = tuple(sorted({t for t, _ in cells}))
    return GeneralizationReport(cells=cells, tasks=tasks)


# ---------------------------------------------------------------------------
# Sim-to-real correlation over published-style rate tables
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RateEntry:
    method: str
    task: str
    tier: Tier
    sim_rate: float
    real_rate: float

    def __post_init__(self):
        for v in (self.sim_rate, self.real_rate):
            if not (0.0 <= v <= 1.0):
                raise MetricError(f"rates must be in [0, 1], got {v}")


@dataclass(frozen=True)
class CorrelationSummary:
    r_task_averaged: float    # one point per (method, tier), tasks averaged
    r_raw: float              # one point per (method, task, tier)
    n_averaged: int
    n_raw: int


def simreal_correlation(entries: list[RateEntry]) -> CorrelationSummary:
    """Pearson correlation between sim and real success rates.

    Reports two readings: the task-averaged one (each point averages a
    (method, tier) pair across tasks) and the raw per-entry one.
    """
    if len(entries) < 3:
        raise MetricError("need at least 3 rate entries")
    by_mt: dict[tuple[str, Tier], list[tuple[float, float]]] = {}
    for e in entries:
        by_mt.setdefault((e.method, e.tier), []).append((e.sim_rate, e.real_rate))
    averaged = [tuple(np.mean(v, axis=0)) for v in by_mt.values()]
    raw = [(e.sim_rate, e.real_rate) for e in entries]
    return CorrelationSummary(
        r_task_averaged=pearson(averaged),
        r_raw=pearson(raw),
        n_averaged=len(averaged),
        n_raw=len(raw),
    )


# ---------------------------------------------------------------------------
# CSV I/O
# ---------------------------------------------------------------------------

EPISODE_HEADER = ["task", "tier", "success", "shortest_len", "actual_len",
                  "traj_file"]


def _parse_success(text: str) -> bool:
    key = text.strip().lower()
    if key in ("1", "true", "yes"):
        return True
    if key in ("0", "false", "no"):
        return False
    raise MetricError(f"bad success value {text!r}")


def _parse_len(text: str) -> float | None:
    text = text.strip()
    if not text:
        return None
    try:
        return float(text)
    except ValueError as e:
        raise MetricError(f"bad length {text!r}") from e


def read_trajectory(path) -> np.ndarray:
    """Load an (N, 3) trajectory from a PLY cloud or a JSON point array."""
    path = Path(path)
    if path.suffix.lower() == ".ply":
        from .ply import read_ply
        cloud, _ = read_ply(path)
        return cloud.points
    import json
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
        arr = np.asarray(data, dtype=np.float64)
    except (json.JSONDecodeError, ValueError) as e:
        raise MetricError(f"bad trajectory file {path}: {e}") from e
    if arr.ndim != 2 or arr.shape[1] != 3 or arr.shape[0] == 0:
        raise MetricError(f"trajectory {path} is not a nonempty (N, 3) array")
    return arr


def _csv_records(path, header: list[str]):
    """Yield (line, row) for each nonblank row of a CSV whose first line
    is `header`; errors carry the 1-based line number."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        if [h.strip() for h in next(reader, [])] != header:
            raise MetricError(f"line 1: expected header {','.join(header)}")
        for line, row in enumerate(reader, start=2):
            if not row or all(not c.strip() for c in row):
                continue
            if len(row) != len(header):
                raise MetricError(f"line {line}: expected {len(header)} "
                                  f"fields, got {len(row)}")
            yield line, row


def read_episode_csv(path, load_trajectories: bool = False) -> list[EpisodeRecord]:
    """Parse an episode log; errors carry the 1-based line number.

    With load_trajectories set, nonempty traj_file entries are resolved
    relative to the CSV and loaded (PLY or JSON arrays).
    """
    path = Path(path)
    episodes = []
    for line, row in _csv_records(path, EPISODE_HEADER):
        traj_file = row[5].strip()
        try:
            episodes.append(EpisodeRecord(
                task=row[0].strip(),
                tier=parse_tier(row[1]),
                success=_parse_success(row[2]),
                shortest_path_len=_parse_len(row[3]),
                actual_path_len=_parse_len(row[4]),
                trajectory=(read_trajectory(path.parent / traj_file)
                            if traj_file and load_trajectories else None),
            ))
        except MetricError as e:
            raise MetricError(f"line {line}: {e}") from None
    if not episodes:
        raise MetricError("episode CSV holds no records")
    return episodes


def write_episode_csv(path, episodes: list[EpisodeRecord]) -> None:
    """Write episodes atomically, keeping csv's CRLF line ends."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(EPISODE_HEADER)
    for e in episodes:
        writer.writerow([
            e.task, e.tier.value, int(e.success),
            "" if e.shortest_path_len is None else f"{e.shortest_path_len:.6g}",
            "" if e.actual_path_len is None else f"{e.actual_path_len:.6g}",
            "",
        ])
    write_atomic(path, buf.getvalue())


RATES_HEADER = ["method", "task", "tier", "sim_rate", "real_rate"]


def read_rates_csv(path) -> list[RateEntry]:
    """Parse a sim/real success-rate table."""
    entries = []
    for line, row in _csv_records(path, RATES_HEADER):
        try:
            entries.append(RateEntry(
                method=row[0].strip(), task=row[1].strip(),
                tier=parse_tier(row[2]),
                sim_rate=float(row[3]), real_rate=float(row[4])))
        except (ValueError, MetricError) as e:
            raise MetricError(f"line {line}: {e}") from None
    if not entries:
        raise MetricError("rates CSV holds no records")
    return entries
