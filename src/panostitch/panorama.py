"""Equirectangular panorama keypoints to unit bearing vectors.

Pixel convention (continuous coordinates, no half-pixel offset):
  longitude lam = 2*pi*u/W - pi     (u in [0, W))
  latitude  phi = pi/2 - pi*v/H     (v in [0, H))
  bearing = (cos(phi)*cos(lam), cos(phi)*sin(lam), sin(phi))

The camera frame is x-forward, z-up, right-handed, and assumed
gravity-leveled as captured by a tripod-mounted 360 camera.
"""

from __future__ import annotations

import itertools
import json
import operator
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .geometry import from_json, is_json

MIN_SCORE = 0.2
MIN_MATCHES = 8


class MatchFileError(ValueError):
    """Malformed match file or matches inconsistent with the panorama spec."""


@dataclass(frozen=True)
class PanoramaSpec:
    """Equirectangular image dimensions in pixels (width = 2 * height)."""

    width: int
    height: int

    def __post_init__(self):
        if self.width <= 0 or self.height <= 0:
            raise ValueError(f"panorama dimensions must be positive: {self}")
        if self.width != 2 * self.height:
            raise ValueError(
                f"equirectangular panorama requires width = 2*height, "
                f"got {self.width}x{self.height}")


@dataclass(frozen=True)
class BearingMatchSet:
    """Paired unit bearings (N, 3) from two panoramas, order preserved."""

    bearings_a: np.ndarray
    bearings_b: np.ndarray
    spec_a: PanoramaSpec
    spec_b: PanoramaSpec

    def __post_init__(self):
        a = np.asarray(self.bearings_a, dtype=np.float64)
        b = np.asarray(self.bearings_b, dtype=np.float64)
        if a.shape != b.shape or a.ndim != 2 or a.shape[1] != 3:
            raise ValueError("bearing arrays must both have shape (N, 3)")
        object.__setattr__(self, "bearings_a", a)
        object.__setattr__(self, "bearings_b", b)

    def __len__(self) -> int:
        return self.bearings_a.shape[0]


def _check_pixels(u, v, spec: PanoramaSpec) -> tuple[np.ndarray, np.ndarray]:
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    if np.any(u < 0) or np.any(u >= spec.width) or np.any(v < 0) or np.any(v >= spec.height):
        raise ValueError(
            f"pixel out of range for {spec.width}x{spec.height} panorama")
    return u, v


def pixel_to_bearing(u, v, spec: PanoramaSpec) -> np.ndarray:
    """Unit bearing for pixel (u, v); accepts scalars or equal-length arrays."""
    u, v = _check_pixels(u, v, spec)
    lam = 2.0 * np.pi * u / spec.width - np.pi
    phi = np.pi / 2.0 - np.pi * v / spec.height
    cp = np.cos(phi)
    b = np.stack([cp * np.cos(lam), cp * np.sin(lam), np.sin(phi)], axis=-1)
    return b


def bearing_to_pixel(bearing, spec: PanoramaSpec) -> tuple[np.ndarray, np.ndarray]:
    """Inverse projection. u wraps into [0, W); v is clipped to [0, H).

    Bearings pointing exactly at the south pole land on the last pixel row.
    """
    b = np.asarray(bearing, dtype=np.float64)
    b = b / np.linalg.norm(b, axis=-1, keepdims=True)
    lam = np.arctan2(b[..., 1], b[..., 0])
    phi = np.arcsin(np.clip(b[..., 2], -1.0, 1.0))
    u = np.mod((lam + np.pi) * spec.width / (2.0 * np.pi), spec.width)
    v = (np.pi / 2.0 - phi) * spec.height / np.pi
    v = np.clip(v, 0.0, np.nextafter(float(spec.height), 0.0))
    return u, v


def _require(cond: bool, msg: str):
    if not cond:
        raise MatchFileError(msg)


def _number(m: dict, key: str) -> float:
    """m[key] if it is a finite number, else ValueError naming the key."""
    v = m[key]
    if not is_json(v, float):
        raise ValueError(f"{key} must be a finite number, got {v!r}")
    return v


_FIELDS = ("score", "ua", "va", "ub", "vb")
_fields = operator.itemgetter(*_FIELDS)


def _usable_pixels(matches: list) -> np.ndarray:
    """(M, 4) float64 rows (ua, va, ub, vb) of the matches scored at least
    MIN_SCORE, in file order.

    One itemgetter pass reads every match's _FIELDS, one pass over the
    flat values checks that each is an int or a float (not a bool), and
    numpy checks that all are finite. When any of that fails, the matches
    are read again one by one, so the first malformed entry raises
    MatchFileError with its index, and an entry scored below MIN_SCORE is
    skipped without a look at its pixels.
    """
    try:
        rows = list(map(_fields, matches))
        if set(map(type, itertools.chain.from_iterable(rows))) <= {int, float}:
            table = np.array(rows, dtype=np.float64).reshape(len(rows), len(_FIELDS))
            if np.isfinite(table).all():
                return table[table[:, 0] >= MIN_SCORE, 1:]
    except (KeyError, TypeError, ValueError, OverflowError):
        pass
    rows = []
    for i, m in enumerate(matches):
        try:
            if _number(m, "score") >= MIN_SCORE:
                rows.append([_number(m, key) for key in _FIELDS[1:]])
        except (KeyError, TypeError, ValueError) as e:
            raise MatchFileError(f"malformed match entry {i}: {e}") from e
    return np.array(rows, dtype=np.float64).reshape(len(rows), 4)


def parse_match_dict(data: dict) -> BearingMatchSet:
    """Build a BearingMatchSet from decoded match-file JSON."""
    for key in ("pano_a", "pano_b", "matches"):
        _require(key in data, f"match file missing '{key}'")
    specs = []
    for key in ("pano_a", "pano_b"):
        try:
            specs.append(from_json(PanoramaSpec, data[key]))
        except ValueError as e:
            raise MatchFileError(f"bad panorama spec {key}: {e}") from e
    spec_a, spec_b = specs

    matches = data["matches"]
    _require(isinstance(matches, list), "'matches' must be a list")
    ua, va, ub, vb = _usable_pixels(matches).T

    _require(len(ua) >= MIN_MATCHES,
             f"insufficient matches: {len(ua)} usable, need >= {MIN_MATCHES}")
    try:
        ba = pixel_to_bearing(ua, va, spec_a)
        bb = pixel_to_bearing(ub, vb, spec_b)
    except ValueError as e:
        raise MatchFileError(f"keypoint outside declared panorama: {e}") from e
    return BearingMatchSet(ba, bb, spec_a, spec_b)


def load_matches(path) -> BearingMatchSet:
    """Load a JSON match file and convert every keypoint pair to bearings."""
    path = Path(path)
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as e:
        raise MatchFileError(f"cannot read match file {path}: {e}") from e
    _require(isinstance(data, dict), "match file must hold a JSON object")
    return parse_match_dict(data)
