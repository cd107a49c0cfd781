import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from panostitch.panorama import (MatchFileError, PanoramaSpec, bearing_to_pixel,
                                 load_matches, parse_match_dict,
                                 pixel_to_bearing)

SPEC = PanoramaSpec(2048, 1024)


class TestPanoramaSpec:
    def test_requires_two_to_one_aspect(self):
        with pytest.raises(ValueError):
            PanoramaSpec(1000, 700)
        with pytest.raises(ValueError):
            PanoramaSpec(0, 0)


class TestPixelToBearing:
    def test_center_is_forward(self):
        b = pixel_to_bearing(SPEC.width / 2, SPEC.height / 2, SPEC)
        np.testing.assert_allclose(b, (1.0, 0.0, 0.0), atol=1e-12)

    def test_top_row_is_north_pole(self):
        b = pixel_to_bearing(SPEC.width / 2, 0.0, SPEC)
        np.testing.assert_allclose(b, (0.0, 0.0, 1.0), atol=1e-12)

    def test_three_quarters_is_left(self):
        b = pixel_to_bearing(3 * SPEC.width / 4, SPEC.height / 2, SPEC)
        np.testing.assert_allclose(b, (0.0, 1.0, 0.0), atol=1e-12)

    def test_out_of_range_rejected(self):
        for u, v in [(-1, 0), (SPEC.width, 0), (0, -0.5), (0, SPEC.height)]:
            with pytest.raises(ValueError):
                pixel_to_bearing(u, v, SPEC)

    @given(st.floats(0, SPEC.width, exclude_max=True),
           st.floats(0, SPEC.height, exclude_max=True))
    @settings(max_examples=200, deadline=None)
    def test_always_unit_norm(self, u, v):
        b = pixel_to_bearing(u, v, SPEC)
        assert abs(np.linalg.norm(b) - 1.0) < 1e-12

    @given(st.floats(0, SPEC.width, exclude_max=True),
           st.floats(1.0, SPEC.height - 1.0))
    @settings(max_examples=200, deadline=None)
    def test_round_trip_away_from_poles(self, u, v):
        b = pixel_to_bearing(u, v, SPEC)
        u2, v2 = bearing_to_pixel(b, SPEC)
        b2 = pixel_to_bearing(float(u2), float(v2), SPEC)
        assert np.linalg.norm(b - b2) < 1e-9

    @given(st.floats(-np.pi, np.pi, exclude_max=True),
           st.floats(-np.pi / 2 + 1e-3, np.pi / 2 - 1e-3))
    @settings(max_examples=200, deadline=None)
    def test_bearing_pixel_round_trip(self, lam, phi):
        b = np.array([np.cos(phi) * np.cos(lam), np.cos(phi) * np.sin(lam),
                      np.sin(phi)])
        u, v = bearing_to_pixel(b, SPEC)
        b2 = pixel_to_bearing(float(u), float(v), SPEC)
        assert np.linalg.norm(b - b2) < 1e-9

    @given(st.floats(0, SPEC.width, exclude_max=True),
           st.floats(0.5, SPEC.height - 0.5))
    @settings(max_examples=200, deadline=None)
    def test_antipodal_symmetry(self, u, v):
        b = pixel_to_bearing(u, v, SPEC)
        u_op = (u + SPEC.width / 2) % SPEC.width
        v_op = SPEC.height - v
        b_op = pixel_to_bearing(u_op, v_op, SPEC)
        assert np.linalg.norm(b + b_op) < 1e-9


def _match_dict(n, spec=SPEC, score=0.9):
    rng = np.random.default_rng(0)
    return {
        "pano_a": {"width": spec.width, "height": spec.height},
        "pano_b": {"width": spec.width, "height": spec.height},
        "matches": [
            {"ua": float(rng.uniform(0, spec.width)),
             "va": float(rng.uniform(0, spec.height)),
             "ub": float(rng.uniform(0, spec.width)),
             "vb": float(rng.uniform(0, spec.height)),
             "score": score}
            for _ in range(n)
        ],
    }


class TestLoadMatches:
    def test_eight_valid_matches(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text(json.dumps(_match_dict(8)))
        ms = load_matches(path)
        assert len(ms) == 8
        assert np.allclose(np.linalg.norm(ms.bearings_a, axis=1), 1.0, atol=1e-12)
        assert np.allclose(np.linalg.norm(ms.bearings_b, axis=1), 1.0, atol=1e-12)

    def test_seven_matches_insufficient(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text(json.dumps(_match_dict(7)))
        with pytest.raises(MatchFileError, match="insufficient matches"):
            load_matches(path)

    def test_low_scores_dropped(self):
        data = _match_dict(20, score=0.9)
        for m in data["matches"][:5]:
            m["score"] = 0.05
        ms = parse_match_dict(data)
        assert len(ms) == 15

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text("{not json")
        with pytest.raises(MatchFileError):
            load_matches(path)

    @pytest.mark.parametrize("key", ["ua", "va", "ub", "vb", "score"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), True, "512.5"],
                             ids=["nan", "inf", "true", "string"])
    def test_match_value_not_a_finite_number(self, tmp_path, key, value):
        data = _match_dict(10)
        data["matches"][3][key] = value
        path = tmp_path / "m.json"
        path.write_text(json.dumps(data))   # NaN and Infinity as JSON allows
        with pytest.raises(MatchFileError, match=re.escape(
                f"malformed match entry 3: {key} must be a finite number, got {value!r}")):
            load_matches(path)

    @pytest.mark.parametrize("value", [2048.7, "2048", True, None],
                             ids=["fraction", "string", "true", "null"])
    def test_pano_size_not_an_integer(self, value):
        data = _match_dict(10)
        data["pano_b"]["width"] = value
        with pytest.raises(MatchFileError, match=re.escape(
                f"bad panorama spec pano_b: width must be an integer, got {value!r}")):
            parse_match_dict(data)

    @pytest.mark.parametrize("pixels", [{"ua": "x"}, {"ua": None}, {"vb": float("nan")}],
                             ids=["string", "null", "nan"])
    def test_low_score_entry_is_skipped_unread(self, pixels):
        # A skipped entry's pixels are not checked, so it sends the reader
        # down the entry-by-entry path, which must give the same bearings.
        data = _match_dict(12)
        want = parse_match_dict(data)
        data["matches"].insert(5, {**data["matches"][0], **pixels, "score": 0.05})
        got = parse_match_dict(data)
        assert got.bearings_a.tobytes() == want.bearings_a.tobytes()
        assert got.bearings_b.tobytes() == want.bearings_b.tobytes()

    def test_entry_missing_a_key_or_not_an_object(self):
        data = _match_dict(10)
        del data["matches"][4]["vb"]
        with pytest.raises(MatchFileError, match=re.escape("malformed match entry 4: 'vb'")):
            parse_match_dict(data)
        data["matches"][2] = [1, 2, 3]
        with pytest.raises(MatchFileError, match="^malformed match entry 2: list indices"):
            parse_match_dict(data)

    def test_integer_pixels_read_as_their_floats(self):
        data = _match_dict(10)
        for m in data["matches"]:
            m.update({k: int(m[k]) for k in ("ua", "va", "ub", "vb")}, score=1)
        floats = {**data, "matches": [{k: float(v) for k, v in m.items()}
                                      for m in data["matches"]]}
        got, want = parse_match_dict(data), parse_match_dict(floats)
        assert got.bearings_a.tobytes() == want.bearings_a.tobytes()
        assert got.bearings_b.tobytes() == want.bearings_b.tobytes()

    def test_missing_fields(self):
        with pytest.raises(MatchFileError, match="missing"):
            parse_match_dict({"pano_a": {"width": 8, "height": 4}})

    def test_keypoint_outside_declared_pano(self):
        data = _match_dict(10)
        data["matches"][0]["ua"] = float(SPEC.width + 5)
        with pytest.raises(MatchFileError, match="outside"):
            parse_match_dict(data)

    def test_order_preserved(self):
        data = _match_dict(12)
        ms = parse_match_dict(data)
        first = pixel_to_bearing(data["matches"][0]["ua"],
                                 data["matches"][0]["va"], SPEC)
        np.testing.assert_allclose(ms.bearings_a[0], first, atol=0)

    def test_round_trip_against_synthetic_ground_truth(self, clean_pair,
                                                       clean_matches):
        # The synthetic generator projects known 3D points to pixels;
        # loading must invert that projection to the true bearings.
        np.testing.assert_allclose(clean_matches.bearings_a,
                                   clean_pair.true_bearings_a, atol=1e-9)
        np.testing.assert_allclose(clean_matches.bearings_b,
                                   clean_pair.true_bearings_b, atol=1e-9)
