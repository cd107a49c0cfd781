from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from panostitch.geometry import Aabb
from panostitch.metrics import (EpisodeRecord, MetricError, Tier, dtw,
                                fluid_containment_success,
                                generalization_report, parse_tier, pearson,
                                read_episode_csv, read_rates_csv,
                                simreal_correlation, spl, success_rate,
                                wilson_interval, write_episode_csv)
from panostitch.testkit import EpisodeSpec, synth_episodes

DATA = Path(__file__).parent / "data"


def ep(success, l=None, p=None, task="t", tier=Tier.TRAIN):
    return EpisodeRecord(task=task, tier=tier, success=success,
                         shortest_path_len=l, actual_path_len=p)


class TestSuccessRate:
    def test_microwave_fixture(self):
        episodes = read_episode_csv(DATA / "microwave_episodes.csv")
        assert len(episodes) == 20
        assert success_rate(episodes) == pytest.approx(0.70)

    def test_all_failures(self):
        assert success_rate([ep(False)] * 7) == 0.0

    def test_all_successes(self):
        assert success_rate([ep(True)] * 7) == 1.0

    def test_empty_rejected(self):
        with pytest.raises(MetricError):
            success_rate([])


class TestSpl:
    def test_optimal_paths_equal_sr(self):
        episodes = [ep(True, 4.0, 4.0), ep(False, 3.0, 8.0), ep(True, 2.5, 2.5)]
        assert spl(episodes) == pytest.approx(success_rate(episodes))

    def test_single_episode_half(self):
        assert spl([ep(True, 5.0, 10.0)]) == pytest.approx(0.5)

    def test_twenty_mixed_matches_hand_computed_sum(self):
        episodes = read_episode_csv(DATA / "microwave_episodes.csv")
        # Frozen from an independent pass over the same 20 rows.
        assert spl(episodes) == pytest.approx(0.6165906395727889, abs=1e-12)

    def test_missing_lengths_rejected(self):
        with pytest.raises(MetricError, match="path lengths"):
            spl([ep(True, 5.0, None)])

    @given(st.lists(st.tuples(st.booleans(),
                              st.floats(0.1, 50.0),
                              st.floats(0.0, 50.0)),
                    min_size=1, max_size=30))
    @settings(max_examples=100, deadline=None)
    def test_bounded_by_success_rate(self, rows):
        episodes = [ep(s, l, l + extra) for s, l, extra in rows]
        value = spl(episodes)
        assert 0.0 <= value <= success_rate(episodes) + 1e-12


class TestPearson:
    def test_perfect_positive(self):
        assert pearson([(0, 0), (0.5, 0.5), (1, 1)]) == pytest.approx(1.0)

    def test_perfect_negative(self):
        assert pearson([(0, 1), (0.5, 0.5), (1, 0)]) == pytest.approx(-1.0)

    def test_affine_invariance(self, rng):
        pts = rng.uniform(0, 1, size=(25, 2))
        base = pearson(pts)
        for a, b in [(2.0, 0.3), (0.1, -4.0), (7.5, 1.25)]:
            scaled = np.column_stack([a * pts[:, 0] + b, pts[:, 1]])
            assert abs(pearson(scaled) - base) < 1e-12
            scaled_y = np.column_stack([pts[:, 0], a * pts[:, 1] + b])
            assert abs(pearson(scaled_y) - base) < 1e-12

    def test_zero_variance_rejected(self):
        with pytest.raises(MetricError, match="variance"):
            pearson([(1.0, 0.2), (1.0, 0.5), (1.0, 0.9)])

    def test_needs_three_pairs(self):
        with pytest.raises(MetricError, match=">= 3"):
            pearson([(0, 0), (1, 1)])

    def test_published_table_correlation(self):
        entries = read_rates_csv(DATA / "simreal_rates.csv")
        assert len(entries) == 48
        summary = simreal_correlation(entries)
        assert summary.n_averaged == 16
        assert summary.n_raw == 48
        assert summary.r_task_averaged == pytest.approx(0.91, abs=0.03)
        # Frozen regression values for both readings.
        assert summary.r_task_averaged == pytest.approx(0.9093960649269531,
                                                        abs=1e-12)
        assert summary.r_raw == pytest.approx(0.7936514480858917, abs=1e-12)


def dtw_oracle(a, b):
    """Memoized-recursion restatement of the DP, kept independent of the
    implementation under test."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)

    @lru_cache(maxsize=None)
    def rec(i, j):
        if i == 0 and j == 0:
            return 0.0
        if i == 0 or j == 0:
            return float("inf")
        cost = float(np.linalg.norm(a[i - 1] - b[j - 1]))
        return cost + min(rec(i - 1, j - 1), rec(i - 1, j), rec(i, j - 1))

    return rec(len(a), len(b))


def dtw_loop_reference(a, b, normalize=False):
    """The cell-by-cell scan dtw replaced: first minimum of (diag, up,
    left) per cell, with path steps carried along. dtw must equal it
    exactly, value and type, with and without normalize."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    na, nb = a.shape[0], b.shape[0]
    cost = np.linalg.norm(a[:, None, :] - b[None, :, :], axis=2)
    acc = np.full((na + 1, nb + 1), np.inf)
    steps = np.zeros((na + 1, nb + 1), dtype=np.int64)
    acc[0, 0] = 0.0
    for i in range(1, na + 1):
        for j in range(1, nb + 1):
            options = (acc[i - 1, j - 1], acc[i - 1, j], acc[i, j - 1])
            k = int(np.argmin(options))
            acc[i, j] = cost[i - 1, j - 1] + options[k]
            prev = ((i - 1, j - 1), (i - 1, j), (i, j - 1))[k]
            steps[i, j] = steps[prev] + 1
    total = float(acc[na, nb])
    return total / steps[na, nb] if normalize else total


def assert_dtw_matches_loop(a, b):
    for normalize in (False, True):
        got = dtw(a, b, normalize=normalize)
        ref = dtw_loop_reference(a, b, normalize=normalize)
        assert got == ref and type(got) is type(ref), (normalize, got, ref)


class TestDtw:
    def test_identical_trajectories(self, rng):
        t = rng.normal(size=(30, 3))
        assert dtw(t, t) == 0.0

    def test_single_cell(self):
        assert dtw([(0.0, 0, 0)], [(1.0, 0, 0)]) == pytest.approx(1.0)

    def test_matches_independent_dp_oracle(self, rng):
        a = rng.normal(size=(50, 3))
        b = rng.normal(size=(50, 3))
        assert dtw(a, b) == pytest.approx(dtw_oracle(a, b), rel=1e-12)

    def test_unequal_lengths_against_oracle(self, rng):
        a = rng.normal(size=(13, 3))
        b = rng.normal(size=(29, 3))
        assert dtw(a, b) == pytest.approx(dtw_oracle(a, b), rel=1e-12)

    def test_symmetry(self, rng):
        a = rng.normal(size=(20, 3))
        b = rng.normal(size=(25, 3))
        assert dtw(a, b) == pytest.approx(dtw(b, a), rel=1e-12)

    def test_normalized_divides_by_path_steps(self):
        a = [(0.0, 0, 0)]
        b = [(1.0, 0, 0)]
        assert dtw(a, b, normalize=True) == pytest.approx(1.0)

    def test_empty_rejected(self):
        with pytest.raises(MetricError):
            dtw([], [(0.0, 0, 0)])

    @pytest.mark.parametrize("shape", [(1, 1), (1, 17), (17, 1), (23, 23), (9, 40),
                                       (40, 9)])
    def test_random_pairs_equal_loop_reference(self, rng, shape):
        for _ in range(5):
            a = rng.normal(size=(shape[0], 3)) * rng.uniform(0.01, 100)
            b = rng.normal(size=(shape[1], 3)) * rng.uniform(0.01, 100)
            assert_dtw_matches_loop(a, b)

    @pytest.mark.parametrize("shape", [(1, 1), (1, 12), (12, 1), (15, 15), (8, 31)])
    def test_integer_grid_ties_equal_loop_reference(self, rng, shape):
        # Coordinates in {0, 1, 2}: equal costs and equal predecessor sums
        # are common, so the diag/up/left order decides the step counts.
        for _ in range(10):
            a = rng.integers(0, 3, size=(shape[0], 3)).astype(float)
            b = rng.integers(0, 3, size=(shape[1], 3)).astype(float)
            assert_dtw_matches_loop(a, b)

    def test_up_left_tie_takes_up(self):
        # Cell (3, 4) of x = (0, 2, 0) against x = (0, 1, 0, 2) has equal up
        # and left sums on paths of 4 and 3 steps; the tie goes to up, so
        # the best path has 5 steps, not 4.
        a = [(0.0, 0, 0), (2.0, 0, 0), (0.0, 0, 0)]
        b = [(0.0, 0, 0), (1.0, 0, 0), (0.0, 0, 0), (2.0, 0, 0)]
        assert dtw(a, b) == 3.0
        assert dtw(a, b, normalize=True) == 0.6
        assert_dtw_matches_loop(a, b)

    def test_two_column_trajectory_rejected(self):
        with pytest.raises(MetricError, match="shape"):
            dtw(np.zeros((4, 2)), np.zeros((5, 2)))

    def test_mismatched_widths_rejected(self):
        with pytest.raises(MetricError, match="shape"):
            dtw(np.zeros((4, 2)), np.zeros((5, 3)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_waypoint_rejected(self, bad):
        traj = np.zeros((6, 3))
        traj[3, 1] = bad
        with pytest.raises(MetricError, match="non-finite"):
            dtw(traj, np.ones((4, 3)))
        with pytest.raises(MetricError, match="non-finite"):
            dtw(np.ones((4, 3)), traj)


class TestFluidContainment:
    def box(self):
        return Aabb((0, 0, 0), (1, 1, 1))

    def particles(self, inside, outside, rng):
        pin = rng.uniform(0.05, 0.95, size=(inside, 3))
        pout = rng.uniform(2.0, 3.0, size=(outside, 3))
        return np.vstack([pin, pout])

    def test_61_of_100_succeeds(self, rng):
        assert fluid_containment_success(self.particles(61, 39, rng), self.box())

    def test_60_of_100_fails_strict_threshold(self, rng):
        assert not fluid_containment_success(self.particles(60, 40, rng),
                                             self.box())

    def test_all_inside(self, rng):
        assert fluid_containment_success(self.particles(10, 0, rng), self.box())

    def test_boundary_counts_as_inside(self):
        pts = np.array([[0.0, 0.0, 0.0], [1.0, 1.0, 1.0], [0.5, 0.5, 0.5]])
        assert fluid_containment_success(pts, self.box(), threshold=0.6)

    def test_monotone_adding_inside_particle(self, rng):
        pts = self.particles(61, 39, rng)
        assert fluid_containment_success(pts, self.box())
        more = np.vstack([pts, [[0.5, 0.5, 0.5]]])
        assert fluid_containment_success(more, self.box())

    def test_empty_rejected(self):
        with pytest.raises(MetricError):
            fluid_containment_success(np.empty((0, 3)), self.box())

    def test_bad_threshold(self, rng):
        with pytest.raises(MetricError):
            fluid_containment_success(self.particles(5, 0, rng), self.box(),
                                      threshold=1.0)


class TestGeneralizationReport:
    def test_exact_count_rows(self):
        tiers = [Tier.TRAIN, Tier.UNSEEN_SCENE, Tier.UNSEEN_OBJECT,
                 Tier.UNSEEN_SCENE_OBJECT]
        rates = [0.91, 0.84, 0.53, 0.51]
        specs = [EpisodeSpec("set_tableware", tier, 100, rate, exact_counts=True)
                 for tier, rate in zip(tiers, rates)]
        synth = synth_episodes(specs, seed=0)
        report = generalization_report(synth.episodes)
        got = [report.sr("set_tableware", t) for t in tiers]
        np.testing.assert_allclose(got, rates, atol=1e-12)

    def test_single_episode(self):
        report = generalization_report([ep(True)])
        assert report.sr("t", Tier.TRAIN) == 1.0
        cell = report.cells[("t", Tier.TRAIN)]
        assert cell.trials == 1 and cell.successes == 1

    def test_order_invariance(self, rng):
        specs = [EpisodeSpec("a", Tier.TRAIN, 15, 0.6),
                 EpisodeSpec("b", Tier.UNSEEN_OBJECT, 10, 0.3)]
        episodes = synth_episodes(specs, seed=5).episodes
        r1 = generalization_report(episodes)
        shuffled = list(episodes)
        rng.shuffle(shuffled)
        r2 = generalization_report(shuffled)
        assert r1.to_csv_rows() == r2.to_csv_rows()

    def test_missing_cells_are_empty(self):
        report = generalization_report([ep(True, task="x", tier=Tier.TRAIN)])
        rows = report.to_csv_rows()
        assert rows[0] == ["task", "train", "unseen_scene", "unseen_object",
                           "unseen_scene_object"]
        assert rows[1][0] == "x"
        assert rows[1][1] == "1.0000"
        assert rows[1][2:] == ["", "", ""]

    def test_wilson_attached(self):
        report = generalization_report([ep(True)] * 14 + [ep(False)] * 6)
        cell = report.cells[("t", Tier.TRAIN)]
        assert 0.0 <= cell.wilson_low <= 0.70 <= cell.wilson_high <= 1.0


class TestWilson:
    def test_bounds(self):
        low, high = wilson_interval(1, 2)
        assert 0.0 <= low <= 0.5 <= high <= 1.0

    def test_no_trials_rejected(self):
        with pytest.raises(MetricError):
            wilson_interval(0, 0)


class TestCsvIo:
    def test_round_trip(self, tmp_path):
        episodes = [ep(True, 2.0, 3.0, task="nav", tier=Tier.UNSEEN_SCENE),
                    ep(False, task="nav", tier=Tier.TRAIN)]
        path = tmp_path / "eps.csv"
        write_episode_csv(path, episodes)
        back = read_episode_csv(path)
        assert back[0].tier is Tier.UNSEEN_SCENE
        assert back[0].shortest_path_len == pytest.approx(2.0)
        assert back[1].success is False
        assert back[1].shortest_path_len is None

    def test_malformed_row_reports_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("task,tier,success,shortest_len,actual_len,traj_file\n"
                        "nav,train,1,2.0,3.0,\n"
                        "nav,train,maybe,2.0,3.0,\n")
        with pytest.raises(MetricError, match="line 3"):
            read_episode_csv(path)
        # Lengths the record refuses name their line too.
        for shortest, actual in (("-1", "3.0"), ("nan", "3.0"), ("2.0", "inf")):
            path.write_text("task,tier,success,shortest_len,actual_len,traj_file\n"
                            "nav,train,1,2.0,3.0,\n"
                            "\n"
                            f"nav,train,1,{shortest},{actual},\n")
            with pytest.raises(MetricError,
                               match=r"^line 4: \w+_path_len must be a finite non-negative"):
                read_episode_csv(path)

    def test_bad_header_is_line_one(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\n1,2\n")
        with pytest.raises(MetricError, match="line 1"):
            read_episode_csv(path)

    def test_unknown_tier_reports_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("task,tier,success,shortest_len,actual_len,traj_file\n"
                        "nav,weird,1,,,\n")
        with pytest.raises(MetricError, match="line 2"):
            read_episode_csv(path)

    def test_tier_aliases(self):
        assert parse_tier("Scene") is Tier.UNSEEN_SCENE
        assert parse_tier("unseen scene & object") is Tier.UNSEEN_SCENE_OBJECT

    def test_trajectory_loading_json_and_ply(self, tmp_path, rng):
        import json as json_mod

        from panostitch.geometry import PointCloud
        from panostitch.metrics import read_trajectory
        from panostitch.ply import write_ply

        traj = rng.normal(size=(12, 3))
        jpath = tmp_path / "traj.json"
        jpath.write_text(json_mod.dumps(traj.tolist()))
        np.testing.assert_allclose(read_trajectory(jpath), traj)
        ppath = tmp_path / "traj.ply"
        write_ply(ppath, PointCloud(traj))
        np.testing.assert_allclose(read_trajectory(ppath), traj, atol=1e-5)

        csv_path = tmp_path / "eps.csv"
        csv_path.write_text(
            "task,tier,success,shortest_len,actual_len,traj_file\n"
            "nav,train,1,2.0,3.0,traj.json\n")
        loaded = read_episode_csv(csv_path, load_trajectories=True)
        np.testing.assert_allclose(loaded[0].trajectory, traj)
        bare = read_episode_csv(csv_path)
        assert bare[0].trajectory is None

    def test_bad_trajectory_rejected(self, tmp_path):
        from panostitch.metrics import read_trajectory
        path = tmp_path / "bad.json"
        path.write_text("[[1, 2], [3, 4]]")
        with pytest.raises(MetricError, match="N, 3"):
            read_trajectory(path)
