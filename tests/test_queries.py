"""Tests for STRQ, TPQ, exact-match queries and the query engine."""

import numpy as np
import pytest

from repro import PPQTrajectory
from repro.data.synthetic import generate_porto_like
from repro.data.trajectory import Trajectory, TrajectoryDataset
from repro.metrics.accuracy import precision_recall
from repro.queries.exact import ground_truth_cell_members
from repro.queries.strq import spatio_temporal_range_query
from repro.queries.tpq import reconstruct_paths_for_ids, trajectory_path_query


class TestSTRQ:
    def test_query_point_trajectory_is_found(self, fitted_ppq_s, porto_small):
        traj = porto_small.get(porto_small.trajectory_ids[0])
        t = 12
        x, y = traj.points[t]
        result = fitted_ppq_s.strq(x, y, t)
        assert traj.traj_id in result.candidates

    def test_local_search_gives_full_recall(self, fitted_ppq_s, porto_small):
        """With CQC + local search the candidate list must contain every true
        answer (recall 1), for a batch of random queries."""
        rng = np.random.default_rng(0)
        cell = fitted_ppq_s.index_config.grid_cell
        for _ in range(25):
            tid = int(rng.choice(porto_small.trajectory_ids))
            traj = porto_small.get(tid)
            t = int(rng.integers(0, len(traj)))
            x, y = traj.points[t]
            result = fitted_ppq_s.strq(x, y, t, local_search=True)
            truth = ground_truth_cell_members(porto_small, x, y, t, cell)
            _, recall = precision_recall(result.candidates, truth)
            assert recall == pytest.approx(1.0)

    def test_reconstructed_positions_attached(self, fitted_ppq_s, porto_small):
        traj = porto_small.get(porto_small.trajectory_ids[1])
        t = 8
        x, y = traj.points[t]
        result = fitted_ppq_s.strq(x, y, t)
        for tid in result.candidates:
            assert tid in result.reconstructed
            assert result.reconstructed[tid].shape == (2,)

    def test_unknown_time_returns_empty(self, fitted_ppq_s):
        result = fitted_ppq_s.strq(0.0, 0.0, 99_999)
        assert result.candidates == []

    def test_function_level_api_without_summary(self, fitted_ppq_s, porto_small):
        traj = porto_small.get(porto_small.trajectory_ids[0])
        x, y = traj.points[5]
        result = spatio_temporal_range_query(fitted_ppq_s.engine.index, x, y, 5)
        assert result.reconstructed == {}


class TestTPQ:
    def test_paths_start_near_query(self, fitted_ppq_s, porto_small):
        traj = porto_small.get(porto_small.trajectory_ids[0])
        t = 10
        x, y = traj.points[t]
        result = fitted_ppq_s.tpq(x, y, t, length=10)
        assert traj.traj_id in result.paths
        path = result.paths[traj.traj_id]
        assert len(path) <= 10
        # First reconstructed point is close to the true position at t.
        assert np.linalg.norm(path[0] - traj.points[t]) < 0.001

    def test_path_follows_true_trajectory(self, fitted_ppq_s, porto_small):
        traj = porto_small.get(porto_small.trajectory_ids[2])
        t = 5
        length = 15
        x, y = traj.points[t]
        result = fitted_ppq_s.tpq(x, y, t, length=length)
        path = result.paths[traj.traj_id]
        truth = traj.points[t:t + len(path)]
        errors = np.linalg.norm(path - truth, axis=1)
        assert errors.max() < 0.001  # bounded by eps1 anyway

    def test_invalid_length(self, fitted_ppq_s):
        with pytest.raises(ValueError):
            fitted_ppq_s.tpq(0.0, 0.0, 0, length=0)

    def test_reconstruct_paths_for_ids_protocol(self, fitted_ppq_s, porto_small):
        ids = porto_small.trajectory_ids[:5]
        paths = reconstruct_paths_for_ids(fitted_ppq_s.summary, ids, t=3, length=8)
        assert set(paths) == set(ids)
        for path in paths.values():
            assert len(path) <= 8

    def test_function_level_api(self, fitted_ppq_s, porto_small):
        traj = porto_small.get(porto_small.trajectory_ids[0])
        x, y = traj.points[7]
        result = trajectory_path_query(
            fitted_ppq_s.engine.index, fitted_ppq_s.summary, x, y, 7, 5
        )
        assert traj.traj_id in result.paths


class TestExactMatch:
    def test_matches_equal_ground_truth(self, fitted_ppq_s, porto_small):
        rng = np.random.default_rng(1)
        cell = fitted_ppq_s.index_config.grid_cell
        for _ in range(20):
            tid = int(rng.choice(porto_small.trajectory_ids))
            traj = porto_small.get(tid)
            t = int(rng.integers(0, len(traj)))
            x, y = traj.points[t]
            result = fitted_ppq_s.exact(x, y, t)
            truth = ground_truth_cell_members(porto_small, x, y, t, cell)
            assert sorted(result.matches) == truth

    def test_visited_ratio_is_small(self, fitted_ppq_s, porto_small):
        """The summary-based filter must prune most trajectories."""
        traj = porto_small.get(porto_small.trajectory_ids[0])
        t = 6
        x, y = traj.points[t]
        result = fitted_ppq_s.exact(x, y, t)
        assert 0.0 < result.visited_ratio < 0.5

    def test_candidates_superset_of_matches(self, fitted_ppq_s, porto_small):
        traj = porto_small.get(porto_small.trajectory_ids[3])
        t = 9
        x, y = traj.points[t]
        result = fitted_ppq_s.exact(x, y, t)
        assert set(result.matches) <= set(result.candidates)


class TestQueryEngine:
    def test_predict_next_positions(self, fitted_ppq_s, porto_small):
        tid = porto_small.trajectory_ids[0]
        forecast = fitted_ppq_s.predict_next_positions(tid, t=20, horizon=5)
        assert forecast.shape == (5, 2)
        # The one-step forecast should stay within a plausible movement range.
        last = fitted_ppq_s.reconstruct(tid, 20)
        assert np.linalg.norm(forecast[0] - last) < 0.01

    def test_predict_uses_last_appearances_across_a_gap(self):
        """The lags are the trajectory's last k appearances, as in the fit:
        a gap at t-1 does not truncate the history to one point."""
        traj = generate_porto_like(num_trajectories=1, max_length=40, seed=2).get(0)
        keep = traj.timestamps != 19
        dataset = TrajectoryDataset([Trajectory(0, traj.points[keep], traj.timestamps[keep])])
        system = PPQTrajectory.ppq_s().fit(dataset)
        record = system.summary.records[20]
        coefficients = record.coefficients[int(record.partitions[0])]
        lags = np.stack([system.reconstruct(0, 20), system.reconstruct(0, 18)])
        forecast = system.predict_next_positions(0, t=20, horizon=2)
        assert np.array_equal(forecast[0], np.einsum("k,kd->d", coefficients, lags))
        assert np.array_equal(
            forecast[1], np.einsum("k,kd->d", coefficients, np.stack([forecast[0], lags[0]])))

    def test_predict_for_unknown_trajectory(self, fitted_ppq_s):
        forecast = fitted_ppq_s.predict_next_positions(99_999, t=5, horizon=3)
        assert forecast.shape == (0, 2)

    def test_local_search_radius_exposed(self, fitted_ppq_s):
        radius = fitted_ppq_s.engine.local_search_radius
        assert radius is not None and radius > 0.0

    def test_exact_requires_raw_dataset(self, porto_small, fitted_ppq_s):
        from repro.queries.engine import QueryEngine

        engine = QueryEngine(fitted_ppq_s.summary, fitted_ppq_s.index_config, raw_dataset=None)
        with pytest.raises(RuntimeError):
            engine.exact(0.0, 0.0, 0)
