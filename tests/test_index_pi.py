"""Tests for the partition-based index (Algorithm 3)."""

import numpy as np
import pytest

from repro.core.config import IndexConfig
from repro.index.grid import GridIndex
from repro.index.pi import PartitionIndex, build_partition_index
from repro.index.rectangles import Rect


@pytest.fixture()
def two_cluster_slice():
    rng = np.random.default_rng(0)
    cluster_a = rng.normal(loc=[0.0, 0.0], scale=0.01, size=(30, 2))
    cluster_b = rng.normal(loc=[1.0, 1.0], scale=0.01, size=(30, 2))
    points = np.vstack([cluster_a, cluster_b])
    traj_ids = np.arange(60)
    return traj_ids, points


class TestBuild:
    def test_every_point_is_indexed(self, two_cluster_slice):
        traj_ids, points = two_cluster_slice
        pi = build_partition_index(0, traj_ids, points, IndexConfig(epsilon_s=0.1, grid_cell=0.01))
        assert pi.num_indexed_ids == len(points)

    def test_empty_slice(self):
        pi = build_partition_index(0, np.empty(0, dtype=int), np.empty((0, 2)), IndexConfig())
        assert pi.num_rectangles == 0
        assert pi.lookup_batch(np.array([[0.0, 0.0]])) == [[]]

    def test_rectangles_are_disjoint(self, two_cluster_slice):
        traj_ids, points = two_cluster_slice
        pi = build_partition_index(0, traj_ids, points, IndexConfig(epsilon_s=0.1, grid_cell=0.01))
        rects = [g.rect for g in pi.grids]
        for i, a in enumerate(rects):
            for b in rects[i + 1:]:
                assert not a.intersects(b)

    def test_lookup_returns_cell_mates(self, two_cluster_slice):
        traj_ids, points = two_cluster_slice
        config = IndexConfig(epsilon_s=0.1, grid_cell=0.005)
        pi = build_partition_index(0, traj_ids, points, config)
        x, y = points[0]
        [result] = pi.lookup_batch(np.array([[x, y]]))
        assert 0 in result
        # All returned trajectories must be close to the query point (within
        # a cell diagonal of the same grid).
        for tid in result:
            distance = np.linalg.norm(points[tid] - points[0])
            assert distance <= np.sqrt(2) * config.grid_cell + 1e-9

    def test_lookup_local_is_superset(self, two_cluster_slice):
        traj_ids, points = two_cluster_slice
        config = IndexConfig(epsilon_s=0.1, grid_cell=0.005)
        pi = build_partition_index(0, traj_ids, points, config)
        x, y = points[5]
        plain = set(pi.lookup_batch(np.array([[x, y]]))[0])
        local = set(pi.lookup_local_batch(np.array([[x, y]]), radius=0.004)[0])
        assert plain <= local

    def test_covered_mask(self, two_cluster_slice):
        traj_ids, points = two_cluster_slice
        pi = build_partition_index(0, traj_ids, points, IndexConfig(epsilon_s=0.1, grid_cell=0.01))
        inside = pi.covered_mask(points)
        assert np.all(inside)
        outside = pi.covered_mask(np.array([[50.0, 50.0]]))
        assert not outside[0]

    def test_insert_reports_coverage(self, two_cluster_slice):
        traj_ids, points = two_cluster_slice
        pi = build_partition_index(0, traj_ids, points, IndexConfig(epsilon_s=0.1, grid_cell=0.01))
        new_points = np.array([[0.0, 0.0], [100.0, 100.0]])
        covered = pi.insert(np.array([100, 101]), new_points)
        assert covered[0] and not covered[1]

    def test_storage_and_densities(self, two_cluster_slice):
        traj_ids, points = two_cluster_slice
        pi = build_partition_index(0, traj_ids, points, IndexConfig(epsilon_s=0.1, grid_cell=0.01))
        assert pi.storage_bits() > 0
        assert len(pi.densities()) == pi.num_rectangles
        assert len(pi.baseline_density) == pi.num_rectangles

    def test_append_grids(self, two_cluster_slice):
        traj_ids, points = two_cluster_slice
        config = IndexConfig(epsilon_s=0.1, grid_cell=0.01)
        pi = build_partition_index(0, traj_ids[:30], points[:30], config)
        other = build_partition_index(0, traj_ids[30:], points[30:], config)
        before = pi.num_rectangles
        assert pi.lookup_batch(points[45:46]) == [[]]  # builds the cell table
        pi.append_grids(other)
        assert pi.num_rectangles == before + other.num_rectangles
        assert pi.lookup_batch(points[45:46]) != [[]]



class TestSharedCells:
    """A cell held by several rectangles counts only those reaching the query."""

    @pytest.fixture()
    def pi(self):
        # Cell (1, 0) straddles both rectangles; each holds its own ID there.
        left = GridIndex(Rect(0.0, 0.0, 2.0, 2.0), cell_size=1.0)
        right = GridIndex(Rect(1.5, 0.0, 4.0, 2.0), cell_size=1.0)
        left.insert(np.array([1]), np.array([[1.2, 0.5]]))
        right.insert(np.array([2, 3]), np.array([[1.8, 0.5], [3.5, 0.5]]))
        return PartitionIndex(t=0, grids=[left, right], config=IndexConfig(grid_cell=1.0))

    def test_plain_lookup(self, pi):
        points = np.array([[1.2, 0.5], [1.8, 0.5], [3.5, 0.5], [5.0, 0.5]])
        assert pi.lookup_batch(points) == [[1], [1, 2], [3], []]

    def test_local_lookup(self, pi):
        # Reach is radius + g_c = 1.1, so the right rectangle reaches down
        # to x = 0.4: it counts for x = 0.5 but not for x = 0.3.
        points = np.array([[0.3, 0.5], [0.5, 0.5], [2.2, 0.5]])
        assert pi.lookup_local_batch(points, radius=0.1) == [[1], [1, 2], [1, 2, 3]]
