"""Tests for the TrajectorySummary container and its storage accounting."""

import numpy as np
import pytest

from repro.core.config import CQCConfig, PPQConfig
from repro.core.ppq import PartitionwisePredictiveQuantizer
from repro.core.summary import SummaryStorage, TimestepRecord, TrajectorySummary
from repro.core.codebook import Codebook


@pytest.fixture(scope="module")
def summary(porto_small):
    quantizer = PartitionwisePredictiveQuantizer(PPQConfig(), CQCConfig())
    return quantizer.summarize(porto_small)


class TestReconstruction:
    def test_reconstruct_point_matches_cache(self, summary, porto_small):
        tid = porto_small.trajectory_ids[0]
        point = summary.reconstruct_point(tid, 3)
        assert point is not None and point.shape == (2,)

    def test_missing_point_returns_none(self, summary):
        assert summary.reconstruct_point(10_000, 0) is None
        assert summary.reconstruct_point(0, 10_000) is None

    def test_reconstruct_path_stops_at_trajectory_end(self, summary, porto_small):
        tid = porto_small.trajectory_ids[0]
        length = len(porto_small.get(tid))
        path = summary.reconstruct_path(tid, length - 2, 10)
        assert len(path) == 2

    def test_reconstruct_path_empty_when_absent(self, summary):
        assert summary.reconstruct_path(10_000, 0, 5).shape == (0, 2)

    def test_recompute_matches_cached_reconstruction(self, porto_small):
        """Rolling forward from the summary parameters alone reproduces every
        reconstruction the quantizer computed, bit for bit."""
        quantizer = PartitionwisePredictiveQuantizer(PPQConfig(), CQCConfig(enabled=False))
        original = quantizer.summarize(porto_small)
        # A fresh summary object with the same records/codebook and no
        # reconstructions until it rolls forward.
        rebuilt = TrajectorySummary(original.config, original.cqc_config,
                                    original.codebook, original.cqc_coder)
        for record in original.records.values():
            rebuilt.add_record(record)
        tid = porto_small.trajectory_ids[0]
        assert rebuilt.reconstruct_point(tid, 3) is None
        rebuilt.roll_forward()
        checked = 0
        for t in original.timestamps:
            for tid in original.trajectories_at(t):
                a = original.reconstruct_point(tid, t, use_cqc=False)
                b = rebuilt.reconstruct_point(tid, t, use_cqc=False)
                assert a.tobytes() == b.tobytes()
                checked += 1
        assert checked == original.num_points == porto_small.num_points

    def test_use_cqc_false_returns_base_reconstruction(self, summary, porto_small):
        tid = porto_small.trajectory_ids[0]
        base = summary.reconstruct_point(tid, 5, use_cqc=False)
        refined = summary.reconstruct_point(tid, 5, use_cqc=True)
        truth = porto_small.get(tid).point_at(5)
        # The refined point should not be farther from the truth than the base.
        assert (np.linalg.norm(truth - refined)
                <= np.linalg.norm(truth - base) + 1e-12)


class TestAccessors:
    def test_timestamps_sorted(self, summary):
        assert summary.timestamps == sorted(summary.timestamps)

    def test_trajectories_at(self, summary, porto_small):
        expected = sorted(int(t) for t in porto_small.time_slice(0).traj_ids)
        assert summary.trajectories_at(0) == expected

    def test_trajectories_at_missing_timestamp(self, summary):
        assert summary.trajectories_at(10_000) == []

    def test_num_codewords_positive(self, summary):
        assert summary.num_codewords > 0


class TestStorageAccounting:
    def test_storage_fields_positive(self, summary):
        storage = summary.storage()
        assert storage.codebook_bits > 0
        assert storage.codeword_index_bits > 0
        assert storage.coefficient_bits > 0
        assert storage.cqc_bits > 0
        assert storage.total_bits == (
            storage.codebook_bits + storage.codeword_index_bits
            + storage.coefficient_bits + storage.partition_assignment_bits
            + storage.cqc_bits
        )

    def test_total_bytes(self):
        storage = SummaryStorage(codebook_bits=16)
        assert storage.total_bytes == 2.0

    def test_compression_ratio_definition(self, summary):
        ratio = summary.compression_ratio()
        raw_bits = summary.num_points * 2 * 8 * 8
        assert ratio == pytest.approx(raw_bits / summary.storage().total_bits)

    def test_basic_variant_has_no_cqc_bits(self, porto_small):
        quantizer = PartitionwisePredictiveQuantizer(PPQConfig(), CQCConfig(enabled=False))
        basic = quantizer.summarize(porto_small, t_max=10)
        assert basic.storage().cqc_bits == 0

    def test_empty_summary_ratio_is_infinite(self):
        summary = TrajectorySummary(PPQConfig(), CQCConfig(enabled=False), Codebook())
        assert summary.compression_ratio() == float("inf")


class TestTimestepRecord:
    def test_counts(self):
        record = TimestepRecord(t=0, coefficients={0: np.zeros(2)},
                                traj_ids=np.array([1, 2]), partitions=np.array([0, 0]),
                                codewords=np.array([0, 1]))
        assert record.num_points == 2
        assert record.num_partitions == 1
        assert len(record.cqc_cells) == 0

    def test_columns_are_sorted_and_aligned(self, summary):
        code_length = summary.cqc_coder.code_length
        for record in summary.records.values():
            assert np.all(np.diff(record.traj_ids) > 0)
            assert (record.traj_ids.dtype == record.partitions.dtype
                    == record.codewords.dtype == record.cqc_cells.dtype == np.int64)
            assert (len(record.partitions) == len(record.codewords)
                    == len(record.cqc_cells) == record.num_points)
            assert set(record.partitions.tolist()) <= set(record.coefficients)
            assert np.all((record.cqc_cells >= 0) & (record.cqc_cells < 1 << code_length))
