"""Loaded models recompute every reconstruction bit-identically to the fit.

Artifacts do not store reconstructions: ``load_model`` rolls Equation 1
forward over the stored records with the same history and prediction step
the quantizer used.  These tests check every point of two datasets -- one
whose trajectories have gaps, and the benchmark's staggered repository --
after a strict load, a salvage load with a damaged index and a load of a
version-1 artifact that still carries its ``RECON`` section.
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

from repro import CQCConfig, PPQConfig, PPQTrajectory
from repro.data.synthetic import generate_porto_like
from repro.data.trajectory import Trajectory, TrajectoryDataset
from repro.storage import ArtifactChecksumError, inspect_model, load_model
from repro.storage.format import ByteWriter, pack_artifact, unpack_artifact

_WORKLOAD = Path(__file__).resolve().parents[1] / "perfbench" / "workload.py"

SYSTEMS = {
    "ppq_s": PPQTrajectory.ppq_s,
    "ppq_a": PPQTrajectory.ppq_a,
    "epq": lambda: PPQTrajectory(variant="epq"),
    "cqc_off": lambda: PPQTrajectory.ppq_s(cqc_config=CQCConfig(enabled=False)),
    "order_3": lambda: PPQTrajectory.ppq_s(ppq_config=PPQConfig(prediction_order=3)),
}


def _gapped_dataset() -> TrajectoryDataset:
    """Porto-like trips with every 7th point dropped."""
    trajectories = []
    for traj in generate_porto_like(num_trajectories=30, max_length=120, seed=5):
        keep = np.arange(len(traj)) % 7 != 6
        trajectories.append(Trajectory(traj.traj_id, traj.points[keep], traj.timestamps[keep]))
    return TrajectoryDataset(trajectories)


def _benchmark_dataset() -> TrajectoryDataset:
    spec = importlib.util.spec_from_file_location("perfbench_workload", _WORKLOAD)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses resolve their module
    spec.loader.exec_module(module)
    return module.make_dataset()


DATASETS = {"gapped": _gapped_dataset, "benchmark": _benchmark_dataset}


@pytest.fixture(scope="module", params=sorted(DATASETS))
def dataset(request):
    return DATASETS[request.param]()


@pytest.fixture(scope="module", params=sorted(SYSTEMS))
def saved(request, dataset, tmp_path_factory):
    system = SYSTEMS[request.param]().fit(dataset)
    path = tmp_path_factory.mktemp("replay") / "model.ppq"
    system.save(path)
    return system, path


def _points(summary, use_cqc):
    """Every reconstruction of a summary, keyed by ``(traj_id, t)``."""
    return {
        (tid, t): summary.reconstruct_point(tid, t, use_cqc=use_cqc).tobytes()
        for t in summary.timestamps
        for tid in summary.trajectories_at(t)
    }


def _assert_identical(original, loaded):
    for use_cqc in (False, True):
        expected = _points(original.summary, use_cqc)
        assert len(expected) == original.summary.num_points
        assert _points(loaded.summary, use_cqc) == expected


def _version_1_copy(system, path, dest):
    """The artifact as format version 1 wrote it: with a ``RECON`` section."""
    summary = system.summary
    keys = sorted((tid, t) for t in summary.timestamps for tid in summary.trajectories_at(t))
    recon = ByteWriter()
    recon.u64(len(keys))
    recon.array(np.asarray([tid for tid, _ in keys], dtype=np.int64))
    recon.array(np.asarray([t for _, t in keys], dtype=np.int64))
    recon.array(np.asarray([summary.reconstruct_point(tid, t, use_cqc=False)
                            for tid, t in keys], dtype=np.float64))
    _, payloads = unpack_artifact(path.read_bytes())
    sections = []
    for name, payload in payloads.items():
        sections.append((name, payload))
        if name == "RECORDS":
            sections.append(("RECON", recon.getvalue()))
    blob = bytearray(pack_artifact(sections))
    blob[8:12] = (1).to_bytes(4, "little")  # the header's version field
    dest.write_bytes(bytes(blob))
    return dest


def _flip(path, name, dest):
    blob = bytearray(path.read_bytes())
    section = next(s for s in inspect_model(path).sections if s.name == name)
    blob[section.offset + section.length // 2] ^= 0xFF
    dest.write_bytes(bytes(blob))
    return dest


def test_strict_load(saved):
    system, path = saved
    assert "RECON" not in [s.name for s in inspect_model(path).sections]
    _assert_identical(system, load_model(path))


def test_salvage_load_with_damaged_index(saved, tmp_path):
    system, path = saved
    loaded = load_model(_flip(path, "INDEX", tmp_path / "bad_index.ppq"), strict=False)
    assert loaded.load_report.rebuilt == ["INDEX"]
    _assert_identical(system, loaded)
    assert loaded.engine.index.storage_bits() == system.engine.index.storage_bits()


def test_version_1_artifact_loads(saved, tmp_path):
    system, path = saved
    old = _version_1_copy(system, path, tmp_path / "v1.ppq")
    info = inspect_model(old)
    assert info.format_version == 1
    assert "RECON" in [s.name for s in info.sections]
    _assert_identical(system, load_model(old))


def test_damaged_version_1_recon_is_ignored_by_salvage(saved, tmp_path):
    system, path = saved
    old = _version_1_copy(system, path, tmp_path / "v1.ppq")
    bad = _flip(old, "RECON", tmp_path / "v1_bad_recon.ppq")
    with pytest.raises(ArtifactChecksumError):
        load_model(bad)  # strict loads verify every section's checksum
    loaded = load_model(bad, strict=False)
    assert "RECON" not in [s.name for s in loaded.load_report.sections]
    assert loaded.engine.source_path is None  # workers would refuse the file
    _assert_identical(system, loaded)
