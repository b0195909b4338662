"""Round-trip and integrity tests for the model-artifact storage layer.

The contract under test is the acceptance criterion of the save/load
subsystem: a model fitted once, saved, and loaded back answers STRQ/TPQ/
exact workloads (scalar and batched) *identically* to the in-memory model,
and corrupted or truncated artifacts fail with a clear :class:`ArtifactError`
instead of returning garbage results.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import PPQTrajectory
from repro.core.config import CQCConfig
from repro.data.synthetic import generate_porto_like
from repro.queries.batch import Workload
from repro.storage import (
    ArtifactChecksumError,
    ArtifactError,
    ArtifactFormatError,
    ArtifactVersionError,
    inspect_model,
    load_model,
    save_model,
)
from repro.storage.format import (
    FORMAT_VERSION,
    MAGIC,
    ByteReader,
    ByteWriter,
    pack_artifact,
    unpack_artifact,
)
from repro.utils.bitio import BitWriter


@pytest.fixture(scope="module")
def dataset():
    return generate_porto_like(num_trajectories=25, max_length=45, seed=11)


@pytest.fixture(scope="module", params=["ppq_s", "ppq_a", "basic"])
def fitted(request, dataset):
    """Fitted systems covering CQC-on (both criteria) and CQC-off."""
    if request.param == "ppq_s":
        system = PPQTrajectory.ppq_s()
    elif request.param == "ppq_a":
        system = PPQTrajectory.ppq_a()
    else:
        system = PPQTrajectory.ppq_s(cqc_config=CQCConfig(enabled=False))
    return system.fit(dataset)


@pytest.fixture()
def saved(fitted, tmp_path):
    path = tmp_path / "model.ppq"
    fitted.save(path)
    return fitted, path


def _query_probes(dataset, n=25, seed=3):
    """(x, y, t) probes drawn from real points so candidates are non-trivial."""
    rng = np.random.default_rng(seed)
    probes = []
    ids = dataset.trajectory_ids
    while len(probes) < n:
        traj = dataset.get(int(rng.choice(ids)))
        row = int(rng.integers(0, len(traj)))
        probes.append((float(traj.points[row, 0]), float(traj.points[row, 1]),
                       int(traj.timestamps[row])))
    return probes


def test_scalar_queries_identical_after_roundtrip(saved, dataset):
    original, path = saved
    loaded = PPQTrajectory.load(path)
    some_candidates = False
    for x, y, t in _query_probes(dataset):
        a = original.strq(x, y, t)
        b = loaded.strq(x, y, t)
        assert a.candidates == b.candidates
        assert set(a.reconstructed) == set(b.reconstructed)
        for tid in a.reconstructed:
            assert np.array_equal(a.reconstructed[tid], b.reconstructed[tid])
        some_candidates = some_candidates or bool(a.candidates)

        ta = original.tpq(x, y, t, length=6)
        tb = loaded.tpq(x, y, t, length=6)
        assert set(ta.paths) == set(tb.paths)
        for tid in ta.paths:
            assert np.array_equal(ta.paths[tid], tb.paths[tid])

        ea = original.exact(x, y, t)
        eb = loaded.exact(x, y, t)
        assert ea.candidates == eb.candidates
        assert ea.matches == eb.matches
        assert ea.visited_ratio == eb.visited_ratio
    assert some_candidates, "probe set never hit the index; test is vacuous"


def test_batch_workload_identical_after_roundtrip(saved, dataset):
    original, path = saved
    loaded = PPQTrajectory.load(path)
    specs = []
    for i, (x, y, t) in enumerate(_query_probes(dataset, n=18, seed=9)):
        kind = ("strq", "tpq", "exact")[i % 3]
        spec = {"type": kind, "x": x, "y": y, "t": t}
        if kind == "tpq":
            spec["length"] = 5
        specs.append(spec)
    workload = Workload.from_obj(specs)
    for a, b in zip(original.run_batch(workload), loaded.run_batch(workload)):
        assert type(a) is type(b)
        if hasattr(a, "paths"):
            assert set(a.paths) == set(b.paths)
            for tid in a.paths:
                assert np.array_equal(a.paths[tid], b.paths[tid])
        elif hasattr(a, "matches"):
            assert a.candidates == b.candidates
            assert a.matches == b.matches
        else:
            assert a.candidates == b.candidates


def test_reconstruction_and_summary_state_roundtrip(saved):
    original, path = saved
    loaded = PPQTrajectory.load(path)
    orig, rest = original.summary, loaded.summary
    assert orig.timestamps == rest.timestamps
    assert orig.num_points == rest.num_points
    assert np.array_equal(orig.codebook.codewords, rest.codebook.codewords)
    for t in orig.timestamps:
        a, b = orig.records[t], rest.records[t]
        for column in ("traj_ids", "partitions", "codewords", "cqc_cells"):
            assert np.array_equal(getattr(a, column), getattr(b, column))
            assert getattr(b, column).dtype == np.int64
        assert sorted(a.coefficients) == sorted(b.coefficients)
        for pid in a.coefficients:
            assert np.array_equal(a.coefficients[pid], b.coefficients[pid])
    # Reconstructions (CQC-refined) are identical for every stored point.
    for t in orig.timestamps:
        for tid in orig.trajectories_at(t):
            assert np.array_equal(orig.reconstruct_point(tid, t),
                                  rest.reconstruct_point(tid, t))


def test_index_roundtrip_state(saved):
    original, path = saved
    loaded = PPQTrajectory.load(path)
    a, b = original.engine.index, loaded.engine.index
    assert a.num_periods == b.num_periods
    assert [(p.start, p.end) for p in a.periods] == [(p.start, p.end) for p in b.periods]
    assert a.storage_bits() == b.storage_bits()
    for pa, pb in zip(a.periods, b.periods):
        assert pa.index.num_rectangles == pb.index.num_rectangles
        assert pa.index.num_indexed_ids == pb.index.num_indexed_ids
        assert pa.index.baseline_density == pytest.approx(pb.index.baseline_density)


def test_save_requires_fitted_model(tmp_path):
    with pytest.raises(RuntimeError, match="fit"):
        PPQTrajectory.ppq_s().save(tmp_path / "nope.ppq")


def test_save_without_raw_disables_exact(saved, tmp_path, dataset):
    original, _ = saved
    path = tmp_path / "noraw.ppq"
    original.save(path, include_raw=False)
    loaded = PPQTrajectory.load(path)
    x, y, t = _query_probes(dataset, n=1)[0]
    assert loaded.strq(x, y, t).candidates == original.strq(x, y, t).candidates
    with pytest.raises(RuntimeError, match="raw dataset"):
        loaded.exact(x, y, t)


def test_inspect_model_reports_sections(saved):
    _, path = saved
    info = inspect_model(path)
    assert info.format_version == FORMAT_VERSION
    assert info.checksums_ok
    names = [section.name for section in info.sections]
    assert names[:4] == ["CONFIG", "CODEBOOK", "RECORDS", "INDEX"]
    assert "RECON" not in names  # reconstructions are recomputed at load
    assert info.config is not None and "ppq" in info.config
    assert info.file_size == path.stat().st_size
    assert all(section.length > 0 for section in info.sections)


def test_corrupted_payload_raises_checksum_error(saved, tmp_path):
    """Flipping any payload byte must fail the load with a checksum error."""
    _, path = saved
    blob = bytearray(path.read_bytes())
    info = inspect_model(path)
    for section in info.sections:
        corrupt = bytearray(blob)
        corrupt[section.offset + section.length // 2] ^= 0xFF
        bad = tmp_path / f"bad_{section.name}.ppq"
        bad.write_bytes(bytes(corrupt))
        with pytest.raises(ArtifactChecksumError):
            load_model(bad)
        # info still describes the damaged file instead of raising.
        damaged = inspect_model(bad)
        assert not damaged.checksums_ok
        assert [s.crc_ok for s in damaged.sections].count(False) == 1


def test_every_byte_flip_is_detected(saved, tmp_path):
    """Whole-file sweep: a flip anywhere raises ArtifactError, never garbage."""
    _, path = saved
    blob = bytearray(path.read_bytes())
    rng = np.random.default_rng(5)
    for offset in sorted(rng.choice(len(blob), size=40, replace=False).tolist()):
        corrupt = bytearray(blob)
        corrupt[offset] ^= 0xFF
        bad = tmp_path / "flip.ppq"
        bad.write_bytes(bytes(corrupt))
        with pytest.raises(ArtifactError):
            load_model(bad)


def test_truncated_artifact_raises(saved, tmp_path):
    _, path = saved
    blob = path.read_bytes()
    for cut in (0, 4, 20, 100, len(blob) - 1):
        bad = tmp_path / "short.ppq"
        bad.write_bytes(blob[:cut])
        with pytest.raises(ArtifactError):
            load_model(bad)


def test_not_an_artifact_raises(tmp_path):
    bad = tmp_path / "random.bin"
    bad.write_bytes(b"definitely not a model artifact, sorry" * 10)
    with pytest.raises(ArtifactFormatError, match="magic"):
        load_model(bad)


def test_newer_format_version_rejected(tmp_path):
    blob = bytearray(pack_artifact([("CONFIG", b"{}")]))
    assert blob[:8] == MAGIC
    blob[8] = FORMAT_VERSION + 1  # little-endian u32 version field
    bad = tmp_path / "future.ppq"
    bad.write_bytes(bytes(blob))
    with pytest.raises(ArtifactVersionError, match="newer"):
        load_model(bad)


def test_missing_section_raises(tmp_path):
    blob = pack_artifact([("CONFIG", b"{}")])
    bad = tmp_path / "partial.ppq"
    bad.write_bytes(blob)
    with pytest.raises(ArtifactFormatError, match="missing"):
        load_model(bad)


def test_records_referencing_missing_codewords_raise(saved, tmp_path):
    """A well-formed artifact whose records outrun its codebook is refused at
    load, when the reconstructions are recomputed, not at query time."""
    _, path = saved
    _, payloads = unpack_artifact(path.read_bytes())
    short = ByteWriter()
    short.array(ByteReader(payloads["CODEBOOK"]).array()[:1])
    payloads["CODEBOOK"] = short.getvalue()
    bad = tmp_path / "short_codebook.ppq"
    bad.write_bytes(pack_artifact(list(payloads.items())))
    with pytest.raises(ArtifactFormatError, match="RECORDS"):
        load_model(bad)


def test_save_load_save_is_byte_identical(saved, tmp_path):
    """Every non-derived section survives a load and a second save unchanged."""
    _, path = saved
    again = tmp_path / "again.ppq"
    load_model(path).save(again)
    _, first = unpack_artifact(path.read_bytes())
    _, second = unpack_artifact(again.read_bytes())
    for name in ("CONFIG", "CODEBOOK", "RECORDS", "RAWDATA"):
        assert first[name] == second[name], name


@pytest.fixture(scope="module")
def small_saved(tmp_path_factory):
    system = PPQTrajectory.ppq_s().fit(generate_porto_like(10, max_length=30, seed=4))
    path = tmp_path_factory.mktemp("records") / "model.ppq"
    system.save(path)
    return system, path


def _records_payload(summary, t_bad=None, mutate=None):
    """RECORDS written field by field as the format spec lays it out;
    ``mutate`` edits the columns of timestamp ``t_bad`` before writing."""
    code_length = summary.cqc_coder.code_length
    writer = ByteWriter()
    writer.u64(len(summary.timestamps))
    for t in summary.timestamps:
        record = summary.records[t]
        c = {"coefficients": dict(record.coefficients),
             "partition_ids": record.traj_ids, "partitions": record.partitions,
             "codeword_ids": record.traj_ids, "codewords": record.codewords,
             "cqc_ids": record.traj_ids, "cqc_cells": record.cqc_cells,
             "lengths": np.full(record.num_points, code_length, dtype=np.int64)}
        if t == t_bad:
            mutate(c)
        writer.i64(t)
        writer.u64(len(c["coefficients"]))
        for pid in sorted(c["coefficients"]):
            writer.i64(pid)
            writer.array(c["coefficients"][pid])
        for name in ("partition_ids", "partitions", "codeword_ids", "codewords",
                     "cqc_ids", "lengths"):
            writer.array(np.asarray(c[name], dtype=np.int64))
        bits = BitWriter()
        for cell, length in zip(c["cqc_cells"].tolist(), c["lengths"].tolist()):
            bits.write_bits(cell, length)
        writer.blob(bits.to_bytes())
    return writer.getvalue()


def _drop_coefficients(c):
    del c["coefficients"][int(c["partitions"][0])]


def _drop_codeword_id(c):
    c["codeword_ids"], c["codewords"] = c["codeword_ids"][1:], c["codewords"][1:]


def _drop_partition_id(c):
    c["partition_ids"], c["partitions"] = c["partition_ids"][1:], c["partitions"][1:]


def _drop_cqc_id(c):
    c["cqc_ids"], c["cqc_cells"], c["lengths"] = (
        c["cqc_ids"][1:], c["cqc_cells"][1:], c["lengths"][1:])


def _reverse_rows(c):
    for name in ("partition_ids", "partitions", "codeword_ids", "codewords",
                 "cqc_ids", "cqc_cells", "lengths"):
        c[name] = c[name][::-1]


def _long_cqc_code(c):
    c["lengths"] = c["lengths"] + 1


@pytest.mark.parametrize("mutate", [
    _drop_coefficients, _drop_codeword_id, _drop_partition_id, _drop_cqc_id,
    _reverse_rows, _long_cqc_code,
])
def test_inconsistent_records_raise(small_saved, tmp_path, mutate):
    """A CRC-valid artifact whose RECORDS columns disagree is refused at load."""
    system, path = small_saved
    _, payloads = unpack_artifact(path.read_bytes())
    assert _records_payload(system.summary) == payloads["RECORDS"]
    payloads["RECORDS"] = _records_payload(system.summary, t_bad=10, mutate=mutate)
    bad = tmp_path / "bad_records.ppq"
    bad.write_bytes(pack_artifact(list(payloads.items())))
    with pytest.raises(ArtifactFormatError, match="RECORDS"):
        load_model(bad)


def test_module_level_save_load_match_methods(saved, tmp_path, dataset):
    """save_model/load_model and the PPQTrajectory methods are one API."""
    original, _ = saved
    path = tmp_path / "func.ppq"
    assert save_model(original, path) == path
    loaded = load_model(path)
    x, y, t = _query_probes(dataset, n=1, seed=21)[0]
    assert loaded.strq(x, y, t).candidates == original.strq(x, y, t).candidates


# ---------------------------------------------------------------------- #
# salvage loading (strict=False)
# ---------------------------------------------------------------------- #
@pytest.fixture(scope="module")
def salvage_saved(dataset, tmp_path_factory):
    """One fitted+saved system reused by every salvage case below."""
    system = PPQTrajectory.ppq_s().fit(dataset)
    path = tmp_path_factory.mktemp("salvage") / "model.ppq"
    system.save(path)
    return system, path


def _flip_section_byte(path, tmp_path, name):
    """Copy the artifact with one byte flipped inside section ``name``."""
    blob = bytearray(path.read_bytes())
    section = next(s for s in inspect_model(path).sections if s.name == name)
    blob[section.offset + section.length // 2] ^= 0xFF
    bad = tmp_path / f"flip_{name}.ppq"
    bad.write_bytes(bytes(blob))
    return bad


def _assert_strq_equal(a_system, b_system, dataset):
    hits = False
    for x, y, t in _query_probes(dataset, n=12, seed=17):
        ra, rb = a_system.strq(x, y, t), b_system.strq(x, y, t)
        assert ra.candidates == rb.candidates
        for tid in ra.reconstructed:
            assert np.array_equal(ra.reconstructed[tid], rb.reconstructed[tid])
        hits = hits or bool(ra.candidates)
    assert hits, "probe set never hit the index; comparison is vacuous"


def test_salvage_rebuilds_corrupt_index(salvage_saved, tmp_path, dataset):
    original, path = salvage_saved
    bad = _flip_section_byte(path, tmp_path, "INDEX")
    with pytest.raises(ArtifactChecksumError):
        load_model(bad)  # default stays strict
    loaded = load_model(bad, strict=False)
    report = loaded.load_report
    assert report is not None and not report.clean
    assert report.rebuilt == ["INDEX"]
    assert not report.dropped and not report.lost
    # The rebuilt TPI serves queries identical to the undamaged model.
    _assert_strq_equal(original, loaded, dataset)


def test_salvage_drops_corrupt_rawdata(salvage_saved, tmp_path, dataset):
    original, path = salvage_saved
    bad = _flip_section_byte(path, tmp_path, "RAWDATA")
    with pytest.warns(RuntimeWarning, match="exact"):
        loaded = load_model(bad, strict=False)
    report = loaded.load_report
    assert report.dropped == ["RAWDATA"]
    assert "exact queries" in report.lost
    assert any("lost capabilities" in line for line in report.lines())
    x, y, t = _query_probes(dataset, n=1, seed=23)[0]
    with pytest.raises(RuntimeError, match="raw dataset"):
        loaded.exact(x, y, t)
    _assert_strq_equal(original, loaded, dataset)  # approx queries unaffected


@pytest.mark.parametrize("section", ["CONFIG", "CODEBOOK", "RECORDS"])
def test_salvage_cannot_recover_required_sections(salvage_saved, tmp_path, section):
    _, path = salvage_saved
    bad = _flip_section_byte(path, tmp_path, section)
    with pytest.raises(ArtifactChecksumError):
        load_model(bad, strict=False)


def test_salvage_of_truncated_tail(salvage_saved, tmp_path, dataset):
    """A tail truncation (mid-RAWDATA) salvages into a query-able system."""
    original, path = salvage_saved
    blob = path.read_bytes()
    rawdata = next(s for s in inspect_model(path).sections if s.name == "RAWDATA")
    bad = tmp_path / "truncated.ppq"
    bad.write_bytes(blob[: rawdata.offset + rawdata.length // 3])
    with pytest.raises(ArtifactError):
        load_model(bad)
    with pytest.warns(RuntimeWarning):
        loaded = load_model(bad, strict=False)
    assert "RAWDATA" in loaded.load_report.dropped
    _assert_strq_equal(original, loaded, dataset)


def test_non_strict_load_of_clean_artifact_reports_all_ok(salvage_saved):
    _, path = salvage_saved
    loaded = load_model(path, strict=False)
    report = loaded.load_report
    assert report.clean
    assert [s.status for s in report.sections] == ["ok"] * len(report.sections)
