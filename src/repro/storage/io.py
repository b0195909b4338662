"""Save and load fitted PPQ-trajectory models as versioned artifacts.

:func:`save_model` serializes everything a serving process needs to answer
queries without re-running ``fit()``:

* ``CONFIG``  -- the quantizer/CQC/index configuration and variant (JSON);
* ``CODEBOOK`` -- the error-bounded codebook as a raw float64 buffer;
* ``RECORDS`` -- the per-timestamp summary records: prediction coefficients,
  partition assignments, codeword indices and the packed fixed-length CQC
  codes, checked for consistency when loaded;
* ``INDEX``   -- the TPI: time periods, partition-index rectangles and each
  grid cell's delta+Huffman compressed posting list (the Huffman codecs are
  persisted as canonical code lengths);
* ``RAWDATA`` -- optionally, the raw trajectories, which exact-match
  queries verify against.

:func:`load_model` restores a query-ready
:class:`~repro.core.pipeline.PPQTrajectory` (with its
:class:`~repro.queries.engine.QueryEngine` wired to the stored index),
recomputing the ε₁-bounded reconstructions from ``RECORDS`` with
:meth:`~repro.core.summary.TrajectorySummary.roll_forward`, and
:func:`inspect_model` reports an artifact's layout and checksum status
without constructing the model.  The container layout itself lives in
:mod:`repro.storage.format` and is specified in ``docs/ARTIFACT_FORMAT.md``.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.core.codebook import Codebook
from repro.core.config import CQCConfig, IndexConfig, PPQConfig
from repro.core.summary import TimestepRecord, TrajectorySummary
from repro.cqc.coding import CQCCoder
from repro.data.trajectory import Trajectory, TrajectoryDataset
from repro.index.grid import GridIndex
from repro.index.idcodec import CompressedIdList
from repro.index.pi import PartitionIndex
from repro.index.rectangles import Rect
from repro.index.tpi import TemporalPartitionIndex, TimePeriod
from repro.reliability import faults as _faults
from repro.reliability.salvage import LoadReport
from repro.storage.format import (
    FORMAT_VERSION,
    ArtifactChecksumError,
    ArtifactFormatError,
    ByteReader,
    ByteWriter,
    SectionInfo,
    inspect_artifact,
    unpack_artifact,
    write_artifact_file,
)
from repro.utils.huffman import HuffmanCodec

#: Section names, in the order they are written.
SECTION_CONFIG = "CONFIG"
SECTION_CODEBOOK = "CODEBOOK"
SECTION_RECORDS = "RECORDS"
SECTION_INDEX = "INDEX"
SECTION_RAWDATA = "RAWDATA"

_REQUIRED_SECTIONS = (SECTION_CONFIG, SECTION_CODEBOOK, SECTION_RECORDS, SECTION_INDEX)


# ---------------------------------------------------------------------- #
# CONFIG section
# ---------------------------------------------------------------------- #
def _encode_config(system) -> bytes:
    from repro import __version__

    config = {
        "library_version": __version__,
        "variant": system.variant,
        "ppq": {
            "epsilon1": system.ppq_config.epsilon1,
            "epsilon_p": system.ppq_config.epsilon_p,
            "criterion": system.ppq_config.criterion.value,
            "prediction_order": system.ppq_config.prediction_order,
            "max_partitions": system.ppq_config.max_partitions,
            "partition_growth": system.ppq_config.partition_growth,
            "kmeans_iterations": system.ppq_config.kmeans_iterations,
            "max_codewords_per_step": system.ppq_config.max_codewords_per_step,
            "use_prediction": system.ppq_config.use_prediction,
            "seed": system.ppq_config.seed,
        },
        "cqc": {
            "grid_size": system.cqc_config.grid_size,
            "enabled": system.cqc_config.enabled,
        },
        "index": {
            "epsilon_s": system.index_config.epsilon_s,
            "grid_cell": system.index_config.grid_cell,
            "epsilon_c": system.index_config.epsilon_c,
            "epsilon_d": system.index_config.epsilon_d,
            "page_size_bytes": system.index_config.page_size_bytes,
        },
    }
    return json.dumps(config, sort_keys=True).encode("utf-8")


def _decode_config(payload: bytes) -> dict:
    try:
        config = json.loads(payload.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ArtifactFormatError(f"CONFIG section is not valid JSON: {exc}") from exc
    for key in ("variant", "ppq", "cqc", "index"):
        if key not in config:
            raise ArtifactFormatError(f"CONFIG section is missing the {key!r} entry")
    return config


# ---------------------------------------------------------------------- #
# RECORDS section (summary)
# ---------------------------------------------------------------------- #
def _encode_records(summary: TrajectorySummary) -> bytes:
    writer = ByteWriter()
    timestamps = summary.timestamps
    code_length = summary.cqc_coder.code_length if summary.cqc_coder is not None else 0
    shifts = np.arange(code_length - 1, -1, -1, dtype=np.int64)
    writer.u64(len(timestamps))
    for t in timestamps:
        record = summary.records[t]
        writer.i64(int(t))

        partitions = sorted(record.coefficients)
        writer.u64(len(partitions))
        for pid in partitions:
            writer.i64(int(pid))
            writer.array(np.asarray(record.coefficients[pid], dtype=np.float64))

        writer.array(record.traj_ids)  # the ID column, once per aligned column
        writer.array(record.partitions)
        writer.array(record.traj_ids)
        writer.array(record.codewords)
        cells = record.cqc_cells
        writer.array(record.traj_ids if len(cells) else cells)
        writer.array(np.full(len(cells), code_length, dtype=np.int64))
        # Each code's bits, most significant first, packed back to back.
        writer.blob(np.packbits(((cells[:, None] >> shifts) & 1).astype(np.uint8)).tobytes())
    return writer.getvalue()


def _decode_records(payload: bytes, summary: TrajectorySummary) -> None:
    """Read RECORDS into ``summary.records``; ``ArtifactFormatError`` if inconsistent."""
    reader = ByteReader(payload)
    code_length = summary.cqc_coder.code_length if summary.cqc_coder is not None else 0
    shifts = np.arange(code_length - 1, -1, -1, dtype=np.int64)
    for _ in range(reader.u64()):
        t = reader.i64()
        coefficients = {reader.i64(): reader.array() for _ in range(reader.u64())}
        traj_ids, partitions = reader.array(), reader.array()
        codeword_ids, codewords = reader.array(), reader.array()
        cqc_ids, lengths = reader.array(), reader.array()
        bits = np.unpackbits(np.frombuffer(reader.blob(), dtype=np.uint8))
        problem = _records_problem(
            code_length, coefficients, traj_ids, partitions, codeword_ids, codewords,
            cqc_ids, lengths, len(bits))
        if problem:
            raise ArtifactFormatError(f"RECORDS section, timestamp {t}: {problem}")
        bits = bits[:len(cqc_ids) * code_length].reshape(len(cqc_ids), code_length)
        summary.records[t] = TimestepRecord(
            t=t, coefficients=coefficients, traj_ids=traj_ids, partitions=partitions,
            codewords=codewords, cqc_cells=bits.astype(np.int64) @ (1 << shifts))


def _records_problem(code_length, coefficients, traj_ids, partitions, codeword_ids,
                     codewords, cqc_ids, lengths, num_bits) -> str | None:
    """What is wrong with one timestamp's decoded RECORDS columns, if anything.

    ``code_length`` is 0 when CQC is off; the CQC columns must then be empty.
    """
    columns = (traj_ids, partitions, codeword_ids, codewords, cqc_ids, lengths)
    if any(column.dtype != np.int64 or column.ndim != 1 for column in columns):
        return "a column is not a one-dimensional int64 array"
    cqc_ids_ok = np.array_equal(cqc_ids, traj_ids) if code_length else len(cqc_ids) == 0
    if not (np.array_equal(codeword_ids, traj_ids) and cqc_ids_ok):
        return "the trajectory IDs of its columns differ"
    if np.any(np.diff(traj_ids) <= 0):
        return "trajectory IDs are not strictly increasing"
    if not len(partitions) == len(codewords) == len(traj_ids) or len(lengths) != len(cqc_ids):
        return "a column is not aligned with its trajectory IDs"
    if not coefficients.keys() >= set(partitions.tolist()):
        return "a point's partition has no coefficients"
    if np.any(lengths != code_length):
        return f"a CQC code is not {code_length} bits long"
    if num_bits < len(cqc_ids) * code_length:
        return "truncated CQC bit stream"
    return None


# ---------------------------------------------------------------------- #
# INDEX section (TPI)
# ---------------------------------------------------------------------- #
def _encode_grid(writer: ByteWriter, grid: GridIndex, baseline: float) -> None:
    rect = grid.rect
    writer.f64(rect.min_x)
    writer.f64(rect.min_y)
    writer.f64(rect.max_x)
    writer.f64(rect.max_y)
    writer.f64(grid.cell_size)
    writer.f64(baseline)
    cells = sorted(grid._cells)
    writer.u64(len(cells))
    for cell in cells:
        compressed = grid._cells[cell]
        writer.i64(cell[0])
        writer.i64(cell[1])
        writer.i64(compressed.first_id)
        writer.u64(compressed.count)
        writer.u64(compressed.bit_length)
        writer.blob(compressed.payload)
        lengths = compressed.codec.code_lengths if compressed.codec is not None else {}
        writer.u64(len(lengths))
        for symbol in sorted(lengths):
            writer.i64(int(symbol))
            writer.u8(int(lengths[symbol]))


def _decode_grid(reader: ByteReader, config: IndexConfig) -> tuple[GridIndex, float]:
    rect = Rect(reader.f64(), reader.f64(), reader.f64(), reader.f64())
    cell_size = reader.f64()
    baseline = reader.f64()
    grid = GridIndex(rect, cell_size)
    for _ in range(reader.u64()):
        cell = (reader.i64(), reader.i64())
        first_id = reader.i64()
        count = reader.u64()
        bit_length = reader.u64()
        payload = reader.blob()
        lengths = {}
        for _ in range(reader.u64()):
            symbol = reader.i64()
            lengths[symbol] = reader.u8()
        codec = HuffmanCodec.from_code_lengths(lengths) if lengths else None
        grid._cells[cell] = CompressedIdList(
            payload=payload, bit_length=bit_length,
            first_id=first_id, count=count, codec=codec,
        )
    return grid, baseline


def _encode_index(index: TemporalPartitionIndex) -> bytes:
    writer = ByteWriter()
    writer.i64(index.seed)
    writer.u64(index.stats.num_rebuilds)
    writer.u64(index.stats.num_insertions)
    writer.f64(index.stats.build_seconds)
    writer.u64(len(index.periods))
    for period in index.periods:
        writer.i64(period.start)
        writer.i64(period.end)
        pi = period.index
        writer.i64(pi.t)
        writer.u64(len(pi.grids))
        baselines = pi.baseline_density or [0.0] * len(pi.grids)
        for grid, baseline in zip(pi.grids, baselines):
            _encode_grid(writer, grid, float(baseline))
    return writer.getvalue()


def _decode_index(payload: bytes, config: IndexConfig) -> TemporalPartitionIndex:
    reader = ByteReader(payload)
    index = TemporalPartitionIndex(config, seed=reader.i64())
    index.stats.num_rebuilds = reader.u64()
    index.stats.num_insertions = reader.u64()
    index.stats.build_seconds = reader.f64()
    for _ in range(reader.u64()):
        start = reader.i64()
        end = reader.i64()
        pi = PartitionIndex(t=reader.i64(), config=config)
        for _ in range(reader.u64()):
            grid, baseline = _decode_grid(reader, config)
            pi.grids.append(grid)
            pi.baseline_density.append(baseline)
        index.periods.append(TimePeriod(start=start, end=end, index=pi))
    index.stats.num_periods = len(index.periods)
    index.stats.index_bits = index.storage_bits()
    return index


# ---------------------------------------------------------------------- #
# RAWDATA section
# ---------------------------------------------------------------------- #
def _encode_dataset(dataset: TrajectoryDataset) -> bytes:
    writer = ByteWriter()
    traj_ids = dataset.trajectory_ids
    writer.u64(len(traj_ids))
    for tid in traj_ids:
        traj = dataset.get(tid)
        writer.i64(int(tid))
        writer.array(np.asarray(traj.timestamps, dtype=np.int64))
        writer.array(np.asarray(traj.points, dtype=np.float64))
    return writer.getvalue()


def _decode_dataset(payload: bytes) -> TrajectoryDataset:
    reader = ByteReader(payload)
    trajectories = []
    for _ in range(reader.u64()):
        tid = reader.i64()
        timestamps = reader.array()
        points = reader.array()
        trajectories.append(Trajectory(traj_id=tid, points=points, timestamps=timestamps))
    return TrajectoryDataset(trajectories)


# ---------------------------------------------------------------------- #
# public API
# ---------------------------------------------------------------------- #
def save_model(system, path: str | Path, include_raw: bool = True) -> Path:
    """Serialize a fitted PPQ-trajectory system to a versioned artifact file.

    Parameters
    ----------
    system:
        A fitted :class:`~repro.core.pipeline.PPQTrajectory` (``fit()`` must
        have been called with ``build_index=True``).
    path:
        Destination file; written atomically (temp file + rename).
    include_raw:
        Whether to embed the raw trajectories in a ``RAWDATA`` section.
        Exact-match queries verify candidates against the raw data, so a
        model saved with ``include_raw=False`` loads without exact-query
        support (STRQ/TPQ are unaffected) and is correspondingly smaller.

    Returns
    -------
    pathlib.Path
        The path written.

    Raises
    ------
    RuntimeError
        If the system has no summary or no query engine (not fitted).
    OSError
        If the file cannot be written.
    """
    if system.summary is None:
        raise RuntimeError("cannot save an unfitted model: call fit() first")
    if system.engine is None:
        raise RuntimeError("cannot save a model without an index: "
                           "call fit(build_index=True) first")
    sections = [
        (SECTION_CONFIG, _encode_config(system)),
        (SECTION_CODEBOOK, _encode_codebook(system.summary.codebook)),
        (SECTION_RECORDS, _encode_records(system.summary)),
        (SECTION_INDEX, _encode_index(system.engine.index)),
    ]
    if include_raw and system.engine.raw_dataset is not None:
        sections.append((SECTION_RAWDATA, _encode_dataset(system.engine.raw_dataset)))
    written = write_artifact_file(path, sections)
    # The freshly written artifact reproduces this engine's answers exactly,
    # so parallel workers may load it on the engine's behalf.
    system.engine.source_path = str(written)
    return written


def _encode_codebook(codebook: Codebook) -> bytes:
    writer = ByteWriter()
    writer.array(np.asarray(codebook.codewords, dtype=np.float64))
    return writer.getvalue()


def _decode_codebook(payload: bytes) -> Codebook:
    codewords = ByteReader(payload).array()
    codebook = Codebook(initial_capacity=max(64, len(codewords)))
    codebook.extend(codewords)
    return codebook


def _read_section(payloads: dict[str, bytes], name: str) -> bytes:
    """Fetch one section payload; the ``storage.section_read`` fault point."""
    if _faults.ACTIVE is not None:
        _faults.ACTIVE.check("storage.section_read", key=name)
    return payloads[name]


#: Sections that cannot be rebuilt from other sections.  When one of these
#: is damaged there is no model, so even ``strict=False`` loads raise.
_NON_DERIVABLE_SECTIONS = (SECTION_CONFIG, SECTION_CODEBOOK, SECTION_RECORDS)


def load_model(path: str | Path, verify: bool = True, strict: bool = True):
    """Load a model artifact into a query-ready ``PPQTrajectory``.

    The returned system answers STRQ/TPQ (and, when the artifact has a
    ``RAWDATA`` section, exact-match) queries -- scalar or batched --
    identically to the system that was saved, without refitting: the
    summary, codebook and full TPI are restored from the artifact, and the
    reconstructions are recomputed from the summary records (bit-identical
    to the saved model's).  A version-1 artifact's ``RECON`` section is
    ignored.

    Parameters
    ----------
    path:
        An artifact produced by :func:`save_model`.
    verify:
        When true (the default), every section's CRC32 is verified before
        decoding (strict mode only; non-strict loads always consult the
        checksums to decide what to salvage).
    strict:
        When true (the default), any damage raises.  With ``strict=False``
        the loader salvages what it can: the config, codebook and summary
        records must be intact (they are not derivable), but a damaged index
        is rebuilt from the summary's reconstructions, and a damaged
        raw-data section is dropped with a ``RuntimeWarning`` (disabling
        exact-match queries).  The resulting system's ``load_report`` (a
        :class:`~repro.reliability.salvage.LoadReport`) lists every
        section's fate; rebuilt sections are bit-identical to the originals
        because both are deterministic functions of the summary.

    Returns
    -------
    PPQTrajectory
        The restored system (its ``engine`` uses the stored index), with a
        ``load_report`` attribute describing per-section outcomes.

    Raises
    ------
    OSError
        If the file cannot be read.
    ArtifactFormatError
        If the file is not a well-formed artifact or a non-salvageable
        section is missing.
    ArtifactVersionError
        If the artifact was written by a newer format version.
    ArtifactChecksumError
        If a checksum mismatch affects a section the load cannot proceed
        without (any section in strict mode with ``verify=True``; the
        config/codebook/records sections in non-strict mode).
    """
    from repro.core.pipeline import PPQTrajectory
    from repro.queries.engine import QueryEngine

    path = Path(path)
    blob = path.read_bytes()
    report = LoadReport(path=str(path), strict=strict)

    if strict:
        _version, payloads = unpack_artifact(blob, verify=verify)
        crc_ok = dict.fromkeys(payloads, True)
        missing = [name for name in _REQUIRED_SECTIONS if name not in payloads]
        if missing:
            raise ArtifactFormatError(
                f"artifact is missing required section(s): {', '.join(missing)}"
            )
    else:
        _version, infos = inspect_artifact(blob, strict=False)
        payloads = {info.name: blob[info.offset:info.offset + info.length] for info in infos}
        crc_ok = {info.name: info.crc_ok for info in infos}
        missing = [name for name in _NON_DERIVABLE_SECTIONS if name not in payloads]
        if missing:
            raise ArtifactFormatError(
                f"artifact is missing non-derivable section(s): {', '.join(missing)}"
            )
        damaged = [name for name in _NON_DERIVABLE_SECTIONS if not crc_ok[name]]
        if damaged:
            raise ArtifactChecksumError(
                f"section(s) {', '.join(damaged)} are corrupt and cannot be "
                "rebuilt from other sections"
            )

    config = _decode_config(_read_section(payloads, SECTION_CONFIG))
    ppq_config = PPQConfig(**config["ppq"])
    cqc_config = CQCConfig(**config["cqc"])
    index_config = IndexConfig(**config["index"])
    system = PPQTrajectory(ppq_config=ppq_config, cqc_config=cqc_config,
                           index_config=index_config, variant=config["variant"])
    report.record(SECTION_CONFIG, "ok")

    codebook = _decode_codebook(_read_section(payloads, SECTION_CODEBOOK))
    report.record(SECTION_CODEBOOK, "ok")
    cqc_coder = None
    if cqc_config.enabled:
        cqc_coder = CQCCoder(epsilon=ppq_config.epsilon1, grid_size=cqc_config.grid_size)
    summary = TrajectorySummary(ppq_config, cqc_config, codebook, cqc_coder)
    _decode_records(_read_section(payloads, SECTION_RECORDS), summary)
    report.record(SECTION_RECORDS, "ok")

    try:
        summary.roll_forward()
    except (IndexError, ValueError) as exc:
        raise ArtifactFormatError(f"RECORDS section does not match the model: {exc}") from exc

    if strict:
        index = _decode_index(_read_section(payloads, SECTION_INDEX), index_config)
        report.record(SECTION_INDEX, "ok")
        raw_dataset = None
        if SECTION_RAWDATA in payloads:
            raw_dataset = _decode_dataset(_read_section(payloads, SECTION_RAWDATA))
            report.record(SECTION_RAWDATA, "ok")
    else:
        index, raw_dataset = _salvage_sections(payloads, crc_ok, index_config, report)

    system.summary = summary
    system._dataset = raw_dataset
    system.engine = QueryEngine(summary, index_config, raw_dataset=raw_dataset, index=index)
    # Remember where the model came from so run_batch(jobs>1) can hand the
    # artifact path (not the live objects) to its worker processes.  Salvaged
    # loads do not record a path: workers load independently and must not
    # silently serve from a damaged file the parent only survived by salvage
    # (a damaged section the loader ignores still fails a worker's strict load).
    if report.clean and all(crc_ok.values()):
        system.engine.source_path = str(path)
    system.load_report = report
    return system


def _salvage_sections(payloads: dict[str, bytes], crc_ok: dict[str, bool],
                      index_config: IndexConfig, report: LoadReport):
    """Decode the derivable sections of a damaged artifact, rebuilding as needed.

    Returns ``(index, raw_dataset)`` where ``index`` is ``None`` when the
    stored TPI was unusable (the caller's ``QueryEngine`` then rebuilds it
    deterministically from the summary's reconstructions -- the same
    seed-0 build that produced the original at fit time, so the rebuilt
    index is bit-identical) and ``raw_dataset`` is ``None`` when the
    raw-data section was damaged or absent.
    """
    index = None
    if SECTION_INDEX in payloads and crc_ok[SECTION_INDEX]:
        try:
            index = _decode_index(_read_section(payloads, SECTION_INDEX), index_config)
            report.record(SECTION_INDEX, "ok")
        except Exception as exc:  # noqa: BLE001 - any decode failure is salvageable
            index = None
            report.record(SECTION_INDEX, "rebuilt",
                          f"decode failed ({exc}); rebuilt from summary reconstructions")
    else:
        detail = "missing" if SECTION_INDEX not in payloads else "checksum mismatch"
        report.record(SECTION_INDEX, "rebuilt",
                      f"{detail}; rebuilt from summary reconstructions")

    raw_dataset = None
    if SECTION_RAWDATA in payloads:
        if crc_ok[SECTION_RAWDATA]:
            try:
                raw_dataset = _decode_dataset(_read_section(payloads, SECTION_RAWDATA))
                report.record(SECTION_RAWDATA, "ok")
            except Exception as exc:  # noqa: BLE001 - dropping raw data is safe
                report.record(SECTION_RAWDATA, "dropped", f"decode failed ({exc})")
        else:
            report.record(SECTION_RAWDATA, "dropped", "checksum mismatch")
        if raw_dataset is None:
            report.mark_lost("exact queries")
            warnings.warn(
                "RAWDATA section of the artifact is damaged; raw trajectories "
                "were dropped and exact-match queries are disabled",
                RuntimeWarning, stacklevel=3,
            )
    return index, raw_dataset


@dataclass(frozen=True)
class ArtifactInfo:
    """What ``repro info`` reports about an artifact without loading it.

    Attributes
    ----------
    path:
        The inspected file.
    file_size:
        Total size in bytes.
    format_version:
        The artifact's format version.
    sections:
        Per-section :class:`~repro.storage.format.SectionInfo` rows (name,
        offset, length, checksum status).
    config:
        The decoded ``CONFIG`` section, or ``None`` when it is corrupt.
    """

    path: Path
    file_size: int
    format_version: int
    sections: list[SectionInfo]
    config: dict | None

    @property
    def checksums_ok(self) -> bool:
        """Whether every section's payload matches its stored CRC32."""
        return all(info.crc_ok for info in self.sections)


def inspect_model(path: str | Path) -> ArtifactInfo:
    """Describe an artifact -- sections, sizes, checksums -- without loading it.

    Corrupt section payloads are reported via ``sections[i].crc_ok`` rather
    than raised, so damaged files can still be described; only structural
    damage (bad magic, truncated table) raises.

    Raises
    ------
    OSError
        If the file cannot be read.
    ArtifactFormatError, ArtifactVersionError, ArtifactChecksumError
        If the header or section table is unreadable.
    """
    path = Path(path)
    blob = path.read_bytes()
    version, sections = inspect_artifact(blob)
    config = None
    for info in sections:
        if info.name == SECTION_CONFIG and info.crc_ok:
            try:
                config = _decode_config(blob[info.offset:info.offset + info.length])
            except ArtifactFormatError:
                config = None
    return ArtifactInfo(path=path, file_size=len(blob), format_version=version,
                        sections=sections, config=config)


__all__ = [
    "save_model",
    "load_model",
    "inspect_model",
    "ArtifactInfo",
    "FORMAT_VERSION",
]
