"""The trajectory summary produced by (partition-wise) predictive quantization.

The summary is exactly the set of parameters the paper lists as sufficient to
reproduce any trajectory: the per-timestamp, per-partition prediction
coefficients ``P_j[t]``, the error-bounded codebook ``C``, the per-point
codeword indices ``b_i^t`` and (optionally) the per-point fixed-length CQC
codes, held per timestamp as integer columns.  The ε₁-bounded and the
CQC-refined reconstructions are derived from them into two ``(num_points, 2)``
arrays: the quantizer hands them over at fit time and
:meth:`TrajectorySummary.roll_forward` replays the same prediction step after
a load.  They are kept in memory for queries but neither stored in an
artifact nor charged to storage accounting.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field

import numpy as np

from repro.core.codebook import Codebook
from repro.core.config import CQCConfig, PPQConfig
from repro.core.prediction import ReconstructionHistory, predict_slice
from repro.reliability import faults as _faults


class ReconstructionCache:
    """Bounded LRU cache for reconstructed timestamp slices.

    Batched queries touch the same timestamps over and over (every STRQ at
    ``t`` wants the reconstructions of every trajectory active at ``t``; a
    TPQ of length ``l`` wants ``l`` consecutive slices).  Reconstructions
    are computed up front, so a hit saves only an array lookup; the cache
    stays for the hit/miss counters that benchmark reports read.

    Attributes
    ----------
    capacity:
        Maximum number of slices kept; the least recently used slice is
        evicted first.  A capacity of zero (negative values are clamped to
        zero) disables the cache: lookups miss, stores are dropped, nothing
        is retained -- callers need no special casing and memory stays flat.
    hits, misses, evictions:
        Counters exposed for tests and benchmark reporting.  The summary's
        accessors count at point granularity (a hit means one reconstruction
        was served from cache), so reported hit rates reflect actual work
        saved.  Counters survive :meth:`clear` (and disablement), so
        ``hits + misses`` always equals the number of recorded lookups.
    """

    def __init__(self, capacity: int = 256) -> None:
        self.capacity = max(0, int(capacity))
        self._entries: OrderedDict[tuple[int, bool], dict[int, np.ndarray | None]] = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    @property
    def disabled(self) -> bool:
        """True when the capacity is zero (every lookup misses)."""
        return self.capacity == 0

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: tuple[int, bool]) -> bool:
        return key in self._entries

    def get(self, key: tuple[int, bool],
            record: bool = True) -> dict[int, np.ndarray | None] | None:
        """Return the cached slice for ``key`` or ``None``, updating recency.

        ``record=False`` skips the hit/miss counters (used by accessors that
        count at point granularity instead).
        """
        entry = self._entries.get(key)
        if entry is None:
            if record:
                self.misses += 1
            return None
        self._entries.move_to_end(key)
        if record:
            self.hits += 1
        return entry

    def put(self, key: tuple[int, bool], value: dict[int, np.ndarray | None]) -> None:
        """Store a slice, evicting the least recently used one when full.

        A disabled cache (capacity 0) drops the value without storing it --
        and without counting an eviction, since nothing cached was displaced.
        """
        if self.capacity == 0:
            return
        self._entries[key] = value
        self._entries.move_to_end(key)
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
            self.evictions += 1

    def clear(self) -> None:
        """Drop every cached slice (counters are kept)."""
        self._entries.clear()

    def stats(self) -> dict[str, int]:
        """Counters as a plain dict (for logging / benchmark tables)."""
        return {
            "size": len(self._entries),
            "capacity": self.capacity,
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
        }


def _ids(values=()) -> np.ndarray:
    return np.asarray(values, dtype=np.int64)


@dataclass
class TimestepRecord:
    """Everything the summary stores for one timestamp, as aligned columns.

    Attributes
    ----------
    t:
        The timestamp.
    coefficients:
        Mapping partition ID -> prediction coefficient vector ``P_1..P_k``.
    traj_ids:
        IDs of the trajectories summarised at ``t``, strictly increasing.
    partitions:
        Partition ID of each point; every one has coefficients.
    codewords:
        Index of the codeword representing each point's prediction error.
    cqc_cells:
        Each point's CQC code read as an unsigned integer of
        ``CQCCoder.code_length`` bits; empty when CQC is disabled.
    """

    t: int
    coefficients: dict[int, np.ndarray] = field(default_factory=dict)
    traj_ids: np.ndarray = field(default_factory=_ids)
    partitions: np.ndarray = field(default_factory=_ids)
    codewords: np.ndarray = field(default_factory=_ids)
    cqc_cells: np.ndarray = field(default_factory=_ids)

    @property
    def num_points(self) -> int:
        """Number of trajectory points summarised at this timestamp."""
        return len(self.traj_ids)

    @property
    def num_partitions(self) -> int:
        """Number of partitions active at this timestamp."""
        return len(self.coefficients)


@dataclass
class SummaryStorage:
    """Bit-exact storage breakdown of a summary (used for compression ratio).

    All fields are in bits; :attr:`total_bits` and :attr:`total_bytes` sum
    them up.
    """

    codebook_bits: int = 0
    codeword_index_bits: int = 0
    coefficient_bits: int = 0
    partition_assignment_bits: int = 0
    cqc_bits: int = 0

    @property
    def total_bits(self) -> int:
        return (self.codebook_bits + self.codeword_index_bits + self.coefficient_bits
                + self.partition_assignment_bits + self.cqc_bits)

    @property
    def total_bytes(self) -> float:
        return self.total_bits / 8.0


class TrajectorySummary:
    """Summary of a trajectory repository built by E-PQ / PPQ.

    Parameters
    ----------
    config:
        The quantizer configuration used to build the summary.
    cqc_config:
        CQC configuration; when ``enabled`` is ``False`` codes are not stored.
    codebook:
        The shared error-bounded codebook.
    cqc_coder:
        The coordinate-quadtree coder used to decode CQC codes (``None`` when
        CQC is disabled).  Only the fixed template parameters of the coder
        matter for storage, not per-point state.
    slice_cache_capacity:
        Bound of the LRU slice cache shared by the batched query path;
        ``0`` (or any negative value) disables caching entirely -- results
        are unchanged, every lookup just recomputes.
    """

    def __init__(self, config: PPQConfig, cqc_config: CQCConfig,
                 codebook: Codebook, cqc_coder=None,
                 slice_cache_capacity: int = 256) -> None:
        self.config = config
        self.cqc_config = cqc_config
        self.codebook = codebook
        self.cqc_coder = cqc_coder
        self.records: dict[int, TimestepRecord] = {}
        # Base and CQC-refined reconstructions, one row per point in
        # (t, traj_id) order; derivable, so not charged to storage.
        self._base = self._refined = np.empty((0, 2), dtype=float)
        # traj_id -> (first t, row at each t from the first on, -1 at gaps).
        self._rows: dict[int, tuple[int, list[int]]] = {}
        # LRU cache of refined per-timestamp slices (batched query path).
        self.slice_cache = ReconstructionCache(capacity=slice_cache_capacity)

    # ------------------------------------------------------------------ #
    # population (called by the quantizers)
    # ------------------------------------------------------------------ #
    def add_record(self, record: TimestepRecord) -> None:
        """Store the record of one timestamp.

        Any cached slices are invalidated: a new record can change which
        trajectories are active (and their reconstructions) at ``record.t``.
        """
        self.records[record.t] = record
        self.slice_cache.clear()

    def set_reconstructions(self, base: np.ndarray) -> None:
        """Keep the ε₁-bounded reconstruction of every point, in record order.

        The CQC-refined ones are derived here, once; a ``ValueError`` means a
        CQC code addresses no cell of the template.
        """
        records = [self.records[t] for t in self.timestamps]
        self._base = self._refined = base
        if self.cqc_coder is not None and records:
            cells = np.concatenate([record.cqc_cells for record in records])
            self._refined = base + self.cqc_coder.cell_offsets(cells)
        self._base.flags.writeable = self._refined.flags.writeable = False
        traj_ids = np.concatenate([record.traj_ids for record in records] or [_ids()])
        timestamps = np.repeat(_ids([record.t for record in records]),
                               [record.num_points for record in records])
        order = np.argsort(traj_ids, kind="stable")  # rows of one trajectory stay in t order
        ids, starts = np.unique(traj_ids[order], return_index=True)
        self._rows = {}
        for tid, rows in zip(ids.tolist(), np.split(order, starts[1:])):
            first = int(timestamps[rows[0]])
            span = np.full(int(timestamps[rows[-1]]) - first + 1, -1, dtype=np.int64)
            span[timestamps[rows] - first] = rows
            self._rows[tid] = (first, span.tolist())
        self.slice_cache.clear()

    def roll_forward(self) -> None:
        """Recompute every reconstruction from the records.

        Replays Equation 1 timestamp by timestamp with the same padded
        history and per-partition prediction step the quantizer used, so the
        result is bit-identical to the reconstructions computed at fit time.

        Raises
        ------
        IndexError
            If a record references a codeword the codebook does not have.
        ValueError
            If a coefficient vector does not have ``prediction_order`` entries
            or a CQC code addresses no cell.
        """
        records = [self.records[t] for t in self.timestamps]
        traj_ids = np.unique(np.concatenate([record.traj_ids for record in records] or [_ids()]))
        history = ReconstructionHistory(traj_ids, self.config.prediction_order)
        base = np.empty((self.num_points, 2), dtype=float)
        offset = 0
        for record in records:
            groups = {pid: np.flatnonzero(record.partitions == pid)
                      for pid in record.coefficients}
            slots = history.slots(record.traj_ids)
            block = base[offset:offset + record.num_points]
            block[:] = (predict_slice(history.points[slots], record.coefficients, groups)
                        + self.codebook.reconstruct(record.codewords))
            history.push(slots, block)
            offset += record.num_points
        self.set_reconstructions(base)

    # ------------------------------------------------------------------ #
    # basic accessors
    # ------------------------------------------------------------------ #
    @property
    def timestamps(self) -> list[int]:
        """Sorted list of summarised timestamps."""
        return sorted(self.records)

    @property
    def num_points(self) -> int:
        """Total number of summarised trajectory points."""
        return sum(record.num_points for record in self.records.values())

    @property
    def num_codewords(self) -> int:
        """Size of the shared codebook."""
        return len(self.codebook)

    @property
    def trajectory_ids(self) -> list[int]:
        """Sorted IDs of the trajectories with reconstructions."""
        return sorted(self._rows)

    def trajectories_at(self, t: int) -> list[int]:
        """Trajectory IDs summarised at timestamp ``t``."""
        record = self.records.get(int(t))
        return record.traj_ids.tolist() if record else []

    def max_partitions(self) -> int:
        """Largest number of partitions used at any timestamp."""
        if not self.records:
            return 0
        return max(record.num_partitions for record in self.records.values())

    # ------------------------------------------------------------------ #
    # reconstruction
    # ------------------------------------------------------------------ #
    def reconstruct_point(self, traj_id: int, t: int, use_cqc: bool = True) -> np.ndarray | None:
        """Reconstruct the position of ``traj_id`` at ``t`` from the summary.

        Returns the CQC-refined point ``(x̂', ŷ')`` when ``use_cqc`` is true
        and CQC is enabled, otherwise the ε₁-bounded reconstruction
        ``(x̂, ŷ)``.  ``None`` when the trajectory was not summarised at ``t``.
        The result is a read-only view into reconstructions computed ahead
        of time, so a lookup never decodes.
        """
        if _faults.ACTIVE is not None:
            _faults.ACTIVE.check("summary.reconstruct", key=(int(traj_id), int(t)))
        first, rows = self._rows.get(int(traj_id), (0, ()))
        lag = int(t) - first
        if 0 <= lag < len(rows) and (row := rows[lag]) >= 0:
            return (self._refined if use_cqc else self._base)[row]
        return None

    def trajectory(self, traj_id: int, use_cqc: bool = True) -> tuple[np.ndarray, np.ndarray]:
        """Timestamps ``(m,)`` and reconstructions ``(m, 2)`` of one trajectory.

        Both are empty when the trajectory was not summarised.
        """
        first, rows = self._rows.get(int(traj_id), (0, ()))
        rows = _ids(rows)
        present = rows >= 0
        points = self._refined if use_cqc else self._base
        return first + np.flatnonzero(present), points[rows[present]]

    def reconstruct_path(self, traj_id: int, t_start: int, length: int,
                         use_cqc: bool = True, cached: bool = False) -> np.ndarray:
        """Reconstruct up to ``length`` consecutive points starting at ``t_start``.

        Missing timestamps terminate the path early; the result has shape
        ``(m, 2)`` with ``m <= length``.  With ``cached=True`` the points are
        served through the LRU slice cache (used by batched TPQs, where path
        windows of different queries overlap); results are identical either
        way.
        """
        getter = self.reconstruct_point_cached if cached else self.reconstruct_point
        points = []
        for t in range(int(t_start), int(t_start) + int(length)):
            point = getter(traj_id, t, use_cqc=use_cqc)
            if point is None:
                break
            points.append(point)
        if not points:
            return np.empty((0, 2), dtype=float)
        return np.vstack(points)

    def reconstruct_point_cached(self, traj_id: int, t: int,
                                 use_cqc: bool = True) -> np.ndarray | None:
        """Like :meth:`reconstruct_point`, served from the LRU slice cache.

        The cache groups reconstructions by timestamp and counts every
        ``(traj_id, t)`` pair a batch touches twice or more -- different
        STRQs sharing candidates, overlapping TPQ path windows, exact-match
        pre-filters -- as a hit.  Absent pairs are cached negatively.
        Returned arrays are read-only views.
        """
        key = (int(t), bool(use_cqc))
        entry = self.slice_cache.get(key, record=False)
        if entry is None:
            entry = {}
            self.slice_cache.put(key, entry)
        traj_id = int(traj_id)
        if traj_id in entry:
            self.slice_cache.hits += 1
            return entry[traj_id]
        self.slice_cache.misses += 1
        point = self.reconstruct_point(traj_id, int(t), use_cqc=use_cqc)
        entry[traj_id] = point
        return point

    def reconstruct_slice(self, t: int, use_cqc: bool = True) -> dict[int, np.ndarray]:
        """Reconstruct every trajectory active at ``t``, through the slice cache.

        Returns a mapping trajectory ID -> reconstructed position, identical
        point-for-point to calling :meth:`reconstruct_point` for each ID in
        :meth:`trajectories_at`.
        """
        points = {tid: self.reconstruct_point_cached(tid, t, use_cqc)
                  for tid in self.trajectories_at(t)}
        return {tid: point for tid, point in points.items() if point is not None}

    # ------------------------------------------------------------------ #
    # storage accounting
    # ------------------------------------------------------------------ #
    def storage(self, coordinate_bytes: int = 8, coefficient_bytes: int = 8) -> SummaryStorage:
        """Bit-exact storage cost of the summary.

        Parameters
        ----------
        coordinate_bytes:
            Bytes per stored coordinate value (codewords).
        coefficient_bytes:
            Bytes per stored prediction coefficient.
        """
        storage = SummaryStorage()
        storage.codebook_bits = len(self.codebook) * 2 * coordinate_bytes * 8
        index_bits = self.codebook.index_bits()
        code_bits = self.cqc_coder.code_length if self.cqc_coder is not None else 0
        for record in self.records.values():
            storage.codeword_index_bits += record.num_points * index_bits
            storage.coefficient_bits += (
                record.num_partitions * self.config.prediction_order * coefficient_bytes * 8
            )
            if record.num_partitions > 1:
                assignment_bits = max(1, int(np.ceil(np.log2(record.num_partitions))))
                storage.partition_assignment_bits += record.num_points * assignment_bits
            storage.cqc_bits += len(record.cqc_cells) * code_bits
        return storage

    def compression_ratio(self, coordinate_bytes: int = 8) -> float:
        """Raw size divided by summary size (higher is better)."""
        raw_bits = self.num_points * 2 * coordinate_bytes * 8
        summary_bits = self.storage(coordinate_bytes=coordinate_bytes).total_bits
        if summary_bits == 0:
            return float("inf")
        return raw_bits / summary_bits

