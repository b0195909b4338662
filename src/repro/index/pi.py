"""Partition-based index (PI) for one timestamp -- Algorithm 3 of the paper.

Building a PI for the points of timestamp ``t``:

1. partition the points with the spatial criterion and threshold ``eps_s``
   (same procedure as PPQ partitioning, Equation 7 with ``eps_s``);
2. cover each partition with its minimum bounding rectangle;
3. remove overlaps against previously emitted rectangles, splitting the
   remainder into disjoint rectangles;
4. build a grid index (cell ``g_c``) per rectangle and insert every point's
   trajectory ID into its cell, with delta+Huffman compressed posting lists.

Lookups (Sections 5.1-5.2) have one path, :meth:`PartitionIndex.lookup_batch`
and :meth:`PartitionIndex.lookup_local_batch`; the TPI's scalar lookups call
them on a one-row array.  Every query's candidate cell codes are resolved
with one ``searchsorted`` against a lazily built, sorted table of the
non-empty cells of all grids, and a grid holding a cell counts only when the
query lies inside the grid's rectangle.  A cell's postings are decoded on
first use, so a query decodes only the cells it touches, and are kept merged
over the cell's grids for every later query that touches the cell.  All
grids of a PI share the cell size ``config.grid_cell``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.config import IndexConfig
from repro.core.partitioning import partition_points
from repro.cqc.local_search import cells_within_radius
from repro.index.grid import GridIndex, encode_cells
from repro.index.rectangles import Rect, minimum_bounding_rect, remove_overlap

#: Cell-table code after every :func:`encode_cells` code, so a lookup of a
#: cell that no grid holds always lands on a row.
_NO_CELL = np.iinfo(np.int64).max

#: Cell offsets of the 3x3 local-search neighbourhood (``r <= g_c`` case) of
#: :meth:`PartitionIndex.lookup_local_batch`.
_NEIGHBOR_OFFSETS = np.array([(dx, dy) for dx in (-1, 0, 1) for dy in (-1, 0, 1)],
                             dtype=np.int64)


@dataclass
class PartitionIndex:
    """The PI of one timestamp: a list of disjoint grid-indexed rectangles.

    Attributes
    ----------
    t:
        Timestamp the PI was built for (the earliest one when reused by TPI).
    grids:
        One :class:`~repro.index.grid.GridIndex` per disjoint rectangle.
    config:
        The index configuration the PI was built with.
    baseline_density:
        Rectangle densities at build time; the TPI compares current densities
        against these to compute the TRD dropping rate.
    """

    t: int
    grids: list[GridIndex] = field(default_factory=list)
    config: IndexConfig = field(default_factory=IndexConfig)
    baseline_density: list[float] = field(default_factory=list)
    # Cached (num_grids, 4) matrix of rectangle bounds, rebuilt lazily when
    # the grid list grows (rectangles themselves are immutable).
    _bounds: np.ndarray | None = field(default=None, repr=False, compare=False)
    # Cached cell table of :meth:`_cell_table`.
    _table: tuple | None = field(default=None, repr=False, compare=False)

    # ------------------------------------------------------------------ #
    # building / updating
    # ------------------------------------------------------------------ #
    def insert(self, traj_ids: np.ndarray, points: np.ndarray) -> np.ndarray:
        """Insert points into the grids that cover them.

        Returns a boolean mask of the points that were covered by at least
        one rectangle (uncovered points are the ``T_uc`` of Algorithm 4).
        """
        traj_ids = np.asarray(traj_ids, dtype=np.int64)
        points = np.asarray(points, dtype=float)
        covered = np.zeros(len(points), dtype=bool)
        for grid in self.grids:
            inside = grid.rect.contains_points(points) if len(points) else covered
            if np.any(inside):
                grid.insert(traj_ids[inside], points[inside])
                covered |= inside
        self._table = None
        return covered

    def append_grids(self, other: "PartitionIndex") -> None:
        """Append another PI's rectangles (the *insertion* case of TPI)."""
        self.grids.extend(other.grids)
        self.baseline_density.extend(other.baseline_density)
        self._table = None

    def snapshot_density(self) -> None:
        """Record current rectangle densities as the TRD baseline."""
        self.baseline_density = [grid.density() for grid in self.grids]

    # ------------------------------------------------------------------ #
    # lookup
    # ------------------------------------------------------------------ #
    def covered_mask(self, points: np.ndarray) -> np.ndarray:
        """Which of ``points`` fall inside any indexed rectangle."""
        points = np.asarray(points, dtype=float)
        covered = np.zeros(len(points), dtype=bool)
        for grid in self.grids:
            covered |= grid.rect.contains_points(points)
        return covered

    def lookup_batch(self, points: np.ndarray) -> list[list[int]]:
        """Trajectory IDs indexed in the grid cell of each query point.

        Entry ``i`` is the sorted union of the postings of the cell holding
        ``points[i]`` over every rectangle that contains ``points[i]``.
        """
        points = np.asarray(points, dtype=float).reshape(-1, 2)
        cells = np.floor(points / self.config.grid_cell).astype(np.int64)
        return self._resolve(points, cells, np.arange(len(points)), margin=0.0)

    def lookup_local_batch(self, points: np.ndarray, radius: float) -> list[list[int]]:
        """Local-search lookup (Section 5.2) around each query point.

        When ``radius`` exceeds the grid cell size every cell intersecting
        the disc is scanned; otherwise the query cell and its eight
        neighbours are.  Rectangles within ``radius + g_c`` of a query point
        take part even when the point itself falls just outside them
        (indexed reconstructions deviate from the true positions by up to the
        CQC bound).  The caller does any distance-based filtering of the
        returned candidates.
        """
        points = np.asarray(points, dtype=float).reshape(-1, 2)
        cell_size = self.config.grid_cell
        if radius > cell_size:
            per_query = [cells_within_radius((x, y), radius, (0.0, 0.0), cell_size)
                         for x, y in points.tolist()]
            cells = np.array([c for block in per_query for c in block],
                             dtype=np.int64).reshape(-1, 2)
            owners = np.repeat(np.arange(len(points)), [len(block) for block in per_query])
        else:
            cells = (np.floor(points / cell_size).astype(np.int64)[:, None, :]
                     + _NEIGHBOR_OFFSETS).reshape(-1, 2)
            owners = np.arange(len(points)).repeat(len(_NEIGHBOR_OFFSETS))
        return self._resolve(points, cells, owners, margin=max(radius, 0.0) + cell_size)

    def _resolve(self, points: np.ndarray, cells: np.ndarray, owners: np.ndarray,
                 margin: float) -> list[list[int]]:
        """Union the postings of candidate ``cells`` into their queries' answers.

        ``cells`` are ``(cx, cy)`` candidate cells and ``owners`` the parallel,
        non-decreasing array of query indices.  One ``searchsorted`` against
        the cell table finds each cell; a grid holding it counts only when
        the query lies inside the grid's rectangle grown by ``margin``.
        """
        codes, first, grid_of, low, high, merged = self._cell_table()
        wanted = encode_cells(cells)
        at = codes.searchsorted(wanted)
        hit = (codes[at] == wanted).nonzero()[0]
        groups, queries = at[hit], owners[hit]
        # Inside the intersection of a cell's rectangles means inside each
        # of them: the cell then answers with its postings merged over its
        # grids, decoded on first use and shared by later queries.  A failed
        # decode stores nothing, so a quarantine repair is seen next time.
        xy = points[queries]
        whole = ((xy >= low[groups] - margin) & (xy <= high[groups] + margin)).all(axis=1)
        shared = groups[whole].tolist()
        for g, ci in zip(shared, hit[whole].tolist()):
            if merged[g] is None:
                cell = tuple(cells[ci].tolist())
                merged[g] = set().union(*(self.grids[gi].ids_in_cell(cell)
                                          for gi in grid_of[first[g]:first[g + 1]].tolist()))
        spans = np.searchsorted(queries[whole], np.arange(len(points) + 1)).tolist()
        found = [set().union(*map(merged.__getitem__, shared[a:b]))
                 for a, b in zip(spans, spans[1:])]
        # Otherwise each of the cell's rectangles is tested on its own.
        rest = ~whole
        for ci, g, qi in zip(hit[rest].tolist(), groups[rest].tolist(),
                             queries[rest].tolist()):
            x, y = points[qi].tolist()
            cell = tuple(cells[ci].tolist())
            for gi in grid_of[first[g]:first[g + 1]].tolist():
                if self.grids[gi].rect.expanded(margin).contains(x, y):
                    found[qi].update(self.grids[gi].ids_in_cell(cell))
        return [sorted(ids) for ids in found]

    def _cell_table(self) -> tuple:
        """The PI's cell table, built lazily and reset by :meth:`insert`/:meth:`append_grids`.

        One row per distinct non-empty cell, by sorted :func:`encode_cells`
        code, followed by a :data:`_NO_CELL` row: the code, the cell's first
        position in ``grid_of`` (the grids holding it, cell by cell), the low
        and high corners of the intersection of those grids' rectangles, and
        the cell's postings merged over those grids once a lookup decoded
        them.
        """
        if self._table is None:
            tables = [grid.encoded_table() for grid in self.grids]
            codes = np.concatenate([np.zeros(0, dtype=np.int64)] + tables)
            grid_of = np.repeat(np.arange(len(tables)), [len(t) for t in tables])
            order = np.argsort(codes, kind="stable")
            codes, grid_of = codes[order], grid_of[order]
            is_first = np.ones(len(codes), dtype=bool)
            is_first[1:] = codes[1:] != codes[:-1]
            starts = np.flatnonzero(is_first)
            bounds = self._grid_bounds()[grid_of]
            self._table = (
                np.append(codes[starts], _NO_CELL), np.append(starts, len(codes)), grid_of,
                np.maximum.reduceat(bounds[:, :2], starts, axis=0),
                np.minimum.reduceat(bounds[:, 2:], starts, axis=0),
                [None] * len(starts),
            )
        return self._table

    def _grid_bounds(self) -> np.ndarray:
        """Cached per-grid ``(min_x, min_y, max_x, max_y)`` rows."""
        if self._bounds is None or len(self._bounds) != len(self.grids):
            self._bounds = np.array(
                [[g.rect.min_x, g.rect.min_y, g.rect.max_x, g.rect.max_y]
                 for g in self.grids], dtype=float,
            ).reshape(len(self.grids), 4)
        return self._bounds

    # ------------------------------------------------------------------ #
    # statistics
    # ------------------------------------------------------------------ #
    @property
    def num_rectangles(self) -> int:
        return len(self.grids)

    @property
    def num_indexed_ids(self) -> int:
        return sum(grid.num_indexed_ids for grid in self.grids)

    def storage_bits(self) -> int:
        """Total storage footprint of the PI in bits."""
        return sum(grid.storage_bits() for grid in self.grids) + 64

    def densities(self) -> list[float]:
        """Current TRD of each rectangle."""
        return [grid.density() for grid in self.grids]


def build_partition_index(t: int, traj_ids: np.ndarray, points: np.ndarray,
                          config: IndexConfig, seed: int = 0) -> PartitionIndex:
    """Build the PI of one timestamp (Algorithm 3).

    Parameters
    ----------
    t:
        Timestamp being indexed.
    traj_ids, points:
        Aligned arrays of trajectory IDs and positions at ``t``.
    config:
        Index parameters (``epsilon_s``, ``grid_cell``).
    seed:
        Random seed for the partitioning step.
    """
    traj_ids = np.asarray(traj_ids, dtype=np.int64)
    points = np.asarray(points, dtype=float)
    pi = PartitionIndex(t=int(t), config=config)
    if len(points) == 0:
        return pi

    labels, _centroids, _rounds = partition_points(
        points, config.epsilon_s, seed=seed
    )
    region_list: list[Rect] = []
    grids: list[GridIndex] = []
    # Pad every rectangle by half a grid cell so that degenerate partitions
    # (a single point) still cover a full cell and nearby points inserted at
    # later timestamps remain covered.
    padding = config.grid_cell * 0.5
    for label in np.unique(labels):
        members = points[labels == label]
        rect = minimum_bounding_rect(members, padding=padding)
        pieces = remove_overlap(rect, region_list)
        for piece in pieces:
            region_list.append(piece)
            grids.append(GridIndex(piece, config.grid_cell))
    pi.grids = grids
    pi.insert(traj_ids, points)
    pi.snapshot_density()
    return pi
