"""CQC coder: map reconstruction offsets to quadtree codes and back.

The coder is a fixed template determined solely by the error bound
``epsilon1`` and the CQC grid size ``g_s`` (Section 4.2): the ε₁ error disc is
covered by a square grid of cells of side ``g_s`` centred on the true point;
the cell containing the reconstruction is encoded with the coordinate
quadtree.  Because the template never depends on the data, one coder instance
is shared by the whole summary and the per-point cost is just the code's bit
length.  That length is fixed, so the summary stores each code as an integer.
"""

from __future__ import annotations

import numpy as np

from repro.cqc.quadtree import CoordinateQuadtree


class CQCCoder:
    """Encode/decode the offset between a point and its reconstruction.

    Parameters
    ----------
    epsilon:
        The quantization error bound ``epsilon1``: offsets are guaranteed (by
        the quantizer) to have norm at most ``epsilon``.  Offsets slightly
        outside -- which can only arise from floating-point rounding -- are
        clamped to the nearest covered cell, preserving the Lemma 3 bound
        relative to the clamped position.
    grid_size:
        CQC cell size ``g_s`` in the same units as ``epsilon``.

    Notes
    -----
    The decoded offset is the centre of the encoded cell, so the residual
    error after CQC refinement is at most ``√2/2 · g_s`` (Lemma 3).
    """

    def __init__(self, epsilon: float, grid_size: float) -> None:
        if epsilon <= 0:
            raise ValueError("epsilon must be > 0")
        if grid_size <= 0:
            raise ValueError("grid_size must be > 0")
        self.epsilon = float(epsilon)
        self.grid_size = float(grid_size)
        # Number of cells per side: enough to cover [-epsilon, epsilon] with
        # the centre cell centred on zero (odd count).
        half_cells = int(np.ceil(self.epsilon / self.grid_size))
        self.cells_per_side = 2 * half_cells + 1
        self._center = half_cells
        self.quadtree = CoordinateQuadtree(self.cells_per_side, self.cells_per_side)
        # Integer-code tables: cell -> code and code -> cell-centre offset
        # (NaN for the codes of padding cells).
        side = range(self.cells_per_side)
        self._code_of_cell = np.array(
            [[int(self.quadtree.encode_cell(ix, iy), 2) for iy in side] for ix in side])
        centres = (np.indices(self._code_of_cell.shape) - half_cells) * self.grid_size
        self._offset_of_code = np.full((1 << self.code_length, 2), np.nan)
        self._offset_of_code[self._code_of_cell] = np.moveaxis(centres, 0, -1)

    # ------------------------------------------------------------------ #
    # encoding / decoding
    # ------------------------------------------------------------------ #
    def cell_of_offset(self, offset) -> tuple[int, int]:
        """Grid cell indices of an offset vector (clamped to the template)."""
        offset = np.asarray(offset, dtype=float).reshape(2)
        ix = int(np.rint(offset[0] / self.grid_size)) + self._center
        iy = int(np.rint(offset[1] / self.grid_size)) + self._center
        ix = min(max(ix, 0), self.cells_per_side - 1)
        iy = min(max(iy, 0), self.cells_per_side - 1)
        return ix, iy

    def encode_offset(self, offset) -> str:
        """Encode ``offset = true_point - reconstruction`` as a CQC bit string."""
        ix, iy = self.cell_of_offset(offset)
        return self.quadtree.encode_cell(ix, iy)

    def decode_offset(self, code: str) -> np.ndarray:
        """Decode a CQC bit string back to the cell-centre offset vector."""
        ix, iy = self.quadtree.decode_cell(code)
        return np.array(
            [(ix - self._center) * self.grid_size, (iy - self._center) * self.grid_size],
            dtype=float,
        )

    def encode_cells(self, offsets: np.ndarray) -> np.ndarray:
        """Vectorised :meth:`encode_offset`: the integer code of each ``(n, 2)`` offset."""
        cells = np.rint(offsets / self.grid_size).astype(np.int64) + self._center
        np.clip(cells, 0, self.cells_per_side - 1, out=cells)
        return self._code_of_cell[cells[:, 0], cells[:, 1]]

    def cell_offsets(self, codes: np.ndarray) -> np.ndarray:
        """Vectorised :meth:`decode_offset` of integer codes, shape ``(n, 2)``.

        Raises ``ValueError`` for the code of a padding cell and
        ``IndexError`` for a code longer than :attr:`code_length`.
        """
        offsets = self._offset_of_code[codes]
        if np.isnan(offsets).any():
            raise ValueError("CQC code addresses a padding cell")
        return offsets

    # ------------------------------------------------------------------ #
    # properties used by queries and storage accounting
    # ------------------------------------------------------------------ #
    @property
    def code_length(self) -> int:
        """Bits per stored CQC code."""
        return self.quadtree.code_length

    @property
    def residual_bound(self) -> float:
        """Lemma 3 bound on the error after CQC refinement (``√2/2 · g_s``)."""
        return float(np.sqrt(2.0) / 2.0 * self.grid_size)
