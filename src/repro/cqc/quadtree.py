"""The coordinate quadtree: a fixed template addressing grid cells with codes.

Algorithm 2 of the paper builds a quadtree over the grid covering the ε₁
error disc.  A region whose side length (in cells) is odd cannot be split into
four equal quadrants, so it is *padded* with virtual cells before splitting;
padding cells never receive codes and are pruned from the recursion.  Every
real grid cell ends up as a leaf whose code is the concatenation of the 2-bit
quadrant labels along the path from the root (Definition 4.2).

Implementation notes
--------------------
The paper additionally stores a coordinate value per node so that a code can
be converted back to a cell position arithmetically (Equations 9-10) without
keeping the tree around.  Because the template is tiny (it only depends on
``epsilon1`` and ``g_s``, never on the data) we build the tree once and keep
its code tables, decoding by lookup, which is exactly equivalent and removes a
source of subtle arithmetic bugs.  Padding is always applied towards the low
index side; the paper pads different quadrants in different directions only to
make its arithmetic decoding unambiguous, which a table lookup does not need.
"""

from __future__ import annotations

from dataclasses import dataclass


#: Quadrant labels, as two-bit strings, indexed by (x_half, y_half) where the
#: first bit selects the x half and the second bit the y half.
_QUADRANT_BITS = {(0, 0): "00", (0, 1): "01", (1, 0): "10", (1, 1): "11"}


@dataclass
class _Node:
    """One subspace of the coordinate quadtree.

    ``x0, y0`` are the lowest cell indices covered by the subspace (they can
    be negative when the subspace includes padding), ``nx, ny`` its size in
    cells.
    """

    x0: int
    y0: int
    nx: int
    ny: int


class CoordinateQuadtree:
    """Quadtree template over an ``nx x ny`` grid of cells.

    Parameters
    ----------
    nx, ny:
        Number of real grid cells along x and y.  Cells are addressed by
        integer indices ``(ix, iy)`` with ``0 <= ix < nx`` and
        ``0 <= iy < ny``.

    The tree assigns every real cell a unique binary code of length
    ``2 * ceil(log2(max(nx, ny)))`` bits (all leaves sit at the same depth, a
    property the padding construction guarantees).
    """

    def __init__(self, nx: int, ny: int) -> None:
        if nx < 1 or ny < 1:
            raise ValueError(f"grid must have at least one cell, got {nx}x{ny}")
        self.nx = int(nx)
        self.ny = int(ny)
        self._encode_table: dict[tuple[int, int], str] = {}
        self._decode_table: dict[str, tuple[int, int]] = {}
        self._build(_Node(x0=0, y0=0, nx=self.nx, ny=self.ny), prefix="")

    # ------------------------------------------------------------------ #
    # construction
    # ------------------------------------------------------------------ #
    def _build(self, node: _Node, prefix: str) -> None:
        """Recursive ``build_tree`` with the partition-padding step."""
        if node.nx <= 0 or node.ny <= 0:
            return
        if not self._overlaps_grid(node):
            # Pure padding subspace: nothing to code (stop condition).
            return
        if node.nx == 1 and node.ny == 1:
            cell = (node.x0, node.y0)
            self._encode_table[cell] = prefix
            self._decode_table[prefix] = cell
            return
        # partition_padding: extend odd dimensions by one (virtual) cell on
        # the low side so the subspace splits into four equal quadrants.
        x0, y0 = node.x0, node.y0
        nx, ny = node.nx, node.ny
        if nx % 2:
            x0 -= 1
            nx += 1
        if ny % 2:
            y0 -= 1
            ny += 1
        half_x, half_y = nx // 2, ny // 2
        for x_half in (0, 1):
            for y_half in (0, 1):
                child = _Node(
                    x0=x0 + x_half * half_x,
                    y0=y0 + y_half * half_y,
                    nx=half_x,
                    ny=half_y,
                )
                bits = _QUADRANT_BITS[(x_half, y_half)]
                self._build(child, prefix + bits)

    def _overlaps_grid(self, node: _Node) -> bool:
        """Whether the subspace contains at least one real (non-padding) cell."""
        return (node.x0 + node.nx > 0 and node.x0 < self.nx
                and node.y0 + node.ny > 0 and node.y0 < self.ny)

    # ------------------------------------------------------------------ #
    # coding
    # ------------------------------------------------------------------ #
    @property
    def code_length(self) -> int:
        """Length in bits of the (uniform-depth) cell codes."""
        if not self._decode_table:
            return 0
        return max(len(code) for code in self._decode_table)

    @property
    def num_cells(self) -> int:
        """Number of real cells with assigned codes."""
        return len(self._encode_table)

    def encode_cell(self, ix: int, iy: int) -> str:
        """Return the CQC bit string of the real cell ``(ix, iy)``."""
        key = (int(ix), int(iy))
        if key not in self._encode_table:
            raise KeyError(f"cell {key} is outside the {self.nx}x{self.ny} grid")
        return self._encode_table[key]

    def decode_cell(self, code: str) -> tuple[int, int]:
        """Inverse of :meth:`encode_cell`."""
        if code not in self._decode_table:
            raise KeyError(f"unknown CQC code {code!r}")
        return self._decode_table[code]

    def cells(self) -> list[tuple[int, int]]:
        """All real cells in encode-table order."""
        return list(self._encode_table)
