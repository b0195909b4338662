"""Tests for the coordinate quadtree template."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.cqc.quadtree import CoordinateQuadtree


class TestConstruction:
    def test_single_cell(self):
        tree = CoordinateQuadtree(1, 1)
        assert tree.num_cells == 1
        assert tree.encode_cell(0, 0) == ""

    def test_all_cells_coded(self):
        tree = CoordinateQuadtree(5, 5)
        assert tree.num_cells == 25

    def test_paper_example_code_length(self):
        """The paper's 5x5 example produces 6-bit codes (3 levels)."""
        tree = CoordinateQuadtree(5, 5)
        assert tree.code_length == 6

    def test_power_of_two_grid(self):
        tree = CoordinateQuadtree(4, 4)
        assert tree.num_cells == 16
        assert tree.code_length == 4

    def test_rectangular_grid(self):
        tree = CoordinateQuadtree(3, 7)
        assert tree.num_cells == 21

    def test_invalid_size(self):
        with pytest.raises(ValueError):
            CoordinateQuadtree(0, 3)


class TestCoding:
    def test_codes_are_unique(self):
        tree = CoordinateQuadtree(6, 6)
        codes = [tree.encode_cell(ix, iy) for ix, iy in tree.cells()]
        assert len(set(codes)) == len(codes)

    def test_roundtrip_all_cells(self):
        tree = CoordinateQuadtree(7, 5)
        for ix, iy in tree.cells():
            code = tree.encode_cell(ix, iy)
            assert tree.decode_cell(code) == (ix, iy)

    def test_unknown_cell_raises(self):
        tree = CoordinateQuadtree(3, 3)
        with pytest.raises(KeyError):
            tree.encode_cell(5, 5)
        with pytest.raises(KeyError):
            tree.encode_cell(-1, 0)

    def test_unknown_code_raises(self):
        tree = CoordinateQuadtree(3, 3)
        with pytest.raises(KeyError):
            tree.decode_cell("000000000000")

    def test_codes_are_even_length(self):
        """Every level contributes exactly two bits (a quadrant label)."""
        tree = CoordinateQuadtree(9, 9)
        for ix, iy in tree.cells():
            assert len(tree.encode_cell(ix, iy)) % 2 == 0

    @pytest.mark.parametrize("side", range(3, 24))
    def test_every_code_has_the_code_length(self, side):
        """Leaves sit at one depth, so a code is a fixed-width integer."""
        tree = CoordinateQuadtree(side, side)
        assert {len(tree.encode_cell(ix, iy)) for ix, iy in tree.cells()} == {tree.code_length}

    def test_code_length_is_logarithmic(self):
        """Code length is 2 * ceil(log2(side)) bits."""
        for side, expected in [(2, 2), (3, 4), (4, 4), (5, 6), (8, 6), (9, 8)]:
            tree = CoordinateQuadtree(side, side)
            assert tree.code_length == expected, f"side={side}"

    @settings(max_examples=30, deadline=None)
    @given(st.integers(min_value=1, max_value=24), st.integers(min_value=1, max_value=24))
    def test_roundtrip_property(self, nx, ny):
        tree = CoordinateQuadtree(nx, ny)
        assert tree.num_cells == nx * ny
        for ix, iy in tree.cells():
            assert tree.decode_cell(tree.encode_cell(ix, iy)) == (ix, iy)
