"""Tests for the CQC coder (offset encoding and the Lemma 3 bound)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.cqc.coding import CQCCoder


class TestConstruction:
    def test_cells_cover_error_disc(self):
        coder = CQCCoder(epsilon=0.001, grid_size=0.00045)
        # ceil(0.001/0.00045) = 3 -> 7 cells per side.
        assert coder.cells_per_side == 7

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            CQCCoder(epsilon=0.0, grid_size=0.1)
        with pytest.raises(ValueError):
            CQCCoder(epsilon=0.1, grid_size=0.0)

    def test_residual_bound_is_lemma3(self):
        coder = CQCCoder(epsilon=0.001, grid_size=0.0005)
        assert coder.residual_bound == pytest.approx(np.sqrt(2) / 2 * 0.0005)

    def test_code_length_positive_and_fixed(self):
        coder = CQCCoder(epsilon=0.001, grid_size=0.00045)
        assert coder.code_length > 0
        code = coder.encode_offset([0.0002, -0.0004])
        assert len(code) == coder.code_length


class TestEncodeDecode:
    def test_zero_offset_maps_to_center(self):
        coder = CQCCoder(epsilon=0.001, grid_size=0.0005)
        decoded = coder.decode_offset(coder.encode_offset([0.0, 0.0]))
        np.testing.assert_allclose(decoded, [0.0, 0.0], atol=1e-12)

    def test_lemma3_bound_for_in_disc_offsets(self):
        """For every offset within epsilon the decoded offset deviates by at
        most sqrt(2)/2 * g_s (Lemma 3)."""
        coder = CQCCoder(epsilon=0.001, grid_size=0.00025)
        rng = np.random.default_rng(0)
        angles = rng.uniform(0, 2 * np.pi, size=500)
        radii = rng.uniform(0, 0.001, size=500)
        offsets = np.column_stack([radii * np.cos(angles), radii * np.sin(angles)])
        for offset in offsets:
            decoded = coder.decode_offset(coder.encode_offset(offset))
            assert np.linalg.norm(offset - decoded) <= coder.residual_bound + 1e-12

    def test_out_of_disc_offsets_are_clamped(self):
        coder = CQCCoder(epsilon=0.001, grid_size=0.0005)
        decoded = coder.decode_offset(coder.encode_offset([0.01, 0.01]))
        # Clamped to the outermost cell, still finite and within the template.
        assert np.all(np.abs(decoded) <= 0.001 + 0.0005)

    def test_distinct_cells_get_distinct_codes(self):
        coder = CQCCoder(epsilon=0.001, grid_size=0.0002)
        code_a = coder.encode_offset([0.0008, 0.0])
        code_b = coder.encode_offset([-0.0008, 0.0])
        assert code_a != code_b

    @settings(max_examples=40, deadline=None)
    @given(
        st.floats(min_value=1e-4, max_value=1e-2),
        st.floats(min_value=0.05, max_value=1.0),
        st.floats(min_value=-1.0, max_value=1.0),
        st.floats(min_value=-1.0, max_value=1.0),
    )
    def test_lemma3_property(self, epsilon, grid_fraction, unit_x, unit_y):
        """Lemma 3 as a property over random (epsilon, g_s, offset) triples."""
        grid_size = epsilon * grid_fraction
        coder = CQCCoder(epsilon=epsilon, grid_size=grid_size)
        offset = np.array([unit_x, unit_y]) * epsilon / np.sqrt(2.0)
        decoded = coder.decode_offset(coder.encode_offset(offset))
        assert np.linalg.norm(offset - decoded) <= coder.residual_bound + 1e-12

    def test_integer_codes_match_string_codes(self):
        """The vectorised integer coding is the string coding, bit for bit."""
        coder = CQCCoder(epsilon=0.001, grid_size=0.00045)
        rng = np.random.default_rng(3)
        offsets = rng.uniform(-0.0015, 0.0015, size=(300, 2))
        cells = coder.encode_cells(offsets)
        decoded = coder.cell_offsets(cells)
        for offset, cell, point in zip(offsets, cells.tolist(), decoded):
            code = coder.encode_offset(offset)
            assert format(cell, f"0{coder.code_length}b") == code
            assert point.tobytes() == coder.decode_offset(code).tobytes()

    def test_cell_offsets_reject_codes_outside_the_template(self):
        coder = CQCCoder(epsilon=0.001, grid_size=0.00045)
        used = {int(coder.quadtree.encode_cell(ix, iy), 2) for ix, iy in coder.quadtree.cells()}
        padding = next(code for code in range(1 << coder.code_length) if code not in used)
        with pytest.raises(ValueError):
            coder.cell_offsets(np.array([padding]))
        with pytest.raises(IndexError):
            coder.cell_offsets(np.array([1 << coder.code_length]))

    def test_cell_of_offset_clamps(self):
        coder = CQCCoder(epsilon=0.001, grid_size=0.0005)
        ix, iy = coder.cell_of_offset([1.0, -1.0])
        assert 0 <= ix < coder.cells_per_side
        assert 0 <= iy < coder.cells_per_side
