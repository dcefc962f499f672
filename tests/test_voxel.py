import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from voxwind.voxel import (
    HeightMap,
    PgmParseError,
    VoxelGrid,
    VoxelMask,
    apply_height_delta,
    grid_from_csv,
    grid_to_csv,
    heightmap_sum,
    load_heightmap,
    mask_from_csv,
    mask_to_csv,
    round_half_away,
    synth_heightmap,
    voxelise,
    write_heightmap_pgm,
)


def pgm_ascii(width, height, maxval, pixels):
    body = " ".join(str(p) for p in pixels)
    return f"P2\n{width} {height}\n{maxval}\n{body}\n".encode()


class TestLoadHeightmap:
    def test_all_zero_pixels(self):
        hm = load_heightmap(pgm_ascii(2, 2, 255, [0, 0, 0, 0]))
        assert hm.values.shape == (2, 2)
        assert np.all(hm.values == 0.0)

    def test_full_scale_pixel(self):
        hm = load_heightmap(pgm_ascii(1, 1, 255, [255]))
        assert hm.values[0, 0] == 1.0

    def test_mid_pixel(self):
        hm = load_heightmap(pgm_ascii(1, 1, 255, [128]))
        assert hm.values[0, 0] == pytest.approx(128 / 255)

    def test_binary_matches_ascii(self):
        header = b"P5\n3 2\n255\n"
        payload = bytes([0, 10, 20, 30, 40, 255])
        hm5 = load_heightmap(header + payload)
        hm2 = load_heightmap(pgm_ascii(3, 2, 255, [0, 10, 20, 30, 40, 255]))
        np.testing.assert_array_equal(hm5.values, hm2.values)

    def test_orientation(self):
        # row-major payload: values[x, y] is column x of file row y
        hm = load_heightmap(pgm_ascii(2, 1, 255, [10, 20]))
        assert hm.values.shape == (2, 1)
        assert hm.values[0, 0] == pytest.approx(10 / 255)
        assert hm.values[1, 0] == pytest.approx(20 / 255)

    def test_16bit(self):
        payload = (65535).to_bytes(2, "big") + (0).to_bytes(2, "big")
        hm = load_heightmap(b"P5\n2 1\n65535\n" + payload)
        assert hm.values[0, 0] == 1.0
        assert hm.values[1, 0] == 0.0

    def test_comments_skipped(self):
        data = b"P2 # magic\n# a comment line\n1 1\n255\n7\n"
        assert load_heightmap(data).values[0, 0] == pytest.approx(7 / 255)

    def test_bad_magic(self):
        with pytest.raises(PgmParseError, match="byte 0"):
            load_heightmap(b"P6\n1 1\n255\n\x00")

    def test_truncated_binary_names_offset(self):
        data = b"P5\n2 2\n255\n\x00\x00"
        with pytest.raises(PgmParseError, match=f"byte {len(data)}"):
            load_heightmap(data)

    def test_truncated_ascii(self):
        with pytest.raises(PgmParseError, match="end of input"):
            load_heightmap(b"P2\n2 2\n255\n1 2 3")

    def test_pixel_over_maxval_names_offset(self):
        data = b"P2\n1 1\n255\n300\n"
        with pytest.raises(PgmParseError, match="exceeds maxval"):
            load_heightmap(data)
        offset = data.index(b"300")
        with pytest.raises(PgmParseError, match=f"byte {offset}"):
            load_heightmap(data)

    def test_unsupported_maxval(self):
        with pytest.raises(PgmParseError, match="maxval"):
            load_heightmap(b"P2\n1 1\n100\n50\n")

    def test_non_numeric_dimension(self):
        with pytest.raises(PgmParseError, match="width"):
            load_heightmap(b"P2\nxx 1\n255\n0\n")


class TestPgmRoundTrip:
    @given(arrays(np.uint8, (5, 4)))
    @settings(max_examples=50, deadline=None)
    def test_p5_values_roundtrip(self, pixels):
        header = f"P5\n{pixels.shape[1]} {pixels.shape[0]}\n255\n".encode()
        hm = load_heightmap(header + pixels.tobytes())
        again = load_heightmap(write_heightmap_pgm(hm, maxval=255))
        np.testing.assert_array_equal(hm.values, again.values)

    def test_p5_16bit_roundtrip(self):
        vals = np.array([[0.0, 0.25], [0.5, 1.0]])
        hm = HeightMap(vals)
        again = load_heightmap(write_heightmap_pgm(hm, maxval=65535))
        np.testing.assert_allclose(again.values, vals, atol=1 / 65535)


class TestVoxelise:
    def test_zero_value(self):
        hm = HeightMap(np.zeros((1, 1)))
        assert voxelise(hm, 8, 0.1).column_heights[0, 0] == 0

    def test_full_scale(self):
        hm = HeightMap(np.ones((1, 1)))
        assert voxelise(hm, 32, 0.1).column_heights[0, 0] == 32

    def test_half_rounds_up(self):
        hm = HeightMap(np.full((1, 1), 0.5))
        assert voxelise(hm, 10, 0.1).column_heights[0, 0] == 5

    def test_rejects_bad_args(self):
        hm = HeightMap(np.zeros((1, 1)))
        with pytest.raises(ValueError):
            voxelise(hm, 0, 0.1)
        with pytest.raises(ValueError):
            voxelise(hm, 8, 0.0)

    @given(a=st.integers(0, 255), b=st.integers(0, 255))
    @settings(max_examples=100, deadline=None)
    def test_monotone_in_value(self, a, b):
        lo, hi = sorted((a, b))
        hm_lo = HeightMap(np.full((1, 1), lo / 255))
        hm_hi = HeightMap(np.full((1, 1), hi / 255))
        assert (voxelise(hm_lo, 16, 0.1).column_heights[0, 0]
                <= voxelise(hm_hi, 16, 0.1).column_heights[0, 0])

    @given(arrays(np.uint8, (4, 3)))
    @settings(max_examples=50, deadline=None)
    def test_sum_bounded(self, pixels):
        hm = HeightMap(pixels / 255)
        grid = voxelise(hm, 8, 0.1)
        assert heightmap_sum(grid) <= 4 * 3 * 8


class TestSynthHeightmap:
    def test_flat_zero(self):
        hm = synth_heightmap("flat", 4, 4, 0.0)
        assert np.all(hm.values == 0.0)

    def test_box_full(self):
        hm = synth_heightmap("box", 4, 4, 1.0)
        assert np.all(hm.values == 1.0)

    def test_wedge_ramp(self):
        hm = synth_heightmap("wedge", 3, 2, 1.0)
        np.testing.assert_allclose(hm.values[:, 0], [0.0, 0.5, 1.0])
        np.testing.assert_allclose(hm.values[:, 1], [0.0, 0.5, 1.0])

    def test_half_cylinder_arch(self):
        hm = synth_heightmap("half-cylinder", 5, 1, 1.0)
        assert hm.values[2, 0] == pytest.approx(1.0)
        assert hm.values[0, 0] == pytest.approx(0.0)
        assert hm.values[4, 0] == pytest.approx(0.0)
        np.testing.assert_allclose(hm.values[:, 0], hm.values[::-1, 0])

    def test_unknown_shape(self):
        with pytest.raises(ValueError):
            synth_heightmap("sphere", 4, 4, 1.0)


class TestApplyHeightDelta:
    def test_zero_delta_identity(self, wedge_grid):
        out = apply_height_delta(wedge_grid, np.zeros((16, 16)))
        np.testing.assert_array_equal(out.column_heights, wedge_grid.column_heights)

    def test_masked_column_unchanged(self):
        grid = VoxelGrid(np.array([[3], [3]]), 8, 0.1)
        mask = VoxelMask(np.array([[True], [False]]))
        out = apply_height_delta(grid, np.full((2, 1), 3.0), mask)
        assert out.column_heights[0, 0] == 3
        assert out.column_heights[1, 0] == 6

    def test_clamps_at_h_max(self):
        grid = VoxelGrid(np.array([[30]]), 32, 0.1)
        out = apply_height_delta(grid, np.array([[5.0]]))
        assert out.column_heights[0, 0] == 32

    def test_clamps_at_zero(self):
        grid = VoxelGrid(np.array([[2]]), 8, 0.1)
        out = apply_height_delta(grid, np.array([[-5.0]]))
        assert out.column_heights[0, 0] == 0

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("delta", [1e19, 1e30])
    def test_clamps_deltas_past_the_int64_range(self, delta):
        # height + delta is clamped before it is rounded and cast to int64
        grid = VoxelGrid(np.array([[2], [5]]), 8, 0.1)
        up, down = (apply_height_delta(grid, np.full((2, 1), d)).column_heights.tolist()
                    for d in (delta, -delta))
        assert up == [[8], [8]] and down == [[0], [0]]

    def test_input_not_mutated(self, wedge_grid):
        before = wedge_grid.column_heights.copy()
        apply_height_delta(wedge_grid, np.full((16, 16), 2.0))
        np.testing.assert_array_equal(wedge_grid.column_heights, before)

    def test_dimension_mismatch(self, wedge_grid):
        with pytest.raises(ValueError):
            apply_height_delta(wedge_grid, np.zeros((4, 4)))
        with pytest.raises(ValueError):
            apply_height_delta(wedge_grid, np.zeros((16, 16)),
                               VoxelMask(np.zeros((4, 4), dtype=bool)))

    @given(st.lists(arrays(np.float64, (3, 3),
                           elements=st.floats(-20, 20)), min_size=1, max_size=6),
           st.integers(0, 2 ** 9 - 1))
    @settings(max_examples=40, deadline=None)
    def test_masked_invariant_and_solid(self, delta_seq, mask_bits):
        frozen = np.array([(mask_bits >> k) & 1 for k in range(9)],
                          dtype=bool).reshape(3, 3)
        mask = VoxelMask(frozen)
        grid = VoxelGrid(np.full((3, 3), 4), 8, 0.1)
        initial = grid.column_heights.copy()
        for deltas in delta_seq:
            grid = apply_height_delta(grid, deltas, mask)
        np.testing.assert_array_equal(grid.column_heights[frozen], initial[frozen])
        # solidity: voxel z of column (x, y) is solid iff z < column_heights[x, y],
        # so every column is a solid prefix of exactly its height
        occ = np.arange(grid.h_max) < grid.column_heights[:, :, None]
        assert np.all(occ[:, :, :-1] >= occ[:, :, 1:])
        np.testing.assert_array_equal(occ.sum(axis=2), grid.column_heights)


class TestHeightmapSum:
    def test_zero_grid(self):
        grid = VoxelGrid(np.zeros((2, 2), dtype=int), 8, 0.1)
        assert heightmap_sum(grid) == 0

    def test_known_sum(self):
        grid = VoxelGrid(np.array([[1, 2], [3, 4]]), 8, 0.1)
        assert heightmap_sum(grid) == 10

    def test_single_column(self):
        grid = VoxelGrid(np.array([[5]]), 8, 0.1)
        assert heightmap_sum(grid) == 5


class TestRounding:
    @pytest.mark.parametrize("value,expected", [
        (0.5, 1), (1.5, 2), (2.5, 3), (-0.5, -1), (-1.5, -2), (0.49, 0), (-0.49, 0),
    ])
    def test_half_away_from_zero(self, value, expected):
        assert round_half_away(value) == expected


class TestGridCsv:
    def test_roundtrip(self, wedge_grid):
        text = grid_to_csv(wedge_grid)
        again = grid_from_csv(text)
        assert again.width == wedge_grid.width
        assert again.length == wedge_grid.length
        assert again.h_max == wedge_grid.h_max
        assert again.voxel_size == wedge_grid.voxel_size
        np.testing.assert_array_equal(again.column_heights, wedge_grid.column_heights)

    def test_header_line(self, wedge_grid):
        assert grid_to_csv(wedge_grid).splitlines()[0] == "width,length,h_max,voxel_size"

    def test_rejects_bad_header(self):
        with pytest.raises(ValueError, match="width,length,h_max,voxel_size"):
            grid_from_csv("bogus\n1,1,1,0.1\n0\n")

    def test_rejects_missing_rows(self):
        with pytest.raises(ValueError, match="rows"):
            grid_from_csv("width,length,h_max,voxel_size\n2,1,8,0.1\n0\n")

    def test_mask_roundtrip(self):
        mask = VoxelMask(np.array([[True, False], [False, True]]))
        again = mask_from_csv(mask_to_csv(mask))
        np.testing.assert_array_equal(again.frozen, mask.frozen)

    @pytest.mark.parametrize("cell", ["2", "x", "", "1.0", " 1"])
    def test_mask_cells_must_be_0_or_1(self, cell):
        text = mask_to_csv(VoxelMask(np.zeros((2, 3), dtype=bool)))
        text = text[:-2] + cell + "\n"     # the last cell: row 1, column 2
        with pytest.raises(ValueError, match="row 1 column 2"):
            mask_from_csv(text)


class TestInvariantValidation:
    def test_heightmap_range(self):
        with pytest.raises(ValueError):
            HeightMap(np.array([[1.5]]))
        with pytest.raises(ValueError):
            HeightMap(np.array([[-0.1]]))
        for values in (np.zeros(3), np.zeros((0, 3))):
            with pytest.raises(ValueError, match="at least 1x1"):
                HeightMap(values)

    def test_grid_height_bounds(self):
        with pytest.raises(ValueError):
            VoxelGrid(np.array([[5]]), 4, 0.1)
        with pytest.raises(ValueError):
            VoxelGrid(np.array([[-1]]), 4, 0.1)
        for heights in (np.zeros(3, dtype=int), np.zeros((0, 3), dtype=int)):
            with pytest.raises(ValueError, match="at least 1x1"):
                VoxelGrid(heights, 4, 0.1)
