import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from voxwind.cli import build_parser
from voxwind.report import (
    MODES,
    ComparisonRow,
    HeatmapExport,
    TABLE_CSV_HEADER,
    build_comparison_table,
    export_heatmap_delta,
    improvement_pct,
    parse_comparison_table,
)
from voxwind.voxel import round_half_away, write_pgm
from voxwind.windtunnel import heatmap_to_pgm


class TestImprovementPct:
    # F1 drag row: 2004.63 original against the three optimised results
    @pytest.mark.parametrize("optimised,expected", [
        (1786.41, -10.89),
        (1752.57, -12.57),
        (1716.85, -14.36),
    ])
    def test_f1_drag_row(self, optimised, expected):
        assert improvement_pct(2004.63, optimised) == pytest.approx(expected, abs=0.01)

    # F1 kinetic-energy row: 283.60 original
    @pytest.mark.parametrize("optimised,expected", [
        (371.41, 30.96),
        (391.16, 37.93),
        (402.78, 42.02),
    ])
    def test_f1_energy_row(self, optimised, expected):
        assert improvement_pct(283.60, optimised) == pytest.approx(expected, abs=0.01)

    def test_no_change_is_zero(self):
        assert improvement_pct(17.3, 17.3) == 0.0

    def test_zero_original_rejected(self):
        with pytest.raises(ValueError):
            improvement_pct(0.0, 5.0)

    @given(st.floats(0.1, 1e6), st.floats(0.0, 1e6))
    @settings(max_examples=100, deadline=None)
    def test_sign_tracks_direction(self, original, optimised):
        pct = improvement_pct(original, optimised)
        if optimised > original:
            assert pct > 0
        elif optimised < original:
            assert pct < 0
        else:
            assert pct == 0


class TestComparisonTable:
    def f1_rows(self):
        return [
            ComparisonRow("F1 car", "drag_force", 2004.63,
                          {"ke": 1786.41, "ke_df": 1752.57, "ke_df_vcc": 1716.85}),
            ComparisonRow("F1 car", "kinetic_energy", 283.60,
                          {"ke": 371.41, "ke_df": 391.16, "ke_df_vcc": 402.78}),
        ]

    def test_modes_and_their_columns(self, capsys):
        assert MODES == ("ke", "ke_df", "ke_df_vcc")
        with pytest.raises(SystemExit):
            build_parser().parse_args(["train", "--config", "c", "--out", "o", "--mode", "x"])
        assert "(choose from 'ke', 'ke_df', 'ke_df_vcc')" in capsys.readouterr().err
        assert TABLE_CSV_HEADER == ("car,metric,original,opt_ke,impr_ke,opt_ke_df,impr_ke_df,"
                                    "opt_all,impr_all")

    def test_empty_rows_header_only(self):
        assert build_comparison_table([]) == TABLE_CSV_HEADER + "\n"

    def test_f1_improvements_recomputed(self):
        text = build_comparison_table(self.f1_rows())
        drag = text.splitlines()[1].split(",")
        assert drag[2] == "2004.63"
        assert float(drag[4]) == pytest.approx(-10.89, abs=0.01)
        assert float(drag[6]) == pytest.approx(-12.57, abs=0.01)
        assert float(drag[8]) == pytest.approx(-14.36, abs=0.01)
        energy = text.splitlines()[2].split(",")
        assert float(energy[4]) == pytest.approx(30.96, abs=0.01)
        assert float(energy[6]) == pytest.approx(37.93, abs=0.01)
        assert float(energy[8]) == pytest.approx(42.02, abs=0.01)

    def test_round_trip(self):
        text = build_comparison_table(self.f1_rows())
        again = build_comparison_table(parse_comparison_table(text))
        assert again == text

    def test_missing_modes_leave_empty_cells(self):
        text = build_comparison_table(
            [ComparisonRow("x", "drag_force", 10.0, {"ke": 9.0})])
        cells = text.splitlines()[1].split(",")
        assert cells[3] == "9.00"
        assert cells[5] == "" and cells[6] == ""

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="mode"):
            build_comparison_table(
                [ComparisonRow("x", "drag_force", 10.0, {"bogus": 9.0})])

    def test_improvements_never_passed_through(self):
        # parse drops improvement cells entirely; build recomputes them
        parsed = parse_comparison_table(build_comparison_table(self.f1_rows()))
        assert parsed[0].optimised["ke"] == pytest.approx(1786.41)


class TestHeatmapExport:
    def test_identical_maps_identical_bytes(self):
        m = np.array([[0, 3], [9, 1]])
        out = export_heatmap_delta(m, m)
        assert out.before_pgm == out.after_pgm
        assert out.before_csv == out.after_csv

    def test_all_zero_maps_black_images(self):
        z = np.zeros((3, 3))
        out = export_heatmap_delta(z, z)
        pixels = np.frombuffer(out.before_pgm[len(b"P5\n3 3\n255\n"):], np.uint8)
        assert np.all(pixels == 0)

    def test_joint_scale_max_is_255(self):
        before = np.array([[0, 4]])
        after = np.array([[0, 8]])
        out = export_heatmap_delta(before, after)
        b = np.frombuffer(out.before_pgm[len(b"P5\n1 2\n255\n"):], np.uint8)
        a = np.frombuffer(out.after_pgm[len(b"P5\n1 2\n255\n"):], np.uint8)
        assert a.max() == 255
        assert b.max() == 128  # 4/8 of the shared scale
        assert isinstance(out, HeatmapExport)

    def test_dim_mismatch(self):
        with pytest.raises(ValueError, match="dimensions"):
            export_heatmap_delta(np.zeros((2, 2)), np.zeros((3, 2)))

    def test_raw_csv_preserves_tallies(self):
        out = export_heatmap_delta(np.array([[1, 2]]), np.array([[3, 4]]))
        assert out.before_csv == "1,2\n"
        assert out.after_csv == "3,4\n"

    @pytest.mark.parametrize("before,after", [
        (np.full((2, 3), 4), np.full((2, 3), 4)),                       # uniform: black
        (np.array([[0, 5, 17], [3, 3, 9]]), np.array([[1, 0, 40], [2, 8, 6]])),
        (np.array([[0.0, 1.0], [2.0, 0.3]]), np.array([[0.25, 1.5], [0.0, 2.0]])),  # 127.5
    ])
    def test_pgm_bytes_match_minmax_expression(self, before, after):
        def pgm(t, lo, hi):
            t = np.asarray(t, dtype=np.float64)
            if hi > lo:
                pix = round_half_away((t - lo) / (hi - lo) * 255.0)
            else:
                pix = np.zeros(t.shape, dtype=np.int64)
            return write_pgm(pix, maxval=255, binary=True)

        assert heatmap_to_pgm(before) == pgm(before, float(before.min()), float(before.max()))
        lo = float(min(before.min(), after.min()))
        hi = float(max(before.max(), after.max()))
        out = export_heatmap_delta(before, after)
        assert out.before_pgm == pgm(before, lo, hi)
        assert out.after_pgm == pgm(after, lo, hi)
