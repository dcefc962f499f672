"""Before/after comparison tables and paired collision-heatmap exports."""

from __future__ import annotations

import numpy as np

from .env import ObjectiveMode
from .voxel import write_pgm
from .windtunnel import minmax_pixels

MODES = tuple(mode.value for mode in ObjectiveMode)

TABLE_CSV_HEADER = ("car,metric,original,opt_ke,impr_ke,opt_ke_df,impr_ke_df,"
                    "opt_all,impr_all")


def improvement_pct(original: float, optimised: float) -> float:
    """Signed percent change from original to optimised."""
    if original == 0:
        raise ValueError("improvement undefined for a zero original value")
    return (optimised - original) / original * 100.0


def build_comparison_table(car: str, original: dict, optimised: dict) -> str:
    """Render one row per metric of `original` as CSV with 2-decimal fixed floats.

    `optimised` maps a mode name to its metric dict; a mode it lacks leaves
    empty cells. Improvement columns are always recomputed from the raw
    original/optimised values, never copied through.
    """
    lines = [TABLE_CSV_HEADER]
    for metric, value in original.items():
        cells = [car, metric, f"{value:.2f}"]
        for mode in MODES:
            if mode not in optimised:
                cells += ["", ""]
                continue
            opt = float(optimised[mode][metric])
            cells += [f"{opt:.2f}", f"{improvement_pct(value, opt):.2f}" if value != 0 else ""]
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def export_heatmap_delta(before: np.ndarray, after: np.ndarray) -> tuple[bytes, bytes]:
    """The before and after tallies as a jointly min-max normalised PGM pair.

    Both images share one scale so their grey levels are comparable; the
    maximum tally across the pair maps to pixel 255.
    """
    b = np.asarray(before, dtype=np.float64)
    a = np.asarray(after, dtype=np.float64)
    if b.shape != a.shape:
        raise ValueError(f"heatmap dimensions differ: {b.shape} vs {a.shape}")
    lo, hi = min(float(b.min()), float(a.min())), max(float(b.max()), float(a.max()))
    return tuple(write_pgm(minmax_pixels(t, lo, hi)) for t in (b, a))
