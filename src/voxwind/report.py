"""Before/after comparison tables and paired collision-heatmap exports."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .env import ObjectiveMode
from .voxel import write_pgm
from .windtunnel import heatmap_to_csv, minmax_pixels

MODES = tuple(mode.value for mode in ObjectiveMode)

TABLE_CSV_HEADER = ("car,metric,original,opt_ke,impr_ke,opt_ke_df,impr_ke_df,"
                    "opt_all,impr_all")


def improvement_pct(original: float, optimised: float) -> float:
    """Signed percent change from original to optimised."""
    if original == 0:
        raise ValueError("improvement undefined for a zero original value")
    return (optimised - original) / original * 100.0


@dataclass
class ComparisonRow:
    car: str
    metric: str
    original: float
    optimised: dict = field(default_factory=dict)  # mode name -> optimised value


def build_comparison_table(rows) -> str:
    """Render rows as CSV with 2-decimal fixed floats.

    Improvement columns are always recomputed from the raw original/optimised
    values, never copied through. Modes absent from a row leave empty cells.
    """
    lines = [TABLE_CSV_HEADER]
    for row in rows:
        for mode in row.optimised:
            if mode not in MODES:
                raise ValueError(f"unknown mode {mode!r}; expected one of {MODES}")
        cells = [row.car, row.metric, f"{row.original:.2f}"]
        for mode in MODES:
            if mode in row.optimised:
                value = float(row.optimised[mode])
                cells.append(f"{value:.2f}")
                if row.original != 0:
                    cells.append(f"{improvement_pct(row.original, value):.2f}")
                else:
                    cells.append("")
            else:
                cells.extend(["", ""])
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


@dataclass
class HeatmapExport:
    before_pgm: bytes
    after_pgm: bytes
    before_csv: str
    after_csv: str


def export_heatmap_delta(before: np.ndarray, after: np.ndarray) -> HeatmapExport:
    """Raw tallies as CSV plus a jointly min-max normalised PGM pair.

    Both images share one scale so their grey levels are comparable; the
    maximum tally across the pair maps to pixel 255.
    """
    b = np.asarray(before, dtype=np.float64)
    a = np.asarray(after, dtype=np.float64)
    if b.shape != a.shape:
        raise ValueError(f"heatmap dimensions differ: {b.shape} vs {a.shape}")
    lo = min(float(b.min()), float(a.min()))
    hi = max(float(b.max()), float(a.max()))
    return HeatmapExport(
        before_pgm=write_pgm(minmax_pixels(b, lo, hi), maxval=255, binary=True),
        after_pgm=write_pgm(minmax_pixels(a, lo, hi), maxval=255, binary=True),
        before_csv=heatmap_to_csv(before),
        after_csv=heatmap_to_csv(after),
    )
