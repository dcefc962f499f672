"""Golden outputs: `voxwind simulate` and `voxwind train` must reproduce the
files under tests/data/golden byte for byte.

The files pin the tunnel at 10 and 60 mph on four designs, including a
0.05 m grid where a sphere spans three columns, with each simulate run's
heatmap (CSV and PGM) and config echo, and a short masked training run
with its heatmaps, its baseline and optimised results and the `voxwind
report` table built from them. They change only with a deliberate change
of outputs: re-record them with `PYTHONPATH=src python
tests/data/record_golden.py` and say why in CHANGES.md.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from voxwind.cli import main
from voxwind.voxel import VoxelMask, grid_to_csv, mask_to_csv, synth_heightmap, voxelise

GOLDEN_DIR = Path(__file__).parent / "data" / "golden"

DOMAIN = [3.2, 1.8, 0.9]

# name: (synth shape, columns per side, h_max, voxel size in m)
DESIGNS = {
    "wedge16": ("wedge", 16, 8, 0.1),
    "box16": ("box", 16, 8, 0.1),
    "hcyl16": ("half-cylinder", 16, 8, 0.1),
    "hcyl32": ("half-cylinder", 32, 16, 0.05),
}
SPEEDS = (10.0, 60.0)
SIM_CASES = [f"{name}_{speed:g}mph" for name in DESIGNS for speed in SPEEDS]
SIM_FILES = ("simresult.csv", "heatmap.csv", "heatmap.pgm", "config_echo.json")

TRAIN_CASE = "train_masked"
TRAIN_FILES = ("trace.csv", "heatmap_before.csv", "heatmap_after.csv", "heatmap_before.pgm",
               "heatmap_after.pgm", "baseline/simresult.csv", "simresult_ke_df_vcc.csv",
               "optimised_grid.csv")
REPORT_FILE = "report.csv"


def _write_json(path: Path, doc: dict) -> str:
    path.write_text(json.dumps(doc))
    return str(path)


def simulate_outputs(case: str, work: Path) -> dict:
    """Run `voxwind simulate` for one design and speed; the pinned files' bytes."""
    name, speed = case.rsplit("_", 1)
    shape, size, h_max, voxel_size = DESIGNS[name]
    grid = voxelise(synth_heightmap(shape, size, size, 1.0), h_max, voxel_size)
    grid_path = work / f"{name}.csv"
    grid_path.write_text(grid_to_csv(grid))
    config = _write_json(work / f"{case}.json", {
        "seed": 3,
        "tunnel": {"air_speed": float(speed.removesuffix("mph")), "particle_count": 40,
                   "burst_count": 3, "max_steps": 120, "domain_size": DOMAIN},
    })
    out = work / case
    code = main(["simulate", "--grid", str(grid_path), "--config", config,
                 "--out", str(out)])
    assert code == 0
    return {f: (out / f).read_bytes() for f in SIM_FILES}


def train_outputs(work: Path) -> dict:
    """Run a short `voxwind train` with the two leading rows masked, then
    `voxwind report` on its baseline and its result."""
    frozen = np.zeros((16, 16), dtype=bool)
    frozen[:2] = True
    mask_path = work / "mask.csv"
    mask_path.write_text(mask_to_csv(VoxelMask(frozen)))
    config = _write_json(work / "train.json", {
        "seed": 5,
        "tunnel": {"air_speed": 10.0, "particle_count": 16, "burst_count": 2,
                   "max_steps": 100, "domain_size": DOMAIN},
        "ppo": {"batch_size": 8, "buffer_size": 16, "epochs": 2, "max_training_steps": 24,
                "time_horizon": 8, "hidden_layers": 1, "hidden_units": 16},
        "env": {"synth": {"shape": "wedge", "width": 16, "length": 16, "amplitude": 1.0,
                          "h_max": 8, "voxel_size": 0.1},
                "mask_csv": str(mask_path), "control_dims": [4, 4], "pool_dims": [4, 4],
                "episode_length": 8, "baseline_seeds": 2},
    })
    out = work / TRAIN_CASE
    code = main(["train", "--config", config, "--mode", "ke_df_vcc", "--out", str(out)])
    assert code == 0
    table = work / REPORT_FILE
    code = main(["report", "--before", str(out / "baseline"), "--after", str(out),
                 "--out", str(table)])
    assert code == 0
    return {**{f: (out / f).read_bytes() for f in TRAIN_FILES}, REPORT_FILE: table.read_bytes()}


def case_outputs(case: str, work: Path) -> dict:
    return train_outputs(work) if case == TRAIN_CASE else simulate_outputs(case, work)


@pytest.mark.parametrize("case", SIM_CASES + [TRAIN_CASE])
def test_outputs_match_golden_bytes(case, tmp_path):
    for name, data in case_outputs(case, tmp_path).items():
        expected = (GOLDEN_DIR / case / name).read_bytes()
        assert data == expected, f"{case}/{name} differs from the golden file"
