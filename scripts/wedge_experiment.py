#!/usr/bin/env python3
"""End-to-end desk-scale experiment on a synthetic wedge.

Voxelises a wedge heightmap, measures the baseline, trains the agent under
one or more objective modes, and emits the before/after comparison table.
Everything runs through the CLI so the on-disk artifacts match what the
`voxwind` commands produce.

    python3 scripts/wedge_experiment.py --out runs/wedge --steps 1000
"""

import argparse
import json
import shutil
import sys
from pathlib import Path

from voxwind.cli import main as voxwind_main
from voxwind.report import MODES
from voxwind.voxel import grid_to_csv, synth_heightmap, voxelise


def run_config(seed, steps):
    return {
        "seed": seed,
        "tunnel": {
            "air_speed": 10.0,
            "particle_count": 96,
            "burst_count": 2,
            "max_steps": 160,
            "domain_size": [3.2, 1.8, 0.9],
        },
        "ppo": {
            "batch_size": 32,
            "buffer_size": 128,
            "learning_rate": 3e-3,
            "max_training_steps": steps,
            "time_horizon": 8,
            "hidden_layers": 2,
            "hidden_units": 64,
        },
        "env": {
            "synth": {"shape": "wedge", "width": 16, "length": 16,
                      "amplitude": 1.0, "h_max": 8, "voxel_size": 0.1},
            "control_dims": [4, 4],
            "pool_dims": [4, 4],
            "max_delta": 2,
            "episode_length": 8,
            "baseline_seeds": 3,
        },
    }


def check(code, stage):
    if code != 0:
        sys.exit(f"{stage} failed with exit code {code}")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="runs/wedge", help="output directory")
    parser.add_argument("--steps", type=int, default=1000,
                        help="training steps per mode")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--modes", nargs="+", default=list(MODES), choices=MODES)
    args = parser.parse_args()
    if args.steps < 1:
        parser.error("--steps must be at least 1")

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    config_path = out / "run.json"
    config_path.write_text(json.dumps(run_config(args.seed, args.steps), indent=2))

    grid = voxelise(synth_heightmap("wedge", 16, 16, 1.0), 8, 0.1)
    grid_path = out / "wedge_grid.csv"
    grid_path.write_text(grid_to_csv(grid))

    print("== baseline simulation ==")
    check(voxwind_main(["simulate", "--grid", str(grid_path),
                        "--config", str(config_path),
                        "--out", str(out / "original")]), "simulate")

    after = out / "after"
    after.mkdir(exist_ok=True)
    for mode in args.modes:
        print(f"== training mode {mode} ({args.steps} steps) ==")
        mode_dir = out / f"train_{mode}"
        check(voxwind_main(["train", "--config", str(config_path),
                            "--mode", mode, "--out", str(mode_dir)]), f"train {mode}")
        shutil.copy(mode_dir / f"simresult_{mode}.csv",
                    after / f"simresult_{mode}.csv")

    table = out / "comparison.csv"
    check(voxwind_main(["report", "--before", str(out / "original"),
                        "--after", str(after), "--out", str(table),
                        "--name", "wedge"]), "report")
    print("== comparison table ==")
    print(table.read_text())


if __name__ == "__main__":
    main()
