#!/usr/bin/env python3
"""Byte-compare the tunnel outputs of two voxwind source trees on random configs.

Draws `--configs` tunnel configs from `--seed`: grids of 1 x 1 to 16 x 16
columns with about 30% of them empty, voxel sizes 0.05-0.2 m, particle
radius 0.1-3 voxels, 10-120 mph, restitution 0-1, three `dt` values,
`max_steps` 1-300, or 1-3000 in one draw of ten, so rows that come to rest
against the grid are compared over long horizons, and bursts of 0 to 480
rows, so the row counts fall on both sides of TAIL_ROWS, some (8, 9, 10)
right by it, and of one MAX_CANDIDATES query chunk. In one draw of ten the
domain's x is the grid's extent, and each of its y and z is at random: a
grid flush with the domain in x is where a row leaves the domain before it
is clear of the grid. Each config runs through `run_simulation` in both
trees, and the SimResult CSV, the heatmap CSV and the heatmap PGM are
compared byte for byte; an exception counts as an output. Prints each
differing config with its first differing field and exits 1 if any config
differs, 0 if none does. The summary also says, for the second tree, how
many configs handed rows from `_step_batch`'s numpy rounds to Python floats
(`_step_rows`), and how many rows `_step_batch` retired (`alive` False when
it returns), wrapping its `_step_batch` and `_step_rows` (see `trees.py`
for the trees the tools compare).

    PYTHONPATH=src python3 scripts/diff_trees.py --tree old=../old/src --tree new=src \\
        --configs 2000 --seed 7
"""

import argparse
import math
import sys

import numpy as np

from trees import parse_trees

DTS = (1 / 500, 1 / 120, 1 / 30)
PARTICLES = (0, 1, 2, 3, 4, 5, 8, 11, 16, 24, 64, 160)


def draw_config(rng) -> dict:
    """One random grid and tunnel, as plain values both trees can build."""
    w, l, h_max = (int(v) for v in rng.integers(1, [17, 17, 9]))
    heights = rng.integers(1, h_max + 1, size=(w, l))
    heights[rng.uniform(size=(w, l)) < 0.3] = 0
    # round voxel sizes put more centres exactly on voxel boundaries
    vs = float(rng.choice([0.05, 0.1, 0.2, rng.uniform(0.05, 0.2)]))
    extra = rng.uniform(0.0, 1.5, size=3)
    if rng.uniform() < 0.1:   # flush with the grid in x, and in y and z at random
        extra[0] = 0.0
        extra[1:][rng.uniform(size=2) < 0.5] = 0.0
    tunnel = dict(
        air_speed=float(rng.uniform(10.0, 120.0)),
        particle_count=int(rng.choice(PARTICLES)),
        burst_count=int(rng.integers(1, 4)),
        dt=float(rng.choice(DTS)),
        max_steps=int(rng.integers(1, 3001 if rng.uniform() < 0.1 else 301)),
        particle_radius=float(rng.uniform(0.1, 3.0)) * vs,
        restitution=float(rng.choice([0.0, 1.0, rng.uniform(0.0, 1.0)])),
        domain_size=(w * vs + extra[0], l * vs + extra[1], h_max * vs + extra[2]),
        seed=int(rng.integers(0, 1000)),
    )
    return {"heights": heights, "h_max": h_max, "voxel_size": vs, "tunnel": tunnel}


def grid_csv(config: dict) -> str:
    """The config's grid as grid CSV text, written here in the format that
    every tree's `grid_from_csv` reads, so no tree's grid constructor is called."""
    heights = config["heights"]
    lines = ["width,length,h_max,voxel_size",
             f"{heights.shape[0]},{heights.shape[1]},{config['h_max']},{config['voxel_size']!r}"]
    lines.extend(",".join(str(int(v)) for v in row) for row in heights)
    return "\n".join(lines) + "\n"


def outputs(tree, config: dict) -> dict:
    """field -> output text or bytes of one simulation in `tree`."""
    wt = tree.windtunnel
    grid = tree.voxel.grid_from_csv(grid_csv(config))
    try:
        result = wt.run_simulation(grid, wt.TunnelConfig(**config["tunnel"]))
    except Exception as exc:  # a raise is an output to compare, not a crash
        return {"error": f"{type(exc).__name__}: {exc}"}
    row = wt.simresult_to_csv(result).splitlines()[1].split(",")
    return {**dict(zip(wt.METRIC_NAMES, row)),
            "heatmap.csv": wt.heatmap_to_csv(result.heatmap),
            "heatmap.pgm": wt.heatmap_to_pgm(result.heatmap)}


def count_exits(wt) -> dict:
    """Wrap `wt`'s stepper so that the returned counts grow by the rows
    `_step_batch` hands to Python floats after a numpy round and the rows it
    retires. A row handed after a round has taken at least one dt there, and
    a burst that takes no round starts every row at dt 0. `run_simulation`
    steps a burst whose rows are all alive, so the rows retired are those
    not alive when it returns."""
    counts = {"handed": 0, "retired": 0}
    step_batch, step_rows = wt._step_batch, wt._step_rows

    def batch(burst, *args):
        found = step_batch(burst, *args)
        counts["retired"] += int(np.count_nonzero(~burst.alive))
        return found

    def rows(burst, placed, heatmap, steps, live, lanes, taken):
        if taken.any():
            counts["handed"] += len(live)
        return step_rows(burst, placed, heatmap, steps, live, lanes, taken)

    wt._step_batch, wt._step_rows = batch, rows
    return counts


def first_difference(a: dict, b: dict):
    """The first field, in `a`'s order, whose value differs, or None."""
    for name in list(a) + [n for n in b if n not in a]:
        if a.get(name) != b.get(name):
            return name
    return None


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--tree", action="append", required=True, metavar="LABEL=SRC",
                        help="a label and the src directory holding voxwind; give two")
    parser.add_argument("--configs", type=int, required=True)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args()
    if len(args.tree) != 2:
        parser.error("give exactly two --tree LABEL=SRC arguments")
    (old_label, old), (new_label, new) = parse_trees(args.tree).items()
    tail, cap = new.windtunnel.TAIL_ROWS, new.windtunnel.MAX_CANDIDATES
    exits = count_exits(new.windtunnel)
    handing = 0
    rng = np.random.default_rng(args.seed)
    differing = at_most_tail = above_chunk = impacts = 0
    for i in range(args.configs):
        config = draw_config(rng)
        t = config["tunnel"]
        rows = t["particle_count"] * t["burst_count"]
        window = math.ceil(2.0 * t["particle_radius"] / config["voxel_size"]) + 2
        at_most_tail += rows <= tail
        above_chunk += rows > max(1, cap // window ** 3)
        before = exits["handed"]
        a, b = outputs(old, config), outputs(new, config)
        handing += exits["handed"] > before
        name = first_difference(a, b)
        if name is not None:
            differing += 1
            print(f"config {i} (--seed {args.seed}) differs in {name}: {old_label} "
                  f"{a.get(name)!r:.80} {new_label} {b.get(name)!r:.80}; grid "
                  f"{config['heights'].shape}, h_max {config['h_max']}, voxel size "
                  f"{config['voxel_size']!r}, tunnel {t}")
        elif "heatmap.csv" in a:
            impacts += sum(int(v) for line in a["heatmap.csv"].split() for v in line.split(","))
    print(f"{args.configs} configs, {differing} differing; {at_most_tail} with at most "
          f"TAIL_ROWS ({tail}) burst rows, {args.configs - at_most_tail} with more, "
          f"{above_chunk} with more burst rows than one query chunk holds; "
          f"{impacts} impacts in the matching outputs")
    print(f"{new_label}: {handing} configs handed {exits['handed']} rows to Python floats "
          f"from the numpy rounds, and {exits['retired']} rows were retired")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
