#!/usr/bin/env python3
"""Per-call cost of the tunnel kernel, for one or two source trees in one process.

Times, in microseconds per call:

- one dt of `_step_batch` with no near rows: the desk burst (96 x 2
  particles) held upstream of the 16x16 wedge at 0.1 m, x velocity zero, so
  every call is the fixed cost, the build of the burst's lanes included;
- one contact query (`_query` over `PlacedGrid.padded`, the column heights
  with one zero column past each high edge, as the numpy rounds call it) of 30
  spheres around the wedge's surface, and, in turn, of the first 1, 2, 3
  and 4 of them, where the query's fixed cost shows;
- one contact query of 360 spheres within a voxel of the 32x32
  half-cylinder's surface at 0.05 m, so each sphere's window is up to 3
  voxels a side (k = 3), where the cost per sphere shows;
- the scalar core (`_best_overlap`) on each of those 30 spheres in turn,
  which is what a near row costs in Python floats instead;
- one desk simulation (10 mph, `max_steps` 160, domain 3.2 x 1.8 x 0.9), on
  the wedge and on an agent-reshaped wedge: eight uniform random actions
  applied as `WindTunnelEnv.act` applies them, from a fixed seed. Such
  designs keep particles near the surface until `max_steps`, with about 2.4
  times the wedge's contact queries, as the designs of desk-scale training do;
- one desk simulation on each of 8 agent-reshaped wedges, from action
  seeds 0-7, together in one call: the mix of designs desk_train sees, in
  about half of which 1-2 slow rows stay trapped in a pit until `max_steps`,
  which the single design above rarely shows;
- the same agent-reshaped desk simulation at 60 mph, where a few rows crawl
  through the solid columns with a contact on almost every dt until
  `max_steps`;
- the desk wedge at restitution 0 and `max_steps` 2000 (96 x 2 particles):
  a row that hits the wedge stops dead against it, so this times the rows
  that rest until `max_steps`, which trees that retire a resting row no
  longer step;
- one `_step_batch` call over every dt of that desk simulation on the
  agent-reshaped wedge, from the spawned burst, without the inlet lead-in:
  the stepper alone;
- two simulations shaped like perfbench sim_sweep's (256 x 2 particles,
  `max_steps` 240): the 32x32 half-cylinder at 0.05 m and 60 mph, whose
  particles crawl along the surface with a contact every few dt, so it
  bounds how far `_step_batch` may look ahead, and the 16x16 box at 0.1 m
  and 10 mph, where looking further ahead lost; and the 16x16
  half-cylinder at 0.1 m and 60 mph, where about 30 rows crawl inside the
  solid with a contact on every dt, so it bounds how many rows
  `_step_batch` may hand to Python floats (`TAIL_ROWS`);
- one simulation of 4 particles x 1 burst, `max_steps` 40, on the same grid,
  where the fixed cost per simulation shows;
- one desk simulation of a single burst of 1, 8, 16, 24, 32, 40 and 48
  particles, straddling TAIL_ROWS: a burst of at most that many rows steps
  in Python floats (`_step_rows`) from its first dt, a larger one takes
  numpy rounds until that many rows are left;
- building the desk `PlacedGrid`: its origin and zero-padded column
  heights, as an array and as nested lists;
- building the near test's lanes (`PlacedGrid.lanes`) of the desk burst and
  of a 4-row burst, the once-per-stepper-call cost that the stepper pays.

Every tree runs every case, so each tree must have what the cases call:
`_step_batch`, `_query`, `_best_overlap` and `PlacedGrid.lanes` (`trees.py`
says which trees the tools compare). The query cases pass their centres as
(3, m) columns, one per sphere.

Each sample calls its case until MIN_SAMPLE_S seconds have passed and
reports the mean per call, so no case's sample is only a few microseconds
of work. Each tree is imported under its own package name, and the
trees' samples interleave, so a drift in CPU speed hits both sides alike.
Prints one JSON object: per tree and case, the median of `--repeats`
samples, its lower and upper quartiles, and the least sample (`min`), which
a scheduler stall during some samples does not move.

    PYTHONPATH=src python3 scripts/kernel_bench.py --tree new=src --tree old=../old/src
"""

import argparse
import copy
import itertools
import json
from dataclasses import replace
from time import perf_counter

import numpy as np

from trees import parse_trees

# Least wall time of one sample, in seconds; a case faster than this is
# called repeatedly within the sample.
MIN_SAMPLE_S = 0.02


def agent_design(tree, grid, seed=4, actions=8):
    """`grid` after `actions` uniform random 4 x 4 actions, upsampled and
    scaled by a max_delta of 2 voxels as `WindTunnelEnv.act` applies them."""
    rng = np.random.default_rng(seed)
    for _ in range(actions):
        a = rng.uniform(-1.0, 1.0, size=(4, 4))
        deltas = tree.env.bilinear_upsample(a, (grid.width, grid.length)) * 2
        grid = tree.voxel.apply_height_delta(grid, deltas)
    return grid


def cases(tree):
    """name -> callable for one tree."""
    wt, vx = tree.windtunnel, tree.voxel
    grid = vx.voxelise(vx.synth_heightmap("wedge", 16, 16, 1.0), 8, 0.1)
    reshaped = agent_design(tree, grid)
    config = wt.TunnelConfig(air_speed=10.0, particle_count=96, burst_count=2,
                             max_steps=160, domain_size=(3.2, 1.8, 0.9), seed=7)
    small = wt.TunnelConfig(air_speed=10.0, particle_count=4, burst_count=1, max_steps=40,
                            domain_size=(3.2, 1.8, 0.9), seed=7)
    burst_of = {m: wt.TunnelConfig(air_speed=10.0, particle_count=m, burst_count=1,
                                   max_steps=160, domain_size=(3.2, 1.8, 0.9), seed=7)
                for m in (1, 8, 16, 24, 32, 40, 48)}
    sweep = wt.TunnelConfig(particle_count=256, burst_count=2, max_steps=240,
                            domain_size=(3.2, 1.8, 0.9), seed=7)
    designs = [agent_design(tree, grid, seed=s) for s in range(8)]
    hcyl16 = vx.voxelise(vx.synth_heightmap("half-cylinder", 16, 16, 1.0), 8, 0.1)
    hcyl32 = vx.voxelise(vx.synth_heightmap("half-cylinder", 32, 32, 1.0), 16, 0.05)
    box16 = vx.voxelise(vx.synth_heightmap("box", 16, 16, 1.0), 8, 0.1)
    placed = wt.PlacedGrid(grid, config)
    rng = np.random.default_rng(0)
    upstream = (np.full(192, 0.5), np.zeros(192), rng.uniform(0, 1.8, 192),
                rng.uniform(0, 0.9, 192))   # x, vx, y, z
    heatmap = np.zeros((16, 16), dtype=np.int64)
    # centers over the footprint within a voxel of each column's top
    top = grid.column_heights * 0.1
    xy = rng.uniform(0.0, 1.6, size=(30, 2))
    col = np.minimum((xy / 0.1).astype(int), 15)
    centers = np.array([*xy.T, top[col[:, 0], col[:, 1]] + rng.uniform(-0.05, 0.1, 30)])
    # and over the half-cylinder's footprint, 0.05 m voxels
    xy = rng.uniform(0.0, 1.6, size=(360, 2))
    col = np.minimum((xy / 0.05).astype(int), 31)
    around = np.array([*xy.T, hcyl32.column_heights[col[:, 0], col[:, 1]] * 0.05
                       + rng.uniform(-0.025, 0.05, 360)])
    r, padded, vs = config.particle_radius, placed.padded, 0.1
    hcyl_padded = wt.PlacedGrid(hcyl32, sweep).padded
    heights = padded.tolist()
    spheres = itertools.cycle(centers.T.tolist())
    few = itertools.cycle([centers[:, :m] for m in (1, 2, 3, 4)])
    out = {
        "query_30_us": lambda: wt._query(centers, r, padded, vs),
        "query_1_to_4_us": lambda: wt._query(next(few), r, padded, vs),
        "query_sweep_us": lambda: wt._query(around, r, hcyl_padded, 0.05),
        "best_overlap_us": lambda: wt._best_overlap(*next(spheres), r, heights, vs),
        "desk_simulation_ms": lambda: wt.run_simulation(grid, config),
        "agent_simulation_ms": lambda: wt.run_simulation(reshaped, config),
        "agent_designs_ms": lambda: [wt.run_simulation(d, config) for d in designs],
        "agent_60mph_ms": lambda: wt.run_simulation(reshaped, replace(config, air_speed=60.0)),
        "desk_plastic_ms": lambda: wt.run_simulation(
            grid, replace(config, restitution=0.0, max_steps=2000)),
        "hcyl32_60mph_ms": lambda: wt.run_simulation(hcyl32, replace(sweep, air_speed=60.0)),
        "hcyl16_60mph_ms": lambda: wt.run_simulation(hcyl16, replace(sweep, air_speed=60.0)),
        "box16_10mph_ms": lambda: wt.run_simulation(box16, sweep),
        "small_simulation_ms": lambda: wt.run_simulation(grid, small),
        "placed_grid_us": lambda: wt.PlacedGrid(grid, config),
    }
    for m, cfg in burst_of.items():
        out[f"simulation_{m}_rows_ms"] = lambda cfg=cfg: wt.run_simulation(grid, cfg)
    burst = wt.ParticleBurst(*upstream)
    four = wt.ParticleBurst(*(a[:4] for a in upstream))
    out["lanes_desk_us"] = lambda: placed.lanes(burst)
    out["lanes_4_rows_us"] = lambda: placed.lanes(four)
    out["step_empty_us"] = lambda: wt._step_batch(burst, placed, heatmap, 1)
    agent = wt.PlacedGrid(reshaped, config)
    spawned = wt.spawn_burst(config, [np.random.default_rng(s) for s in (7, 8)])
    out["step_batch_agent_ms"] = lambda: wt._step_batch(
        copy.deepcopy(spawned), agent, np.zeros_like(heatmap), config.max_steps)
    return out


def sample(fn, unit: float) -> float:
    """The mean time per call of `fn` in seconds times `unit`, over as many
    calls as take at least MIN_SAMPLE_S."""
    calls, t0 = 0, perf_counter()
    while True:
        fn()
        calls += 1
        elapsed = perf_counter() - t0
        if elapsed >= MIN_SAMPLE_S:
            return elapsed / calls * unit


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--tree", action="append", required=True, metavar="LABEL=SRC",
                        help="a label and the src directory holding voxwind; repeatable")
    parser.add_argument("--repeats", type=int, default=41)
    args = parser.parse_args()
    if args.repeats < 1:
        parser.error("--repeats must be at least 1")
    trees = {label: cases(tree) for label, tree in parse_trees(args.tree).items()}
    names = list(next(iter(trees.values())))
    samples = {label: {name: [] for name in names} for label in trees}
    for rep in range(args.repeats):
        order = list(trees) if rep % 2 == 0 else list(reversed(list(trees)))
        for name in names:
            unit = 1e3 if name.endswith("_ms") else 1e6
            for label in order:
                samples[label][name].append(sample(trees[label][name], unit))
    print(json.dumps({label: {name: dict(zip(("min", "q1", "median", "q3"),
                                             np.percentile(v, [0, 25, 50, 75]).tolist()))
                              for name, v in per.items()}
                      for label, per in samples.items()}, indent=1))


if __name__ == "__main__":
    main()
