"""Physical properties of the tunnel's outputs on drawn configs.

The configs come from `scripts/diff_trees.py`'s `draw_config`: 10-120 mph,
particle radius 0.1-3 voxels, restitution 0-1, three `dt` values and burst
row counts on both sides of SMALL_BATCH. The final-state properties are
checked through both steppers, from t = 0 at the inlet; the metric property
through `run_simulation`.
"""

import copy
import math
import sys
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from voxwind import windtunnel
from voxwind.voxel import VoxelGrid
from voxwind.windtunnel import (
    ParticleBurst,
    PlacedGrid,
    TunnelConfig,
    kinetic_energy,
    run_simulation,
    spawn_burst,
)

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "scripts"))
from diff_trees import draw_config  # noqa: E402

# `_step_each` steps one row at a time in Python floats, so it takes only
# the burst's first rows; rows do not interact, so these are rows of the
# same run
EACH_ROWS = 24

seeds = st.integers(0, 2 ** 32 - 1)


def drawn(seed: int, **tunnel):
    """The grid and tunnel config that `draw_config` draws from `seed`, with
    the `tunnel` settings replaced."""
    config = draw_config(np.random.default_rng(seed))
    grid = VoxelGrid(config["heights"], config["h_max"], config["voxel_size"])
    return grid, TunnelConfig(**{**config["tunnel"], **tunnel})


def final_bursts(grid, config):
    """The spawned burst's inlet velocities, and the final burst of each
    stepper run from t = 0 over max_steps dt."""
    streams = np.random.SeedSequence(config.seed).spawn(config.burst_count)
    burst = spawn_burst(config, [np.random.default_rng(s) for s in streams])
    placed = PlacedGrid(grid, config)
    head = ParticleBurst(burst.position[:EACH_ROWS], burst.velocity[:EACH_ROWS])
    finals = []
    for stepper, rows in ((windtunnel._step_batch, burst), (windtunnel._step_each, head)):
        own = copy.deepcopy(rows)
        stepper(own, placed, np.zeros((grid.width, grid.length), dtype=np.int64),
                config.max_steps)
        finals.append(own)
    return burst.velocity.copy(), finals


@given(seed=seeds)
@settings(max_examples=30, deadline=None)
def test_no_particle_ends_faster_than_it_entered(seed):
    grid, config = drawn(seed)
    inlet, finals = final_bursts(grid, config)
    m = config.particle_mass
    for final in finals:
        rows = len(final)
        assert (kinetic_energy(m, final.velocity) <= kinetic_energy(m, inlet[:rows])).all()


@given(seed=seeds)
@settings(max_examples=30, deadline=None)
def test_elastic_bounces_keep_every_component_up_to_sign(seed):
    grid, config = drawn(seed, restitution=1.0)
    inlet, finals = final_bursts(grid, config)
    for final in finals:
        np.testing.assert_array_equal(np.abs(final.velocity), np.abs(inlet[:len(final)]))


@given(seed=seeds, base_cycle_count=st.floats(1.0, 1e6))
@settings(max_examples=30, deadline=None)
def test_heatmap_total_is_the_collision_count_times_its_divisors(seed, base_cycle_count):
    grid, config = drawn(seed, base_cycle_count=base_cycle_count)
    result = run_simulation(grid, config)
    total = int(result.heatmap.sum())
    impacts = result.collision_count * config.burst_count * base_cycle_count
    assert math.isclose(impacts, total, rel_tol=1e-9)
