"""Physical properties of the tunnel's outputs on drawn configs.

The configs come from `scripts/diff_trees.py`'s `draw_config`: 10-120 mph,
particle radius 0.1-3 voxels, restitution 0-1, three `dt` values and burst
row counts on both sides of TAIL_ROWS. The state properties are checked
through `_step_batch` as shipped and in Python floats only, from t = 0 at
the inlet; the metric property through `run_simulation`.
"""

import copy
import math
import sys
from pathlib import Path

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from voxwind import windtunnel
from voxwind.voxel import VoxelGrid
from voxwind.windtunnel import (
    PlacedGrid,
    TunnelConfig,
    kinetic_energy,
    run_simulation,
    spawn_burst,
)

from conftest import assert_same_outcome, burst_rows, python_floats_only

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "scripts"))
from diff_trees import draw_config  # noqa: E402

# Python floats step one row at a time, so to bound their time they take
# only the burst's first rows; a row's final state depends on that row alone
# (`test_each_row_ends_as_it_does_stepped_alone`), so these rows end as they
# do in the whole burst
EACH_ROWS = 24

seeds = st.integers(0, 2 ** 32 - 1)


def drawn(seed: int, **tunnel):
    """The grid and tunnel config that `draw_config` draws from `seed`, with
    the `tunnel` settings replaced."""
    config = draw_config(np.random.default_rng(seed))
    grid = VoxelGrid(config["heights"], config["h_max"], config["voxel_size"])
    return grid, TunnelConfig(**{**config["tunnel"], **tunnel})


def stepped_bursts(grid, config):
    """The spawned burst, and (stepper, own copy of the burst) for each
    stepper: the whole burst for `_step_batch` as shipped, its first
    EACH_ROWS rows for Python floats only."""
    streams = np.random.SeedSequence(config.seed).spawn(config.burst_count)
    burst = spawn_burst(config, [np.random.default_rng(s) for s in streams])
    head = burst_rows(burst, slice(0, EACH_ROWS))
    return burst, [(stepper, copy.deepcopy(rows)) for stepper, rows in (
        (windtunnel._step_batch, burst), (python_floats_only, head))]


def final_bursts(grid, config):
    """The spawned burst's inlet x velocities, and the final burst of each
    stepper run from t = 0 over max_steps dt."""
    placed = PlacedGrid(grid, config)
    burst, runs = stepped_bursts(grid, config)
    for stepper, own in runs:
        stepper(own, placed, np.zeros((grid.width, grid.length), dtype=np.int64),
                config.max_steps)
    return burst.vx.copy(), [own for _, own in runs]


@given(seed=seeds)
@settings(max_examples=30, deadline=None)
def test_no_particle_ends_faster_than_it_entered(seed):
    grid, config = drawn(seed)
    inlet, finals = final_bursts(grid, config)
    m = config.particle_mass
    for final in finals:
        rows = len(final)
        assert (kinetic_energy(m, final.vx[:, None]) <= kinetic_energy(m, inlet[:rows, None])).all()


@given(seed=seeds)
@settings(max_examples=30, deadline=None)
def test_elastic_bounces_keep_every_component_up_to_sign(seed):
    grid, config = drawn(seed, restitution=1.0)
    inlet, finals = final_bursts(grid, config)
    for final in finals:
        np.testing.assert_array_equal(np.abs(final.vx), np.abs(inlet[:len(final)]))


@given(seed=seeds, base_cycle_count=st.floats(1.0, 1e6))
@settings(max_examples=30, deadline=None)
def test_heatmap_total_is_the_collision_count_times_its_divisors(seed, base_cycle_count):
    grid, config = drawn(seed, base_cycle_count=base_cycle_count)
    result = run_simulation(grid, config)
    total = int(result.heatmap.sum())
    impacts = result.collision_count * config.burst_count * base_cycle_count
    assert math.isclose(impacts, total, rel_tol=1e-9)


@given(seed=seeds)
@settings(max_examples=30, deadline=None)
def test_a_retired_row_is_clear_of_the_grid_and_keeps_y_and_z(seed):
    # a row is retired only once it can never touch the grid again: at the
    # x it keeps, its velocity takes it on clear of its lane
    # (`_clear_ahead`); and whether retired or not, it moves along x alone,
    # so its y and z are as spawned
    grid, config = drawn(seed)
    placed = PlacedGrid(grid, config)
    vs, r = grid.voxel_size, config.particle_radius
    burst, runs = stepped_bursts(grid, config)
    for stepper, own in runs:
        stepper(own, placed, np.zeros((grid.width, grid.length), dtype=np.int64),
                config.max_steps)
        lanes = placed.lanes(own)
        hi = (own.x - placed.origin[0] + r) / vs
        cell = np.minimum(np.maximum(np.floor((own.x - placed.origin[0] - r) / vs), 0.0),
                          lanes.shape[1] - 1).astype(np.intp)
        clear = windtunnel._clear_ahead(own.vx, hi, lanes[np.arange(len(own)), cell],
                                        lanes[:, 0])
        assert clear[~own.alive].all()
        np.testing.assert_array_equal(own.y, burst.y[:len(own)])
        np.testing.assert_array_equal(own.z, burst.z[:len(own)])


@given(seed=seeds)
@example(seed=0)   # rows are retired on different dt
@settings(max_examples=20, deadline=None)
def test_each_row_ends_as_it_does_stepped_alone(seed):
    # a row's contacts, velocity and retirement do not depend on when the
    # rows it steps with stop; its x does once it is retired, as a retired
    # row keeps the x of the round or dt it was retired on
    grid, config = drawn(seed)
    placed = PlacedGrid(grid, config)
    burst, runs = stepped_bursts(grid, config)
    heatmap = np.zeros((grid.width, grid.length), dtype=np.int64)
    for stepper, own in runs:
        stepper(own, placed, heatmap, config.max_steps)
        for i in range(len(own)):
            one = burst_rows(burst, slice(i, i + 1))
            stepper(one, placed, heatmap, config.max_steps)
            assert_same_outcome(burst_rows(own, slice(i, i + 1)), one)
            assert own.alive[i] == one.alive[0]


@given(seed=seeds)
@settings(max_examples=30, deadline=None)
def test_an_empty_grid_gives_no_contacts(seed):
    grid, config = drawn(seed)
    empty = VoxelGrid(np.zeros_like(grid.column_heights), grid.h_max, grid.voxel_size)
    placed = PlacedGrid(empty, config)
    burst, runs = stepped_bursts(empty, config)
    for stepper, own in runs:
        heatmap = np.zeros((empty.width, empty.length), dtype=np.int64)
        rows, speeds = stepper(own, placed, heatmap, config.max_steps)
        assert len(rows) == len(speeds) == heatmap.sum() == 0
        np.testing.assert_array_equal(own.vx, burst.vx[:len(own)])


@given(seed=seeds)
@example(seed=29)   # 687 contacts
@settings(max_examples=20, deadline=None)
def test_a_contact_reverses_only_a_component_into_the_face(seed):
    # Stepped one dt at a time: a row that stays live without a contact only
    # drifts, a row retired in the dt drifts or, when its lane is empty and
    # it steps in Python floats, stays, and a dead row does not move. A
    # contact changes the x velocity, which pointed into the face: it ends
    # reversed or zero, and the row is popped out against it, along the
    # face's outward normal.
    grid, config = drawn(seed)
    placed = PlacedGrid(grid, config)
    _, runs = stepped_bursts(grid, config)
    for stepper, own in runs:
        heatmap = np.zeros((grid.width, grid.length), dtype=np.int64)
        for _ in range(config.max_steps):
            if not own.alive.any():
                break
            x0, v0, live = own.x.copy(), own.vx.copy(), own.alive.copy()
            drifted = x0 + v0 * config.dt
            rows, _ = stepper(own, placed, heatmap, 1)
            moved = np.zeros(len(own), dtype=bool)
            moved[rows] = True
            np.testing.assert_array_equal(own.vx[~moved], v0[~moved])
            stayed = ~moved & live & own.alive
            np.testing.assert_array_equal(own.x[stayed], drifted[stayed])
            retired = live & ~own.alive
            assert ((own.x == drifted) | (own.x == x0))[retired].all()
            np.testing.assert_array_equal(own.x[~live], x0[~live])
            before, after = v0[rows], own.vx[rows]
            assert (before != after).all()
            assert (before * after <= 0.0).all() and (np.abs(after) <= np.abs(before)).all()
            assert (before * (own.x[rows] - drifted[rows]) <= 0.0).all()
