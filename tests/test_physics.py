"""Physical properties of the tunnel's outputs on drawn configs.

The configs come from `scripts/diff_trees.py`'s `draw_config`: 10-120 mph,
particle radius 0.1-3 voxels, restitution 0-1, three `dt` values and burst
row counts on both sides of SMALL_BATCH. The state properties are checked
through both steppers, from t = 0 at the inlet; the metric property through
`run_simulation`.
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
# the burst's first rows; a row's final state depends on that row alone
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
    stepper: the whole burst for `_step_batch`, its first EACH_ROWS rows for
    `_step_each`."""
    streams = np.random.SeedSequence(config.seed).spawn(config.burst_count)
    burst = spawn_burst(config, [np.random.default_rng(s) for s in streams])
    head = ParticleBurst(burst.position[:EACH_ROWS], burst.velocity[:EACH_ROWS])
    return burst, [(stepper, copy.deepcopy(rows)) for stepper, rows in (
        (windtunnel._step_batch, burst), (windtunnel._step_each, head))]


def final_bursts(grid, config):
    """The spawned burst's inlet velocities, and the final burst of each
    stepper run from t = 0 over max_steps dt."""
    placed = PlacedGrid(grid, config)
    burst, runs = stepped_bursts(grid, config)
    for stepper, own in runs:
        stepper(own, placed, np.zeros((grid.width, grid.length), dtype=np.int64),
                config.max_steps)
    return burst.velocity.copy(), [own for _, own in runs]


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


@given(seed=seeds)
@settings(max_examples=30, deadline=None)
def test_rows_keep_their_spawned_y_and_z(seed):
    # every row moves along x, so a bounce can only be off an x face: the
    # steppers rely on each row's y and z staying as spawned
    grid, config = drawn(seed)
    placed = PlacedGrid(grid, config)
    burst, runs = stepped_bursts(grid, config)
    for stepper, own in runs:
        stepper(own, placed, np.zeros((grid.width, grid.length), dtype=np.int64),
                config.max_steps)
        np.testing.assert_array_equal(own.position[:, 1:], burst.position[:len(own), 1:])
        assert not own.velocity[:, 1:].any()


@given(seed=seeds)
@example(seed=0)   # rows exit on different dt
@settings(max_examples=20, deadline=None)
def test_each_row_ends_as_it_does_stepped_alone(seed):
    # a row stops at its exit, so its final position, velocity and `alive`
    # do not depend on when the rows it steps with stop
    grid, config = drawn(seed)
    placed = PlacedGrid(grid, config)
    burst, runs = stepped_bursts(grid, config)
    heatmap = np.zeros((grid.width, grid.length), dtype=np.int64)
    for stepper, own in runs:
        stepper(own, placed, heatmap, config.max_steps)
        for i in range(len(own)):
            one = ParticleBurst(burst.position[i:i + 1].copy(), burst.velocity[i:i + 1].copy())
            stepper(one, placed, heatmap, config.max_steps)
            for name in ("position", "velocity", "alive"):
                np.testing.assert_array_equal(getattr(own, name)[i], getattr(one, name)[0])


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
        np.testing.assert_array_equal(own.velocity, burst.velocity[:len(own)])


@given(seed=seeds)
@example(seed=29)   # 687 contacts
@settings(max_examples=20, deadline=None)
def test_a_contact_reverses_only_a_component_into_the_face(seed):
    # Stepped one dt at a time: a live row without a contact only drifts,
    # and a dead row does not move. A contact changes one velocity
    # component, which pointed into the face: it ends reversed or zero, and
    # the row is popped out against it, along the face's outward normal.
    grid, config = drawn(seed)
    placed = PlacedGrid(grid, config)
    _, runs = stepped_bursts(grid, config)
    for stepper, own in runs:
        heatmap = np.zeros((grid.width, grid.length), dtype=np.int64)
        for _ in range(config.max_steps):
            if not own.alive.any():
                break
            p0, v0, live = own.position.copy(), own.velocity.copy(), own.alive.copy()
            drifted = p0 + v0 * config.dt
            rows, _ = stepper(own, placed, heatmap, 1)
            moved = np.zeros(len(own), dtype=bool)
            moved[rows] = True
            np.testing.assert_array_equal(own.velocity[~moved], v0[~moved])
            np.testing.assert_array_equal(own.position[~moved & live], drifted[~moved & live])
            np.testing.assert_array_equal(own.position[~live], p0[~live])
            changed = own.velocity[rows] != v0[rows]
            assert (changed.sum(axis=1) == 1).all()
            axis = changed.argmax(axis=1)
            n = np.arange(len(rows))
            before, after = v0[rows, axis], own.velocity[rows, axis]
            assert (before * after <= 0.0).all() and (np.abs(after) <= np.abs(before)).all()
            assert (before * (own.position[rows, axis] - drifted[rows, axis]) <= 0.0).all()
            kept = own.position[rows] == drifted[rows]
            kept[n, axis] = True
            assert kept.all()
