import json
import math
from pathlib import Path

import numpy as np
import pytest

from voxwind.voxel import VoxelGrid, heightmap_sum, synth_heightmap, voxelise
from voxwind.windtunnel import (
    PlacedGrid,
    SimResult,
    TunnelConfig,
    _best_overlap,
    _face_normal,
    _query,
    _query_batch,
    _step_batch,
    collision_count_metric,
    drag_force,
    spawn_burst,
)


def desk_tunnel(seed=7, particle_count=64, burst_count=2, max_steps=140,
                domain=(3.2, 1.8, 0.9)):
    """Small, fast tunnel sized for the 16x16 desk grids used in tests."""
    return TunnelConfig(
        air_speed=10.0,
        particle_count=particle_count,
        burst_count=burst_count,
        max_steps=max_steps,
        domain_size=domain,
        seed=seed,
    )


def exhaustive_contact(position, radius, grid):
    """Brute-force contact oracle: rank every occupied voxel in the grid by
    closest-point distance with the same lexicographic tie-break, no
    candidate windowing; squares are products, as in the contact query.
    Returns ((x, y, z), normal) or None."""
    cx, cy, cz = (float(v) for v in position)
    vs = grid.voxel_size
    best = None
    for x in range(grid.width):
        for y in range(grid.length):
            for z in range(int(grid.column_heights[x, y])):
                ex = cx - min(max(cx, x * vs), (x + 1) * vs)
                ey = cy - min(max(cy, y * vs), (y + 1) * vs)
                ez = cz - min(max(cz, z * vs), (z + 1) * vs)
                d2 = ex * ex + ey * ey + ez * ez
                key = (d2, x, y, z)
                if best is None or key < best:
                    best = key
    if best is None or best[0] >= radius * radius:
        return None
    d2, x, y, z = best
    dx = cx - (x + 0.5) * vs
    dy = cy - (y + 0.5) * vs
    dz = cz - (z + 0.5) * vs
    half = radius + 0.5 * vs
    pens = [half - abs(dx), half - abs(dy), half - abs(dz)]
    axis = pens.index(min(pens))
    sign = 1.0 if (dx, dy, dz)[axis] >= 0 else -1.0
    normal = np.zeros(3)
    normal[axis] = sign
    return (x, y, z), normal


def random_contact_batches(n_batches, batch_size, seed):
    """Randomized (grid <= 8^3, (batch_size, 3) centers, radius) instances for
    oracle checks: one grid and one radius per batch, as a stepper queries."""
    rng = np.random.default_rng(seed)
    for _ in range(n_batches):
        w, l, h_max = rng.integers(1, 9, size=3)
        heights = rng.integers(0, h_max + 1, size=(w, l))
        grid = VoxelGrid(heights, int(h_max), 0.1)
        span = np.array([w * 0.1, l * 0.1, h_max * 0.1])
        centers = (rng.uniform(-0.15, 1.0, size=(batch_size, 3)) * span
                   + rng.uniform(-0.1, 0.1, size=(batch_size, 3)))
        radius = float(rng.uniform(0.01, 0.18))
        yield grid, centers, radius


def oracle_agrees(found, grid, center, radius):
    """Whether one sphere's ((x, y, z), normal) or None is what the
    exhaustive oracle finds."""
    expected = exhaustive_contact(center, radius, grid)
    if expected is None:
        return found is None
    return (found is not None and found[0] == expected[0]
            and np.array_equal(found[1], expected[1]))


def scalar_contact(center, radius, grid):
    """One sphere's contact through the scalar core, `_best_overlap` then
    `_face_normal`, as `_step_each` resolves a near row: ((x, y, z), normal)
    or None."""
    cx, cy, cz = (float(v) for v in center)
    vs = grid.voxel_size
    best = _best_overlap(cx, cy, cz, radius, grid.column_heights.tolist(), vs)
    if best is None:
        return None
    _, ix, iy, iz = best
    axis, sign, _ = _face_normal(cx, cy, cz, ix, iy, iz, radius, vs)
    normal = np.zeros(3)
    normal[axis] = sign
    return (ix, iy, iz), normal


def batch_query(centers, radius, heights, vs):
    """One `_query_batch` call, unchunked, over the (W, L) `heights` with the
    zero column past each high edge that it reads: its (rows, voxel, axis,
    sign, penetration) tuple, or None."""
    padded = np.pad(np.asarray(heights, dtype=np.int64), ((0, 1), (0, 1)))
    return _query_batch(np.asarray(centers, dtype=np.float64).reshape(-1, 3), radius,
                        padded, vs)


def grid_query(centers, radius, grid):
    """`_query`, chunked, over the `PlacedGrid.padded` heights of `grid`, as
    a stepper calls it: the `_query_batch` tuple, or None."""
    padded = PlacedGrid(grid, TunnelConfig(particle_radius=radius)).padded
    return _query(np.asarray(centers, dtype=np.float64).reshape(-1, 3), radius, padded,
                  grid.voxel_size)


def contacts_per_sphere(found, m):
    """A `_query` tuple, or None, as one ((x, y, z), normal) or None per
    queried sphere."""
    out = [None] * m
    if found is None:
        return out
    rows, voxels, axes, signs, _ = found
    for row, voxel, axis, sign in zip(rows, voxels, axes, signs):
        normal = np.zeros(3)
        normal[axis] = sign
        out[row] = (tuple(int(v) for v in voxel), normal)
    return out


def stepped_simulation(grid, config):
    """`run_simulation` as one `_step_batch` call over every dt from t = 0,
    adding each burst's drag impact by impact: the reference for its inlet
    lead-in. Returns the SimResult and the final burst."""
    placed = PlacedGrid(grid, config)
    b, n = config.burst_count, config.particle_count
    seeds = np.random.SeedSequence(config.seed).spawn(b)
    burst = spawn_burst(config, [np.random.default_rng(s) for s in seeds])
    heatmap = np.zeros((grid.width, grid.length), dtype=np.int64)
    area = math.pi * config.particle_radius ** 2
    drag = [0.0] * b
    rows, speeds = _step_batch(burst, placed, heatmap, config.max_steps)
    for row, speed in zip(rows, speeds):
        drag[row // n] += drag_force(config.fluid_density, speed, config.drag_coefficient, area)
    # a particle's velocity stays frozen from its exit on
    ke = np.array([0.5 * config.particle_mass * (v[0] * v[0] + v[1] * v[1] + v[2] * v[2])
                   for v in burst.velocity])
    drag_total = ke_total = 0.0
    for k in range(b):
        drag_total += drag[k]
        ke_total += float(ke[k * n:(k + 1) * n].sum())
    return SimResult(
        drag_force=drag_total / b,
        kinetic_energy=ke_total / (n * b) if n else 0.0,
        collision_count=collision_count_metric(heatmap.sum(), b, config.base_cycle_count),
        heightmap_sum=float(heightmap_sum(grid)),
        heatmap=heatmap,
    ), burst


def read_checkpoint(path, ppo_config: dict, obs_dim: int, act_dim: int) -> dict:
    """The checkpoint document at `path`, once its format version, its echo of
    the PPO config and the shape of every layer are checked."""
    doc = json.loads(Path(path).read_text())
    assert doc["format_version"] == 1
    assert doc["config"] == ppo_config
    hidden = [ppo_config["hidden_units"]] * ppo_config["hidden_layers"]
    for key, out_dim in (("policy", act_dim), ("value", 1)):
        sizes = [obs_dim, *hidden, out_dim]
        assert doc[key]["sizes"] == sizes
        assert [np.shape(layer["weight"]) for layer in doc[key]["layers"]] == \
            list(zip(sizes, sizes[1:]))
        assert [np.shape(layer["bias"]) for layer in doc[key]["layers"]] == \
            [(size,) for size in sizes[1:]]
    assert np.shape(doc["policy"]["log_std"]) == (act_dim,)
    return doc


@pytest.fixture
def wedge_grid():
    return voxelise(synth_heightmap("wedge", 16, 16, 1.0), 8, 0.1)


@pytest.fixture
def rng():
    return np.random.default_rng(0)
