import numpy as np
import pytest

from voxwind.voxel import VoxelGrid, synth_heightmap, voxelise
from voxwind.windtunnel import TunnelConfig


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
    candidate windowing. Returns ((x, y, z), normal) or None."""
    cx, cy, cz = (float(v) for v in position)
    vs = grid.voxel_size
    best = None
    for x in range(grid.width):
        for y in range(grid.length):
            for z in range(int(grid.column_heights[x, y])):
                qx = min(max(cx, x * vs), (x + 1) * vs)
                qy = min(max(cy, y * vs), (y + 1) * vs)
                qz = min(max(cz, z * vs), (z + 1) * vs)
                d2 = (cx - qx) ** 2 + (cy - qy) ** 2 + (cz - qz) ** 2
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


def random_contact_cases(n_cases, seed):
    """Randomized (grid <= 8^3, position, radius) instances for oracle checks."""
    rng = np.random.default_rng(seed)
    for _ in range(n_cases):
        w, l, h_max = rng.integers(1, 9, size=3)
        heights = rng.integers(0, h_max + 1, size=(w, l))
        grid = VoxelGrid(int(w), int(l), int(h_max), 0.1, heights)
        span = np.array([w * 0.1, l * 0.1, h_max * 0.1])
        pos = rng.uniform(-0.15, 1.0) * span + rng.uniform(-0.1, 0.1, size=3)
        radius = float(rng.uniform(0.01, 0.18))
        yield grid, pos, radius


def stacked_contact_cases(cases):
    """Cases from random_contact_cases as one batch for `contact_query`:
    (centers, radii, per-sphere heights, voxel size). Grids are zero-padded
    to a common footprint; empty columns are never candidates."""
    grids, centers, radii = zip(*cases)
    w = max(g.width for g in grids)
    l = max(g.length for g in grids)
    heights = np.zeros((len(grids), w, l), dtype=np.int64)
    for k, g in enumerate(grids):
        heights[k, :g.width, :g.length] = g.column_heights
    return np.array(centers), np.array(radii), heights, grids[0].voxel_size


def contacts_per_sphere(contacts, m):
    """A Contacts record as one ((x, y, z), normal) or None per queried sphere."""
    out = [None] * m
    for row, voxel, axis, sign in zip(contacts.particle, contacts.voxel, contacts.axis,
                                      contacts.sign):
        normal = np.zeros(3)
        normal[axis] = sign
        out[row] = (tuple(int(v) for v in voxel), normal)
    return out


@pytest.fixture
def wedge_grid():
    return voxelise(synth_heightmap("wedge", 16, 16, 1.0), 8, 0.1)


@pytest.fixture
def rng():
    return np.random.default_rng(0)
