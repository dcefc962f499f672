"""Particle-burst wind tunnel over a solid-column voxel grid.

Bursts of spherical particles enter at the x = 0 plane and fly in +x. The
grid sits centered in the domain's x/y footprint with its base on z = 0.
Collisions reflect particles off voxel faces; four aggregate metrics come
out: total impact drag, mean exit kinetic energy, a normalised collision
count, and the grid's height sum.

Every particle moves along x for the whole run. It enters at (v, 0, 0), and
a bounce changes only the velocity component along the face normal, and
only while the particle moves into the face, so only x faces ever bounce
it. Its y and z therefore stay as spawned, and the steppers move x alone.
`ParticleBurst` checks the contract.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError
from .schema import check_fields, setting
from .voxel import VoxelGrid, heightmap_sum, round_half_away, write_pgm

MPH_TO_MPS = 0.44704

METRIC_NAMES = ("drag_force", "kinetic_energy", "collision_count", "heightmap_sum")

SIMRESULT_CSV_HEADER = ",".join(METRIC_NAMES)


@dataclass
class TunnelConfig:
    """Simulation parameters; defaults are desk-scale stand-ins, not claims."""

    air_speed: float = setting(10.0, ge=10.0, le=120.0)     # mph
    particle_count: int = setting(256, ge=0, le=100_000)     # particles per burst
    burst_count: int = setting(2, ge=1, le=100)              # simulation runs per iteration
    base_cycle_count: float = setting(10.0, ge=1.0)          # collision-count normaliser
    # a particle moves at most 120 mph = 53.6448 m/s, so over at most 1e5
    # steps |v| * dt * max_steps <= 5.4e306 m and its positions stay finite
    dt: float = setting(1.0 / 120.0, gt=0.0, le=1e300)       # seconds
    max_steps: int = setting(240, ge=1, le=100_000)          # integration steps per burst
    fluid_density: float = setting(1.225, gt=0.0)            # kg/m^3
    particle_mass: float = setting(0.01, gt=0.0)             # kg
    # the radius and domain are at most 1e150 m, so squared lengths and sums
    # of three stay finite
    particle_radius: float = setting(0.05, gt=0.0, le=1e150)  # m
    drag_coefficient: float = setting(0.47, gt=0.0)          # sphere
    restitution: float = setting(0.5, ge=0.0, le=1.0)        # 0 = plastic, 1 = elastic
    domain_size: tuple = setting((6.0, 4.0, 4.0), gt=0.0, le=1e150)   # meters (x, y, z)
    seed: int = setting(0, ge=0)

    def validate(self, prefix: str = "tunnel") -> None:
        check_fields(self, prefix)


class ParticleBurst:
    """Struct-of-arrays state of every particle in one simulation.

    Burst k owns the block of rows k * n .. (k + 1) * n, where n is the
    per-burst particle count, so all bursts advance together.

    Every row moves along x: a velocity with a y or z component other than
    zero raises ValueError, the one check of the contract the steppers rely on.
    """

    def __init__(self, position: np.ndarray, velocity: np.ndarray):
        self.position = np.asarray(position, dtype=np.float64)
        self.velocity = np.asarray(velocity, dtype=np.float64)
        if self.velocity[:, 1:].any():
            raise ValueError("ParticleBurst: every velocity must be along x, with y and z 0")
        self.alive = np.ones(len(self.position), dtype=bool)

    def __len__(self) -> int:
        return len(self.position)


@dataclass
class SimResult:
    """The four aggregate metrics plus the per-column collision heatmap."""

    drag_force: float
    kinetic_energy: float
    collision_count: float
    heightmap_sum: float
    heatmap: np.ndarray = field(repr=False)

    def __post_init__(self):
        self.heatmap = np.asarray(self.heatmap)
        for name in METRIC_NAMES:
            _checked_metric(name, getattr(self, name))

    def metrics(self) -> dict:
        return {name: float(getattr(self, name)) for name in METRIC_NAMES}


def tunnel_result(heatmap, **metrics) -> SimResult:
    """The SimResult of the tunnel's `metrics`. A metric that is not finite
    overflowed float64, and raises ConfigError naming the settings that
    scale it."""
    try:
        return SimResult(heatmap=heatmap, **metrics)
    except ValueError as exc:
        raise ConfigError(f"tunnel: {exc}; particle_mass, fluid_density or drag_coefficient "
                          "is too large") from exc


def _checked_metric(name: str, value):
    """`value`, once it is a finite, non-negative reading of metric `name`."""
    if not 0 <= value < math.inf:
        raise ValueError(f"{name} must be finite and non-negative, got {value}")
    return value


# --- formulas ----------------------------------------------------------------


def mph_to_mps(speed: float):
    """Miles per hour to meters per second (exact factor 0.44704)."""
    return speed * MPH_TO_MPS


def drag_force(rho: float, v: float, c_d: float, area: float):
    """Aerodynamic drag: 0.5 * rho * v^2 * C_d * A."""
    return 0.5 * rho * v * v * c_d * area


def kinetic_energy(mass: float, velocity: np.ndarray) -> np.ndarray:
    """Kinetic energy 0.5 * m * |v|^2 of each (N, 3) velocity row."""
    return 0.5 * mass * np.einsum("ij,ij->i", velocity, velocity)


def collision_count_metric(total, b: float, b_c: float) -> float:
    """Total particle-voxel impacts normalised by burst count and base cycles."""
    return float(total) / (b * b_c)


# --- geometry ----------------------------------------------------------------


def grid_origin(grid: VoxelGrid, config: TunnelConfig) -> np.ndarray:
    """World position of the grid's (0, 0, 0) corner: centered in x/y, base on z=0."""
    dx, dy, _ = config.domain_size
    ox = 0.5 * (dx - grid.width * grid.voxel_size)
    oy = 0.5 * (dy - grid.length * grid.voxel_size)
    return np.array([ox, oy, 0.0])


def _zero_padded(heights: np.ndarray, margin: int) -> np.ndarray:
    """The (W, L) column heights with `margin` zero columns on every side."""
    w, l = heights.shape
    z = np.zeros((w + 2 * margin, l + 2 * margin), dtype=np.int64)
    z[margin:margin + w, margin:margin + l] = heights
    return z


def neighborhood_reach(grid: VoxelGrid, radius: float) -> tuple[np.ndarray, np.ndarray]:
    """The near test's table, one cell per column over the grid grown by
    k + 1 columns a side, k = ceil(radius / vs): cell c is column c - k - 1;
    and the zero-padded heights it is built over, a margin of m = 2k + 1
    zero columns on every side.

    A cell holds `radius` above the tallest column within k columns of it,
    or -inf where that window holds no voxel, as the outer ring's never does.
    The argument for it is in `PlacedGrid`; it holds in exact arithmetic.
    Built as a separable window max over the zero-padded heights.
    """
    vs = grid.voxel_size
    k = math.ceil(radius / vs)
    w, l = grid.width, grid.length
    m = 2 * k + 1   # the window's width, and the zero margin on each side
    z = _zero_padded(grid.column_heights, m)
    tw, tl = w + m + 1, l + m + 1   # the grid grown by k + 1 columns a side
    along_x = z[:tw].copy()
    for s in range(1, m):
        np.maximum(along_x, z[s:s + tw], out=along_x)
    top = along_x[:, :tl].copy()
    for s in range(1, m):
        np.maximum(top, along_x[:, s:s + tl], out=top)
    return np.where(top > 0, top * vs + radius, -np.inf), z


def spawn_burst(config: TunnelConfig, rngs) -> ParticleBurst:
    """particle_count particles per generator in `rngs`, one block of rows
    each, on the x = 0 inlet plane, jittered over the cross-section, all
    moving at the configured air speed in +x."""
    n = config.particle_count
    _, dy, dz = config.domain_size
    pos = np.zeros((len(rngs) * n, 3), dtype=np.float64)
    for k, rng in enumerate(rngs):
        jitter = rng.uniform(0.0, 1.0, size=(n, 2))
        pos[k * n:(k + 1) * n, 1] = jitter[:, 0] * dy
        pos[k * n:(k + 1) * n, 2] = jitter[:, 1] * dz
    vel = np.zeros_like(pos)
    vel[:, 0] = mph_to_mps(config.air_speed)
    return ParticleBurst(pos, vel)


# Bursts of up to this many rows step one row at a time in Python floats
# (`_step_each`), larger ones in numpy (`_step_batch`): a desk simulation of
# one 24-row burst took 2.29 ms in Python floats against 2.97 ms in numpy,
# one of 32 rows 3.09 against 3.07 ms, one of 40 rows 4.01 against 3.19 ms
# (`kernel_bench.py`).
SMALL_BATCH = 32

# Most dt one row looks ahead in one round of `_step_batch`; chosen over 8
# on desk designs, where it ran desk_train about 3% faster (README).
LOOKAHEAD = 12

# Most candidate voxels one batched query evaluates at once; larger batches
# go in chunks, which bounds its temporaries when a sphere spans many voxels.
# `check_fits` rejects a radius whose one sphere's window exceeds it.
MAX_CANDIDATES = 1 << 16


def _best_overlap(cx: float, cy: float, cz: float, radius: float, heights: list, vs: float):
    """Scalar core of the contact query, one sphere in Python floats: the
    minimal (closest-point distance squared, x, y, z) tuple over the
    candidate voxels, or None. `heights` is the column heights from the
    grid's (0, 0) corner on as nested lists, `heights[ix][iy]`; any columns
    past the grid's are empty and skipped.

    Only voxels whose axis slabs overlap the sphere are scanned, in
    increasing (x, y, z), and only a strictly smaller distance replaces the
    best, which starts at r * r: so distance ties break toward the lowest
    index, and a distance of r or more is no contact. Float addition of
    non-negative terms is monotone, so a voxel whose partial sum already
    reaches the best cannot beat it, and its row or column is skipped. Each
    axis distance is the one the clamp min(max(c, b0), b0 + vs) gives;
    squares are products, as in numpy.
    """
    x_lo = max(math.floor((cx - radius) / vs), 0)
    x_hi = min(math.floor((cx + radius) / vs), len(heights) - 1)
    y_lo = max(math.floor((cy - radius) / vs), 0)
    y_hi = min(math.floor((cy + radius) / vs), len(heights[0]) - 1)
    z_lo = max(math.floor((cz - radius) / vs), 0)
    z_hi = math.floor((cz + radius) / vs)
    if x_lo > x_hi or y_lo > y_hi or z_lo > z_hi:
        return None
    dz = []
    for iz in range(z_lo, z_hi + 1):
        bz0 = iz * vs
        e = cz - bz0 if cz < bz0 else cz - (bz0 + vs) if cz > bz0 + vs else 0.0
        dz.append(e * e)
    best = radius * radius
    found = None
    for ix in range(x_lo, x_hi + 1):
        bx0 = ix * vs
        e = cx - bx0 if cx < bx0 else cx - (bx0 + vs) if cx > bx0 + vs else 0.0
        ddx = e * e
        if ddx >= best:
            continue
        column = heights[ix]
        for iy in range(y_lo, y_hi + 1):
            h = column[iy]
            if h <= z_lo:
                continue
            by0 = iy * vs
            e = cy - by0 if cy < by0 else cy - (by0 + vs) if cy > by0 + vs else 0.0
            ddy = ddx + e * e
            if ddy >= best:
                continue
            for iz in range(z_lo, min(z_hi, h - 1) + 1):
                d2 = ddy + dz[iz - z_lo]
                if d2 < best:
                    best, found = d2, (ix, iy, iz)
    return None if found is None else (best, *found)


def _face_normal(cx: float, cy: float, cz: float, ix: int, iy: int, iz: int,
                 radius: float, vs: float):
    """Axis of minimal penetration for a sphere against voxel (ix, iy, iz).

    Returns (axis, sign, penetration); axis ties break to the lowest index,
    the sign points toward the sphere center.
    """
    half = radius + 0.5 * vs
    axis, d = 0, cx - (ix + 0.5) * vs
    pen = half - abs(d)
    for k, dk in ((1, cy - (iy + 0.5) * vs), (2, cz - (iz + 0.5) * vs)):
        if half - abs(dk) < pen:
            axis, d, pen = k, dk, half - abs(dk)
    return axis, 1.0 if d >= 0 else -1.0, pen


@functools.lru_cache(maxsize=8)
def _window_offsets(k: int) -> np.ndarray:
    """Read-only (k**3, 3) table of the (ix, iy, iz) offsets in a k-voxel
    window, in the flat (ix, iy, iz) order of `_query_batch`'s candidates."""
    offsets = np.indices((k, k, k)).reshape(3, -1).T.copy()
    offsets.flags.writeable = False
    return offsets


def _query_batch(centers, radius, padded, vs):
    """The contact query for every sphere in one numpy evaluation: the
    (rows, voxel, axis, sign, penetration) arrays, one entry per sphere that
    touches a voxel, in increasing row, or None when no sphere does. An
    entry holds the sphere's row in `centers`, its winning voxel
    (ix, iy, iz), the axis of minimal penetration, +1.0 or -1.0 toward the
    sphere center, and the overlap along that axis.

    `padded` holds the column heights from the grid's (0, 0) corner on, with
    at least one zero column past its last x and its last y column, so one
    clamp into its bounds reads every candidate column, and any column off
    the grid reads as empty. Each sphere's candidate voxels span the same
    (x, y, z) windows the scalar core scans, laid out in (ix, iy, iz) order;
    per axis there are at most ceil(2 * radius / vs) + 2 of them. A voxel
    past the end of a sphere's own window gets an infinite distance on that
    axis: the window cannot simply go, as fl(idx * vs) can land within c + r
    while floor((c + r) / vs) < idx. Distances use the scalar core's float
    expressions, and a first-occurrence argmin over the candidates repeats
    its (d2, ix, iy, iz) tie-break, so both agree bit for bit.
    """
    m = len(centers)
    lo = np.maximum(np.floor((centers - radius) / vs).astype(np.int64), 0)
    hi = np.floor((centers + radius) / vs).astype(np.int64)
    k = int((hi - lo).max()) + 1   # one window length for all three axes
    if k <= 0:
        return None
    idx = lo[:, None, :] + np.arange(k)[:, None]            # (m, k, axis)
    b0 = idx * vs
    c = centers[:, None, :]
    dd = (c - np.minimum(np.maximum(c, b0), b0 + vs)) ** 2
    np.putmask(dd, idx > hi[:, None, :], np.inf)
    w, l = padded.shape
    col = np.minimum(idx[:, :, :2], (w - 1, l - 1))
    top = padded[col[:, :, None, 0], col[:, None, :, 1]]    # (m, k, k)
    d2 = (dd[:, :, None, 0] + dd[:, None, :, 1])[..., None] + dd[:, None, None, :, 2]
    np.putmask(d2, idx[:, None, None, :, 2] >= top[..., None], np.inf)
    d2 = d2.reshape(m, -1)
    best = d2.argmin(axis=1)
    rows = (d2[np.arange(m), best] < radius * radius).nonzero()[0]
    if rows.size == 0:
        return None
    voxel = lo[rows] + _window_offsets(k)[best[rows]]
    d = centers[rows] - (voxel + 0.5) * vs
    pens = (radius + 0.5 * vs) - np.abs(d)
    axis = pens.argmin(axis=1)
    n = np.arange(len(rows))
    return rows, voxel, axis, np.where(d[n, axis] >= 0, 1.0, -1.0), pens[n, axis]


def _query(centers, radius, padded, vs):
    """Deepest-penetration contact of each sphere against the occupied
    voxels: `_query_batch` in chunks of at most MAX_CANDIDATES candidate voxels.

    `centers` is (M, 3) in grid-local coordinates (grid corner at the
    origin); every sphere has the one `radius` and meets the one grid of
    column heights `padded`, laid out as `_query_batch` reads it. Candidates
    are ranked by (closest-point distance squared, x, y, z), the closest
    point being the sphere-AABB query of Ericson, Real-Time Collision
    Detection (2004), 5.2, so ties break to the lowest index. The face
    normal is the axis of minimal penetration for the winning voxel, signed
    toward the sphere center. Spheres that overlap nothing within their
    radius get no row.
    """
    m = len(centers)
    window = math.ceil(2.0 * radius / vs) + 2
    size = max(1, MAX_CANDIDATES // window ** 3)
    if m <= size:
        return _query_batch(centers, radius, padded, vs)
    parts = []
    for start in range(0, m, size):
        part = _query_batch(centers[start:start + size], radius, padded, vs)
        if part is not None:
            parts.append((part[0] + start, *part[1:]))
    return tuple(np.concatenate(a) for a in zip(*parts)) if parts else None


class PlacedGrid:
    """A grid placed in the tunnel: the constants both steppers test
    against, computed once per simulation.

    `reach` is the near test's table (`neighborhood_reach`), indexed by a
    center's column cell floor(loc_xy / vs) shifted by `pad` and clamped. A
    center can touch only the columns within ceil(r / vs) of its own, so at
    or above its cell's entry it is at least r from every voxel and the
    strict contact test finds none; every farther cell clamps onto the -inf
    outer ring. The table therefore admits every row that can touch a voxel,
    and maybe some that cannot. (The argument holds in exact arithmetic.)
    `padded` is the zero-padded heights the table is built over, seen from
    the grid's (0, 0) corner, as `_query_batch` reads them; `heights` is the
    same table as nested lists, as `_best_overlap` reads it.
    """

    def __init__(self, grid: VoxelGrid, config: TunnelConfig):
        self.config = config
        self.voxel_size = grid.voxel_size
        self.origin = grid_origin(grid, config)
        self.domain = np.array(config.domain_size)
        self.reach, padded = neighborhood_reach(grid, config.particle_radius)
        self.pad = (self.reach.shape[0] - grid.width) // 2
        margin = (padded.shape[0] - grid.width) // 2
        self.padded = padded[margin:, margin:]
        self.heights = self.padded.tolist()
        self.cell_max = np.array(self.reach.shape) - 1


def _step_batch(burst: ParticleBurst, placed: PlacedGrid, heatmap: np.ndarray, steps: int):
    """Advance the burst up to `steps` dt, stopping early once no particle is
    alive, the whole burst at once in numpy. Returns the contacts' burst rows
    (intp) and impact speeds (float64), in step order and then row order.

    Each dt: integrate, resolve voxel contacts, retire exited particles.
    Semi-implicit Euler with no body forces, so the update is a pure drift
    until a contact reflects the velocity about the face normal scaled by the
    restitution. A live particle is near when its height is below the
    `placed.reach` entry of its column cell; the table admits every row that
    can touch a voxel (see `PlacedGrid`). One contact at most per particle
    per dt; contacts tally into `heatmap`. A particle leaving the domain is
    marked dead and stops: its position, velocity and `alive` no longer
    change, so each row's final state depends on that row alone, and
    `run_simulation` reads the exit energy from the velocity it left with.
    Mutates `burst` and `heatmap`.

    Every row moves along x (see the module docstring), so only its x and x
    velocity change; its y and z, its column-row cell of the near table and
    its y and z exit tests are computed once.

    Rows do not interact and only drift between contacts, so the dt go in
    rounds over look-ahead windows. In a round each live row drifts through
    its own window by the same `+= velocity * dt` additions a step makes; the
    near and exit tests run once over the (dt, row) block of x, and its near
    pairs take one contact query (`_query`), whose answer for a sphere does
    not depend on its batch. Each row then moves to its first contact moving
    into a face, bounced, popped out, tallied and exit-tested as in a step, or
    else to its exit or its window's last dt. A first window is LOOKAHEAD // 2
    dt, a later one twice the dt the row last advanced, at most LOOKAHEAD.
    `run_simulation` leaves out the inlet lead-in, the dt before any particle
    can come near the grid, in which a step would only add the shared x drift
    to every position.
    """
    config = placed.config
    dt, vs, r = config.dt, placed.voxel_size, config.particle_radius
    pos, vel, alive = burst.position, burst.velocity, burst.alive
    ox, oy, oz = placed.origin.tolist()
    dx, dy, dz = placed.domain.tolist()
    x, vx = pos[:, 0], vel[:, 0]   # views: the one moving coordinate
    ly, lz = pos[:, 1] - oy, pos[:, 2] - oz
    cy = np.floor(ly / vs)
    cy += placed.pad
    cy = np.minimum(np.maximum(cy, 0), placed.cell_max[1]).astype(np.intp)
    side = (pos[:, 1] >= 0.0) & (pos[:, 1] <= dy) & (pos[:, 2] >= 0.0) & (pos[:, 2] <= dz)
    live = alive.nonzero()[0] if steps > 0 else np.zeros(0, dtype=np.intp)
    # per live row: the dt it has taken, and its next window
    done, window = np.zeros(len(live), dtype=np.intp), np.full(len(live), LOOKAHEAD // 2)
    found = [(np.zeros(0, dtype=np.intp),) * 2 + (np.zeros(0),)]   # (dt, row, speed)
    while live.size:
        n = np.arange(len(live))
        w = np.minimum(window, steps - done)
        ahead = np.arange(int(w.max()))[:, None]
        v = vx[live]
        drift = v * dt
        path = np.empty((len(ahead), len(live)))
        np.add(x[live], drift, out=path[0])
        for j in range(1, len(ahead)):
            np.add(path[j - 1], drift, out=path[j])
        cell = path - ox
        cell /= vs
        np.floor(cell, out=cell)
        cell += placed.pad
        np.minimum(np.maximum(cell, 0, out=cell), placed.cell_max[0], out=cell)
        cell = cell.astype(np.intp)   # after the clamp: a cell past the int range would not cast
        near = lz[live] < placed.reach[cell, cy[live]]
        gone = ~((path >= 0.0) & (path <= dx) & side[live])
        end = (gone | (ahead >= w - 1)).argmax(axis=0)   # first exit, or the window's last dt
        near &= ahead <= end
        k, j = near.T.nonzero()   # near pairs in row order, then dt order
        contacts = None
        if k.size:
            rows = live[k]
            contacts = _query(np.column_stack([path[j, k] - ox, ly[rows], lz[rows]]), r,
                              placed.padded, vs)
        if contacts is not None:
            touching, voxel, axis, sign, pen = contacts
            k, j = k[touching], j[touching]
            vn = sign * v[k]   # the normal velocity of an x face
            # a y or z face sees no normal velocity, and a separating
            # contact gets no impulse: neither makes a row
            hit = ((axis == 0) & (vn < 0.0)).nonzero()[0]
            first = np.ones(hit.size, dtype=bool)   # a row's first contact in dt order
            np.not_equal(k[hit[1:]], k[hit[:-1]], out=first[1:])
            hit = hit[first]
            k, j, voxel, sign, pen, vn = (a[hit] for a in (k, j, voxel, sign, pen, vn))
            end[k] = j
        at, out = path[end, n], gone[end, n]
        if contacts is not None and k.size:
            u = v[k]   # the impact speed is read before the bounce
            speed = np.sqrt(u * u)
            v[k] -= (1.0 + config.restitution) * vn * sign
            at[k] += sign * pen  # pop out of the face
            out[k] = ~((at[k] >= 0.0) & (at[k] <= dx) & side[live[k]])
            np.add.at(heatmap, (voxel[:, 0], voxel[:, 1]), 1)
            found.append((done[k] + j, live[k], speed))
            vx[live] = v
        x[live] = at
        done += end + 1
        window = np.minimum(2 * (end + 1), LOOKAHEAD)
        stop = out | (done == steps)
        if stop.any():
            alive[live[out]] = False
            live, done, window = live[~stop], done[~stop], window[~stop]
    t, rows, speeds = (np.concatenate(a) for a in zip(*found))
    order = np.lexsort((rows, t))
    return rows[order], speeds[order]


def _step_each(burst: ParticleBurst, placed: PlacedGrid, heatmap: np.ndarray, steps: int):
    """`_step_batch`, one burst row at a time in Python floats: the same
    arguments, returns and effects. The burst's final state is written back.

    For bursts of at most SMALL_BATCH rows. Each live row steps on its own to
    its exit or to `steps`, making the float operations of `_step_batch`'s
    drift, near and exit tests and bounce, in their order, on its x alone; its
    reach column, the near table at its fixed column-row cell, is read once.
    The contact comes from the scalar core (`_best_overlap`, `_face_normal`),
    which `_query_batch` matches bit for bit. Rows do not interact, and a row
    stops at its exit, so once the contacts are in dt order every output is
    bit for bit `_step_batch`'s. A column cell outside `placed.reach` clamps
    onto its -inf outer ring, so such a row, like a NaN or infinite one, is
    not near.
    """
    config = placed.config
    dt, vs, r = config.dt, placed.voxel_size, config.particle_radius
    ox, oy, oz = placed.origin.tolist()
    dx, dy, dz = placed.domain.tolist()
    columns, pad, heights = placed.reach.T.tolist(), placed.pad, placed.heights
    # -pad <= floor(l / vs) < end_x (end_y) is a cell of the table
    end_x, end_y = (int(c) + 1 - pad for c in placed.cell_max)
    x, vx = burst.position[:, 0].tolist(), burst.velocity[:, 0].tolist()
    alive = burst.alive.tolist()
    found = []   # (dt, row, impact speed)
    for j, (y, z) in enumerate(burst.position[:, 1:].tolist()):
        if not alive[j]:
            continue
        p, v = x[j], vx[j]
        ly, lz = y - oy, z - oz
        qy = ly / vs
        reach = columns[math.floor(qy) + pad] if -pad <= qy < end_y else None
        side = 0.0 <= y <= dy and 0.0 <= z <= dz
        t = 0
        while t < steps:
            p += v * dt
            t += 1
            lx = p - ox
            qx = lx / vs
            if reach is not None and -pad <= qx < end_x and lz < reach[math.floor(qx) + pad]:
                best = _best_overlap(lx, ly, lz, r, heights, vs)
                if best is not None:
                    _, ix, iy, iz = best
                    axis, sign, pen = _face_normal(lx, ly, lz, ix, iy, iz, r, vs)
                    vn = sign * v
                    if axis == 0 and vn < 0.0:   # moving into an x face
                        found.append((t - 1, j, math.sqrt(v * v)))
                        v -= (1.0 + config.restitution) * vn * sign
                        p += sign * pen
                        heatmap[ix, iy] += 1
            if not (0.0 <= p <= dx and side):
                alive[j] = False
                break
        x[j], vx[j] = p, v
    found.sort()
    burst.position[:, 0], burst.velocity[:, 0], burst.alive[:] = x, vx, alive
    return (np.array([row for _, row, _ in found], dtype=np.intp),
            np.array([speed for *_, speed in found], dtype=np.float64))


def check_fits(grid: VoxelGrid, config: TunnelConfig) -> None:
    """Raise ConfigError unless the grid fits inside the tunnel's domain and
    one sphere's contact window, (ceil(2r / vs) + 2)^3 voxels, stays within
    MAX_CANDIDATES; that also keeps k = ceil(r / vs) of the near test's table
    within 19."""
    vs, r = grid.voxel_size, config.particle_radius
    dx, dy, dz = config.domain_size
    if (grid.width * vs > dx + 1e-9 or grid.length * vs > dy + 1e-9
            or grid.h_max * vs > dz + 1e-9):
        raise ConfigError(
            f"tunnel.domain_size: grid extent ({grid.width * vs}, {grid.length * vs}, "
            f"{grid.h_max * vs}) does not fit inside domain {config.domain_size}")
    span = 2.0 * r / vs
    if not span < math.inf or (math.ceil(span) + 2) ** 3 > MAX_CANDIDATES:
        raise ConfigError(
            f"tunnel.particle_radius: a sphere of radius {r!r} m spans {span:.3g} voxels of "
            f"{vs!r} m; its contact window of (ceil(2r / vs) + 2)^3 voxels may hold at "
            f"most {MAX_CANDIDATES}")


def run_simulation(grid: VoxelGrid, config: TunnelConfig) -> SimResult:
    """Run burst_count bursts against the grid and aggregate the metrics.

    drag_force: per-burst sum of per-impact drag (impact speed, sphere
    cross-section) averaged over bursts. kinetic_energy: mean per-particle
    energy at domain exit or at max_steps, read once after the last step from
    the final velocities: a particle stops at its exit, so its velocity is
    the one it left with.
    collision_count: total impacts over all bursts normalised by
    burst_count * base_cycle_count.
    Deterministic for a fixed config.seed: each burst draws from its own
    spawned substream, all bursts advance together in one ParticleBurst, and
    the sums are taken per burst, in time and particle order, then added in
    burst order. Every particle spawns at x = 0 moving at (v, 0, 0), so until
    the first can come near the grid they share one x, and each step only
    adds v * dt to it. That inlet lead-in runs as a scalar loop making the
    same float additions as a step while the shared x stays at least r short
    of the grid's front face: there every closest-point distance is at least
    r, so the contact query's strict `d2 < r * r` finds no contact and a step
    would only drift. After it one stepper call runs the remaining dt, so
    every output is the one that stepping every dt from t = 0 gives.
    SMALL_BATCH makes the one choice of stepper: a burst of at most that many
    rows takes `_step_each`, a larger one `_step_batch`; both give the same
    outputs. A metric that overflows float64 raises ConfigError.
    """
    config.validate()
    check_fits(grid, config)
    placed = PlacedGrid(grid, config)
    b, n = config.burst_count, config.particle_count
    seeds = np.random.SeedSequence(config.seed).spawn(b)
    burst = spawn_burst(config, [np.random.default_rng(s) for s in seeds])
    heatmap = np.zeros((grid.width, grid.length), dtype=np.int64)
    x, d, t = 0.0, mph_to_mps(config.air_speed) * config.dt, 0
    ox, r = float(placed.origin[0]), config.particle_radius
    while t < config.max_steps and (x + d) - ox <= -r:
        x += d
        t += 1
    burst.position[:, 0] = x
    stepper = _step_each if len(burst) <= SMALL_BATCH else _step_batch
    rows, speeds = stepper(burst, placed, heatmap, config.max_steps - t)
    owner = rows // max(n, 1)   # a burst of 0 particles makes no contacts
    with np.errstate(over="ignore", invalid="ignore"):   # tunnel_result rejects an overflow
        ke = kinetic_energy(config.particle_mass, burst.velocity)
        drag = drag_force(config.fluid_density, speeds, config.drag_coefficient,
                          math.pi * config.particle_radius ** 2)
        # each burst's impacts in time order and its particles pairwise, then
        # the bursts' sums added left to right
        per_burst = (np.bincount(owner, weights=drag, minlength=b), ke.reshape(b, n).sum(axis=1))
        drag_total, ke_total = np.cumsum(per_burst, axis=1)[:, -1].tolist()
    return tunnel_result(
        drag_force=drag_total / b,
        kinetic_energy=ke_total / (n * b) if n else 0.0,
        collision_count=collision_count_metric(heatmap.sum(), b, config.base_cycle_count),
        heightmap_sum=float(heightmap_sum(grid)),
        heatmap=heatmap,
    )


# --- exports -------------------------------------------------------------------


def simresult_to_csv(result: SimResult) -> str:
    row = ",".join(repr(float(getattr(result, name))) for name in METRIC_NAMES)
    return SIMRESULT_CSV_HEADER + "\n" + row + "\n"


def simresult_from_csv(text: str) -> dict:
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if len(lines) != 2 or lines[0] != SIMRESULT_CSV_HEADER:
        raise ValueError(f"simresult csv: expected header '{SIMRESULT_CSV_HEADER}' and one row")
    cells = lines[1].split(",")
    if len(cells) != len(METRIC_NAMES):
        raise ValueError(f"simresult csv: expected {len(METRIC_NAMES)} values")
    return {name: _checked_metric(name, float(cell)) for name, cell in zip(METRIC_NAMES, cells)}


def heatmap_to_csv(tallies: np.ndarray) -> str:
    t = np.asarray(tallies)
    if np.issubdtype(t.dtype, np.integer):
        rows = (",".join(str(int(v)) for v in row) for row in t)
    else:
        rows = (",".join(repr(float(v)) for v in row) for row in t)
    return "\n".join(rows) + "\n"


def minmax_pixels(t: np.ndarray, lo: float, hi: float) -> np.ndarray:
    """Tallies scaled from [lo, hi] to 8-bit grey levels; all black when hi == lo."""
    if hi > lo:
        return round_half_away((t - lo) / (hi - lo) * 255.0)
    return np.zeros(t.shape, dtype=np.int64)


def heatmap_to_pgm(tallies: np.ndarray) -> bytes:
    """Min-max normalise tallies to 8-bit pixels (uniform maps render black)."""
    t = np.asarray(tallies, dtype=np.float64)
    return write_pgm(minmax_pixels(t, float(t.min()), float(t.max())))
