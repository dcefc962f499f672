"""Particle-burst wind tunnel over a solid-column voxel grid.

Bursts of spherical particles enter at the x = 0 plane and fly in +x. The
grid sits centered in the domain's x/y footprint with its base on z = 0.
Collisions reflect particles off voxel faces; four aggregate metrics come
out: total impact drag, mean exit kinetic energy, a normalised collision
count, and the grid's height sum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

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
    dt: float = setting(1.0 / 120.0, gt=0.0)                 # seconds
    max_steps: int = setting(240, ge=1)                      # integration steps per burst
    fluid_density: float = setting(1.225, gt=0.0)            # kg/m^3
    particle_mass: float = setting(0.01, gt=0.0)             # kg
    particle_radius: float = setting(0.05, gt=0.0)           # m
    drag_coefficient: float = setting(0.47, gt=0.0)          # sphere
    restitution: float = setting(0.5, ge=0.0, le=1.0)        # 0 = plastic, 1 = elastic
    domain_size: tuple = setting((6.0, 4.0, 4.0), gt=0.0)   # meters (x, y, z)
    seed: int = setting(0, ge=0)

    def validate(self, prefix: str = "tunnel") -> None:
        check_fields(self, prefix)


class ParticleBurst:
    """Struct-of-arrays state of every particle in one simulation.

    Burst k owns the block of rows k * n .. (k + 1) * n, where n is the
    per-burst particle count, so all bursts advance together.
    """

    def __init__(self, position: np.ndarray, velocity: np.ndarray):
        self.position = np.asarray(position, dtype=np.float64)
        self.velocity = np.asarray(velocity, dtype=np.float64)
        self.alive = np.ones(len(self.position), dtype=bool)

    def __len__(self) -> int:
        return len(self.position)


@dataclass
class Contacts:
    """Sphere-voxel contacts, one row per contact, in increasing sphere row."""

    particle: np.ndarray       # row of the sphere in the queried batch or burst
    voxel: np.ndarray          # (M, 3) winning voxel (ix, iy, iz)
    axis: np.ndarray           # axis of minimal penetration
    sign: np.ndarray           # +1.0 or -1.0, pointing toward the sphere center
    penetration: np.ndarray    # overlap along `axis`
    impact_speed: np.ndarray | None = None  # speed before the bounce; set by step

    def __len__(self) -> int:
        return len(self.particle)

    @classmethod
    def none(cls) -> "Contacts":
        return cls(np.zeros(0, dtype=np.intp), np.zeros((0, 3), dtype=np.int64),
                   np.zeros(0, dtype=np.intp), np.zeros(0), np.zeros(0), np.zeros(0))

    def take(self, rows: np.ndarray) -> "Contacts":
        return Contacts(self.particle[rows], self.voxel[rows], self.axis[rows],
                        self.sign[rows], self.penetration[rows])


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
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")

    def metrics(self) -> dict:
        return {name: float(getattr(self, name)) for name in METRIC_NAMES}


# --- formulas ----------------------------------------------------------------


def mph_to_mps(speed: float):
    """Miles per hour to meters per second (exact factor 0.44704)."""
    return speed * MPH_TO_MPS


def drag_force(rho: float, v: float, c_d: float, area: float):
    """Aerodynamic drag: 0.5 * rho * v^2 * C_d * A."""
    return 0.5 * rho * v * v * c_d * area


def kinetic_energy(mass: float, speed: float):
    """Kinetic energy: 0.5 * m * v^2."""
    return 0.5 * mass * speed * speed


def collision_count_metric(per_particle_counts, b: float, b_c: float) -> float:
    """Total particle-voxel impacts normalised by burst count and base cycles."""
    if b < 1 or b_c < 1:
        raise ValueError("burst count and base cycle count must be at least 1")
    return float(np.sum(np.asarray(per_particle_counts, dtype=np.float64))) / (b * b_c)


# --- geometry ----------------------------------------------------------------


def grid_origin(grid: VoxelGrid, config: TunnelConfig) -> np.ndarray:
    """World position of the grid's (0, 0, 0) corner: centered in x/y, base on z=0."""
    dx, dy, _ = config.domain_size
    ox = 0.5 * (dx - grid.width * grid.voxel_size)
    oy = 0.5 * (dy - grid.length * grid.voxel_size)
    return np.array([ox, oy, 0.0])


def neighborhood_reach(grid: VoxelGrid, radius: float) -> np.ndarray:
    """Per-column max height over the window a sphere of `radius` can touch."""
    k = max(1, int(math.ceil(radius / grid.voxel_size)))
    h = grid.column_heights
    w, l = h.shape
    padded = np.zeros((w + 2 * k, l + 2 * k), dtype=np.int64)
    padded[k:k + w, k:k + l] = h
    out = np.zeros((w, l), dtype=np.int64)
    for sx in range(2 * k + 1):
        for sy in range(2 * k + 1):
            np.maximum(out, padded[sx:sx + w, sy:sy + l], out=out)
    return out


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


# Batches of up to this many spheres take the scalar contact query: below it
# the per-call cost of the batched numpy query outweighs its per-sphere saving.
SMALL_BATCH = 4

# Most candidate voxels one batched query evaluates at once; larger batches
# go in chunks, which bounds its temporaries when a sphere spans many voxels.
MAX_CANDIDATES = 1 << 16


def _best_overlap(cx: float, cy: float, cz: float, radius: float, heights: np.ndarray,
                  vs: float):
    """Scalar core of the contact query: the minimal (closest-point distance
    squared, x, y, z) tuple over the candidate voxels, or None.

    Only voxels whose axis slabs overlap the sphere are scanned; the
    lexicographic key breaks distance ties toward the lowest index.
    """
    x_lo = max(int(math.floor((cx - radius) / vs)), 0)
    x_hi = min(int(math.floor((cx + radius) / vs)), heights.shape[0] - 1)
    y_lo = max(int(math.floor((cy - radius) / vs)), 0)
    y_hi = min(int(math.floor((cy + radius) / vs)), heights.shape[1] - 1)
    if x_lo > x_hi or y_lo > y_hi:
        return None
    z_lo = max(int(math.floor((cz - radius) / vs)), 0)
    z_hi_raw = int(math.floor((cz + radius) / vs))
    best = None
    for ix in range(x_lo, x_hi + 1):
        bx0 = ix * vs
        qx = min(max(cx, bx0), bx0 + vs)
        ddx = (cx - qx) ** 2
        for iy in range(y_lo, y_hi + 1):
            h = int(heights[ix, iy])
            if h == 0:
                continue
            by0 = iy * vs
            qy = min(max(cy, by0), by0 + vs)
            ddy = ddx + (cy - qy) ** 2
            for iz in range(z_lo, min(z_hi_raw, h - 1) + 1):
                bz0 = iz * vs
                qz = min(max(cz, bz0), bz0 + vs)
                d2 = ddy + (cz - qz) ** 2
                key = (d2, ix, iy, iz)
                if best is None or key < best:
                    best = key
    if best is None or best[0] >= radius * radius:
        return None
    return best


def _face_normal(cx: float, cy: float, cz: float, ix: int, iy: int, iz: int,
                 radius: float, vs: float):
    """Axis of minimal penetration for a sphere against voxel (ix, iy, iz).

    Returns (axis, sign, penetration); axis ties break to the lowest index,
    the sign points toward the sphere center.
    """
    dx = cx - (ix + 0.5) * vs
    dy = cy - (iy + 0.5) * vs
    dz = cz - (iz + 0.5) * vs
    half = radius + 0.5 * vs
    pens = (half - abs(dx), half - abs(dy), half - abs(dz))
    axis = min(range(3), key=lambda k: pens[k])
    sign = 1.0 if (dx, dy, dz)[axis] >= 0 else -1.0
    return axis, sign, pens[axis]


def _query_each(centers, radius, heights, vs) -> Contacts:
    """The contact query one sphere at a time, through the scalar core."""
    rows, voxels, axes, signs, pens = [], [], [], [], []
    for j in range(len(centers)):
        cx, cy, cz = (float(v) for v in centers[j])
        best = _best_overlap(cx, cy, cz, radius, heights, vs)
        if best is None:
            continue
        _, ix, iy, iz = best
        axis, sign, pen = _face_normal(cx, cy, cz, ix, iy, iz, radius, vs)
        rows.append(j)
        voxels.append((ix, iy, iz))
        axes.append(axis)
        signs.append(sign)
        pens.append(pen)
    return Contacts(np.array(rows, dtype=np.intp),
                    np.array(voxels, dtype=np.int64).reshape(-1, 3),
                    np.array(axes, dtype=np.intp), np.array(signs, dtype=np.float64),
                    np.array(pens, dtype=np.float64))


def _query_batch(centers, radius, heights, vs) -> Contacts:
    """The contact query for every sphere in one numpy evaluation.

    Each sphere's candidate voxels span the same (x, y, z) windows the scalar
    core scans, laid out in (ix, iy, iz) order; per axis there are at most
    ceil(2 * radius / vs) + 2 of them. Distances use the scalar core's float
    expressions, and a first-occurrence argmin over the candidates repeats
    its (d2, ix, iy, iz) tie-break, so both agree bit for bit.
    """
    m = len(centers)
    w, l = heights.shape
    lo = np.maximum(np.floor((centers - radius) / vs).astype(np.int64), 0)
    hi = np.floor((centers + radius) / vs).astype(np.int64)
    np.minimum(hi[:, :2], (w - 1, l - 1), out=hi[:, :2])
    k = max(int((hi - lo).max()) + 1, 0)   # one window length for all three axes
    if k == 0:
        return Contacts.none()
    idx = lo[:, None, :] + np.arange(k)[:, None]            # (m, k, axis)
    b0 = idx * vs
    c = centers[:, None, :]
    dd = (c - np.minimum(np.maximum(c, b0), b0 + vs)) ** 2
    ok = idx <= hi[:, None, :]
    ix, iy, iz = idx[:, :, 0], idx[:, :, 1], idx[:, :, 2]
    col = (np.minimum(ix, w - 1)[:, :, None], np.minimum(iy, l - 1)[:, None, :])
    # Voxel iz of a candidate column is a candidate while iz < min(h, z_hi + 1).
    top = np.minimum(heights[col], hi[:, 2, None, None] + 1)
    top *= ok[:, :, 0, None] & ok[:, None, :, 1]
    d2 = (dd[:, :, None, 0] + dd[:, None, :, 1])[..., None] + dd[:, None, None, :, 2]
    d2[iz[:, None, None, :] >= top[..., None]] = np.inf
    d2 = d2.reshape(m, -1)
    best = d2.argmin(axis=1)
    rows = np.flatnonzero(d2[np.arange(m), best] < radius * radius)
    voxel = lo[rows] + np.stack(np.unravel_index(best[rows], (k, k, k)), axis=1)
    d = centers[rows] - (voxel + 0.5) * vs
    pens = (radius + 0.5 * vs) - np.abs(d)
    axis = pens.argmin(axis=1)
    j = np.arange(len(rows))
    sign = np.where(d[j, axis] >= 0, 1.0, -1.0)
    return Contacts(rows, voxel, axis, sign, pens[j, axis])


def contact_query(centers, radius: float, heights: np.ndarray, vs: float) -> Contacts:
    """Deepest-penetration contact of each sphere against the occupied voxels.

    `centers` is (M, 3) in grid-local coordinates (grid corner at the
    origin); every sphere has the one `radius` and meets the one (W, L) grid
    of column heights `heights`. Candidates are ranked by (closest-point
    distance squared, x, y, z), the closest point being the sphere-AABB query
    of Ericson, Real-Time Collision Detection (2004), 5.2, so ties break to
    the lowest index. The face normal is the axis of minimal penetration for
    the winning voxel, signed toward the sphere center. Spheres that overlap
    nothing within their radius get no row.
    """
    centers = np.asarray(centers, dtype=np.float64).reshape(-1, 3)
    heights = np.asarray(heights)
    m = len(centers)
    if m <= SMALL_BATCH:
        return _query_each(centers, radius, heights, vs)
    window = math.ceil(2.0 * radius / vs) + 2
    size = max(1, MAX_CANDIDATES // window ** 3)
    if m <= size:
        return _query_batch(centers, radius, heights, vs)
    parts = []
    for start in range(0, m, size):
        part = _query_batch(centers[start:start + size], radius, heights, vs)
        part.particle += start
        parts.append(part)
    return Contacts(*(np.concatenate([getattr(p, name) for p in parts])
                      for name in ("particle", "voxel", "axis", "sign", "penetration")))


class PlacedGrid:
    """A grid placed in the tunnel: the constants `step` tests against,
    computed once per simulation."""

    def __init__(self, grid: VoxelGrid, config: TunnelConfig):
        vs = grid.voxel_size
        r = config.particle_radius
        self.config = config
        self.heights = grid.column_heights
        self.voxel_size = vs
        self.origin = grid_origin(grid, config)
        # A sphere whose center lies below this height over its column can
        # touch a voxel; outside the footprint grown by r it touches none.
        self.reach_top = neighborhood_reach(grid, r) * vs + r
        self.near_hi = np.array([grid.width * vs + r, grid.length * vs + r])
        self.col_max = np.array([grid.width - 1, grid.length - 1])
        self.domain = np.array(config.domain_size)


def _bounce(burst: ParticleBurst, centers: np.ndarray, rows: np.ndarray,
            placed: PlacedGrid, heatmap: np.ndarray) -> Contacts:
    """Reflect and pop out the spheres at `centers` (burst rows `rows`) that
    touch a voxel while moving into it; tally them into `heatmap`."""
    config = placed.config
    contacts = contact_query(centers, config.particle_radius, placed.heights,
                             placed.voxel_size)
    if not len(contacts):
        return Contacts.none()
    i = rows[contacts.particle]
    axis, sign = contacts.axis, contacts.sign
    v = burst.velocity[i]
    vn = sign * v[np.arange(len(i)), axis]
    hit = np.flatnonzero(vn < 0.0)  # separating contacts get no impulse and no row
    if hit.size == 0:
        return Contacts.none()
    if hit.size < len(i):
        contacts = contacts.take(hit)
        i, axis, sign, v, vn = i[hit], axis[hit], sign[hit], v[hit], vn[hit]
    burst.velocity[i, axis] -= (1.0 + config.restitution) * vn * sign
    burst.position[i, axis] += sign * contacts.penetration  # pop out of the face
    np.add.at(heatmap, (contacts.voxel[:, 0], contacts.voxel[:, 1]), 1)
    contacts.particle = i
    contacts.impact_speed = np.sqrt(v[:, 0] * v[:, 0] + v[:, 1] * v[:, 1] + v[:, 2] * v[:, 2])
    return contacts


def step(burst: ParticleBurst, placed: PlacedGrid, heatmap: np.ndarray) -> Contacts:
    """Advance one dt: integrate, resolve voxel contacts, retire exited particles.

    Semi-implicit Euler with no body forces, so the update is a pure drift
    until a contact reflects the velocity about the face normal scaled by the
    restitution. The near particles take one `contact_query` with the one
    particle radius and the one grid of heights. One contact at most per
    particle per step; contacts come back in particle-row order and tally
    into `heatmap`. Particles leaving the domain are marked dead. Dead
    particles drift on but are never near, so they never collide again and
    their velocity, from which `run_simulation` reads the exit energy, stays
    as it was when they left. Mutates `burst` and `heatmap`.
    `run_simulation` leaves out the inlet lead-in, the steps before any
    particle can come near the grid, in which a step would only add the
    shared x drift to every position.
    """
    config = placed.config
    r = config.particle_radius
    vs = placed.voxel_size
    pos, vel, alive = burst.position, burst.velocity, burst.alive
    pos += vel * config.dt
    loc = pos - placed.origin
    col = np.minimum(np.maximum((loc[:, :2] // vs).astype(np.intp), 0), placed.col_max)
    near = (alive & (loc > -r).all(axis=1) & (loc[:, :2] < placed.near_hi).all(axis=1)
            & (loc[:, 2] < placed.reach_top[col[:, 0], col[:, 1]])).nonzero()[0]
    if near.size == 0:
        contacts = Contacts.none()
    else:
        contacts = _bounce(burst, loc[near], near, placed, heatmap)
    alive &= ~((pos < 0.0) | (pos > placed.domain)).any(axis=1)
    return contacts


def _running_sum(values: np.ndarray) -> float:
    """Left-to-right float sum, the order a Python `+=` loop adds in."""
    return float(np.cumsum(values)[-1]) if len(values) else 0.0


def run_simulation(grid: VoxelGrid, config: TunnelConfig) -> SimResult:
    """Run burst_count bursts against the grid and aggregate the metrics.

    drag_force: per-burst sum of per-impact drag (impact speed, sphere
    cross-section) averaged over bursts. kinetic_energy: mean per-particle
    energy at domain exit or at max_steps, read once after the last step from
    the final velocities, which stay frozen from a particle's exit on.
    collision_count: total impacts over all bursts normalised by
    burst_count * base_cycle_count.
    Deterministic for a fixed config.seed: each burst draws from its own
    spawned substream, all bursts advance together in one ParticleBurst, and
    the sums are taken per burst, in time and particle order, then added in
    burst order. Every particle spawns at x = 0 moving at (v, 0, 0), so until
    the first can come near the grid they share one x, and each step only
    adds v * dt to it. That inlet lead-in runs as a scalar loop making the
    same float additions and the same `loc > -r` test as `step`; after it,
    `step` runs on every dt, so every output is the one that calling `step`
    on every dt gives.
    """
    config.validate()
    vs = grid.voxel_size
    dx, dy, dz = config.domain_size
    if (grid.width * vs > dx + 1e-9 or grid.length * vs > dy + 1e-9
            or grid.h_max * vs > dz + 1e-9):
        raise ValueError(
            f"grid extent ({grid.width * vs}, {grid.length * vs}, {grid.h_max * vs}) "
            f"does not fit inside domain {config.domain_size}"
        )
    placed = PlacedGrid(grid, config)
    b, n = config.burst_count, config.particle_count
    seeds = np.random.SeedSequence(config.seed).spawn(b)
    burst = spawn_burst(config, [np.random.default_rng(s) for s in seeds])
    heatmap = np.zeros((grid.width, grid.length), dtype=np.int64)
    hit_rows, hit_speeds = [], []
    x, d, t = 0.0, mph_to_mps(config.air_speed) * config.dt, 0
    ox, r = float(placed.origin[0]), config.particle_radius
    while t < config.max_steps and (x + d) - ox <= -r:
        x += d
        t += 1
    burst.position[:, 0] = x
    while t < config.max_steps and burst.alive.any():
        contacts = step(burst, placed, heatmap)
        t += 1
        if len(contacts):
            hit_rows.append(contacts.particle)
            hit_speeds.append(contacts.impact_speed)
    vel = burst.velocity
    ke = 0.5 * config.particle_mass * np.einsum("ij,ij->i", vel, vel)
    area = math.pi * config.particle_radius ** 2
    owner = np.concatenate(hit_rows) // n if hit_rows else np.zeros(0, dtype=np.intp)
    drag = drag_force(config.fluid_density, np.concatenate(hit_speeds or [np.zeros(0)]),
                      config.drag_coefficient, area)
    drag_total = 0.0
    ke_total = 0.0
    for k in range(b):
        drag_total += _running_sum(drag[owner == k])
        ke_total += float(ke[k * n:(k + 1) * n].sum())
    total_particles = n * b
    mean_ke = ke_total / total_particles if total_particles else 0.0
    count = collision_count_metric([heatmap.sum()], b, config.base_cycle_count)
    return SimResult(
        drag_force=drag_total / b,
        kinetic_energy=mean_ke,
        collision_count=count,
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
    return {name: float(cell) for name, cell in zip(METRIC_NAMES, cells)}


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
    return write_pgm(minmax_pixels(t, float(t.min()), float(t.max())), maxval=255, binary=True)
