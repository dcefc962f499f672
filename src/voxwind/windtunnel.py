"""Particle-burst wind tunnel over a solid-column voxel grid.

Bursts of spherical particles enter at the x = 0 plane and fly in +x. The
grid sits centered in the domain's x/y footprint with its base on z = 0.
Collisions reflect particles off voxel faces; four aggregate metrics come
out: total impact drag, mean exit kinetic energy, a normalised collision
count, and the grid's height sum.

Every particle moves along x for the whole run. It enters at (v, 0, 0), and
a bounce changes only the velocity component along the face normal, and
only while the particle moves into the face, so only x faces ever bounce
it. Its y and z therefore stay as spawned. `ParticleBurst` stores that
layout: each row's x and x velocity, which the stepper moves, and its fixed
y and z. The contact query's y and z windows around a row are fixed with
them, so the stepper's near test is the query's own window
(`PlacedGrid.lanes`), and the stepper retires a row once its drift can
never take it into that window again (`_clear_ahead`): from then on it
keeps its velocity, which is all the metrics read of it.
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
    """Struct-of-arrays state of every particle in one simulation: one
    float64 entry per row in each of `x` and `vx`, which the stepper moves,
    and `y` and `z`, which nothing moves (see the module docstring); `alive`
    is False once the stepper has retired the row: it can never touch the
    grid again, and its x stays where it was retired.

    Burst k owns the block of rows k * n .. (k + 1) * n, where n is the
    per-burst particle count, so all bursts advance together.
    """

    def __init__(self, x, vx, y, z):
        self.x, self.vx, self.y, self.z = (np.asarray(a, dtype=np.float64) for a in (x, vx, y, z))
        self.alive = np.ones(len(self.x), dtype=bool)

    def __len__(self) -> int:
        return len(self.x)


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
    """Kinetic energy 0.5 * m * |v|^2 of each row of an (N, d) velocity array."""
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


def spawn_burst(config: TunnelConfig, rngs) -> ParticleBurst:
    """particle_count particles per generator in `rngs`, one block of rows
    each, on the x = 0 inlet plane, all moving at the configured air speed in
    +x. Each row's y and z are a uniform u in [0, 1) times dy and dz, so
    they lie in [0, dy] and [0, dz]: fl(u * d) <= d."""
    _, dy, dz = config.domain_size
    jitter = np.concatenate([rng.uniform(0.0, 1.0, size=(config.particle_count, 2))
                             for rng in rngs])
    rows = len(jitter)
    return ParticleBurst(np.zeros(rows), np.full(rows, mph_to_mps(config.air_speed)),
                         jitter[:, 0] * dy, jitter[:, 1] * dz)


# A row steps in Python floats (`_step_rows`) once at most this many rows
# are live in `_step_batch`: a burst of at most this many rows from its
# first dt, a larger one after its numpy rounds. There a near dt costs a
# scalar query (about 3.5 us), against one numpy round (60-140 us) per one
# to twelve dt, so Python floats pay for a few rows only: the break-even is
# that ratio of machine costs, which the input does not show. Medians of 21
# samples (`kernel_bench.py`, ms), with 4 / 8 / 12 / 16: `agent_designs_ms`
# 22.7 / 22.5 / 23.7 / 23.0, `agent_60mph_ms` 4.62 / 4.61 / 4.57 / 9.03, and
# `hcyl16_60mph_ms` 5.4-5.6 each, but 22.7 with 32, where about 30 rows
# crawl inside the solid with a query on every dt. Bursts of 9 to 32 rows,
# which no workload runs, are slower in rounds than wholly in Python floats
# (README).
TAIL_ROWS = 8

# Most dt one row looks ahead in one round of `_step_batch`; chosen over 8
# on desk designs, where it ran desk_train about 3% faster. 24 ran it about
# 6% faster still, but its (dt, row) blocks took the peak memory of a
# 100,000 x 2-row desk simulation from 274 to 483 MB (README).
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
    """Read-only (3, k**3) table of the (ix, iy, iz) offsets in a k-voxel
    window, in the flat (ix, iy, iz) order of `_query_batch`'s candidates."""
    offsets = np.indices((k, k, k)).reshape(3, -1)
    offsets.flags.writeable = False
    return offsets


def _query_batch(centers, radius, padded, vs):
    """The contact query for every sphere in one numpy evaluation: the
    (rows, voxel, axis, sign, penetration) arrays, one entry per sphere that
    touches a voxel, in increasing row, or None when no sphere does. An
    entry holds the sphere's column in `centers`, its winning voxel
    (ix, iy, iz) as a row of the (hits, 3) `voxel`, the axis of minimal
    penetration, +1.0 or -1.0 toward the sphere center, and the overlap
    along that axis.

    `centers` is (3, m), one column per sphere, and every array keeps the
    sphere axis last: the windows are (k, axis, m), the column tops
    (k, k, m) and the distances (k, k, k, m), so each numpy loop runs over
    the m spheres, not over an axis of 2 to 3 entries. `padded` holds the
    column heights from the grid's (0, 0) corner on, with at least one zero
    column past its last x and its last y column, so one clamp into its
    bounds reads every candidate column, and any column off the grid reads
    as empty. Each sphere's candidate voxels span the same (x, y, z) windows
    the scalar core scans, flattened in (ix, iy, iz) order; per axis there
    are at most ceil(2 * radius / vs) + 2 of them. A voxel past the end of a
    sphere's own window gets an infinite distance on that axis: the window
    cannot simply go, as fl(idx * vs) can land within c + r while
    floor((c + r) / vs) < idx. Distances use the scalar core's float
    expressions element by element, and a first-occurrence argmin over the
    flat candidates repeats its (d2, ix, iy, iz) tie-break, so both agree
    bit for bit, whatever the layout.
    """
    m = centers.shape[1]
    lo = np.maximum(np.floor((centers - radius) / vs).astype(np.int64), 0)
    hi = np.floor((centers + radius) / vs).astype(np.int64)
    k = int((hi - lo).max()) + 1   # one window length for all three axes
    if k <= 0:
        return None
    idx = lo + np.arange(k)[:, None, None]                  # (k, axis, m)
    b0 = idx * vs
    dd = (centers - np.minimum(np.maximum(centers, b0), b0 + vs)) ** 2
    np.putmask(dd, idx > hi, np.inf)
    w, l = padded.shape
    top = padded[np.minimum(idx[:, None, 0], w - 1), np.minimum(idx[None, :, 1], l - 1)]
    d2 = (dd[:, None, 0] + dd[None, :, 1])[:, :, None] + dd[None, None, :, 2]   # (k, k, k, m)
    np.putmask(d2, idx[None, None, :, 2] >= top[:, :, None], np.inf)
    d2 = d2.reshape(-1, m)
    best = d2.argmin(axis=0)
    rows = (d2[best, np.arange(m)] < radius * radius).nonzero()[0]
    if rows.size == 0:
        return None
    voxel = lo[:, rows] + _window_offsets(k)[:, best[rows]]   # (axis, hits)
    d = centers[:, rows] - (voxel + 0.5) * vs
    pens = (radius + 0.5 * vs) - np.abs(d)
    axis = pens.argmin(axis=0)
    n = np.arange(len(rows))
    return rows, voxel.T, axis, np.where(d[axis, n] >= 0, 1.0, -1.0), pens[axis, n]


def _query(centers, radius, padded, vs):
    """Deepest-penetration contact of each sphere against the occupied
    voxels: `_query_batch` in chunks of at most MAX_CANDIDATES candidate voxels.

    `centers` is (3, M), one column per sphere, in grid-local coordinates
    (grid corner at the origin); every sphere has the one `radius` and meets
    the one grid of column heights `padded`, laid out as `_query_batch`
    reads it. Candidates are ranked by (closest-point distance squared, x,
    y, z), the closest point being the sphere-AABB query of Ericson,
    Real-Time Collision Detection (2004), 5.2, so ties break to the lowest
    index. The face normal is the axis of minimal penetration for the
    winning voxel, signed toward the sphere center. Spheres that overlap
    nothing within their radius get no row.
    """
    m = centers.shape[1]
    window = math.ceil(2.0 * radius / vs) + 2
    size = max(1, MAX_CANDIDATES // window ** 3)
    if m <= size:
        return _query_batch(centers, radius, padded, vs)
    parts = []
    for start in range(0, m, size):
        part = _query_batch(centers[:, start:start + size], radius, padded, vs)
        if part is not None:
            parts.append((part[0] + start, *part[1:]))
    return tuple(np.concatenate(a) for a in zip(*parts)) if parts else None


class PlacedGrid:
    """A grid placed in the tunnel: the constants the stepper's numpy
    rounds and Python floats test against, computed once per simulation,
    and the near test's lanes of a burst (`lanes`), built once per stepper
    call.

    `padded` is the column heights from the grid's (0, 0) corner with one
    zero column past its last x and y column, as `_query_batch` reads them;
    `heights` is the same table as nested lists, as `_best_overlap` reads it.
    """

    def __init__(self, grid: VoxelGrid, config: TunnelConfig):
        self.config = config
        self.voxel_size = grid.voxel_size
        self.origin = grid_origin(grid, config)
        w, l = grid.column_heights.shape
        self.padded = np.zeros((w + 1, l + 1), dtype=np.int64)
        self.padded[:w, :l] = grid.column_heights
        self.heights = self.padded.tolist()

    def lanes(self, burst: ParticleBurst) -> np.ndarray:
        """The near test's table: per burst row, its lane, the x columns that
        hold a voxel of the row's y and z windows, as (W + 1) entries: entry
        c is the first lane column at or after c, or inf past the last one.

        A row never leaves its spawned y and z, so these are the contact
        query's own windows, from its float expressions, max(floor((c - r) /
        vs), 0) to floor((c + r) / vs), with y clipped onto the zero column
        as the query clips it. The query at grid-local x scans a voxel
        exactly when lane[min(max(floor((x - r) / vs), 0), W)] <= (x + r) /
        vs, as an integer is at most floor(q) exactly when it is at most q.
        """
        r, vs = self.config.particle_radius, self.voxel_size
        w, l = self.padded.shape
        c = np.array((burst.y, burst.z))
        c -= self.origin[1:, None]
        lo = np.floor((c - r) / vs)
        np.maximum(lo, 0.0, out=lo)
        hi = np.floor((c + r) / vs)
        z_lo = lo[1]
        z_lo[(lo > hi).any(axis=0)] = np.inf   # an empty y or z window holds no voxel
        # y indices clipped in floats, so a window past the int range casts;
        # past the end of its own window a row reads its last column again
        first = np.minimum(lo[0], l - 1).astype(np.intp)
        last = np.minimum(np.maximum(hi[0], 0.0), l - 1).astype(np.intp)
        top = self.padded[:, first]   # per column and row, the y window's tallest
        for s in range(1, int((last - first).max(initial=0)) + 1):
            np.maximum(top, self.padded[:, np.minimum(first + s, last)], out=top)
        lane = np.where(top.T > z_lo[:, None], np.arange(w, dtype=np.float64), np.inf)
        np.minimum.accumulate(lane[:, ::-1], axis=1, out=lane[:, ::-1])
        return lane


def _clear_ahead(v, hi, reach, first):
    """Per row, whether a row whose drift takes it on from its x at velocity
    `v` can never pass the near test (`PlacedGrid.lanes`) again, from that
    test's operands at its x: hi = (x - ox + r) / vs, `reach`, its lane's
    entry at the start of its x window, and `first`, its lane's first column
    (entry 0). Such a row can never touch the grid again, so the stepper
    retires it.

    The drift makes x monotone: fl(x + vx * dt) is at most x for a vx below
    0 and at least x for one above, and hi and the window's start cell are
    monotone in x. A lane is nondecreasing along its columns. So a row moving
    in -x whose hi is below `first` keeps an hi below every entry of its
    lane, and a row moving in +x with no lane column at or after its cell
    (`reach` is inf) only meets entries of inf; neither passes the test
    again. A row with an empty lane, every entry inf, is clear either way.
    """
    return np.where(v < 0.0, hi < first, reach == np.inf)


def _step_batch(burst: ParticleBurst, placed: PlacedGrid, heatmap: np.ndarray, steps: int):
    """Advance the burst's live rows up to `steps` dt, retiring each once it
    can never touch the grid again. Returns the contacts' burst rows (intp)
    and impact speeds (float64), in step order and then row order.

    Each dt: integrate, then resolve voxel contacts. Semi-implicit Euler with
    no body forces, so the update is a pure drift until a contact reflects
    the velocity about the face normal scaled by the restitution. A live row
    is near when the contact query would scan at least one voxel for it: its
    lane (`PlacedGrid.lanes`) holds a column of its x window. One contact at
    most per row per dt; contacts tally into `heatmap`. Every row moves along
    x (see the module docstring), so only its x and x velocity change, and
    its lane is built once. Mutates `burst` and `heatmap`.

    A row stops on one rule: once it is clear ahead (`_clear_ahead`) it can
    never be near again, so it would only drift, with no contact and no
    change of velocity, and it is retired: `alive` turns False and its x
    stays where it was. Its outputs, its contacts and the velocity that
    `run_simulation` reads its energy from, are those of stepping it to
    `steps`; its x is not. A row past the domain's x faces needs no test of
    its own: moving outward it can never move into an x face, so it never
    bounces, and it drifts until it is clear.

    Rows do not interact, so any split of them between two engines gives the
    same outputs. While more than TAIL_ROWS rows are live, the dt go in numpy
    rounds over look-ahead windows. In a round each live row drifts through
    its own window by the same `+= velocity * dt` additions a step makes; the
    near test runs once over the (dt, row) block of x, and its near pairs
    take one contact query (`_query`), whose answer for a sphere does not
    depend on its batch. Each row then moves to its first contact moving into
    a face, bounced, popped out and tallied as in a step, or else to its
    window's last dt, where every row that did not bounce is tested for
    clear. A first window is LOOKAHEAD // 2 dt, a later one twice the dt the
    row last advanced, at most LOOKAHEAD. A row at rest, whose drift leaves
    its x unchanged (`fl(x + vx * dt) == x`, as a vx of 0.0 or -0.0 gives),
    sits at one x for the whole round, so its near test and query answer
    are those of the round's first dt on every later dt too. Unless it hits
    an x face, the round leaves it at a fixed point, and it stops there with
    the x and velocity that stepping to `steps` would leave.

    Once at most TAIL_ROWS rows are live, they step on in Python floats
    (`_step_rows`), each from the dt it has taken, so a burst of at most
    TAIL_ROWS rows takes no round at all.
    `run_simulation` leaves out the inlet lead-in, the dt before any particle
    can come near the grid, in which a step would only add the shared x drift
    to every position.
    """
    config = placed.config
    dt, vs, r = config.dt, placed.voxel_size, config.particle_radius
    x, vx, alive = burst.x, burst.vx, burst.alive
    ox, oy, oz = placed.origin.tolist()
    lanes = placed.lanes(burst)
    zero_column = lanes.shape[1] - 1
    live = alive.nonzero()[0] if steps > 0 else np.zeros(0, dtype=np.intp)
    # per live row: the dt it has taken, and its next window
    done, window = np.zeros(len(live), dtype=np.intp), LOOKAHEAD // 2
    found = []   # the rounds' contacts: (dt, row, speed) arrays
    while live.size > TAIL_ROWS:
        n = np.arange(len(live))
        w = np.minimum(window, steps - done)
        ahead = np.arange(int(w.max()))[:, None]
        x0, v = x[live], vx[live]
        drift = v * dt
        path = np.empty((len(ahead), len(live)))
        np.add(x0, drift, out=path[0])
        rest = path[0] == x0   # rows the drift cannot move: each dt repeats the first
        for j in range(1, len(ahead)):
            np.add(path[j - 1], drift, out=path[j])
        lx = path - ox
        q = lx - r
        q /= vs
        np.floor(q, out=q)
        # clamped in floats, so a cell past the int range casts
        cell = np.minimum(np.maximum(q, 0.0, out=q), zero_column, out=q).astype(np.intp)
        q = np.add(lx, r, out=q)
        q /= vs
        near = lanes[live, cell] <= q
        near &= ahead < w
        end = w - 1   # per row, its window's last dt, or its first bounce
        k, j = near.T.nonzero()   # near pairs in row order, then dt order
        contacts = None
        if k.size:
            rows = live[k]
            contacts = _query(np.array((lx[j, k], burst.y[rows] - oy, burst.z[rows] - oz)),
                              r, placed.padded, vs)
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
        # a row that did not bounce drifted to path[end], where q and cell
        # hold its near test's operands
        clear = _clear_ahead(v, q[end, n], lanes[live, cell[end, n]], lanes[live, 0])
        at = path[end, n]
        if contacts is not None and k.size:
            u = v[k]   # the impact speed is read before the bounce
            speed = np.sqrt(u * u)
            v[k] -= (1.0 + config.restitution) * vn * sign
            at[k] += sign * pen  # pop out of the face
            np.add.at(heatmap, (voxel[:, 0], voxel[:, 1]), 1)
            found.append((done[k] + j, live[k], speed))
            vx[live] = v
            rest[k] = clear[k] = False
        x[live] = at
        alive[live[clear]] = False
        done += end + 1
        window = np.minimum(2 * (end + 1), LOOKAHEAD)
        stop = clear | rest | (done == steps)
        if stop.any():
            live, done, window = live[~stop], done[~stop], window[~stop]
    hits = _step_rows(burst, placed, heatmap, steps, live, lanes, done)
    if not found:   # every contact, if any, came from Python floats
        hits.sort()
        return (np.array([row for _, row, _ in hits], dtype=np.intp),
                np.array([speed for *_, speed in hits], dtype=np.float64))
    if hits:
        found.append(tuple(np.array(a) for a in zip(*hits)))
    t, rows, speeds = (np.concatenate(a) for a in zip(*found))
    order = np.lexsort((rows, t))
    return rows[order], speeds[order]


def _step_rows(burst: ParticleBurst, placed: PlacedGrid, heatmap: np.ndarray, steps: int,
               rows: np.ndarray, lanes: np.ndarray, taken: np.ndarray):
    """Step the live burst rows `rows` (an index array) on their own in
    Python floats, each from the dt it has taken (`taken`, one per row) until
    it is retired or reaches `steps`, in place. `lanes` is the burst's lane
    table (`PlacedGrid.lanes`). Mutates `burst` and `heatmap`; returns the
    contacts as (dt, burst row, impact speed) tuples, unsorted.

    A row makes the float operations of `_step_batch`'s drift, near test and
    bounce, in their order, on its x alone. The contact comes from the
    scalar core (`_best_overlap`, `_face_normal`), which `_query_batch`
    matches bit for bit. Rows do not interact, so its contacts and velocity
    are those of the numpy rounds. The near test first checks x against the
    lane's x range, its first column and one past its last, which most steps
    fail at once. A step that fails one of them reads the row's direction,
    which is `_clear_ahead`'s test: a row is retired on the first dt it is
    clear, moving in -x with (x - ox + r) / vs below its lane's first
    column, or in +x with (x - ox - r) / vs at or past its lane's end. A row
    with an empty lane is retired before it steps. An x that passes both
    checks has (x + r) / vs >= 0 and (x - r) / vs below W, so it is finite,
    and `math.floor` never sees a NaN or an infinity.

    A row at rest, whose drift cannot move its x, steps one more dt, and
    unless that dt hits an x face the row stops after it, as in the rounds:
    every later dt would repeat it. Only the velocity decides whether the
    drift moves x, and only a bounce changes it, so a row is tested for rest
    on entry and after each bounce, and a moving row's dt pays nothing for
    the test.
    """
    config = placed.config
    dt, vs, r = config.dt, placed.voxel_size, config.particle_radius
    ox, oy, oz = placed.origin.tolist()
    heights = placed.heights
    x, vx = [], []   # each row's final x and velocity
    found, retired = [], []   # (dt, row, impact speed); the rows that are clear
    for row, t, lane, p, v, y, z in zip(
            rows.tolist(), taken.tolist(), lanes.take(rows, axis=0).tolist(),
            burst.x[rows].tolist(), burst.vx[rows].tolist(),
            burst.y[rows].tolist(), burst.z[rows].tolist()):
        ly, lz = y - oy, z - oz
        first, stop = lane[0], lane.index(math.inf)
        clear = not stop   # an empty lane: the row is never near
        # a row the drift cannot move repeats its next dt for ever, unless that dt hits
        until = t if clear else steps if p + v * dt != p else min(t + 1, steps)
        while t < until:
            p += v * dt
            t += 1
            lx = p - ox
            hi = (lx + r) / vs
            if first > hi:
                if v < 0.0:   # in -x short of the lane's first column
                    clear = True
                    break
            elif (lo := (lx - r) / vs) >= stop:
                if not v < 0.0:   # in +x past the lane's last column
                    clear = True
                    break
            elif lane[max(math.floor(lo), 0)] <= hi:
                best = _best_overlap(lx, ly, lz, r, heights, vs)
                if best is not None:
                    _, ix, iy, iz = best
                    axis, sign, pen = _face_normal(lx, ly, lz, ix, iy, iz, r, vs)
                    vn = sign * v
                    if axis == 0 and vn < 0.0:   # moving into an x face
                        found.append((t - 1, row, math.sqrt(v * v)))
                        v -= (1.0 + config.restitution) * vn * sign
                        p += sign * pen
                        heatmap[ix, iy] += 1
                        until = steps if p + v * dt != p else min(t + 1, steps)
        if clear:
            retired.append(row)
        x.append(p)
        vx.append(v)
    burst.x[rows], burst.vx[rows] = x, vx
    if retired:
        burst.alive[retired] = False
    return found


def check_fits(grid: VoxelGrid, config: TunnelConfig) -> None:
    """Raise ConfigError unless the grid fits inside the tunnel's domain and
    one sphere's contact window, (ceil(2r / vs) + 2)^3 voxels, stays within
    MAX_CANDIDATES."""
    vs, r = grid.voxel_size, config.particle_radius
    extent = (grid.width * vs, grid.length * vs, grid.h_max * vs)
    # an extent that fits can pass its side by rounding, as n * (d / n) can
    # pass d, so the slack is a share of the extent, whatever its scale
    if any(e * (1.0 - 1e-9) > d for e, d in zip(extent, config.domain_size)):
        raise ConfigError(f"tunnel.domain_size: grid extent {extent} does not fit inside "
                          f"domain {config.domain_size}")
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
    energy, read once after the last step from the final velocities: a row
    that can no longer touch the grid keeps its velocity from then on, so
    its energy is the one it leaves with.
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
    would only drift. After it one `_step_batch` call runs the remaining dt,
    so every output is the one that stepping every dt from t = 0 gives. It
    stops a row once it can never touch the grid again, and a row at rest,
    whose drift no longer moves it, once a dt of it hits no x face: every
    later dt would repeat that one. Either way the row's contacts and
    velocity stay those of stepping to max_steps.
    A metric that overflows float64 raises ConfigError.
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
    burst.x[:] = x
    rows, speeds = _step_batch(burst, placed, heatmap, config.max_steps - t)
    owner = rows // max(n, 1)   # a burst of 0 particles makes no contacts
    with np.errstate(over="ignore", invalid="ignore"):   # tunnel_result rejects an overflow
        ke = kinetic_energy(config.particle_mass, burst.vx[:, None])
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
        rows = (map(str, row) for row in t.tolist())
    else:
        rows = (map(repr, row) for row in t.astype(np.float64).tolist())
    return "\n".join(map(",".join, rows)) + "\n"


def minmax_pixels(t: np.ndarray, lo: float, hi: float) -> np.ndarray:
    """Tallies scaled from [lo, hi] to 8-bit grey levels; all black when hi == lo."""
    if hi > lo:
        return round_half_away((t - lo) / (hi - lo) * 255.0)
    return np.zeros(t.shape, dtype=np.int64)


def heatmap_to_pgm(tallies: np.ndarray) -> bytes:
    """Min-max normalise tallies to 8-bit pixels (uniform maps render black)."""
    t = np.asarray(tallies, dtype=np.float64)
    return write_pgm(minmax_pixels(t, float(t.min()), float(t.max())))
