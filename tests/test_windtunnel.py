import copy
import math
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from voxwind import windtunnel
from voxwind.errors import ConfigError
from voxwind.voxel import VoxelGrid, synth_heightmap, voxelise
from voxwind.windtunnel import (
    LOOKAHEAD,
    TAIL_ROWS,
    ParticleBurst,
    _best_overlap,
    _face_normal,
    PlacedGrid,
    SimResult,
    TunnelConfig,
    _step_batch,
    collision_count_metric,
    drag_force,
    heatmap_to_csv,
    heatmap_to_pgm,
    kinetic_energy,
    mph_to_mps,
    run_simulation,
    simresult_from_csv,
    simresult_to_csv,
    spawn_burst,
)

from conftest import (
    assert_same_bits,
    assert_same_bursts,
    assert_same_outcome,
    batch_query,
    burst_rows,
    contacts_per_sphere,
    desk_tunnel,
    exhaustive_contact,
    grid_query,
    numpy_rounds_only,
    oracle_agrees,
    python_floats_only,
    random_contact_batches,
    scalar_contact,
    stepped_simulation,
    voxel_distances,
)


class TestFormulas:
    def test_mph_zero(self):
        assert mph_to_mps(0.0) == 0.0

    def test_mph_hundred(self):
        assert mph_to_mps(100.0) == pytest.approx(44.704)

    @given(st.floats(0, 1000))
    @settings(max_examples=50, deadline=None)
    def test_mph_linear(self, x):
        assert mph_to_mps(2 * x) == pytest.approx(2 * mph_to_mps(x))

    def test_drag_zero_speed(self):
        assert drag_force(1.225, 0.0, 0.47, 0.1) == 0.0

    def test_drag_reference_value(self):
        f = drag_force(1.225, 10.0, 0.47, math.pi * 0.05 ** 2)
        assert f == pytest.approx(0.2261, abs=1e-4)

    @given(st.floats(0, 100), st.floats(0.1, 10))
    @settings(max_examples=50, deadline=None)
    def test_drag_quadratic(self, v, rho):
        assert drag_force(rho, 2 * v, 0.47, 0.3) == pytest.approx(
            4 * drag_force(rho, v, 0.47, 0.3))

    def test_ke_zero_speed(self):
        assert kinetic_energy(2.0, np.zeros((1, 3))).tolist() == [0.0]

    def test_ke_reference_value(self):
        # one value per velocity row, whatever its direction
        rows = np.array([[3.0, 0.0, 0.0], [0.0, 0.0, -3.0], [1.0, 2.0, 2.0]])
        assert kinetic_energy(2.0, rows).tolist() == [9.0, 9.0, 9.0]

    @given(st.floats(0, 100), st.floats(0.01, 10))
    @settings(max_examples=50, deadline=None)
    def test_ke_quadratic(self, v, m):
        ke = kinetic_energy(m, np.array([[v, 0.0, 0.0], [2 * v, 0.0, 0.0]]))
        assert ke[1] == pytest.approx(4 * ke[0])

    def test_collision_count_empty(self):
        assert collision_count_metric(0, 2, 10) == 0.0

    def test_collision_count_reference(self):
        assert collision_count_metric(100, 2, 10) == 5.0

    def test_collision_count_identity_scaling(self):
        assert collision_count_metric(7, 1, 1) == 7.0


class TestTunnelConfig:
    def test_defaults_valid(self):
        TunnelConfig().validate()

    @pytest.mark.parametrize("speed", [9.9, 121.0, 130.0])
    def test_air_speed_range(self, speed):
        with pytest.raises(ConfigError, match="tunnel.air_speed"):
            TunnelConfig(air_speed=speed).validate()

    def test_restitution_range(self):
        with pytest.raises(ConfigError, match="tunnel.restitution"):
            TunnelConfig(restitution=1.2).validate()

    @pytest.mark.parametrize("field, value", [("burst_count", 0), ("base_cycle_count", 0.5)])
    def test_collision_divisors_at_least_1(self, field, value):
        # the collision count divides by both; this bound is their one check
        with pytest.raises(ConfigError, match=f"^tunnel.{field}: "):
            TunnelConfig(**{field: value}).validate()

    def test_prefix_in_message(self):
        with pytest.raises(ConfigError, match=r"custom\.dt"):
            TunnelConfig(dt=0.0).validate(prefix="custom")


class TestSpawnBurst:
    def test_zero_particles(self):
        cfg = desk_tunnel(particle_count=0)
        burst = spawn_burst(cfg, [np.random.default_rng(0)])
        assert len(burst) == 0

    def test_same_seed_identical(self):
        cfg = desk_tunnel()
        b1 = spawn_burst(cfg, [np.random.default_rng(5)])
        b2 = spawn_burst(cfg, [np.random.default_rng(5)])
        assert_same_bursts(b1, b2)

    def test_spawn_plane_and_speed(self):
        cfg = desk_tunnel(particle_count=50)
        burst = spawn_burst(cfg, [np.random.default_rng(1)])
        assert np.all(burst.x == 0.0)
        assert np.all(burst.y >= 0)
        assert np.all(burst.y <= cfg.domain_size[1])
        assert np.all(burst.z <= cfg.domain_size[2])
        assert np.all(burst.vx == mph_to_mps(cfg.air_speed))

    def test_bursts_stack_in_generator_order(self):
        cfg = desk_tunnel(particle_count=7)
        stacked = spawn_burst(cfg, [np.random.default_rng(s) for s in (3, 4, 5)])
        assert len(stacked) == 21
        for k, s in enumerate((3, 4, 5)):
            alone = spawn_burst(cfg, [np.random.default_rng(s)])
            assert_same_bursts(burst_rows(stacked, slice(7 * k, 7 * (k + 1))), alone)

    @given(domain=st.tuples(*(st.floats(0.0, 1e150, exclude_min=True),) * 3),
           mph=st.floats(10.0, 120.0), n=st.integers(0, 5))
    @settings(max_examples=200, deadline=None)
    def test_rows_start_inside_the_domain(self, domain, mph, n):
        # a row starts inside the domain, and nothing moves its y and z:
        # spawned at the largest jitter a generator can draw, below 1, it
        # still lies within dy and dz
        class TopOfUnitInterval:
            def uniform(self, low, high, size):
                return np.full(size, np.nextafter(1.0, 0.0))

        cfg = TunnelConfig(air_speed=mph, particle_count=n, domain_size=domain)
        for rng in (TopOfUnitInterval(), np.random.default_rng(n)):
            burst = spawn_burst(cfg, [rng, rng])
            assert len(burst) == 2 * n
            assert (burst.x == 0.0).all() and (burst.vx == mph_to_mps(mph)).all()
            assert ((0.0 <= burst.y) & (burst.y <= domain[1])).all()
            assert ((0.0 <= burst.z) & (burst.z <= domain[2])).all()


def single_contact(pos, radius, grid):
    """The contact query for one sphere as ((x, y, z), normal) or None."""
    return contacts_per_sphere(grid_query(pos, radius, grid), 1)[0]


def lone_burst(position, vx):
    """A burst of one row at the (x, y, z) `position`, moving at `vx` along x."""
    x, y, z = position
    return ParticleBurst([x], [vx], [y], [z])


def assert_same_contacts(got, want):
    """Two `_query` or stepper tuples, or Nones, equal array by array in
    values and dtypes."""
    assert (got is None) == (want is None)
    if got is not None:
        assert len(got) == len(want)
        for k, (a, b) in enumerate(zip(got, want)):
            assert a.dtype == b.dtype, k
            np.testing.assert_array_equal(a, b, err_msg=str(k))


def step_both(burst, placed, shape, steps):
    """`_step_batch` over `steps` dt as shipped, in numpy rounds only and in
    Python floats only, each on its own copy of `burst` and a zero (W, L) =
    `shape` heatmap, asserted equal in their rows and speeds (values and
    dtypes), their heatmaps, their final bursts (`assert_same_outcome`) and
    the rows they retire. Returns the shipped run's (rows, speeds), heatmap
    and burst."""
    runs = []
    for stepper in (windtunnel._step_batch, numpy_rounds_only, python_floats_only):
        own, hm = copy.deepcopy(burst), np.zeros(shape, dtype=np.int64)
        runs.append((stepper(own, placed, hm, steps), hm, own))
    got, got_hm, got_burst = runs[0]
    assert got[0].dtype == np.intp and got[1].dtype == np.float64
    for want, want_hm, want_burst in runs[1:]:
        assert_same_contacts(got, want)
        np.testing.assert_array_equal(got_hm, want_hm)
        assert_same_outcome(got_burst, want_burst)
        np.testing.assert_array_equal(got_burst.alive, want_burst.alive)
    return runs[0]


def head_on_step(restitution, vx=1.0):
    # tall column dead ahead; particle flies straight at its -x face
    grid = VoxelGrid(np.array([[0], [0], [10], [0]]), 10, 0.1)
    cfg = desk_tunnel(particle_count=0)
    cfg = TunnelConfig(**{**cfg.__dict__, "restitution": restitution,
                          "domain_size": (0.4, 0.1, 1.0), "dt": 0.01})
    placed = PlacedGrid(grid, cfg)
    (rows, speeds), hm, burst = step_both(
        lone_burst(placed.origin + [0.145, 0.05, 0.05], vx), placed, (4, 1), 1)
    return burst.x[0] - placed.origin[0], burst, rows, speeds, hm


class TestSphereVoxelContact:
    def test_far_particle_no_contact(self):
        grid = VoxelGrid(np.full((2, 2), 2), 4, 0.1)
        assert single_contact([1.0, 1.0, 1.0], 0.05, grid) is None

    def test_center_inside_voxel(self):
        grid = VoxelGrid(np.full((2, 2), 2), 4, 0.1)
        hit = single_contact([0.05, 0.05, 0.05], 0.03, grid)
        assert hit is not None
        assert hit[0] == (0, 0, 0)

    def test_face_normal_above_top(self):
        grid = VoxelGrid(np.array([[2]]), 4, 0.1)
        rows, voxel, axis, sign, pen = grid_query([0.05, 0.05, 0.23], 0.05, grid)
        assert rows.tolist() == [0]
        assert (axis[0], sign[0]) == (2, 1.0)  # normal +z
        assert tuple(voxel[0]) == (0, 0, 1)
        assert pen[0] == pytest.approx(0.02)

    def test_batch_rows_name_the_touching_spheres(self):
        grid = VoxelGrid(np.full((2, 2), 2), 4, 0.1)
        centers = [[1.0, 1.0, 1.0], [0.05, 0.05, 0.05], [0.1, 0.1, 0.5],
                   [0.15, 0.15, 0.22], [2.0, 0.0, 0.0], [0.05, 0.15, 0.1]]
        assert grid_query(centers, 0.03, grid)[0].tolist() == [1, 3, 5]

    def test_impact_speed_is_velocity_norm(self):
        *_, speeds, _ = head_on_step(1.0, vx=5.0)
        assert speeds.tolist() == [5.0]

    def test_matches_exhaustive_oracle_sample(self, monkeypatch):
        # 240 spheres, 12 per grid: as one batch (the vectorised query), in
        # chunks (a window is at least 3 voxels, so 100 candidates make chunks
        # of at most 3 spheres), and one sphere at a time through the scalar
        # core that `_step_rows` takes
        batches = list(random_contact_batches(20, 12, seed=42))

        def batched():
            return [contacts_per_sphere(grid_query(centers, radius, grid), len(centers))
                    for grid, centers, radius in batches]

        sides = [batched()]
        monkeypatch.setattr(windtunnel, "MAX_CANDIDATES", 100)
        sides += [batched(), [[scalar_contact(center, radius, grid) for center in centers]
                              for grid, centers, radius in batches]]
        for found in sides:
            for (grid, centers, radius), got in zip(batches, found):
                for center, one in zip(centers, got):
                    assert oracle_agrees(one, grid, center, radius)


class TestStep:
    def test_empty_grid_straight_line(self):
        # nothing to touch: the row's lane is empty, so it is retired with
        # its velocity, in Python floats before its first dt
        grid = VoxelGrid(np.zeros((4, 4), dtype=int), 4, 0.1)
        cfg = desk_tunnel(particle_count=0)
        (rows, speeds), hm, burst = step_both(lone_burst([0.5, 0.5, 0.5], 1.0),
                                              PlacedGrid(grid, cfg), (4, 4), 1)
        assert len(rows) == len(speeds) == 0
        assert not burst.alive[0] and burst.vx[0] == 1.0
        assert burst.x[0] == 0.5
        assert hm.sum() == 0

    def test_elastic_head_on(self):
        loc, burst, rows, _, hm = head_on_step(1.0)
        assert rows.tolist() == [0]
        # normal -x: reflected along x, and popped back out of voxel (2, 0, 0)
        # to touch its -x face at 0.2 m
        assert burst.vx[0] == -1.0
        assert loc == pytest.approx(0.2 - 0.05)
        assert hm[2, 0] == hm.sum() == 1

    def test_plastic_head_on(self):
        _, burst, rows, _, _ = head_on_step(0.0)
        assert rows.tolist() == [0]
        assert burst.vx[0] == 0.0

    def test_exit_records_ke(self):
        # the exit energy is read from the velocity, which stays frozen once
        # the row is retired: every engine retires this one, which nothing
        # can touch, in the dt asked for
        grid = VoxelGrid(np.zeros((2, 2), dtype=int), 2, 0.1)
        cfg = TunnelConfig(particle_count=0, domain_size=(0.2, 0.2, 0.2), dt=0.5)
        _, _, burst = step_both(lone_burst([0.1, 0.1, 0.1], 2.0),
                                PlacedGrid(grid, cfg), (2, 2), 2)
        assert not burst.alive[0]
        assert kinetic_energy(cfg.particle_mass, burst.vx[:, None]).tolist() == \
            [0.5 * cfg.particle_mass * 4.0]

    def test_batch_matches_particles_stepped_alone(self):
        # Hits, near misses, separating contacts, retired and dead particles
        # in one step must come out as if every particle were stepped by
        # itself.
        grid = VoxelGrid(np.array(
            [[0, 2, 3, 0], [1, 6, 6, 2], [0, 4, 5, 1], [3, 0, 2, 2]]), 6, 0.1)
        cfg = TunnelConfig(domain_size=(0.8, 0.8, 0.8), dt=0.01, restitution=0.3)
        placed = PlacedGrid(grid, cfg)
        rng = np.random.default_rng(11)
        n = 400
        # x over the whole domain and past its x faces
        pos = placed.origin + rng.uniform([-0.2, -0.1, -0.14], [0.6, 0.5, 0.7], size=(n, 3))
        vx = rng.normal(0.0, 3.0, size=n)   # every row moves along x, in +x or -x
        was_alive = np.arange(n) % 7 != 0
        burst = ParticleBurst(pos[:, 0].copy(), vx.copy(), pos[:, 1], pos[:, 2])
        burst.alive[:] = was_alive
        hm = np.zeros((4, 4), dtype=np.int64)
        rows, _ = _step_batch(burst, placed, hm, 1)

        # the batch holds every kind of particle this test is about
        drifted = np.column_stack([pos[:, 0] + vx * cfg.dt, pos[:, 1:]]) - placed.origin
        touching = grid_query(drifted, cfg.particle_radius, grid)[0]
        assert was_alive[touching].sum() > len(rows)  # separating contacts
        assert len(touching) < n                      # misses
        assert (was_alive & ~burst.alive).any()       # retired

        alone_rows = []
        alone_hm = np.zeros_like(hm)
        for i in range(n):
            one = lone_burst(pos[i], vx[i])
            one.alive[0] = was_alive[i]
            alone_rows += [i] * len(_step_batch(one, placed, alone_hm, 1)[0])
            assert_same_outcome(burst_rows(burst, slice(i, i + 1)), one)
            assert burst.alive[i] == one.alive[0]
        assert rows.tolist() == alone_rows
        np.testing.assert_array_equal(hm, alone_hm)
        # dead particles stay dead where they were, with the velocity their
        # energy is read from
        assert not burst.alive[~was_alive].any()
        np.testing.assert_array_equal(burst.x[~was_alive], pos[~was_alive, 0])
        np.testing.assert_array_equal(burst.vx[~was_alive], vx[~was_alive])


def step_querying_every_live_row(burst, placed, heatmap):
    """One dt of `_step_batch` with an all-near lane table, so every live
    row goes to the contact query and no row is ever clear, as a
    reference."""
    everything = copy.copy(placed)
    everything.lanes = lambda b: np.full((len(b), placed.padded.shape[0]), -np.inf)
    return _step_batch(burst, everything, heatmap, 1)


class TestNearTable:
    @pytest.mark.parametrize("ratio", [0.2, 0.5, 1.0, 1.5, 2.5])
    def test_step_equals_querying_every_live_row(self, ratio):
        # k = ceil(r / vs) is 1, 1, 1, 2 and 3. Rows sit in the k + 1
        # columns just outside the footprint, on both sides of the inlet and
        # outlet faces and, dead, beside the grid; the lanes may leave a row
        # out, or retire it, only if the query would give it no contact.
        rng = np.random.default_rng(int(ratio * 10))
        ring_contacts = 0
        for _ in range(30):
            vs = float(rng.choice([0.05, 0.1, 0.2]))
            r = ratio * vs
            k = math.ceil(r / vs)
            w, l, h_max = (int(v) for v in rng.integers(1, 7, size=3))
            grid = VoxelGrid(rng.integers(0, h_max + 1, size=(w, l)), h_max, vs)
            extent = np.array([w, l, h_max]) * vs
            domain = extent + rng.uniform(0.0, 2 * (k + 1) * vs, size=3)
            cfg = TunnelConfig(particle_radius=r, domain_size=tuple(domain), dt=0.01,
                               restitution=float(rng.uniform(0.0, 1.0)))
            placed = PlacedGrid(grid, cfg)
            n = 300
            # over the footprint grown by k + 1 cells, from below z = 0 to above the top
            loc = rng.uniform(-(k + 1) * vs, (np.array([w, l, h_max]) + k + 1) * vs,
                              size=(n, 3))
            loc[:, 2] = rng.uniform(-r, extent[2] + 2 * r, size=n)
            x, y, z = (placed.origin + loc).T
            far = rng.integers(0, 2, size=n // 3).astype(bool)
            x[:n // 3] = np.where(far, domain[0], 0.0) + rng.uniform(-r, r, n // 3)
            vx = rng.normal(0.0, 1.5 * vs / cfg.dt / 3, size=n)   # in +x or -x
            burst = ParticleBurst(x, vx, y, z)
            burst.alive[rng.uniform(size=n) < 0.2] = False
            ref = copy.deepcopy(burst)
            hm, ref_hm = np.zeros((w, l), dtype=np.int64), np.zeros((w, l), dtype=np.int64)
            for _ in range(3):
                before = np.column_stack([burst.x + burst.vx * cfg.dt, burst.y]) - placed.origin[:2]
                rows, speeds = _step_batch(burst, placed, hm, 1)
                assert_same_contacts((rows, speeds),
                                     step_querying_every_live_row(ref, placed, ref_hm))
                assert_same_outcome(burst, ref)
                np.testing.assert_array_equal(hm, ref_hm)
                cell = np.floor(before[rows] / vs)
                outer = (cell == -k) | (cell == np.array([w, l]) - 1 + k)
                ring_contacts += int(outer.any(axis=1).sum())
        # rows k columns off the footprint, the farthest whose window
        # reaches it, made contacts, so a window one column short fails this
        # test
        assert ring_contacts > 0


def boundary_coordinate(draw, vs, r, n):
    """One centre coordinate for a grid n voxels long: an exact multiple j * vs,
    one ulp either side of it, the sphere's surface on such a boundary
    (j * vs -+ r) or one ulp off it, or a uniform value; out to 3 voxels
    beyond the grid on either side."""
    j = draw(st.integers(-3, n + 3))
    kind = draw(st.sampled_from(["multiple", "ulp", "surface", "surface_ulp", "uniform"]))
    if kind == "uniform":
        return draw(st.floats(-3 * vs, (n + 3) * vs))
    x = j * vs
    if kind.startswith("surface"):
        x = x + draw(st.sampled_from([-r, r]))
    if kind.endswith("ulp"):
        x = float(np.nextafter(x, draw(st.sampled_from([-np.inf, np.inf]))))
    return x


@st.composite
def spheres_over_a_grid(draw):
    """(vs, r, (W, L) heights, (m, 3) centers): up to 40 spheres of one radius
    over a grid of at most 6^3, whose edge columns may be empty. A centre
    coordinate leaves the sphere's window on its axis empty (more than r
    below 0), short (within r of 0, so the window is cut at index 0) or full
    (on or one ulp off a voxel boundary, out to 3 voxels past the grid), so
    one batch holds windows of different lengths."""
    vs = draw(st.sampled_from([0.05, 0.1, 0.2]) | st.floats(0.05, 0.2))
    r = draw(st.floats(0.05, 3.0)) * vs
    w, l, h_max = (draw(st.integers(1, 6)) for _ in range(3))
    heights = np.array(draw(st.lists(st.integers(0, h_max), min_size=w * l,
                                     max_size=w * l))).reshape(w, l)
    for edge in draw(st.sets(st.sampled_from(["-x", "+x", "-y", "+y"]))):
        heights[{"-x": (0, slice(None)), "+x": (-1, slice(None)),
                 "-y": (slice(None), 0), "+y": (slice(None), -1)}[edge]] = 0

    def coordinate(n):
        kind = draw(st.sampled_from(["empty", "short"] + ["full"] * 4))
        if kind == "empty":
            return -r - draw(st.floats(0.01, 2.0)) * vs
        if kind == "short":
            return draw(st.floats(-r, r, exclude_max=True))
        return boundary_coordinate(draw, vs, r, n)

    centers = np.array([[coordinate(n) for n in (w, l, h_max)]
                        for _ in range(draw(st.integers(1, 40)))])
    return vs, r, heights, centers


@st.composite
def lane_rows(draw):
    """(vs, r, h_max, (W, L) heights, (m, 3) centres): a grid of at most 6^3
    and up to 8 rows, or none, each centre coordinate on or one ulp off a
    voxel boundary out to 3 voxels past the grid, or +-1e30."""
    vs = draw(st.sampled_from([0.05, 0.1, 0.2]) | st.floats(0.05, 0.2))
    r = draw(st.floats(0.1, 3.0)) * vs
    w, l, h_max = (draw(st.integers(1, 6)) for _ in range(3))
    heights = np.array(draw(st.lists(st.integers(0, h_max), min_size=w * l,
                                     max_size=w * l))).reshape(w, l)
    far = st.sampled_from([-1e30, 1e30])
    centers = [[draw(far) if draw(st.integers(0, 5)) == 0 else boundary_coordinate(draw, vs, r, n)
                for n in (w, l, h_max)] for _ in range(draw(st.integers(0, 8)))]
    return vs, r, h_max, heights, np.array(centers).reshape(-1, 3)


def query_window(c, r, vs):
    """The contact query's candidate indices along one axis around the
    grid-local coordinate `c`, as Python ints: max(floor((c - r) / vs), 0)
    to floor((c + r) / vs)."""
    return max(math.floor((c - r) / vs), 0), math.floor((c + r) / vs)


class TestLanes:
    @given(case=lane_rows())
    @settings(max_examples=300, deadline=None)
    def test_near_is_a_voxel_in_the_query_windows(self, case):
        # each row's lane is, column by column, what a scan over every voxel
        # of the grid finds in the row's y and z windows; the near test at
        # its x, and `_step_rows`' form of it behind the lane's x range,
        # hold exactly when the query's three windows hold a voxel, and a
        # row that is not near gets no contact from the scalar core
        vs, r, h_max, heights, centers = case
        w, l = heights.shape
        cfg = TunnelConfig(particle_radius=r, domain_size=(w * vs, l * vs, h_max * vs))
        placed = PlacedGrid(VoxelGrid(heights, h_max, vs), cfg)
        assert not placed.origin.any()
        x, y, z = centers.T
        lanes = placed.lanes(ParticleBurst(x, np.zeros(len(x)), y, z))
        assert lanes.shape == (len(centers), w + 1)
        for lane, (cx, cy, cz) in zip(lanes.tolist(), centers.tolist()):
            (y0, y1), (z0, z1) = query_window(cy, r, vs), query_window(cz, r, vs)
            columns = [ix for (ix, iy), h in np.ndenumerate(heights)
                       if y0 <= iy <= y1 and any(z0 <= iz <= z1 for iz in range(h))]
            assert lane == [min((ix for ix in columns if ix >= c), default=math.inf)
                            for c in range(w + 1)]
            x0, x1 = query_window(cx, r, vs)
            near = lane[min(x0, w)] <= (cx + r) / vs
            assert near == any(x0 <= ix <= x1 for ix in columns), (cx, cy, cz)
            first, stop = lane[0], lane.index(math.inf)
            hi, lo = (cx + r) / vs, (cx - r) / vs
            assert near == (first <= hi and lo < stop and lane[max(math.floor(lo), 0)] <= hi)
            if not near:
                assert _best_overlap(cx, cy, cz, r, placed.heights, vs) is None


# A sphere exactly r below the base of voxel (1, 1, 0): its closest-point
# distance squared is (-r) * (-r) = r * r, so it touches nothing, while
# Python's (-r) ** 2 is one ulp below r * r for this r.
TOUCH_VS = 0.2
TOUCH_R = 2.514600307638288 * TOUCH_VS
TOUCH_HEIGHTS = np.zeros((6, 6), dtype=np.int64)
TOUCH_HEIGHTS[1, 1] = 1
TOUCH_CENTER = (0.2, 0.2, -TOUCH_R)


class TestQueryBatchProperty:
    @given(case=spheres_over_a_grid())
    @example(case=(TOUCH_VS, TOUCH_R, TOUCH_HEIGHTS, np.array([TOUCH_CENTER])))
    @settings(max_examples=300, deadline=None)
    def test_equals_scalar_core_sphere_by_sphere(self, case):
        # Every row of one `_query_batch` call is the scalar core's contact for
        # that sphere, voxel, axis, sign and penetration, bit for bit; the
        # coordinates sit on and one ulp off voxel boundaries, where the
        # sphere's own window decides which voxels are candidates, and the
        # spheres of one batch have windows of different lengths.
        vs, r, heights, centers = case
        got = batch_query(centers, r, heights, vs)
        rows = {}
        if got is not None:
            assert [a.dtype for a in got] == [np.intp, np.int64, np.intp, np.float64, np.float64]
            rows = {int(i): (tuple(int(v) for v in voxel), int(axis), float(sign), float(pen))
                    for i, voxel, axis, sign, pen in zip(*got)}
        for i, (cx, cy, cz) in enumerate(centers.tolist()):
            best = _best_overlap(cx, cy, cz, r, heights.tolist(), vs)
            want = None
            if best is not None:
                _, ix, iy, iz = best
                axis, sign, pen = _face_normal(cx, cy, cz, ix, iy, iz, r, vs)
                want = ((ix, iy, iz), axis, sign, pen)
            assert rows.get(i) == want, (i, centers[i])


    def test_window_keeps_out_a_voxel_whose_rounded_face_is_in_reach(self):
        # fl(31 * 0.15) = 4.6499999999999995 is below 31 * 0.15, so a sphere
        # at x = 4.6125 with r = 0.0375 comes closer than r to voxel 31's -x
        # face in floats; yet floor((x + r) / vs) = 30, so voxel 31 lies
        # outside its own window and the scalar core never looks at it. y on
        # a voxel boundary makes the batch's window two voxels wide.
        vs, r = 0.15, 0.0375
        heights = np.zeros((32, 2), dtype=np.int64)
        heights[31] = 1
        center = np.array([[4.6125, 0.15, 0.075]])
        assert math.floor((4.6125 + r) / vs) == 30 and (4.6125 - 31 * vs) ** 2 < r * r
        assert _best_overlap(*center[0].tolist(), r, heights.tolist(), vs) is None
        assert batch_query(center, r, heights, vs) is None

    def test_exact_touch_is_no_contact_everywhere(self):
        # the scalar core, the batched query, the exhaustive oracle and both
        # engines agree that a sphere exactly TOUCH_R from a voxel touches
        # nothing, and that a radius one ulp larger touches it. The queries
        # take TOUCH_CENTER below voxel (1, 1, 0). The engines' rows move
        # along x, so theirs meets the -x face of voxel (0, 1, 0), which lies
        # on x = 0: its distance squared is again (-r) * (-r) = r * r
        assert (-TOUCH_R) ** 2 < TOUCH_R * TOUCH_R
        grid = VoxelGrid(TOUCH_HEIGHTS, 1, TOUCH_VS)
        beside = np.zeros_like(TOUCH_HEIGHTS)
        beside[0, 1] = 1
        wall = VoxelGrid(beside, 1, TOUCH_VS)
        center = (-TOUCH_R, 0.3, 0.1)
        start = (center[0] - 0.25, *center[1:])   # moving at 1 in +x, into the voxel's -x face
        assert start[0] + 0.25 == center[0]       # one dt lands on it
        for r, hits in ((TOUCH_R, 0), (float(np.nextafter(TOUCH_R, 1.0)), 1)):
            best = _best_overlap(*TOUCH_CENTER, r, TOUCH_HEIGHTS.tolist(), TOUCH_VS)
            assert (best is not None) == hits
            assert (batch_query([TOUCH_CENTER], r, TOUCH_HEIGHTS, TOUCH_VS) is not None) == hits
            assert (exhaustive_contact(TOUCH_CENTER, r, grid) is not None) == hits
            assert (exhaustive_contact(center, r, wall) is not None) == hits
            cfg = TunnelConfig(particle_radius=r, domain_size=(6 * TOUCH_VS, 6 * TOUCH_VS, 1.0),
                               dt=0.25)
            placed = PlacedGrid(wall, cfg)
            assert not placed.origin.any()
            (rows, _), hm, _ = step_both(lone_burst(start, 1.0), placed, (6, 6), 1)
            assert len(rows) == hits == hm[0, 1], r


# Binary-fraction voxel sizes, radii and centre coordinates: every distance
# the scalar core and the oracle compute is then exact, so equal distances
# are real ties, and a centre can sit exactly r from a voxel face.
DYADIC_VS = (0.125, 0.25, 0.5)


@st.composite
def dyadic_spheres(draw):
    """(vs, r, (W, L) heights, centre): a grid of at most 5^3 and one
    sphere, r in 1/8 voxel steps from 1/8 to 3 voxels, each centre
    coordinate in 1/8 voxel steps out to 3 voxels past the grid."""
    vs = draw(st.sampled_from(DYADIC_VS))
    r = draw(st.integers(1, 24)) * vs / 8
    w, l, h_max = (draw(st.integers(1, 5)) for _ in range(3))
    heights = np.array(draw(st.lists(st.integers(0, h_max), min_size=w * l,
                                     max_size=w * l))).reshape(w, l)
    center = tuple(draw(st.integers(-24, 8 * (n + 3))) * vs / 8 for n in (w, l, h_max))
    return vs, r, heights, center


@st.composite
def tied_spheres(draw):
    """(vs, r, (W, L) heights, centre): a sphere whose closest voxels are
    at least two at one distance below r. The centre sits on a plane, edge
    or corner shared by columns of one height, level with a voxel boundary
    or with their top, so two to eight voxels are equally close."""
    vs = draw(st.sampled_from(DYADIC_VS))
    h = draw(st.integers(1, 4))
    w, l = draw(st.integers(2, 5)), draw(st.integers(2, 5))
    heights = np.full((w, l), h)
    x = draw(st.integers(1, w - 1)) * vs        # between columns x - 1 and x
    y = draw(st.sampled_from([draw(st.integers(1, l - 1)) * vs,     # between columns
                              (draw(st.integers(0, l - 1)) + 0.5) * vs]))   # mid column
    z = draw(st.sampled_from([draw(st.integers(1, h)) * vs,          # between voxels, or on top
                              (draw(st.integers(0, h - 1)) + 0.5) * vs,
                              h * vs + draw(st.integers(1, 7)) * vs / 8]))   # above the top
    r = (z - h * vs if z > h * vs else 0.0) + draw(st.integers(1, 16)) * vs / 8
    return vs, r, heights, (x, y, z)


class TestScalarCoreOracle:
    @given(case=dyadic_spheres() | tied_spheres())
    @settings(max_examples=300, deadline=None)
    def test_equals_exhaustive_search(self, case):
        # the scalar core finds the oracle's voxel, distance and face normal,
        # with and without the zero columns `PlacedGrid.heights` pads with
        vs, r, heights, center = case
        grid = VoxelGrid(heights, int(heights.max(initial=0)) or 1, vs)
        best = _best_overlap(*center, r, heights.tolist(), vs)
        padded = np.pad(heights, ((0, 3), (0, 3))).tolist()
        assert _best_overlap(*center, r, padded, vs) == best
        keys = voxel_distances(center, grid)
        if best is not None:
            assert best == min(keys)
        assert oracle_agrees(scalar_contact(center, r, grid), grid, center, r)

    @given(case=tied_spheres())
    @settings(max_examples=50, deadline=None)
    def test_ties_are_built(self, case):
        # each tied case holds two or more closest voxels, all within r
        vs, r, heights, center = case
        keys = sorted(voxel_distances(center, VoxelGrid(heights, int(heights.max()), vs)))
        assert keys[0][0] == keys[1][0] < r * r


class TestStrictRadius:
    # vs = 0.5 and r = 0.25 are binary fractions, so a sphere exactly r from
    # a voxel face has closest-point distance squared exactly r * r
    VS, R = 0.5, 0.25
    GRID = VoxelGrid(np.array([[0, 0, 0], [0, 1, 0], [0, 0, 0]]), 2, 0.5)

    # (center exactly r from voxel (1, 1, 0), the direction one ulp closer,
    # axis, sign). Beside a low face the voxel is in the sphere's window, so
    # only the strict `<` keeps it out; above the top face the window, which
    # starts at floor((c - r) / vs), already does.
    CASES = [((0.25, 0.75, 0.25), (1.0, 0.75, 0.25), 0, -1.0),   # beside its -x face
             ((0.75, 0.25, 0.25), (0.75, 1.0, 0.25), 1, -1.0),   # beside its -y face
             ((0.75, 0.75, 0.75), (0.75, 0.75, 0.0), 2, 1.0)]    # above its top face

    def query(self, name, centers):
        if name == "_query":
            return grid_query(centers, self.R, self.GRID)
        return batch_query(centers, self.R, self.GRID.column_heights, self.VS)

    # the chunked query the numpy rounds call, and one unchunked batch
    @pytest.mark.parametrize("query", ["_query", "_query_batch"])
    @pytest.mark.parametrize("center, toward, axis, sign", CASES)
    def test_query_is_strict(self, query, center, toward, axis, sign):
        at_r = np.array([center])
        assert self.query(query, at_r) is None
        inside = np.nextafter(at_r, [toward])
        assert np.count_nonzero(inside != at_r) == 1
        rows, voxel, found_axis, found_sign, _ = self.query(query, inside)
        assert rows.tolist() == [0]
        assert (tuple(voxel[0]), found_axis[0], found_sign[0]) == ((1, 1, 0), axis, sign)

    # the stepper as shipped, which takes a lone row in Python floats through
    # the scalar core, and its numpy rounds. Rows move along x, one dt from
    # the center: into the -x face, which bounces a row one ulp inside r and
    # not one at r, and past the -y and top faces, which give a row moving
    # along x no impulse, so neither of its centers is a contact
    @pytest.mark.parametrize("stepper", [_step_batch, numpy_rounds_only],
                             ids=["_step_batch", "numpy_rounds_only"])
    @pytest.mark.parametrize("center, toward, axis, sign", CASES)
    def test_step_is_strict(self, center, toward, axis, sign, stepper):
        cfg = TunnelConfig(particle_radius=self.R, domain_size=(1.5, 1.5, 1.5), dt=0.25)
        placed = PlacedGrid(self.GRID, cfg)
        assert not placed.origin.any()
        for target, hits in ((np.array(center), 0),
                             (np.nextafter(center, toward), int(axis == 0))):
            burst = lone_burst(target - [cfg.dt, 0.0, 0.0], 1.0)
            hm = np.zeros((3, 3), dtype=np.int64)
            found = len(stepper(burst, placed, hm, 1)[0])
            if hits:   # against the -x face of voxel (1, 1, 0), centred on x = 0.75
                pen = (self.R + 0.5 * self.VS) - abs(target[0] - 0.75)
                assert burst.x[0] == target[0] + sign * pen
            elif burst.alive[0]:   # a row above the top face has an empty lane
                assert burst.x[0] == target[0]
            assert found == hits == hm[1, 1]


class TestRunSimulation:
    def test_zero_particles(self, wedge_grid):
        cfg = desk_tunnel(particle_count=0)
        res = run_simulation(wedge_grid, cfg)
        assert res.drag_force == 0.0
        assert res.kinetic_energy == 0.0
        assert res.collision_count == 0.0
        assert res.heightmap_sum > 0

    def test_flat_grid_nothing_to_hit(self):
        grid = voxelise(synth_heightmap("flat", 16, 16, 0.0), 8, 0.1)
        res = run_simulation(grid, desk_tunnel())
        assert res.collision_count == 0.0
        assert res.drag_force == 0.0
        assert res.heatmap.sum() == 0

    def test_deterministic(self, wedge_grid):
        cfg = desk_tunnel()
        r1 = run_simulation(wedge_grid, cfg)
        r2 = run_simulation(wedge_grid, cfg)
        assert r1.drag_force == r2.drag_force
        assert r1.kinetic_energy == r2.kinetic_energy
        assert r1.collision_count == r2.collision_count
        np.testing.assert_array_equal(r1.heatmap, r2.heatmap)

    def test_taller_wedge_collides_more(self):
        cfg = desk_tunnel()
        lo = voxelise(synth_heightmap("wedge", 16, 16, 0.4), 8, 0.1)
        hi = voxelise(synth_heightmap("wedge", 16, 16, 1.0), 8, 0.1)
        res_lo = run_simulation(lo, cfg)
        res_hi = run_simulation(hi, cfg)
        assert res_lo.heatmap.sum() <= res_hi.heatmap.sum()

    def test_collision_count_matches_heatmap(self, wedge_grid):
        cfg = desk_tunnel()
        res = run_simulation(wedge_grid, cfg)
        expected = res.heatmap.sum() / (cfg.burst_count * cfg.base_cycle_count)
        assert res.collision_count == pytest.approx(expected)

    def test_all_metrics_non_negative(self, wedge_grid):
        res = run_simulation(wedge_grid, desk_tunnel())
        assert res.drag_force >= 0
        assert res.kinetic_energy >= 0
        assert res.collision_count >= 0
        assert res.heightmap_sum >= 0
        assert np.all(res.heatmap >= 0)

    def test_grid_too_large_for_domain(self, wedge_grid):
        cfg = desk_tunnel(domain=(1.0, 1.8, 0.9))  # x span 1.6 > 1.0
        with pytest.raises(ConfigError, match="^tunnel.domain_size: .*domain"):
            run_simulation(wedge_grid, cfg)

    @given(d=st.floats(1e-6, 1e150), n=st.integers(1, 64))
    @example(d=27707119.19825297, n=38)   # 3.7e-9 m past d
    @settings(max_examples=300, deadline=None)
    def test_a_grid_of_the_domain_size_fits_at_any_scale(self, d, n):
        # n voxels of d / n m can come to one ulp more than d; the slack
        # scales with the extent, so such a grid fits however large d is
        vs = d / n
        grid = VoxelGrid(np.ones((n, n), dtype=np.int64), n, vs)
        windtunnel.check_fits(grid, TunnelConfig(particle_radius=vs, domain_size=(d, d, d)))

    def test_radius_window_bound(self):
        # 2r / vs = 38 exactly: a window of 40^3 = 64000 voxels fits in
        # MAX_CANDIDATES, the next radius up needs 41^3 = 68921
        vs = 0.125
        grid = VoxelGrid(np.array([[1, 0], [2, 1]]), 2, vs)
        cfg = TunnelConfig(particle_radius=19 * vs, particle_count=3, max_steps=30,
                           domain_size=(2.0, 1.0, 1.0))
        assert (math.ceil(2 * cfg.particle_radius / vs) + 2) ** 3 <= windtunnel.MAX_CANDIDATES
        windtunnel.check_fits(grid, cfg)
        run_simulation(grid, cfg)
        wider = replace(cfg, particle_radius=float(np.nextafter(19 * vs, 20 * vs)))
        with mock.patch.object(windtunnel, "PlacedGrid", side_effect=AssertionError):
            with pytest.raises(ConfigError, match="^tunnel.particle_radius: .* 0.125 m"):
                run_simulation(grid, wider)

    def test_heatmap_dims_match_grid(self, wedge_grid):
        res = run_simulation(wedge_grid, desk_tunnel())
        assert res.heatmap.shape == (wedge_grid.width, wedge_grid.length)


def checked_simulation(grid, cfg):
    """`run_simulation`, asserted bit for bit equal to stepping every dt, in
    its SimResult and in the final state of its burst (`assert_same_outcome`),
    which shows the step a contact came in. Which rows end retired may
    differ: a horizon that ends inside the inlet lead-in retires none."""
    spawned = []

    def spawn(*args):
        spawned.append(spawn_burst(*args))
        return spawned[-1]

    with mock.patch.object(windtunnel, "spawn_burst", spawn):
        got = run_simulation(grid, cfg)
    want, burst = stepped_simulation(grid, cfg)
    assert got.metrics() == want.metrics()
    np.testing.assert_array_equal(got.heatmap, want.heatmap)
    assert_same_outcome(spawned[0], burst)
    return got


class TestRunSimulationDrift:
    @given(data=st.data(), mph=st.floats(10.0, 120.0), ratio=st.sampled_from([0.1, 0.5, 1.0, 2.5]),
           vs=st.sampled_from([0.05, 0.1, 0.2]), dt=st.sampled_from([1 / 500, 1 / 120, 1 / 30]),
           restitution=st.sampled_from([0.0, 1.0]), bursts=st.integers(1, 3),
           particles=st.sampled_from([0, 1, 2, 3, 4, 5, 24]))
    @settings(max_examples=60, deadline=None)
    def test_equals_stepping_every_dt(self, data, mph, ratio, vs, dt, restitution, bursts,
                                      particles):
        w, l, h_max = (data.draw(st.integers(1, 8)) for _ in range(3))
        heights = np.array(data.draw(st.lists(st.integers(0, h_max), min_size=w * l,
                                              max_size=w * l))).reshape(w, l)
        grid = VoxelGrid(heights, h_max, vs)
        extra = data.draw(st.tuples(*(st.floats(0.0, 1.5),) * 3))
        cfg = TunnelConfig(air_speed=mph, particle_count=particles, burst_count=bursts,
                           dt=dt, max_steps=data.draw(st.integers(1, 250)),
                           particle_radius=ratio * vs, restitution=restitution,
                           domain_size=(w * vs + extra[0], l * vs + extra[1],
                                        h_max * vs + extra[2]),
                           seed=data.draw(st.integers(0, 99)))
        checked_simulation(grid, cfg)

    def test_desk_runs_equal_stepping_every_dt(self, wedge_grid):
        desk = desk_tunnel(particle_count=40)
        for mph in (10.0, 60.0, 120.0):
            checked_simulation(wedge_grid, replace(desk, air_speed=mph))
        # The lead-in's boundary, on a box whose front face every low particle
        # hits: at 10 mph the inlet x after 20 steps, 0.745 m, is 0.055 m
        # short of the face at 0.8 m. A radius of that gap puts the shared x
        # exactly on origin_x - r, which is not near; the next larger radius
        # puts it one ulp past, where the spheres touch the face on step 20,
        # the last one. With the desk radius the lead-in is 20 steps, longer
        # than max_steps 19.
        box = voxelise(synth_heightmap("box", 16, 16, 1.0), 8, 0.1)
        x, d = 0.0, mph_to_mps(desk.air_speed) * desk.dt
        for _ in range(20):
            x += d
        on_face = -(x - float(windtunnel.grid_origin(box, desk)[0]))
        last = replace(desk, max_steps=20)
        on = checked_simulation(box, replace(last, particle_radius=on_face))
        past = checked_simulation(
            box, replace(last, particle_radius=float(np.nextafter(on_face, 1.0))))
        assert on.collision_count == 0 < past.collision_count
        checked_simulation(box, replace(desk, max_steps=19))


class TestStepRows:
    """Bursts of at most TAIL_ROWS rows step one row at a time in Python
    floats from their first dt; larger ones take numpy rounds first."""

    def test_learner_tunnel_equals_stepping_every_dt(self, wedge_grid):
        # the 4-particle, 1-burst tunnel of a learner-sized training run
        learner = desk_tunnel(particle_count=4, burst_count=1, max_steps=40)
        for mph in (10.0, 60.0, 120.0):
            impacts = sum(
                checked_simulation(wedge_grid, replace(learner, air_speed=mph, seed=seed))
                .heatmap.sum() for seed in range(16))
            assert impacts > 0, mph

    def test_a_burst_of_tail_rows_makes_no_numpy_query(self, wedge_grid):
        def no_query(*args):
            raise AssertionError("numpy query called")

        cfg = desk_tunnel(particle_count=TAIL_ROWS, burst_count=1)
        with mock.patch.object(windtunnel, "_query", no_query):
            assert run_simulation(wedge_grid, cfg).collision_count > 0
            with pytest.raises(AssertionError, match="numpy query"):
                run_simulation(wedge_grid, replace(cfg, particle_count=TAIL_ROWS + 1))


class TestSteppersAgree:
    """`_step_batch` as shipped, in numpy rounds only and in Python floats
    only, on copies of one burst over the same number of dt, gives the same
    rows, speeds, heatmap and final burst. Burst sizes on either side of
    TAIL_ROWS are drawn as often."""

    @pytest.mark.parametrize("low, high", [(1, 8), (9, 40)])
    @given(data=st.data(), mph=st.floats(10.0, 120.0), ratio=st.sampled_from([0.1, 0.5, 1.0, 2.5]),
           vs=st.sampled_from([0.05, 0.1, 0.2]), dt=st.sampled_from([1 / 500, 1 / 120, 1 / 30]),
           restitution=st.floats(0.0, 1.0), steps=st.integers(1, 60),
           seed=st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=150, deadline=None)
    def test_equal_on_random_bursts(self, low, high, data, mph, ratio, vs, dt, restitution,
                                    steps, seed):
        # rows around the grid, a few dead, flying in +x or -x at random
        # speeds up to the air speed; some start outside the domain
        w, l, h_max = (data.draw(st.integers(1, 6)) for _ in range(3))
        heights = np.array(data.draw(st.lists(st.integers(0, h_max), min_size=w * l,
                                              max_size=w * l))).reshape(w, l)
        grid = VoxelGrid(heights, h_max, vs)
        r = ratio * vs
        extent = np.array([w, l, h_max]) * vs
        domain = extent + data.draw(st.tuples(*(st.floats(0.0, 1.0),) * 3))
        cfg = TunnelConfig(particle_radius=r, domain_size=tuple(domain), dt=dt,
                           restitution=restitution)
        placed = PlacedGrid(grid, cfg)
        rng = np.random.default_rng(seed)
        m = data.draw(st.integers(low, high))
        x, y, z = (placed.origin + rng.uniform(-r - vs, extent + r + vs, size=(m, 3))).T
        burst = ParticleBurst(x, rng.uniform(-1.0, 1.0, size=m) * mph_to_mps(mph), y, z)
        burst.alive[rng.uniform(size=m) < 0.2] = False
        step_both(burst, placed, (w, l), steps)

    @pytest.mark.parametrize("rows", [1, 8, 9, 40])
    def test_equal_on_desk_bursts(self, wedge_grid, rows):
        # spawned bursts from the inlet, over every dt of a desk run on the
        # wedge and the box. At 60 and 120 mph some particles crawl through
        # the solid columns to max_steps, touching them about ten times each
        # (40 rows in Python floats: 50 contacts on the box at 60 mph, 4 rows
        # still alive at the end), and each contact cuts a look-ahead short
        box = voxelise(synth_heightmap("box", 16, 16, 1.0), 8, 0.1)
        impacts = 0
        for grid in (wedge_grid, box):
            for mph in (10.0, 60.0, 120.0):
                cfg = desk_tunnel(particle_count=rows, burst_count=1, max_steps=240)
                cfg = replace(cfg, air_speed=mph)
                burst = spawn_burst(cfg, [np.random.default_rng(int(mph))])
                (hits, _), _, _ = step_both(burst, PlacedGrid(grid, cfg),
                                            (grid.width, grid.length), cfg.max_steps)
                impacts += len(hits)
        assert impacts > 0

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_equal_with_rows_past_the_int_range(self, wedge_grid):
        # y / vs of rows 1 and 2 is past int64: their y windows clip onto
        # the grid's edge in floats, so their lanes are empty, and no cast of
        # them warns
        cfg = desk_tunnel(particle_count=6, burst_count=1)
        burst = spawn_burst(cfg, [np.random.default_rng(5)])
        burst.y[1:3] = (1e30, -1e30)
        (hits, _), _, _ = step_both(burst, PlacedGrid(wedge_grid, cfg),
                                    (wedge_grid.width, wedge_grid.length), cfg.max_steps)
        assert not np.isin([1, 2], hits).any()


def contact_steps(burst, placed, shape, steps):
    """`_step_batch` in Python floats only on a copy of `burst`, one dt at a
    time, as the per-dt reference: the (dt, row) of every contact, the
    impact speeds in (dt, row) order, the (W, L) = `shape` heatmap and the
    final burst. Every row alive on entry steps on every dt, whatever the
    stepper retires, so a retired row that could still touch the grid would
    show here as a contact the stepper dropped; the final burst's `alive`
    is that of the last dt."""
    own, hm = copy.deepcopy(burst), np.zeros(shape, dtype=np.int64)
    found, speeds = [], []
    for t in range(steps):
        own.alive[:] = burst.alive
        rows, dt_speeds = python_floats_only(own, placed, hm, 1)
        found += [(t, int(row)) for row in rows]
        speeds += dt_speeds.tolist()
    return found, speeds, hm, own


# A wall across the flow: column x = 7 of an 8 x 2 grid at 0.1 m, 4 voxels
# tall, in a domain the grid fills, so its -x face is at x = 0.7 m
WALL = VoxelGrid(np.array([[0, 0]] * 7 + [[4, 4]]), 4, 0.1)
WALL_TUNNEL = TunnelConfig(domain_size=(0.8, 0.2, 0.4), dt=0.01, restitution=0.5)


def wall_rows(n, speed=1.0):
    """Rows flying at the wall in +x at `speed`, row i meeting its face on
    dt n[i], counted from 0: half a drift inside the radius, so rounding
    cannot move the dt."""
    d = speed * WALL_TUNNEL.dt
    x = 0.7 - WALL_TUNNEL.particle_radius - (np.asarray(n) + 0.5) * d
    return ParticleBurst(x, np.full(len(x), speed), np.full(len(x), 0.1), np.full(len(x), 0.2))


class TestLookahead:
    """`_step_batch` takes each row's dt in rounds over its own look-ahead
    window, LOOKAHEAD // 2 dt first, then twice what it advanced, at most
    LOOKAHEAD; Python floats stepped one dt at a time are the reference. A row
    that never touches the wall has windows [0, 6), [6, 18), [18, 30), ...
    for a LOOKAHEAD of 12."""

    @pytest.mark.parametrize("steps", sorted({1, 2, 3, LOOKAHEAD // 2 - 1, LOOKAHEAD // 2,
                                              LOOKAHEAD // 2 + 1, LOOKAHEAD, 3 * LOOKAHEAD + 4}))
    def test_a_contact_on_each_dt_of_the_first_windows(self, steps):
        # row t touches the wall on dt t: on the first and the last dt of each
        # of its first windows, and between; `steps` cuts windows short
        placed = PlacedGrid(WALL, WALL_TUNNEL)
        burst = wall_rows(range(3 * LOOKAHEAD))
        found, *_ = contact_steps(burst, placed, (8, 2), steps)
        assert found == [(t, t) for t in range(min(steps, 3 * LOOKAHEAD))]
        (rows, _), hm, _ = step_both(burst, placed, (8, 2), steps)
        assert rows.tolist() == [row for _, row in found] and hm.sum() == len(found)

    def test_a_row_touching_a_wall_on_consecutive_dt(self):
        # a slot one voxel wide between two walls: the row crosses it in x in
        # less than a dt and bounces elastically, so it touches a wall on
        # every dt and looks ahead 2 dt at a time, while a row resting in the
        # slot, which touches nothing, looks ahead LOOKAHEAD dt
        slot = VoxelGrid(np.array([[5], [0], [5]]), 5, 0.1)
        cfg = TunnelConfig(particle_radius=0.04, domain_size=(0.3, 0.1, 0.5), dt=0.01,
                           restitution=1.0)
        placed = PlacedGrid(slot, cfg)
        burst = ParticleBurst([0.15] * 2, [3.0, 0.0], [0.05] * 2, [0.25] * 2)
        steps = 3 * LOOKAHEAD + 1
        found, *_ = contact_steps(burst, placed, (3, 1), steps)
        assert found == [(t, 0) for t in range(steps)]
        (_, _), hm, _ = step_both(burst, placed, (3, 1), steps)
        assert hm[0, 0] + hm[2, 0] == steps and hm[0, 0] > 0 and hm[2, 0] > 0

    def test_steps_cut_one_window_while_another_row_looks_further(self):
        # row 0 touches nothing and has taken 6 + 12 + 12 dt after three
        # rounds (LOOKAHEAD 12); row 1 touches the wall on its first dt and
        # then has taken 1 + 2 + 4 dt, its next window 8 long. With 33 steps,
        # row 0's fourth window is 3 dt, inside a block of 8
        steps = LOOKAHEAD // 2 + 2 * LOOKAHEAD + 3
        placed = PlacedGrid(WALL, WALL_TUNNEL)
        burst = wall_rows([steps + 10, 0])
        found, *_ = contact_steps(burst, placed, (8, 2), steps)
        assert found == [(0, 1)]
        # row 1 bounced back into -x, short of the wall's column: retired
        _, _, final = step_both(burst, placed, (8, 2), steps)
        assert final.alive.tolist() == [True, False]

    def test_rows_moving_away_are_retired_with_their_velocity(self):
        # rows 0-2 fly in -x, short of the wall's column, so they are clear
        # at once, and row 3 is after it bounces elastically off the wall on
        # dt 2: each is retired where it is clear, with the velocity it
        # keeps, in Python floats on the first dt it is clear, and the run
        # ends far short of `steps`. A row dead on entry stays where it was
        placed = PlacedGrid(WALL, replace(WALL_TUNNEL, restitution=1.0))
        d = WALL_TUNNEL.dt
        burst = ParticleBurst([*(np.array([3, 9, 20]) + 0.5) * d, *wall_rows([2]).x, 0.4],
                              [-1.0, -1.0, -1.0, 1.0, 0.3], [0.1] * 5, [0.2] * 4 + [0.1])
        burst.alive[4] = False
        steps = 400
        found, *_ = contact_steps(burst, placed, (8, 2), steps)
        assert found == [(2, 3)]
        _, _, final = step_both(burst, placed, (8, 2), steps)
        assert not final.alive.any()
        assert final.vx.tolist() == [-1.0] * 4 + [0.3]
        lane = placed.lanes(final).tolist()[0]
        for row in range(4):
            assert clear_at(lane, final.x[row], -1.0, WALL_TUNNEL.particle_radius, 0.1)
        np.testing.assert_array_equal(final.x[:3], burst.x[:3] - d)
        assert final.x[4] == burst.x[4]

    def test_rows_that_all_enter_dead_do_not_move(self):
        burst = wall_rows([2, 7])
        burst.alive[:] = False
        _, _, final = step_both(burst, PlacedGrid(WALL, WALL_TUNNEL), (8, 2), 10)
        np.testing.assert_array_equal(final.x, burst.x)


# Rows the drift cannot move, as (x, vx) at y = 0.1 and z = 0.2 before WALL:
# vx of 0.0 or -0.0, or |vx| * dt of 1e-17, below half an ulp of every x
# here but 0.0. Rows 0-3 overlap the wall's -x face at 0.7 m, row 3 moving
# into it; rows 4-7 are far from it, row 7 moving away from it; rows 8-10
# sit on the inlet plane, row 8 at -0.0, which its first drift of 0.0 makes
# 0.0; rows 11 and 12 lie past the outlet, row 11 overlapping the wall's +x
# face at 0.8 m, so it is near, and row 12 far past it; row 13 overlaps the
# +x face moving into it. Row 14 moves, and meets the wall on dt 34.
RESTING = ((0.66, 0.0), (0.66, -0.0), (0.66, -1e-15), (0.66, 1e-15),
           (0.2, 0.0), (0.2, -0.0), (0.2, 1e-15), (0.2, -1e-15),
           (-0.0, 0.0), (0.0, -0.0), (-0.0, -0.0),
           (0.83, 0.0), (5.0, 0.0), (0.83, -1e-15), (0.305, 1.0))


def resting_rows(copies):
    """RESTING `copies` times over, as one burst."""
    x, vx = np.array(RESTING * copies).T
    return ParticleBurst(x, vx, np.full(len(x), 0.1), np.full(len(x), 0.2))


def assert_per_dt(burst, placed, shape, steps):
    """`step_both`'s three runs over `steps` dt equal to `contact_steps`' per-dt
    reference in their rows, speeds, heatmap, final burst
    (`assert_same_outcome`) and retired rows, bit for bit. Returns the
    reference's (dt, row) contacts and final burst."""
    found, speeds, hm, final = contact_steps(burst, placed, shape, steps)
    (rows, got_speeds), got_hm, got = step_both(burst, placed, shape, steps)
    assert rows.tolist() == [row for _, row in found]
    assert got_speeds.tolist() == speeds
    np.testing.assert_array_equal(got_hm, hm)
    assert_same_outcome(got, final)
    np.testing.assert_array_equal(got.alive, final.alive)
    return found, final


class TestRestingRows:
    """A row whose drift leaves its x unchanged, with no x-face hit in a dt,
    repeats that dt for ever, so every engine stops it there: its final
    state, contacts and heatmap are those of stepping every dt."""

    @pytest.mark.parametrize("copies", [1, 3])   # 15 rows, and 45
    @pytest.mark.parametrize("steps", [1, 2, LOOKAHEAD // 2, LOOKAHEAD + 1,
                                       3 * LOOKAHEAD + 4, 400])
    def test_resting_rows_equal_stepping_every_dt(self, copies, steps):
        # the whole burst takes numpy rounds, and its last TAIL_ROWS rows,
        # rows 7-14 of a copy, alone take none
        assert TAIL_ROWS < len(resting_rows(1))
        burst = resting_rows(copies)
        placed = PlacedGrid(WALL, WALL_TUNNEL)
        assert_per_dt(burst_rows(burst, slice(-TAIL_ROWS, None)), placed, (8, 2), steps)
        found, final = assert_per_dt(burst, placed, (8, 2), steps)
        n = len(RESTING)
        # row 3 bounces off the -x face on its first dt, and row 13 off the
        # +x face, both to rest in the wall's column; row 14 meets the -x
        # face on dt 34. Rows 7 and 12 are clear from the start, and row 14
        # after its bounce, so they are retired
        hits = [(0, 3), (0, 13)] + [(34, 14)] * (steps > 34)
        assert found == sorted((t, row + c * n) for t, row in hits for c in range(copies))
        for c in range(copies):
            rows = slice(c * n, (c + 1) * n)
            alive = final.alive[rows].tolist()
            assert alive == [True] * 7 + [False] + [True] * 4 + [False, True, steps <= 34]
            np.testing.assert_array_equal(final.x[rows][[0, 1, 2, 4, 5, 6, 7]],
                                          burst.x[[0, 1, 2, 4, 5, 6, 7]])
            assert [math.copysign(1.0, v) for v in final.x[rows][8:11]] == [1.0, 1.0, -1.0]
            assert final.vx[rows][3] == -0.5e-15

    @pytest.mark.parametrize("steps", [1, LOOKAHEAD + 1, 3 * LOOKAHEAD + 4])
    def test_a_resting_row_between_two_walls_bounces_every_dt(self, steps):
        # a slot one voxel wide, narrower than the sphere: a row moving at
        # 1e-15 m/s, which no drift moves, touches the nearer wall while
        # moving into it, bounces elastically and is popped out into the
        # other wall, so it hits a wall on every dt, whichever engine
        slot = VoxelGrid(np.array([[5], [0], [5]]), 5, 0.1)
        cfg = TunnelConfig(particle_radius=0.06, domain_size=(0.3, 0.1, 0.5), dt=0.01,
                           restitution=1.0)
        for copies in (1, 40):
            burst = ParticleBurst([0.155] * copies, [1e-15] * copies, [0.05] * copies,
                                  [0.25] * copies)
            found, final = assert_per_dt(burst, PlacedGrid(slot, cfg), (3, 1), steps)
            assert found == [(t, row) for t in range(steps) for row in range(copies)]
            assert final.alive.all()

    @pytest.mark.parametrize("rows", [4, 16, 96])
    def test_a_plastic_run_costs_no_more_at_a_longer_horizon(self, wedge_grid, monkeypatch,
                                                              rows):
        # at restitution 0 a row that hits the wedge stops dead against it,
        # and every other row is gone by dt 1,000: a run to 100,000 dt gives
        # the same SimResult with the same contact queries: in Python floats
        # from the first dt (2 x 4 rows), and in numpy rounds that hand their
        # last rows to Python floats (2 x 16 and 2 x 96 rows)
        calls = {"_query": 0, "_best_overlap": 0}
        for name in calls:
            def counted(*args, name=name, fn=getattr(windtunnel, name)):
                calls[name] += 1
                return fn(*args)
            monkeypatch.setattr(windtunnel, name, counted)
        cfg = replace(desk_tunnel(particle_count=rows), restitution=0.0)
        runs = []
        for max_steps in (1_000, 100_000):
            result = run_simulation(wedge_grid, replace(cfg, max_steps=max_steps))
            runs.append((result.metrics(), result.heatmap.tolist(), dict(calls)))
            calls.update(dict.fromkeys(calls, 0))
        assert runs[0] == runs[1]
        metrics, _, counted_calls = runs[0]
        assert metrics["collision_count"] > 0 and max(counted_calls.values()) > 0


def near_at(lane, p, r, vs):
    """The near test (`PlacedGrid.lanes`) of one row at grid-local x `p`, with
    `_step_batch`'s float expressions: the lane's entry at the start of the
    x window, clamped onto the zero column, is at most (p + r) / vs."""
    return lane[min(max(math.floor((p - r) / vs), 0), len(lane) - 1)] <= (p + r) / vs


def clear_at(lane, p, v, r, vs):
    """`_clear_ahead` for one row at grid-local x `p` moving at `v`."""
    reach = lane[min(max(math.floor((p - r) / vs), 0), len(lane) - 1)]
    return bool(windtunnel._clear_ahead(np.float64(v), (p + r) / vs, reach, lane[0]))


@st.composite
def drifts(draw, p):
    """A drift per dt from x = `p`: below half an ulp of p (none moves a p
    other than 0.0), a seventh of a voxel of 0.1 m, or up to two voxels, in
    +x or -x, as the velocity at a dt of 0.01 s whose product gives it."""
    kind = draw(st.sampled_from(["ulp", "crawl", "fast"]))
    if kind == "ulp":
        d = 0.25 * math.ulp(p) if p else 1e-300
    elif kind == "crawl":
        d = 0.1 / 7
    else:
        d = draw(st.floats(0.01, 0.2))
    return draw(st.sampled_from([-1.0, 1.0])) * d / 0.01


# Rows at WALL (a wall in column 7): the first x with (x + r) / vs == 7.0,
# whose window reaches the wall's column, and the first with
# (x - r) / vs == 8.0, whose window starts past it
def first_x(at_least, start, r=WALL_TUNNEL.particle_radius, vs=0.1):
    x = start
    while at_least(x, r, vs):
        x = math.nextafter(x, -math.inf)
    while not at_least(x, r, vs):
        x = math.nextafter(x, math.inf)
    return x


HI_ON_WALL = first_x(lambda x, r, vs: (x + r) / vs >= 7.0, 0.65)
LO_PAST_WALL = first_x(lambda x, r, vs: (x - r) / vs >= 8.0, 0.85)


class TestClearAhead:
    """A row that can never pass the near test again is retired: moving in
    -x with (x + r) / vs below its lane's first column, or in +x with no
    lane column at or after the start of its x window."""

    @given(case=lane_rows(), data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_a_clear_row_fails_the_near_test_on_every_later_dt(self, case, data):
        vs, r, h_max, heights, centers = case
        w, l = heights.shape
        cfg = TunnelConfig(particle_radius=r, domain_size=(w * vs, l * vs, h_max * vs))
        placed = PlacedGrid(VoxelGrid(heights, h_max, vs), cfg)
        assert not placed.origin.any()
        x, y, z = centers.T
        lanes = placed.lanes(ParticleBurst(x, np.zeros(len(x)), y, z)).tolist()
        for lane, p in zip(lanes, x.tolist()):
            p = data.draw(st.sampled_from([p, 0.0, -0.0]))
            v = data.draw(drifts(p))
            if not clear_at(lane, p, v, r, vs):
                continue
            assert not near_at(lane, p, r, vs)
            d = v * 0.01
            for _ in range(int(3 * (w + 4) / (abs(d) / vs)) + 2 if abs(d) > 1e-3 else 50):
                p += d
                assert not near_at(lane, p, r, vs), (p, v)

    def test_boundaries_at_a_wall(self):
        # WALL's lane is column 7 for every row of it; hi of HI_ON_WALL is
        # exactly 7.0, and the start of LO_PAST_WALL's window exactly 8
        lane = PlacedGrid(WALL, WALL_TUNNEL).lanes(wall_rows([0])).tolist()[0]
        assert lane == [7.0] * 8 + [math.inf]
        r, vs = WALL_TUNNEL.particle_radius, 0.1
        below = math.nextafter(HI_ON_WALL, -math.inf)
        past_start = math.nextafter(LO_PAST_WALL, -math.inf)
        cases = [   # (x, vx, clear)
            (HI_ON_WALL, -1.0, False),   # near now: its window holds the wall
            (below, -1.0, True), (below, -1e-300, True), (below, 1.0, False),
            (0.0, -1.0, True), (-0.0, -1.0, True), (0.0, 1.0, False), (-0.0, 1e-300, False),
            (LO_PAST_WALL, 1.0, True), (LO_PAST_WALL, -1.0, False),
            (past_start, 1.0, False),    # its window starts in the wall's column
            (5.0, 1e-300, True)]
        for x, vx, clear in cases:
            assert clear_at(lane, x, vx, r, vs) == clear, (x, vx)


@st.composite
def outward_rows(draw):
    """(placed grid, burst, steps): a random grid of at most 6^3 voxels of
    0.05-0.2 m in a domain flush with it, or up to 1 m longer, on each axis
    at random, and up to 12 rows past the domain's x faces moving outward at
    up to 120 mph: at x > dx within three radii in +x, or at x < 0 within
    three radii in -x, with y and z over the grid's footprint and height."""
    vs = draw(st.sampled_from([0.05, 0.1, 0.2]) | st.floats(0.05, 0.2))
    r = draw(st.floats(0.1, 3.0)) * vs
    w, l, h_max = (draw(st.integers(1, 6)) for _ in range(3))
    heights = np.array(draw(st.lists(st.integers(0, h_max), min_size=w * l,
                                     max_size=w * l))).reshape(w, l)
    extent = np.array([w, l, h_max]) * vs
    slack = [draw(st.just(0.0) | st.floats(0.0, 1.0)) for _ in range(3)]
    cfg = TunnelConfig(particle_radius=r, domain_size=tuple(extent + slack), dt=1 / 120,
                       restitution=draw(st.floats(0.0, 1.0)))
    placed = PlacedGrid(VoxelGrid(heights, h_max, vs), cfg)
    dx = cfg.domain_size[0]
    rows = []
    for _ in range(draw(st.integers(1, 12))):
        out = draw(st.floats(0.0, 3 * r, exclude_min=True))
        speed = mph_to_mps(draw(st.floats(0.0, 120.0, exclude_min=True)))
        y, z = (float(placed.origin[i]) + draw(st.floats(-r, extent[i] + r)) for i in (1, 2))
        rows.append((dx + out, speed, y, z) if draw(st.booleans()) else (-out, -speed, y, z))
    return placed, ParticleBurst(*np.array(rows).T), draw(st.integers(1, 80))


class TestOutsideTheDomain:
    """Why the stepper needs no domain-exit test: a row past an x face of
    the domain moving outward can never move into an x face, so it never
    bounces, and it is retired once it is clear like any other row."""

    @given(case=outward_rows())
    @settings(max_examples=200, deadline=None)
    def test_a_row_moving_out_never_touches_again(self, case):
        # on every dt of the per-dt reference, which steps every row,
        # retired or not; on a grid flush with the domain such a row can
        # still be near the grid's last or first column
        placed, burst, steps = case
        shape = placed.padded.shape[0] - 1, placed.padded.shape[1] - 1
        found, speeds, hm, final = contact_steps(burst, placed, shape, steps)
        assert found == [] and speeds == [] and hm.sum() == 0
        assert_same_bits(final.vx, burst.vx, "vx")
        (rows, _), _, _ = step_both(burst, placed, shape, steps)
        assert rows.size == 0

    @given(case=lane_rows(), steps=st.integers(1, 40), data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_a_row_with_an_empty_lane_reaches_no_query(self, case, steps, data):
        # rows whose y and z windows hold no voxel, moving in +x or -x or at
        # rest: neither engine queries them, and both retire them with
        # their velocity. Every other row is lifted half a voxel clear of
        # the grid's top, so most draws hold such rows
        vs, r, h_max, heights, centers = case
        w, l = heights.shape
        cfg = TunnelConfig(particle_radius=r, domain_size=(w * vs, l * vs, h_max * vs))
        placed = PlacedGrid(VoxelGrid(heights, h_max, vs), cfg)
        x, y, z = centers.T
        z[::2] = (h_max + 0.5) * vs + r
        vx = np.array([data.draw(st.sampled_from([-1.0, 0.0, 1.0])) for _ in x])
        burst = ParticleBurst(x, vx, y, z)
        empty = (placed.lanes(burst) == np.inf).all(axis=1)
        burst = burst_rows(burst, empty)

        def no_query(*args):
            raise AssertionError("a query for a row with an empty lane")

        with mock.patch.object(windtunnel, "_query", no_query), \
                mock.patch.object(windtunnel, "_best_overlap", no_query):
            for stepper in (numpy_rounds_only, python_floats_only):
                own = copy.deepcopy(burst)
                rows, _ = stepper(own, placed, np.zeros((w, l), dtype=np.int64), steps)
                assert rows.size == 0 and not own.alive.any()
                assert_same_bits(own.vx, burst.vx, "vx")


def retiring_burst(late):
    """Rows at WALL, 32 + len(late): 24 meet its -x face at 1 m/s on dt 0,
    2, ..., 46 and bounce back into -x, where they are retired unless the
    bounce is plastic; the `late` rows meet it at 0.5 m/s on those dt (at
    most 129), the last to take the rounds, so they are the Python floats'
    tail; six move in -x from the start at 0.3 to 1.3 m/s, clear of the wall
    from their first round; two are at rest, one of them on the inlet
    plane."""
    early, tail = wall_rows(np.arange(0, 48, 2)), wall_rows(late, speed=0.5)
    back = np.array([0.05, 0.2, 0.33, 0.41, 0.5, 0.64])
    x = np.concatenate([early.x, tail.x, back, [0.3, 0.0]])
    vx = np.concatenate([early.vx, tail.vx, -np.linspace(0.3, 1.3, len(back)), [0.0, 0.0]])
    return ParticleBurst(x, vx, np.full(len(x), 0.1), np.full(len(x), 0.2))


class TestCoastAndTail:
    """Bursts of 9-200 rows whose rows are retired in numpy rounds and whose
    last live rows go to Python floats equal `contact_steps`' per-dt
    reference bit for bit."""

    @pytest.mark.parametrize("restitution", [0.0, 0.5, 1.0])
    @pytest.mark.parametrize("late, steps, rested", [
        # at restitution 0 rows that hit the wall in the last round go to
        # the tail at rest
        ([60, 61, 62, 70, 90, 100, 110, 120, 125], 200, True),
        (list(range(50, 62)), 300, True),
        # 10 rows meet the wall on dt 55, so one round takes the live count
        # from 12 to 2, past the hand-off size
        ([55] * 10 + [80, 120], 150, False),
        # the run ends on the dt after, before any hand-off
        ([55] * 10 + [80, 120], 56, False),
    ])
    def test_wall_bursts_equal_stepping_every_dt(self, restitution, late, steps, rested):
        burst = retiring_burst(late)
        placed = PlacedGrid(WALL, replace(WALL_TUNNEL, restitution=restitution))
        tails = []
        rows = windtunnel._step_rows

        def handed(burst, placed, heatmap, steps, live, lanes, taken):
            if live.size:
                tails.append((live.size, burst.vx[live].tolist()))
            return rows(burst, placed, heatmap, steps, live, lanes, taken)

        with mock.patch.object(windtunnel, "_step_rows", handed):
            _step_batch(copy.deepcopy(burst), placed, np.zeros((8, 2), dtype=np.int64), steps)
        found, final = assert_per_dt(burst, placed, (8, 2), steps)
        assert len(late) > TAIL_ROWS
        # the six rows moving in -x are retired
        assert not final.alive[-8:-2].any()
        assert len(tails) == (steps > 56)
        if tails:
            assert 0 < tails[0][0] <= TAIL_ROWS
            assert (0.0 in tails[0][1]) == (restitution == 0.0 and rested)
        # every early row bounces off the wall
        assert {row for _, row in found} >= set(range(24))

    @given(data=st.data(), mph=st.floats(10.0, 120.0), ratio=st.sampled_from([0.5, 1.0, 2.5]),
           vs=st.sampled_from([0.05, 0.1]), restitution=st.sampled_from([0.0, 0.5, 1.0]),
           steps=st.integers(1, 200), seed=st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_random_bursts_equal_stepping_every_dt(self, data, mph, ratio, vs, restitution,
                                                   steps, seed):
        # 9-200 rows over and around a random grid, in +x or -x, some at rest
        w, l, h_max = (data.draw(st.integers(1, 6)) for _ in range(3))
        heights = np.array(data.draw(st.lists(st.integers(0, h_max), min_size=w * l,
                                              max_size=w * l))).reshape(w, l)
        r = ratio * vs
        extent = np.array([w, l, h_max]) * vs
        cfg = TunnelConfig(particle_radius=r, domain_size=tuple(extent + 0.5), dt=0.01,
                           restitution=restitution)
        placed = PlacedGrid(VoxelGrid(heights, h_max, vs), cfg)
        rng = np.random.default_rng(seed)
        m = data.draw(st.integers(TAIL_ROWS + 1, 200))
        x, y, z = (placed.origin + rng.uniform(-r - vs, extent + r + vs, size=(m, 3))).T
        vx = rng.uniform(-1.0, 1.0, size=m) * mph_to_mps(mph)
        vx[rng.uniform(size=m) < 0.05] = 0.0
        assert_per_dt(ParticleBurst(x, vx, y, z), placed, (w, l), steps)


class TestExports:
    def test_simresult_csv_roundtrip(self, wedge_grid):
        res = run_simulation(wedge_grid, desk_tunnel())
        parsed = simresult_from_csv(simresult_to_csv(res))
        assert parsed["drag_force"] == res.drag_force
        assert parsed["kinetic_energy"] == res.kinetic_energy
        assert parsed["collision_count"] == res.collision_count
        assert parsed["heightmap_sum"] == res.heightmap_sum

    def test_simresult_header(self):
        res = SimResult(0.0, 0.0, 0.0, 0.0, np.zeros((1, 1), dtype=np.int64))
        assert simresult_to_csv(res).splitlines()[0] == \
            "drag_force,kinetic_energy,collision_count,heightmap_sum"

    def test_negative_metric_rejected(self):
        with pytest.raises(ValueError):
            SimResult(-1.0, 0.0, 0.0, 0.0, np.zeros((1, 1)))

    def test_heatmap_pgm_minmax(self):
        tallies = np.array([[0, 5], [10, 10]])
        data = heatmap_to_pgm(tallies)
        assert data.startswith(b"P5\n2 2\n255\n")
        pixels = np.frombuffer(data.rsplit(b"\n", 1)[1], dtype=np.uint8)
        assert pixels.max() == 255
        assert pixels.min() == 0

    def test_heatmap_pgm_uniform_is_black(self):
        data = heatmap_to_pgm(np.full((2, 2), 7))
        pixels = np.frombuffer(data[len(b"P5\n2 2\n255\n"):], dtype=np.uint8)
        assert np.all(pixels == 0)

    def test_heatmap_csv_ints(self):
        assert heatmap_to_csv(np.array([[1, 2], [3, 4]])) == "1,2\n3,4\n"
