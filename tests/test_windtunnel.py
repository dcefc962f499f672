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
    SMALL_BATCH,
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
    neighborhood_reach,
    run_simulation,
    simresult_from_csv,
    simresult_to_csv,
    spawn_burst,
)

from conftest import (
    batch_query,
    contacts_per_sphere,
    desk_tunnel,
    exhaustive_contact,
    grid_query,
    oracle_agrees,
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
        np.testing.assert_array_equal(b1.position, b2.position)
        np.testing.assert_array_equal(b1.velocity, b2.velocity)

    def test_spawn_plane_and_speed(self):
        cfg = desk_tunnel(particle_count=50)
        burst = spawn_burst(cfg, [np.random.default_rng(1)])
        assert np.all(burst.position[:, 0] == 0.0)
        assert np.all(burst.position[:, 1] >= 0)
        assert np.all(burst.position[:, 1] <= cfg.domain_size[1])
        assert np.all(burst.position[:, 2] <= cfg.domain_size[2])
        speeds = np.linalg.norm(burst.velocity, axis=1)
        np.testing.assert_allclose(speeds, mph_to_mps(cfg.air_speed))

    def test_bursts_stack_in_generator_order(self):
        cfg = desk_tunnel(particle_count=7)
        stacked = spawn_burst(cfg, [np.random.default_rng(s) for s in (3, 4, 5)])
        assert len(stacked) == 21
        for k, s in enumerate((3, 4, 5)):
            alone = spawn_burst(cfg, [np.random.default_rng(s)])
            np.testing.assert_array_equal(stacked.position[7 * k:7 * (k + 1)], alone.position)
            np.testing.assert_array_equal(stacked.velocity[7 * k:7 * (k + 1)], alone.velocity)


class TestParticleBurst:
    @pytest.mark.parametrize("velocity", [[1.0, 1e-300, 0.0], [0.0, 0.0, -2.0],
                                          [-3.0, math.nan, 0.0], [0.0, 0.0, math.inf]])
    def test_rejects_off_axis_velocity(self, velocity):
        # the one check of the x-only contract both steppers rely on
        rows = [[1.0, 0.0, 0.0], velocity]
        with pytest.raises(ValueError, match="along x"):
            ParticleBurst(np.zeros((2, 3)), rows)
        ParticleBurst(np.zeros((2, 3)), [[1.0, 0.0, 0.0], [-3.0, -0.0, 0.0]])


def single_contact(pos, radius, grid):
    """The contact query for one sphere as ((x, y, z), normal) or None."""
    return contacts_per_sphere(grid_query(pos, radius, grid), 1)[0]


def lone_burst(position, velocity):
    return ParticleBurst(np.array([position], dtype=float), np.array([velocity], dtype=float))


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
    """Both steppers over `steps` dt, each on its own copy of `burst` and a
    zero (W, L) = `shape` heatmap, asserted equal in their rows and speeds
    (values and dtypes), their heatmaps and their final bursts. Returns
    `_step_batch`'s (rows, speeds), heatmap and burst."""
    runs = []
    for stepper in (windtunnel._step_batch, windtunnel._step_each):
        own, hm = copy.deepcopy(burst), np.zeros(shape, dtype=np.int64)
        runs.append((stepper(own, placed, hm, steps), hm, own))
    got, got_hm, got_burst = runs[0]
    assert got[0].dtype == np.intp and got[1].dtype == np.float64
    for want, want_hm, want_burst in runs[1:]:
        assert_same_contacts(got, want)
        np.testing.assert_array_equal(got_hm, want_hm)
        for name in ("position", "velocity", "alive"):
            np.testing.assert_array_equal(getattr(got_burst, name), getattr(want_burst, name))
    return runs[0]


def head_on_step(restitution, velocity=(1.0, 0.0, 0.0)):
    # tall column dead ahead; particle flies straight at its -x face
    grid = VoxelGrid(np.array([[0], [0], [10], [0]]), 10, 0.1)
    cfg = desk_tunnel(particle_count=0)
    cfg = TunnelConfig(**{**cfg.__dict__, "restitution": restitution,
                          "domain_size": (0.4, 0.1, 1.0), "dt": 0.01})
    placed = PlacedGrid(grid, cfg)
    (rows, speeds), hm, burst = step_both(
        lone_burst(placed.origin + [0.145, 0.05, 0.05], velocity), placed, (4, 1), 1)
    return burst.position[0] - placed.origin, burst, rows, speeds, hm


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
        *_, speeds, _ = head_on_step(1.0, velocity=(5.0, 0.0, 0.0))
        assert speeds.tolist() == [5.0]

    def test_matches_exhaustive_oracle_sample(self, monkeypatch):
        # 240 spheres, 12 per grid: as one batch (the vectorised query), in
        # chunks (a window is at least 3 voxels, so 100 candidates make chunks
        # of at most 3 spheres), and one sphere at a time through the scalar
        # core that `_step_each` takes
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
        grid = VoxelGrid(np.zeros((4, 4), dtype=int), 4, 0.1)
        cfg = desk_tunnel(particle_count=0)
        (rows, speeds), hm, burst = step_both(lone_burst([0.5, 0.5, 0.5], [1.0, 0.0, 0.0]),
                                              PlacedGrid(grid, cfg), (4, 4), 1)
        assert len(rows) == len(speeds) == 0
        np.testing.assert_allclose(burst.position[0],
                                   [0.5 + cfg.dt, 0.5, 0.5])
        assert hm.sum() == 0

    def test_elastic_head_on(self):
        loc, burst, rows, _, hm = head_on_step(1.0)
        assert rows.tolist() == [0]
        # normal -x: reflected along x, and popped back out of voxel (2, 0, 0)
        # to touch its -x face at 0.2 m
        np.testing.assert_allclose(burst.velocity[0], [-1.0, 0.0, 0.0])
        np.testing.assert_allclose(loc, [0.2 - 0.05, 0.05, 0.05])
        assert hm[2, 0] == hm.sum() == 1

    def test_plastic_head_on(self):
        _, burst, rows, _, _ = head_on_step(0.0)
        assert rows.tolist() == [0]
        np.testing.assert_allclose(burst.velocity[0], [0.0, 0.0, 0.0])

    def test_exit_records_ke(self):
        # the exit energy is read from the velocity, which stays frozen after exit
        grid = VoxelGrid(np.zeros((2, 2), dtype=int), 2, 0.1)
        cfg = TunnelConfig(particle_count=0, domain_size=(0.2, 0.2, 0.2), dt=0.5)
        # both steppers stop after the exit, one dt into the two asked for
        _, _, burst = step_both(lone_burst([0.1, 0.1, 0.1], [2.0, 0.0, 0.0]),
                                PlacedGrid(grid, cfg), (2, 2), 2)
        assert not burst.alive[0]
        np.testing.assert_array_equal(burst.position[0], [0.1 + 2.0 * 0.5, 0.1, 0.1])
        v = burst.velocity[0]
        assert 0.5 * cfg.particle_mass * (v @ v) == pytest.approx(0.5 * cfg.particle_mass * 4.0)

    def test_batch_matches_particles_stepped_alone(self):
        # Hits, near misses, separating contacts, exits and dead particles in
        # one step must come out as if every particle were stepped by itself.
        grid = VoxelGrid(np.array(
            [[0, 2, 3, 0], [1, 6, 6, 2], [0, 4, 5, 1], [3, 0, 2, 2]]), 6, 0.1)
        cfg = TunnelConfig(domain_size=(0.8, 0.8, 0.8), dt=0.01, restitution=0.3)
        placed = PlacedGrid(grid, cfg)
        rng = np.random.default_rng(11)
        n = 400
        pos = placed.origin + rng.uniform(-0.1, 0.5, size=(n, 3)) * [1, 1, 1.4]
        vel = rng.normal(0.0, 3.0, size=(n, 3))
        vel[:, 1:] = 0.0   # every row moves along x, in +x or -x
        was_alive = np.arange(n) % 7 != 0
        burst = ParticleBurst(pos.copy(), vel.copy())
        burst.alive[:] = was_alive
        hm = np.zeros((4, 4), dtype=np.int64)
        rows, _ = _step_batch(burst, placed, hm, 1)

        # the batch holds every kind of particle this test is about
        drifted = pos + vel * cfg.dt - placed.origin
        touching = grid_query(drifted, cfg.particle_radius, grid)[0]
        assert was_alive[touching].sum() > len(rows)  # separating contacts
        assert len(touching) < n                      # misses
        assert (was_alive & ~burst.alive).any()       # exits

        alone_rows = []
        alone_hm = np.zeros_like(hm)
        for i in range(n):
            one = lone_burst(pos[i], vel[i])
            one.alive[0] = was_alive[i]
            alone_rows += [i] * len(_step_batch(one, placed, alone_hm, 1)[0])
            np.testing.assert_array_equal(burst.position[i], one.position[0])
            np.testing.assert_array_equal(burst.velocity[i], one.velocity[0])
            assert burst.alive[i] == one.alive[0]
        assert rows.tolist() == alone_rows
        np.testing.assert_array_equal(hm, alone_hm)
        # dead particles stay dead where they were, with the velocity their
        # exit energy is read from
        assert not burst.alive[~was_alive].any()
        np.testing.assert_array_equal(burst.position[~was_alive], pos[~was_alive])
        np.testing.assert_array_equal(burst.velocity[~was_alive], vel[~was_alive])


def step_querying_every_live_row(burst, placed, heatmap):
    """One dt of `_step_batch` with a near test that admits every live row,
    as a reference."""
    everything = copy.copy(placed)
    everything.reach = np.full_like(placed.reach, np.inf)
    return _step_batch(burst, everything, heatmap, 1)


class TestNearTable:
    @pytest.mark.parametrize("ratio", [0.2, 0.5, 1.0, 1.5, 2.5])
    def test_step_equals_querying_every_live_row(self, ratio):
        # k = ceil(r / vs) is 1, 1, 1, 2 and 3. Rows sit in the k + 1 rings
        # of table cells just outside the footprint, on both sides of every
        # domain face and, dead, beside the grid; the reach table may leave a
        # row out only if the query would give it no contact.
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
            pos = placed.origin + loc
            faces = rng.integers(0, 3, size=n // 3)
            far = rng.integers(0, 2, size=n // 3).astype(bool)
            rows = np.arange(n // 3)
            pos[rows, faces] = np.where(far, domain[faces], 0.0) + rng.uniform(-r, r, n // 3)
            vel = rng.normal(0.0, 1.5 * vs / cfg.dt / 3, size=(n, 3))
            vel[:, 1:] = 0.0   # every row moves along x, in +x or -x
            burst = ParticleBurst(pos, vel)
            burst.alive[rng.uniform(size=n) < 0.2] = False
            ref = ParticleBurst(pos.copy(), vel.copy())
            ref.alive[:] = burst.alive
            hm, ref_hm = np.zeros((w, l), dtype=np.int64), np.zeros((w, l), dtype=np.int64)
            for _ in range(3):
                before = (burst.position + burst.velocity * cfg.dt - placed.origin)[:, :2]
                rows, speeds = _step_batch(burst, placed, hm, 1)
                assert_same_contacts((rows, speeds),
                                     step_querying_every_live_row(ref, placed, ref_hm))
                for name in ("position", "velocity", "alive"):
                    np.testing.assert_array_equal(getattr(burst, name), getattr(ref, name))
                np.testing.assert_array_equal(hm, ref_hm)
                cell = np.floor(before[rows] / vs)
                outer = (cell == -k) | (cell == np.array([w, l]) - 1 + k)
                ring_contacts += int(outer.any(axis=1).sum())
        # rows k columns off the footprint, in the outermost ring whose
        # window reaches it, made contacts, so a table one ring short fails
        # this test
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
    """(vs, r, (W, L) heights, (m, 3) centers): up to 12 spheres of one radius
    on and one ulp off the voxel boundaries of a grid of at most 6^3, whose
    edge columns may be empty."""
    vs = draw(st.sampled_from([0.05, 0.1, 0.2]) | st.floats(0.05, 0.2))
    r = draw(st.floats(0.1, 3.0)) * vs
    w, l, h_max = (draw(st.integers(1, 6)) for _ in range(3))
    heights = np.array(draw(st.lists(st.integers(0, h_max), min_size=w * l,
                                     max_size=w * l))).reshape(w, l)
    for edge in draw(st.sets(st.sampled_from(["-x", "+x", "-y", "+y"]))):
        heights[{"-x": (0, slice(None)), "+x": (-1, slice(None)),
                 "-y": (slice(None), 0), "+y": (slice(None), -1)}[edge]] = 0
    centers = np.array([[boundary_coordinate(draw, vs, r, n) for n in (w, l, h_max)]
                        for _ in range(draw(st.integers(1, 12)))])
    return vs, r, heights, centers


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
        # sphere's own window decides which voxels are candidates.
        vs, r, heights, centers = case
        got = batch_query(centers, r, heights, vs)
        rows = {}
        if got is not None:
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
        # steppers agree that a sphere exactly TOUCH_R from a voxel touches
        # nothing, and that a radius one ulp larger touches it. The queries
        # take TOUCH_CENTER below voxel (1, 1, 0). The steppers' rows move
        # along x, so theirs meets the -x face of voxel (0, 1, 0), which lies
        # on x = 0: its distance squared is again (-r) * (-r) = r * r
        assert (-TOUCH_R) ** 2 < TOUCH_R * TOUCH_R
        grid = VoxelGrid(TOUCH_HEIGHTS, 1, TOUCH_VS)
        beside = np.zeros_like(TOUCH_HEIGHTS)
        beside[0, 1] = 1
        wall = VoxelGrid(beside, 1, TOUCH_VS)
        center = (-TOUCH_R, 0.3, 0.1)
        velocity = np.array([1.0, 0.0, 0.0])    # in +x, into the voxel's -x face
        start = np.array(center) - velocity * 0.25
        assert tuple(start + velocity * 0.25) == center    # one dt lands on it
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
            (rows, _), hm, _ = step_both(lone_burst(start, velocity), placed, (6, 6), 1)
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

    # the chunked query the steppers call, and one unchunked batch
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

    # the numpy stepper, and the row-at-a-time stepper of bursts of at most
    # SMALL_BATCH rows, which takes the scalar core. Rows move along x, one
    # dt from the center: into the -x face, which bounces a row one ulp
    # inside r and not one at r, and past the -y and top faces, which give
    # a row moving along x no impulse, so neither of its centers is a contact
    @pytest.mark.parametrize("stepper", ["_step_batch", "_step_each"])
    @pytest.mark.parametrize("center, toward, axis, sign", CASES)
    def test_step_is_strict(self, center, toward, axis, sign, stepper):
        cfg = TunnelConfig(particle_radius=self.R, domain_size=(1.5, 1.5, 1.5), dt=0.25)
        placed = PlacedGrid(self.GRID, cfg)
        assert not placed.origin.any()
        velocity = np.array([1.0, 0.0, 0.0])
        voxel_center = np.array([0.75, 0.75, 0.25])   # of voxel (1, 1, 0)
        for target, hits in ((np.array(center), 0),
                             (np.nextafter(center, toward), int(axis == 0))):
            burst = lone_burst(target - velocity * cfg.dt, velocity)
            hm = np.zeros((3, 3), dtype=np.int64)
            found = len(getattr(windtunnel, stepper)(burst, placed, hm, 1)[0])
            if hits:
                pen = (self.R + 0.5 * self.VS) - abs(target[axis] - voxel_center[axis])
                assert burst.position[0, axis] == target[axis] + sign * pen
            else:
                np.testing.assert_array_equal(burst.position[0], target)
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
    its SimResult and in the final state of its burst, which shows the step
    a contact came in."""
    spawned = []

    def spawn(*args):
        spawned.append(spawn_burst(*args))
        return spawned[-1]

    with mock.patch.object(windtunnel, "spawn_burst", spawn):
        got = run_simulation(grid, cfg)
    want, burst = stepped_simulation(grid, cfg)
    assert got.metrics() == want.metrics()
    np.testing.assert_array_equal(got.heatmap, want.heatmap)
    for name in ("position", "velocity", "alive"):
        np.testing.assert_array_equal(getattr(spawned[0], name), getattr(burst, name))
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


class TestStepEach:
    """Bursts of at most SMALL_BATCH rows step one row at a time in Python
    floats; larger ones take the numpy `_step_batch`."""

    def test_learner_tunnel_equals_stepping_every_dt(self, wedge_grid):
        # the 4-particle, 1-burst tunnel of a learner-sized training run
        learner = desk_tunnel(particle_count=4, burst_count=1, max_steps=40)
        for mph in (10.0, 60.0, 120.0):
            impacts = sum(
                checked_simulation(wedge_grid, replace(learner, air_speed=mph, seed=seed))
                .heatmap.sum() for seed in range(16))
            assert impacts > 0, mph

    def test_selected_by_burst_rows(self, wedge_grid):
        def no_step(*args):
            raise AssertionError("numpy stepper called")

        cfg = desk_tunnel(particle_count=SMALL_BATCH, burst_count=1)
        with mock.patch.object(windtunnel, "_step_batch", no_step):
            assert run_simulation(wedge_grid, cfg).collision_count > 0
            with pytest.raises(AssertionError, match="numpy stepper"):
                run_simulation(wedge_grid, replace(cfg, particle_count=SMALL_BATCH + 1))


class TestSteppersAgree:
    """`_step_batch` and `_step_each`, on copies of one burst over the same
    number of dt, give the same rows, speeds, heatmap and final burst. Both
    are called directly, so burst sizes on either side of SMALL_BATCH go
    through both; few rows and many are drawn as often."""

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
        pos = placed.origin + rng.uniform(-r - vs, extent + r + vs, size=(m, 3))
        vel = np.zeros((m, 3))
        vel[:, 0] = rng.uniform(-1.0, 1.0, size=m) * mph_to_mps(mph)
        burst = ParticleBurst(pos, vel)
        burst.alive[rng.uniform(size=m) < 0.2] = False
        step_both(burst, placed, (w, l), steps)

    @pytest.mark.parametrize("rows", [1, 8, 9, 40])
    def test_equal_on_desk_bursts(self, wedge_grid, rows):
        # spawned bursts from the inlet, over every dt of a desk run on the
        # wedge and the box. At 60 and 120 mph some particles crawl through
        # the solid columns to max_steps, touching them about ten times each
        # (`_step_each` of 40 rows: 50 contacts on the box at 60 mph, 4 rows
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
        # y / vs of rows 1 and 2 is past int64: their column cells clamp onto
        # the near table's -inf ring, like any cell off the table, and no
        # cast of them warns
        cfg = desk_tunnel(particle_count=6, burst_count=1)
        burst = spawn_burst(cfg, [np.random.default_rng(5)])
        burst.position[1:3, 1] = (1e30, -1e30)
        (hits, _), _, _ = step_both(burst, PlacedGrid(wedge_grid, cfg),
                                    (wedge_grid.width, wedge_grid.length), cfg.max_steps)
        assert not np.isin([1, 2], hits).any()


def contact_steps(burst, placed, shape, steps):
    """`_step_each` on a copy of `burst`, one dt at a time, as the per-dt
    reference: the (dt, row) of every contact, and the dt taken before no
    row was alive or `steps` ran out."""
    own, hm = copy.deepcopy(burst), np.zeros(shape, dtype=np.int64)
    found, t = [], 0
    while t < steps and own.alive.any():
        found += [(t, int(row)) for row in windtunnel._step_each(own, placed, hm, 1)[0]]
        t += 1
    return found, t


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
    pos = np.column_stack([x, np.full(len(x), 0.1), np.full(len(x), 0.2)])
    return ParticleBurst(pos, np.tile([speed, 0.0, 0.0], (len(x), 1)))


class TestLookahead:
    """`_step_batch` takes each row's dt in rounds over its own look-ahead
    window, LOOKAHEAD // 2 dt first, then twice what it advanced, at most
    LOOKAHEAD; `_step_each` stepped one dt at a time is the reference. A row
    that never touches the wall has windows [0, 6), [6, 18), [18, 30), ...
    for a LOOKAHEAD of 12."""

    @pytest.mark.parametrize("steps", sorted({1, 2, 3, LOOKAHEAD // 2 - 1, LOOKAHEAD // 2,
                                              LOOKAHEAD // 2 + 1, LOOKAHEAD, 3 * LOOKAHEAD + 4}))
    def test_a_contact_on_each_dt_of_the_first_windows(self, steps):
        # row t touches the wall on dt t: on the first and the last dt of each
        # of its first windows, and between; `steps` cuts windows short
        placed = PlacedGrid(WALL, WALL_TUNNEL)
        burst = wall_rows(range(3 * LOOKAHEAD))
        found, taken = contact_steps(burst, placed, (8, 2), steps)
        assert found == [(t, t) for t in range(min(steps, 3 * LOOKAHEAD))]
        assert taken == steps
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
        burst = ParticleBurst(np.tile([0.15, 0.05, 0.25], (2, 1)), [[3.0, 0.0, 0.0], [0.0] * 3])
        steps = 3 * LOOKAHEAD + 1
        found, _ = contact_steps(burst, placed, (3, 1), steps)
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
        found, taken = contact_steps(burst, placed, (8, 2), steps)
        assert found == [(0, 1)] and taken == steps
        _, _, final = step_both(burst, placed, (8, 2), steps)
        assert final.alive.all()

    def test_the_run_stops_when_the_last_row_exits_mid_window(self):
        # rows leave through the inlet face mid-window on dt 3, 9 and 20, and
        # one after bouncing off the wall on dt 2; the run stops when the last
        # one exits, far short of `steps`. Each row stays at its exit x, and a
        # row dead on entry stays where it was
        placed = PlacedGrid(WALL, replace(WALL_TUNNEL, restitution=1.0))
        d = WALL_TUNNEL.dt
        out = np.array([3, 9, 20])
        pos = np.column_stack([(out + 0.5) * d, np.full(3, 0.1), np.full(3, 0.2)])
        burst = ParticleBurst(
            np.vstack([pos, wall_rows([2]).position, [[0.4, 0.1, 0.1]]]),
            np.vstack([np.tile([-1.0, 0.0, 0.0], (3, 1)), [[1.0, 0.0, 0.0], [0.3, 0.0, 0.0]]]))
        burst.alive[4] = False
        steps = 400
        found, taken = contact_steps(burst, placed, (8, 2), steps)
        assert found == [(2, 3)] and 20 < taken < steps
        _, _, final = step_both(burst, placed, (8, 2), steps)
        assert not final.alive.any()
        for row, n in enumerate(out):
            x = burst.position[row, 0]
            for _ in range(n + 1):
                x += burst.velocity[row, 0] * d
            assert x < 0.0 and final.position[row, 0] == x
        _, _, alone = step_both(ParticleBurst(burst.position[3:4], burst.velocity[3:4]),
                                placed, (8, 2), steps)
        assert final.position[3, 0] == alone.position[0, 0] < 0.0
        np.testing.assert_array_equal(final.position[4], burst.position[4])

    def test_rows_that_all_enter_dead_do_not_move(self):
        burst = wall_rows([2, 7])
        burst.alive[:] = False
        _, _, final = step_both(burst, PlacedGrid(WALL, WALL_TUNNEL), (8, 2), 10)
        np.testing.assert_array_equal(final.position, burst.position)


def edge_ring_reach(grid, r):
    """The reach table as it was once built: r above the tallest column within
    k = ceil(r / vs) columns over the footprint (r where all are empty), the
    edge entries repeated over k rings, then one ring of -inf."""
    k = math.ceil(r / grid.voxel_size)
    h = grid.column_heights
    w, l = h.shape
    top = np.array([[h[max(x - k, 0):x + k + 1, max(y - k, 0):y + k + 1].max()
                     for y in range(l)] for x in range(w)])
    x, y = (np.clip(np.arange(-k - 1, n + k + 1), 0, n - 1) for n in (w, l))
    table = (top * grid.voxel_size + r)[x[:, None], y]
    table[[0, -1]] = table[:, [0, -1]] = -np.inf
    return table


class TestReach:
    def test_reach_covers_neighbors(self):
        # k = 1, so cell c is column c - 2 and sees columns c - 3 .. c - 1
        grid = VoxelGrid(np.array([[0, 0, 0], [0, 8, 0], [0, 0, 0]]), 8, 0.1)
        reach, _ = neighborhood_reach(grid, 0.05)
        assert reach.shape == (7, 7)
        assert reach[2, 2] == reach[4, 4] == 8 * 0.1 + 0.05  # adjacent to the tall column
        assert reach[1, 3] == reach[0, 0] == -np.inf         # two columns away, or more

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_matches_brute_force_window(self, k):
        rng = np.random.default_rng(k)
        for _ in range(25):
            w, l = (int(v) for v in rng.integers(1, 9, size=2))
            vs = float(rng.choice([0.05, 0.1, 0.2]))
            r = vs * (k - 1 + float(rng.uniform(0.01, 0.99)))
            assert math.ceil(r / vs) == k
            h = rng.integers(0, 6, size=(w, l))
            h[rng.uniform(size=(w, l)) < 0.4] = 0
            grid = VoxelGrid(h, 5, vs)
            reach, padded = neighborhood_reach(grid, r)
            np.testing.assert_array_equal(padded, np.pad(h, 2 * k + 1))
            pad = k + 1
            want = np.full((w + 2 * pad, l + 2 * pad), -np.inf)
            for cx, cy in np.ndindex(want.shape):
                x, y = cx - pad, cy - pad
                window = h[max(x - k, 0):max(x + k + 1, 0), max(y - k, 0):max(y + k + 1, 0)]
                if window.size and window.max() > 0:
                    want[cx, cy] = r + vs * window.max()
            np.testing.assert_array_equal(reach, want)
            assert (reach <= edge_ring_reach(grid, r)).all()


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
