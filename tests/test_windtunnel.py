import math
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from voxwind import windtunnel
from voxwind.errors import ConfigError
from voxwind.voxel import VoxelGrid, synth_heightmap, voxelise
from voxwind.windtunnel import (
    SMALL_BATCH,
    ParticleBurst,
    PlacedGrid,
    SimResult,
    TunnelConfig,
    collision_count_metric,
    contact_query,
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
    step,
)

from conftest import (
    contacts_per_sphere,
    desk_tunnel,
    oracle_agrees,
    random_contact_batches,
    stepped_simulation,
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
        assert kinetic_energy(2.0, 0.0) == 0.0

    def test_ke_reference_value(self):
        assert kinetic_energy(2.0, 3.0) == 9.0

    @given(st.floats(0, 100), st.floats(0.01, 10))
    @settings(max_examples=50, deadline=None)
    def test_ke_quadratic(self, v, m):
        assert kinetic_energy(m, 2 * v) == pytest.approx(4 * kinetic_energy(m, v))

    def test_collision_count_empty(self):
        assert collision_count_metric([], 2, 10) == 0.0

    def test_collision_count_reference(self):
        assert collision_count_metric([60, 40], 2, 10) == 5.0

    def test_collision_count_identity_scaling(self):
        assert collision_count_metric([3, 4], 1, 1) == 7.0

    def test_collision_count_rejects_bad_divisors(self):
        with pytest.raises(ValueError):
            collision_count_metric([1], 0, 10)


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


def single_contact(pos, radius, grid):
    """contact_query for one sphere as ((x, y, z), normal) or None."""
    c = contact_query(pos, radius, grid.column_heights, grid.voxel_size)
    return contacts_per_sphere(c, 1)[0]


def lone_burst(position, velocity):
    return ParticleBurst(np.array([position], dtype=float), np.array([velocity], dtype=float))


def head_on_step(restitution, velocity=(1.0, 0.0, 0.0)):
    # tall column dead ahead; particle flies straight at its -x face
    grid = VoxelGrid(4, 1, 10, 0.1, np.array([[0], [0], [10], [0]]))
    cfg = desk_tunnel(particle_count=0)
    cfg = TunnelConfig(**{**cfg.__dict__, "restitution": restitution,
                          "domain_size": (0.4, 0.1, 1.0), "dt": 0.01})
    placed = PlacedGrid(grid, cfg)
    burst = lone_burst(placed.origin + [0.145, 0.05, 0.05], velocity)
    hm = np.zeros((4, 1), dtype=np.int64)
    contacts = step(burst, placed, hm)
    return burst, contacts, hm


class TestSphereVoxelContact:
    def test_far_particle_no_contact(self):
        grid = VoxelGrid(2, 2, 4, 0.1, np.full((2, 2), 2))
        assert single_contact([1.0, 1.0, 1.0], 0.05, grid) is None

    def test_center_inside_voxel(self):
        grid = VoxelGrid(2, 2, 4, 0.1, np.full((2, 2), 2))
        hit = single_contact([0.05, 0.05, 0.05], 0.03, grid)
        assert hit is not None
        assert hit[0] == (0, 0, 0)

    def test_face_normal_above_top(self):
        grid = VoxelGrid(1, 1, 4, 0.1, np.array([[2]]))
        c = contact_query([0.05, 0.05, 0.23], 0.05, grid.column_heights, grid.voxel_size)
        assert len(c) == 1
        assert (c.axis[0], c.sign[0]) == (2, 1.0)  # normal +z
        assert tuple(c.voxel[0]) == (0, 0, 1)
        assert c.penetration[0] == pytest.approx(0.02)

    def test_batch_rows_name_the_touching_spheres(self):
        grid = VoxelGrid(2, 2, 4, 0.1, np.full((2, 2), 2))
        centers = [[1.0, 1.0, 1.0], [0.05, 0.05, 0.05], [0.1, 0.1, 0.5],
                   [0.15, 0.15, 0.22], [2.0, 0.0, 0.0], [0.05, 0.15, 0.1]]
        c = contact_query(centers, 0.03, grid.column_heights, grid.voxel_size)
        assert len(centers) > SMALL_BATCH
        assert c.particle.tolist() == [1, 3, 5]

    def test_impact_speed_is_velocity_norm(self):
        _, contacts, _ = head_on_step(1.0, velocity=(3.0, 4.0, 0.0))
        assert len(contacts) == 1
        assert contacts.impact_speed[0] == pytest.approx(5.0)

    def test_matches_exhaustive_oracle_sample(self, monkeypatch):
        # 240 spheres, 12 per grid: as one batch (the vectorised query), in
        # chunks (a window is at least 3 voxels, so 100 candidates make chunks
        # of at most 3 spheres), and one sphere at a time (the scalar query)
        batches = list(random_contact_batches(20, 12, seed=42))
        assert 12 > SMALL_BATCH

        def batched():
            return [contacts_per_sphere(contact_query(centers, radius, grid.column_heights,
                                                      grid.voxel_size), len(centers))
                    for grid, centers, radius in batches]

        sides = [batched()]
        monkeypatch.setattr(windtunnel, "MAX_CANDIDATES", 100)
        sides += [batched(), [[single_contact(center, radius, grid) for center in centers]
                              for grid, centers, radius in batches]]
        for found in sides:
            for (grid, centers, radius), got in zip(batches, found):
                for center, one in zip(centers, got):
                    assert oracle_agrees(one, grid, center, radius)


class TestStep:
    def test_empty_grid_straight_line(self):
        grid = VoxelGrid(4, 4, 4, 0.1, np.zeros((4, 4), dtype=int))
        cfg = desk_tunnel(particle_count=0)
        burst = lone_burst([0.5, 0.5, 0.5], [1.0, 0.0, 0.0])
        hm = np.zeros((4, 4), dtype=np.int64)
        contacts = step(burst, PlacedGrid(grid, cfg), hm)
        assert len(contacts) == 0
        np.testing.assert_allclose(burst.position[0],
                                   [0.5 + cfg.dt, 0.5, 0.5])
        assert hm.sum() == 0

    def test_elastic_head_on(self):
        burst, contacts, hm = head_on_step(1.0)
        assert len(contacts) == 1
        np.testing.assert_allclose(burst.velocity[0], [-1.0, 0.0, 0.0])
        assert (contacts.axis[0], contacts.sign[0]) == (0, -1.0)  # normal -x
        assert contacts.particle.tolist() == [0]
        assert tuple(contacts.voxel[0]) == (2, 0, 0)
        assert hm[2, 0] == 1

    def test_plastic_head_on(self):
        burst, contacts, _ = head_on_step(0.0)
        assert len(contacts) == 1
        np.testing.assert_allclose(burst.velocity[0], [0.0, 0.0, 0.0])

    def test_exit_records_ke(self):
        # the exit energy is read from the velocity, which stays frozen after exit
        grid = VoxelGrid(2, 2, 2, 0.1, np.zeros((2, 2), dtype=int))
        cfg = TunnelConfig(particle_count=0, domain_size=(0.2, 0.2, 0.2), dt=0.5)
        burst = lone_burst([0.1, 0.1, 0.1], [2.0, 0.0, 0.0])
        hm = np.zeros((2, 2), dtype=np.int64)
        placed = PlacedGrid(grid, cfg)
        step(burst, placed, hm)
        assert not burst.alive[0]
        step(burst, placed, hm)
        assert not burst.alive[0]
        v = burst.velocity[0]
        assert 0.5 * cfg.particle_mass * (v @ v) == pytest.approx(0.5 * cfg.particle_mass * 4.0)

    def test_batch_matches_particles_stepped_alone(self):
        # Hits, near misses, separating contacts, exits and dead particles in
        # one step must come out as if every particle were stepped by itself.
        grid = VoxelGrid(4, 4, 6, 0.1, np.array(
            [[0, 2, 3, 0], [1, 6, 6, 2], [0, 4, 5, 1], [3, 0, 2, 2]]))
        cfg = TunnelConfig(domain_size=(0.8, 0.8, 0.8), dt=0.01, restitution=0.3)
        placed = PlacedGrid(grid, cfg)
        rng = np.random.default_rng(11)
        n = 400
        pos = placed.origin + rng.uniform(-0.1, 0.5, size=(n, 3)) * [1, 1, 1.4]
        vel = rng.normal(0.0, 3.0, size=(n, 3))
        was_alive = np.arange(n) % 7 != 0
        burst = ParticleBurst(pos.copy(), vel.copy())
        burst.alive[:] = was_alive
        hm = np.zeros((4, 4), dtype=np.int64)
        contacts = step(burst, placed, hm)

        # the batch holds every kind of particle this test is about
        drifted = pos + vel * cfg.dt - placed.origin
        touching = contact_query(drifted, cfg.particle_radius, grid.column_heights,
                                 grid.voxel_size).particle
        assert len(contacts) > SMALL_BATCH
        assert was_alive[touching].sum() > len(contacts)  # separating contacts
        assert len(touching) < n                          # misses
        assert (was_alive & ~burst.alive).any()           # exits

        rows = []
        alone_hm = np.zeros_like(hm)
        for i in range(n):
            one = lone_burst(pos[i], vel[i])
            one.alive[0] = was_alive[i]
            c = step(one, placed, alone_hm)
            rows += [i] * len(c)
            np.testing.assert_array_equal(burst.position[i], one.position[0])
            np.testing.assert_array_equal(burst.velocity[i], one.velocity[0])
            assert burst.alive[i] == one.alive[0]
        assert contacts.particle.tolist() == rows
        np.testing.assert_array_equal(hm, alone_hm)
        # dead particles stay dead with the velocity their exit energy is read from
        assert not burst.alive[~was_alive].any()
        np.testing.assert_array_equal(burst.velocity[~was_alive], vel[~was_alive])


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
        with pytest.raises(ValueError, match="domain"):
            run_simulation(wedge_grid, cfg)

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
           particles=st.sampled_from([0, 1, 4, 24]))
    @settings(max_examples=60, deadline=None)
    def test_equals_stepping_every_dt(self, data, mph, ratio, vs, dt, restitution, bursts,
                                      particles):
        w, l, h_max = (data.draw(st.integers(1, 8)) for _ in range(3))
        heights = np.array(data.draw(st.lists(st.integers(0, h_max), min_size=w * l,
                                              max_size=w * l))).reshape(w, l)
        grid = VoxelGrid(w, l, h_max, vs, heights)
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


class TestReach:
    def test_reach_covers_neighbors(self):
        grid = VoxelGrid(3, 3, 8, 0.1, np.array([[0, 0, 0], [0, 8, 0], [0, 0, 0]]))
        reach = neighborhood_reach(grid, 0.05)
        assert reach[0, 0] == 8  # adjacent to the tall column
        assert reach[2, 2] == 8


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
