import math
from dataclasses import replace

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
    drift_horizon,
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
    exhaustive_contact,
    random_contact_cases,
    stacked_contact_cases,
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
        # as one batch (the vectorised query), in chunks of a few spheres, and
        # per case (the scalar query)
        cases = list(random_contact_cases(200, seed=42))
        centers, radii, heights, vs = stacked_contact_cases(cases)
        one_batch = contact_query(centers, radii, heights, vs)
        monkeypatch.setattr(windtunnel, "MAX_CANDIDATES", 1000)
        chunked = contact_query(centers, radii, heights, vs)
        sides = (contacts_per_sphere(one_batch, len(cases)),
                 contacts_per_sphere(chunked, len(cases)),
                 [single_contact(pos, radius, grid) for grid, pos, radius in cases])
        for found in sides:
            for (grid, pos, radius), got in zip(cases, found):
                oracle = exhaustive_contact(pos, radius, grid)
                if oracle is None:
                    assert got is None
                else:
                    assert got is not None
                    assert got[0] == oracle[0]
                    np.testing.assert_array_equal(got[1], oracle[1])


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
        grid = VoxelGrid(2, 2, 2, 0.1, np.zeros((2, 2), dtype=int))
        cfg = TunnelConfig(particle_count=0, domain_size=(0.2, 0.2, 0.2), dt=0.5)
        burst = lone_burst([0.1, 0.1, 0.1], [2.0, 0.0, 0.0])
        hm = np.zeros((2, 2), dtype=np.int64)
        step(burst, PlacedGrid(grid, cfg), hm)
        assert not burst.alive[0]
        assert burst.exit_ke[0] == pytest.approx(0.5 * cfg.particle_mass * 4.0)

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
            assert burst.exit_ke[i] == one.exit_ke[0]
        assert contacts.particle.tolist() == rows
        np.testing.assert_array_equal(hm, alone_hm)
        assert not burst.exit_ke[~was_alive].any()  # dead particles never retire again


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


def stepped_safely(burst, placed, steps):
    """Call `step` `steps` times, asserting that each only drifts: no live
    particle comes near the grid or leaves the domain."""
    alive = burst.alive.copy()
    hm = np.zeros(placed.heights.shape, dtype=np.int64)
    for _ in range(steps):
        expected = burst.position + burst.velocity * placed.config.dt
        assert len(step(burst, placed, hm)) == 0
        assert burst.near == 0
        np.testing.assert_array_equal(burst.alive, alive)
        np.testing.assert_array_equal(burst.position, expected)


class TestDriftHorizon:
    # A 2x2 grid of 0.1 m voxels, 3 high, centered in a 2 m cube: the near
    # box is x, y in (0.9 - r, 1.1 + r), z in (-r, 0.3 + r). Calls ask for
    # at most max_steps (240) steps, the run length the slack is sized for.
    cfg = TunnelConfig(domain_size=(2.0, 2.0, 2.0), dt=0.01, particle_radius=0.05)
    grid = VoxelGrid(2, 2, 3, 0.1, np.full((2, 2), 3))

    def placed(self):
        return PlacedGrid(self.grid, self.cfg)

    def test_near_box(self):
        placed = self.placed()
        np.testing.assert_allclose(placed.origin + placed.far_lo, [0.85, 0.85, -0.05])
        np.testing.assert_allclose(placed.origin + placed.far_hi, [1.15, 1.15, 0.35])
        assert 0.0 < placed.inner_lo < 1e-9

    def test_far_particle_drifts_until_just_short_of_the_box(self):
        placed = self.placed()
        # 1 m/s in +x, 30 steps of 0.01 m short of the box's x = 0.85 face
        burst = lone_burst([0.55, 1.0, 0.2], [1.0, 0.0, 0.0])
        k = drift_horizon(burst, placed, 200)
        assert 28 <= k < 30
        stepped_safely(burst, placed, k)

    @pytest.mark.parametrize("steps_short", [1.0, 0.0])
    def test_one_step_short_and_on_the_boundary(self, steps_short):
        placed = self.placed()
        lo = placed.origin[0] - self.cfg.particle_radius
        for v in (1.0, 7.3, 14.0):     # two steps stay inside the 0.3 m box
            d = v * self.cfg.dt
            burst = lone_burst([lo - steps_short * d, 1.0, 0.2], [v, 0.0, 0.0])
            assert drift_horizon(burst, placed, 100) == 0
            hm = np.zeros((2, 2), dtype=np.int64)
            for _ in range(int(steps_short) + 1):
                step(burst, placed, hm)
            assert burst.near == 1      # the next step after the shortfall is near

    def test_leaving_the_boundary_drifts(self):
        placed = self.placed()
        lo = placed.origin[0] - self.cfg.particle_radius
        burst = lone_burst([lo, 1.0, 0.2], [-1.0, 0.0, 0.0])   # on the face, moving away
        assert drift_horizon(burst, placed, 200) == 0          # within the slack
        step(burst, placed, np.zeros((2, 2), dtype=np.int64))
        k = drift_horizon(burst, placed, 200)
        assert k >= 80              # about 84 steps to the x = 0 face
        stepped_safely(burst, placed, k)

    def test_top_of_the_box_from_above(self):
        placed = self.placed()
        top = placed.reach_top.max()
        burst = lone_burst([1.0, 1.0, top + 0.05], [0.0, 0.0, -1.0])
        k = drift_horizon(burst, placed, 200)
        assert 3 <= k < 5
        stepped_safely(burst, placed, k)
        hm = np.zeros((2, 2), dtype=np.int64)
        for _ in range(2):
            step(burst, placed, hm)
        assert burst.near == 1

    @pytest.mark.parametrize("velocity", [
        [0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [-1.0, -0.0, 0.0], [1.0, 1e-300, -1e-300],
        [1.0, 5e-324, -5e-324], [0.0, 1e-12, 0.0], [-3.0, -0.5, -0.2], [2.0, -0.0, -0.0],
    ])
    def test_zero_tiny_and_negative_velocity_components(self, velocity):
        placed = self.placed()
        # outside the near box in y, so only the domain faces limit the drift
        burst = lone_burst([0.2, 0.3, 1.0], velocity)
        k = drift_horizon(burst, placed, 200)
        if velocity[0] == 0.0 and velocity[2] == 0.0:
            assert k == 200
        stepped_safely(burst, placed, k)

    @pytest.mark.parametrize("axis", [0, 1, 2])
    @pytest.mark.parametrize("outward", [1.0, -1.0])
    def test_about_to_leave_through_each_face(self, axis, outward):
        placed = self.placed()
        v = np.zeros(3)
        v[axis] = 3.0 * outward
        d = 3.0 * self.cfg.dt
        pos = np.array([0.3, 0.3, 1.0])     # away from the grid on every axis
        pos[axis] = 2.0 - 2.5 * d if outward > 0 else 2.5 * d
        burst = lone_burst(pos, v)
        k = drift_horizon(burst, placed, 100)
        assert k == 1
        stepped_safely(burst, placed, k)
        hm = np.zeros((2, 2), dtype=np.int64)
        step(burst, placed, hm)
        assert burst.alive[0]
        step(burst, placed, hm)
        assert not burst.alive[0]    # the third step leaves the domain

    def test_capped_by_steps_left_and_zero_without_live_particles(self):
        placed = self.placed()
        burst = lone_burst([0.2, 0.3, 1.0], [0.0, 0.0, 0.0])
        assert drift_horizon(burst, placed, 7) == 7
        burst.alive[0] = False
        assert drift_horizon(burst, placed, 7) == 0
        assert drift_horizon(ParticleBurst(np.zeros((0, 3)), np.zeros((0, 3))), placed, 7) == 0

    def test_random_particles_only_drift_within_the_horizon(self):
        placed = self.placed()
        rng = np.random.default_rng(5)
        checked = 0
        for _ in range(300):
            n = int(rng.integers(1, 4))
            pos = rng.uniform(0.0, 2.0, size=(n, 3))
            vel = rng.normal(0.0, 10.0, size=(n, 3)) * (rng.random((n, 3)) < 0.8)
            burst = ParticleBurst(pos, vel)
            k = drift_horizon(burst, placed, 60)
            checked += k
            stepped_safely(burst, placed, k)
        assert checked > 1000


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
        got, want = run_simulation(grid, cfg), stepped_simulation(grid, cfg)
        assert got.metrics() == want.metrics()
        np.testing.assert_array_equal(got.heatmap, want.heatmap)

    def test_desk_runs_equal_stepping_every_dt(self, wedge_grid):
        for mph in (10.0, 60.0, 120.0):
            cfg = replace(desk_tunnel(particle_count=40), air_speed=mph)
            got, want = run_simulation(wedge_grid, cfg), stepped_simulation(wedge_grid, cfg)
            assert got.metrics() == want.metrics()
            np.testing.assert_array_equal(got.heatmap, want.heatmap)


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
