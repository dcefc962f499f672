import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from voxwind.env import (
    EnvConfig,
    ObjectiveMode,
    RewardWeights,
    WindTunnelEnv,
    _upsample_axis,
    bilinear_upsample,
    mean_pool,
    measure_baseline,
    reward,
)
from voxwind.errors import ConfigError
from voxwind.voxel import VoxelMask, synth_heightmap, voxelise
from voxwind.windtunnel import SimResult

from conftest import desk_tunnel


def make_env(mode=ObjectiveMode.KE_DF_VCC, baseline_seeds=1, mask=None,
             control=(4, 4), pool=(4, 4), episode_length=4, seed=7,
             amplitude=1.0, max_delta=2):
    grid = voxelise(synth_heightmap("wedge", 16, 16, amplitude), 8, 0.1)
    config = EnvConfig(
        grid=grid,
        tunnel=desk_tunnel(seed=seed, particle_count=48, max_steps=120),
        mode=mode,
        mask=mask,
        control_dims=control,
        pool_dims=pool,
        max_delta=max_delta,
        episode_length=episode_length,
        baseline_seeds=baseline_seeds,
    )
    return WindTunnelEnv(config)


def fake_result(drag=10.0, ke=5.0, cc=4.0, hs=100.0):
    return SimResult(drag, ke, cc, hs, np.zeros((2, 2), dtype=np.int64))


class TestReward:
    def test_baseline_is_zero_in_every_mode(self):
        base = fake_result()
        for mode in ObjectiveMode:
            assert reward(fake_result(), base, mode, RewardWeights()) == 0.0

    def test_ke_gain(self):
        base = fake_result()
        res = fake_result(ke=5.5)
        r = reward(res, base, ObjectiveMode.KE, RewardWeights(w_ke=1.0))
        assert r == pytest.approx(0.1)

    def test_df_drop_in_ke_df_mode(self):
        base = fake_result()
        res = fake_result(drag=9.0)
        r = reward(res, base, ObjectiveMode.KE_DF, RewardWeights(w_df=1.0))
        assert r == pytest.approx(0.1)

    def test_df_ignored_in_ke_mode(self):
        base = fake_result()
        res = fake_result(drag=2.0)
        assert reward(res, base, ObjectiveMode.KE, RewardWeights()) == 0.0

    def test_vcc_only_in_full_mode(self):
        base = fake_result()
        res = fake_result(cc=2.0)
        assert reward(res, base, ObjectiveMode.KE_DF, RewardWeights()) == 0.0
        r = reward(res, base, ObjectiveMode.KE_DF_VCC, RewardWeights(w_vcc=1.0))
        assert r == pytest.approx(0.5)

    def test_height_drift_penalised_both_ways(self):
        base = fake_result()
        w = RewardWeights(w_h=0.1)
        up = reward(fake_result(hs=110.0), base, ObjectiveMode.KE, w)
        down = reward(fake_result(hs=90.0), base, ObjectiveMode.KE, w)
        assert up == pytest.approx(-0.01)
        assert down == pytest.approx(-0.01)

    def test_monotone_directions(self):
        base = fake_result()
        w = RewardWeights()
        mode = ObjectiveMode.KE_DF_VCC
        r0 = reward(fake_result(), base, mode, w)
        assert reward(fake_result(ke=6.0), base, mode, w) > r0
        assert reward(fake_result(drag=11.0), base, mode, w) < r0
        assert reward(fake_result(cc=5.0), base, mode, w) < r0

    def test_zero_baseline_terms_disabled(self):
        base = fake_result(cc=0.0)
        res = fake_result(cc=3.0)
        assert reward(res, base, ObjectiveMode.KE_DF_VCC, RewardWeights()) == 0.0

    def test_scale_multiplier(self):
        base = fake_result()
        res = fake_result(ke=5.5)
        assert reward(res, base, ObjectiveMode.KE, RewardWeights(), scale=2.0) \
            == pytest.approx(0.2)


class TestPooling:
    def test_constant_field_pools_constant(self):
        out = mean_pool(np.full((16, 16), 0.25), (4, 4))
        np.testing.assert_allclose(out, 0.25)

    def test_known_blocks(self):
        field = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0], [3.0, 3.0]])
        out = mean_pool(field, (2, 1))
        np.testing.assert_allclose(out, [[0.5], [2.5]])

    def test_uneven_split(self):
        out = mean_pool(np.arange(15.0).reshape(5, 3), (2, 2))
        assert out.shape == (2, 2)

    def test_rejects_oversized_dims(self):
        with pytest.raises(ValueError):
            mean_pool(np.zeros((4, 4)), (5, 1))

    @pytest.mark.parametrize("shape, dims", [
        ((16, 16), (8, 8)), ((16, 16), (4, 4)), ((16, 16), (16, 16)), ((5, 3), (2, 2)),
        ((17, 13), (5, 4)), ((38, 28), (5, 23)), ((300, 2), (1, 1)), ((1, 1), (1, 1)),
    ])
    def test_equals_the_block_loop(self, shape, dims):
        rng = np.random.default_rng(3)
        for field in (rng.integers(0, 9, size=shape) / 7, rng.normal(size=shape) * 1e3):
            assert mean_pool(field, dims).tobytes() == loop_mean_pool(field, dims).tobytes()

    @given(data=st.data(), w=st.integers(1, 40), l=st.integers(1, 40),
           h=st.sampled_from([7, 8, 13]))
    @settings(max_examples=100, deadline=None)
    def test_any_split_equals_the_block_loop(self, data, w, l, h):
        dims = (data.draw(st.integers(1, w)), data.draw(st.integers(1, l)))
        heights = np.array(data.draw(st.lists(st.integers(0, h), min_size=w * l,
                                              max_size=w * l))).reshape(w, l)
        field = heights / h
        assert mean_pool(field, dims).tobytes() == loop_mean_pool(field, dims).tobytes()


def loop_mean_pool(field2d, dims):
    """The block mean one `np.array_split` block at a time."""
    xs = np.array_split(np.arange(field2d.shape[0]), dims[0])
    ys = np.array_split(np.arange(field2d.shape[1]), dims[1])
    out = np.empty(dims)
    for i, xi in enumerate(xs):
        for j, yj in enumerate(ys):
            out[i, j] = field2d[np.ix_(xi, yj)].mean()
    return out


def uncached_upsample(control, out_dims):
    """`bilinear_upsample` with its index and weight tables built per call."""
    def axis(k, n):
        c = (np.arange(n) + 0.5) * k / n - 0.5
        lo = np.clip(np.floor(c), 0, k - 1).astype(np.int64)
        return lo, np.minimum(lo + 1, k - 1), np.clip(c - lo, 0.0, 1.0)

    x0, x1, fx = axis(control.shape[0], out_dims[0])
    y0, y1, fy = axis(control.shape[1], out_dims[1])
    wx = fx[:, None]
    wy = fy[None, :]
    return (
        control[np.ix_(x0, y0)] * (1 - wx) * (1 - wy)
        + control[np.ix_(x1, y0)] * wx * (1 - wy)
        + control[np.ix_(x0, y1)] * (1 - wx) * wy
        + control[np.ix_(x1, y1)] * wx * wy
    )


class TestBilinearUpsample:
    @pytest.mark.parametrize("k, n", [((8, 8), (16, 16)), ((4, 4), (16, 16)), ((3, 5), (7, 11)),
                                      ((1, 2), (9, 2)), ((6, 6), (6, 6))])
    def test_equals_the_uncached_formula(self, k, n):
        rng = np.random.default_rng(4)
        for _ in range(3):     # the second and third calls read the cached tables
            control = rng.uniform(-1.0, 1.0, size=k)
            assert bilinear_upsample(control, n).tobytes() == \
                uncached_upsample(control, n).tobytes()

    def test_cached_tables_are_read_only(self):
        bilinear_upsample(np.zeros((3, 3)), (9, 9))
        for table in _upsample_axis(3, 9):
            with pytest.raises(ValueError):
                table[0] = 1

    def test_constant_is_exact(self):
        out = bilinear_upsample(np.full((3, 3), 0.7), (16, 16))
        np.testing.assert_allclose(out, 0.7)

    def test_shape(self):
        assert bilinear_upsample(np.zeros((2, 5)), (8, 20)).shape == (8, 20)

    def test_identity_when_dims_match(self):
        field = np.arange(9.0).reshape(3, 3)
        np.testing.assert_allclose(bilinear_upsample(field, (3, 3)), field)

    def test_interpolates_between_cells(self):
        control = np.array([[0.0], [1.0]])
        out = bilinear_upsample(control, (4, 1))
        assert out[0, 0] == pytest.approx(0.0)   # clamped at the edge
        assert out[3, 0] == pytest.approx(1.0)
        assert np.all(np.diff(out[:, 0]) >= 0)

    def test_values_within_control_range(self):
        rng = np.random.default_rng(0)
        control = rng.uniform(-1, 1, size=(4, 4))
        out = bilinear_upsample(control, (16, 16))
        assert out.min() >= control.min() - 1e-12
        assert out.max() <= control.max() + 1e-12


class TestEnvConfig:
    def test_control_dims_validated(self):
        grid = voxelise(synth_heightmap("flat", 4, 4, 0.0), 8, 0.1)
        config = EnvConfig(grid=grid, tunnel=desk_tunnel(), control_dims=(8, 8))
        with pytest.raises(ConfigError, match="env.control_dims"):
            config.validate()

    def test_mask_dims_validated(self):
        grid = voxelise(synth_heightmap("flat", 4, 4, 0.0), 8, 0.1)
        config = EnvConfig(grid=grid, tunnel=desk_tunnel(),
                           control_dims=(2, 2), pool_dims=(2, 2),
                           mask=VoxelMask(np.zeros((3, 3), dtype=bool)))
        with pytest.raises(ConfigError, match="env.mask"):
            config.validate()

    def test_weights_validated(self):
        grid = voxelise(synth_heightmap("flat", 4, 4, 0.0), 8, 0.1)
        config = EnvConfig(grid=grid, tunnel=desk_tunnel(),
                           control_dims=(2, 2), pool_dims=(2, 2),
                           weights=RewardWeights(w_h=0.0))
        with pytest.raises(ConfigError, match="env.weights.w_h"):
            config.validate()


class TestWindTunnelEnv:
    def test_observation_dimension(self):
        env = make_env(pool=(16, 16))
        assert env.observation_dim == 16 * 16 + 4
        obs = env.reset()
        assert obs.shape == (260,)

    def test_reset_metrics_slots_are_one(self):
        env = make_env(baseline_seeds=3)
        obs = env.reset()
        np.testing.assert_allclose(obs[-4:], 1.0)

    def test_reset_deterministic_across_instances(self):
        o1 = make_env().reset()
        o2 = make_env().reset()
        np.testing.assert_array_equal(o1, o2)

    def test_observation_finite(self):
        obs = make_env().reset()
        assert np.all(np.isfinite(obs))

    def test_observe_pure(self):
        env = make_env()
        env.reset()
        np.testing.assert_array_equal(env.observe(), env.observe())

    def test_constant_grid_pools_equal(self):
        grid = voxelise(synth_heightmap("box", 16, 16, 0.5), 8, 0.1)
        config = EnvConfig(grid=grid, tunnel=desk_tunnel(), control_dims=(4, 4),
                           pool_dims=(4, 4), baseline_seeds=1)
        env = WindTunnelEnv(config)
        obs = env.reset()
        pooled = obs[:16]
        assert np.all(pooled == pooled[0])
        assert pooled[0] == pytest.approx(4 / 8)

    def test_zero_action_zero_reward_with_single_seed_baseline(self):
        env = make_env(baseline_seeds=1)
        env.reset()
        _, r, _, info = env.act(np.zeros(env.action_dim))
        assert r == pytest.approx(0.0, abs=1e-12)
        assert info["result"].heightmap_sum == env.baseline.heightmap_sum

    def test_fully_masked_grid_never_changes(self):
        mask = VoxelMask(np.ones((16, 16), dtype=bool))
        env = make_env(mask=mask)
        env.reset()
        before = env.grid.column_heights.copy()
        rng = np.random.default_rng(0)
        for _ in range(5):
            env.act(rng.uniform(-1, 1, env.action_dim))
        np.testing.assert_array_equal(env.grid.column_heights, before)

    def test_full_push_up_clamps_at_h_max(self):
        env = make_env(max_delta=3)
        env.reset()
        before = env.grid.column_heights.copy()
        env.act(np.ones(env.action_dim))
        expected = np.minimum(before + 3, env.grid.h_max)
        np.testing.assert_array_equal(env.grid.column_heights, expected)

    def test_episode_termination(self):
        env = make_env(episode_length=3)
        env.reset()
        dones = [env.act(np.zeros(env.action_dim))[2] for _ in range(3)]
        assert dones == [False, False, True]

    def test_action_clamped(self):
        env = make_env(max_delta=2)
        env.reset()
        before = env.grid.column_heights.copy()
        env.act(np.full(env.action_dim, 100.0))  # clamps to +1
        expected = np.minimum(before + 2, env.grid.h_max)
        np.testing.assert_array_equal(env.grid.column_heights, expected)

    def test_action_size_checked(self):
        env = make_env()
        env.reset()
        with pytest.raises(ValueError):
            env.act(np.zeros(env.action_dim + 1))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_action_rejected(self, bad):
        env = make_env()
        env.reset()
        before = env.grid.column_heights.copy()
        with pytest.raises(ValueError, match="non-finite"):
            env.act(np.full(env.action_dim, bad))
        np.testing.assert_array_equal(env.grid.column_heights, before)

    def test_masked_columns_survive_random_sequence(self):
        frozen = np.zeros((16, 16), dtype=bool)
        frozen[2:6, 3:9] = True
        env = make_env(mask=VoxelMask(frozen), episode_length=64)
        env.reset()
        initial = env.config.grid.column_heights.copy()
        rng = np.random.default_rng(123)
        for _ in range(40):
            env.act(rng.uniform(-1, 1, env.action_dim))
        np.testing.assert_array_equal(env.grid.column_heights[frozen],
                                      initial[frozen])
        assert not np.array_equal(env.grid.column_heights, initial)

    def test_reset_restores_design(self):
        env = make_env()
        env.reset()
        initial = env.grid.column_heights.copy()
        env.act(np.ones(env.action_dim))
        env.reset()
        np.testing.assert_array_equal(env.grid.column_heights, initial)

    def test_vcc_disabled_for_flat_baseline(self):
        grid = voxelise(synth_heightmap("flat", 16, 16, 0.0), 8, 0.1)
        config = EnvConfig(grid=grid, tunnel=desk_tunnel(), control_dims=(4, 4),
                           pool_dims=(4, 4), baseline_seeds=1,
                           mode=ObjectiveMode.KE_DF_VCC)
        env = WindTunnelEnv(config)
        obs = env.reset()
        assert env.baseline.collision_count == 0.0
        # zero-baseline slots observe as 0, not a division blowup
        assert np.all(np.isfinite(obs))


class TestMeasureBaseline:
    def test_averages_over_seeds(self, wedge_grid):
        tunnel = desk_tunnel(seed=3, particle_count=32)
        base = measure_baseline(wedge_grid, tunnel, n_seeds=3)
        singles = [measure_baseline(wedge_grid,
                                    desk_tunnel(seed=3 + i, particle_count=32),
                                    n_seeds=1)
                   for i in range(3)]
        assert base.kinetic_energy == pytest.approx(
            np.mean([s.kinetic_energy for s in singles]))
        assert base.heatmap.shape == (16, 16)

    def test_seed_count_validated(self, wedge_grid):
        with pytest.raises(ValueError):
            measure_baseline(wedge_grid, desk_tunnel(), n_seeds=0)
