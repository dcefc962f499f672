import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from voxwind import nn
from voxwind.errors import ConfigError, TrainingError
from voxwind.ppo import (
    PpoConfig,
    RolloutBuffer,
    clipped_surrogate,
    compute_gae,
    linear_schedule,
    normalize_advantages,
    ppo_loss_and_grads,
    ppo_update,
    probability_ratio,
    train,
    write_trace_csv,
)
from voxwind.windtunnel import SimResult

from test_nn import central_differences, max_rel_error


def gae_bruteforce(rewards, values, dones, gamma, lam, bootstrap):
    """Forward unroll of the advantage sum; independent of the recursion."""
    n = len(rewards)
    vals = list(values) + [bootstrap]
    out = []
    for t in range(n):
        total, coef = 0.0, 1.0
        for l in range(t, n):
            nonterminal = 1.0 - dones[l]
            delta = rewards[l] + gamma * vals[l + 1] * nonterminal - values[l]
            total += coef * delta
            if dones[l]:
                break
            coef *= gamma * lam
        out.append(total)
    return np.array(out)


class QuadraticBowlEnv:
    """Toy env: reward peaks when every action component hits `target`."""

    observation_dim = 3
    action_dim = 2

    def __init__(self, target=0.5, episode_length=8):
        self.target = target
        self.episode_length = episode_length
        self._t = 0
        self._zero = SimResult(0.0, 0.0, 0.0, 0.0, np.zeros((1, 1), dtype=np.int64))

    def reset(self):
        self._t = 0
        return self.observe()

    def observe(self):
        return np.array([1.0, 0.5, self._t / self.episode_length])

    def act(self, action):
        a = np.clip(np.asarray(action, dtype=np.float64), -1.0, 1.0)
        reward = 1.0 - float(np.mean((a - self.target) ** 2))
        self._t += 1
        done = self._t >= self.episode_length
        return self.observe(), reward, done, {"result": self._zero}


class FailingEnv(QuadraticBowlEnv):
    def act(self, action):
        raise RuntimeError("boom")


def small_config(**overrides):
    base = dict(
        batch_size=16,
        buffer_size=64,
        learning_rate=1e-2,
        learning_rate_final=1e-2,
        epsilon=0.2,
        epsilon_final=0.2,
        epochs=4,
        max_training_steps=256,
        time_horizon=8,
        hidden_layers=1,
        hidden_units=16,
        seed=0,
    )
    base.update(overrides)
    return PpoConfig(**base)


class TestProbabilityRatio:
    def test_equal_logprobs(self):
        assert probability_ratio(-1.3, -1.3) == 1.0

    def test_ln2_gap(self):
        assert probability_ratio(math.log(2.0), 0.0) == pytest.approx(2.0)

    @given(st.floats(-20, 20), st.floats(-20, 20))
    @settings(max_examples=100, deadline=None)
    def test_always_positive(self, a, b):
        assert probability_ratio(a, b) > 0


class TestClippedSurrogate:
    def test_identity_ratio(self):
        assert clipped_surrogate(1.0, 1.0, 0.2) == 1.0

    def test_positive_advantage_clips_high(self):
        assert clipped_surrogate(1.5, 1.0, 0.2) == pytest.approx(1.2)

    def test_negative_advantage_clips_low(self):
        assert clipped_surrogate(0.5, -1.0, 0.2) == pytest.approx(-0.8)

    def test_equals_advantage_at_unit_ratio(self):
        for adv in (-3.0, -0.5, 0.0, 0.5, 3.0):
            assert clipped_surrogate(1.0, adv, 0.2) == adv

    @given(st.floats(0.001, 50), st.floats(-50, 50),
           st.floats(0.01, 0.99))
    @settings(max_examples=200, deadline=None)
    def test_never_exceeds_unclipped(self, ratio, adv, eps):
        assert clipped_surrogate(ratio, adv, eps) <= ratio * adv + 1e-12

    def test_epsilon_validated(self):
        with pytest.raises(ValueError):
            clipped_surrogate(1.0, 1.0, 0.0)

    def test_broadcasts(self):
        out = clipped_surrogate(np.array([1.0, 1.5]), np.array([1.0, 1.0]), 0.2)
        np.testing.assert_allclose(out, [1.0, 1.2])


class TestLinearSchedule:
    def test_endpoints(self):
        assert linear_schedule(3e-4, 0.0, 0.0) == 3e-4
        assert linear_schedule(3e-4, 0.0, 1.0) == 0.0

    def test_midpoint(self):
        assert linear_schedule(3e-4, 0.0, 0.5) == pytest.approx(1.5e-4)

    def test_progress_validated(self):
        with pytest.raises(ValueError):
            linear_schedule(1.0, 0.0, 1.5)


class TestComputeGae:
    def test_lambda_zero_gives_td_residuals(self):
        rewards = [1.0, 2.0, 3.0]
        values = [0.5, 1.0, 1.5]
        dones = [0.0, 0.0, 0.0]
        adv, _ = compute_gae(rewards, values, dones, 0.9, 0.0, bootstrap_value=2.0)
        expected = [1.0 + 0.9 * 1.0 - 0.5, 2.0 + 0.9 * 1.5 - 1.0, 3.0 + 0.9 * 2.0 - 1.5]
        np.testing.assert_allclose(adv, expected)

    def test_single_step(self):
        adv, ret = compute_gae([1.0], [0.0], [1.0], 0.99, 0.95)
        assert adv[0] == pytest.approx(1.0)
        assert ret[0] == pytest.approx(1.0)

    def test_frozen_three_step(self):
        adv, ret = compute_gae([1.0, 0.0, 1.0], [0.5, 0.5, 0.5], [0.0, 0.0, 0.0],
                               0.99, 0.95, bootstrap_value=0.0)
        np.testing.assert_allclose(adv, [1.4325676250000001, 0.46525, 0.5],
                                   rtol=0, atol=1e-12)
        np.testing.assert_allclose(ret, [1.9325676250000001, 0.9652499999999999, 1.0],
                                   rtol=0, atol=1e-12)

    def test_matches_bruteforce_random(self):
        rng = np.random.default_rng(0)
        for _ in range(25):
            n = int(rng.integers(1, 11))
            rewards = rng.standard_normal(n)
            values = rng.standard_normal(n)
            dones = (rng.random(n) < 0.25).astype(float)
            boots = float(rng.standard_normal())
            gamma = float(rng.uniform(0.8, 1.0))
            lam = float(rng.uniform(0.0, 1.0))
            adv, ret = compute_gae(rewards, values, dones, gamma, lam, boots)
            expected = gae_bruteforce(rewards, values, dones, gamma, lam, boots)
            np.testing.assert_allclose(adv, expected, atol=1e-12)
            np.testing.assert_allclose(ret, expected + values, atol=1e-12)

    @given(st.lists(st.floats(-5, 5), min_size=1, max_size=12))
    @settings(max_examples=60, deadline=None)
    def test_reduces_to_reward_to_go(self, rewards):
        # lambda=1, gamma=1, V=0, no dones: advantage is the suffix sum
        n = len(rewards)
        adv, ret = compute_gae(rewards, [0.0] * n, [0.0] * n, 1.0, 1.0, 0.0)
        suffix = np.cumsum(np.asarray(rewards)[::-1])[::-1]
        np.testing.assert_allclose(adv, suffix, atol=1e-9)
        np.testing.assert_allclose(ret, suffix, atol=1e-9)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            compute_gae([1.0, 2.0], [0.0], [0.0, 0.0], 0.99, 0.95)


class TestNormalizeAdvantages:
    def test_zero_mean_unit_variance(self):
        adv = np.array([1.0, 2.0, 3.0, 10.0])
        out = normalize_advantages(adv)
        assert out.mean() == pytest.approx(0.0, abs=1e-12)
        assert out.var() == pytest.approx(1.0)

    def test_argmax_preserved(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            adv = rng.standard_normal(32)
            assert np.argmax(normalize_advantages(adv)) == np.argmax(adv)

    def test_low_variance_skipped(self):
        adv = np.full(8, 3.0)
        np.testing.assert_array_equal(normalize_advantages(adv), adv)


def filled_buffer(config, obs_dim=3, act_dim=2, seed=0):
    rng = np.random.default_rng(seed)
    policy = nn.GaussianPolicy.create(obs_dim, act_dim, [8], -0.5, rng)
    buf = RolloutBuffer(config.buffer_size)
    while not buf.full:
        obs = rng.standard_normal(obs_dim)
        action, logp = policy.sample(obs, rng)
        reward = float(rng.standard_normal())
        buf.add(obs, action, logp, reward, float(rng.standard_normal()),
                len(buf) % 8 == 7)
        if len(buf) % 8 == 0 or buf.full:
            buf.finish_segment(0.0, config.gamma, config.lam)
    return buf, policy


class TestRolloutBuffer:
    def test_overfill_rejected(self):
        buf = RolloutBuffer(2)
        for k in range(2):
            buf.add(np.zeros(2), np.zeros(1), 0.0, 0.0, 0.0, False)
        with pytest.raises(ValueError):
            buf.add(np.zeros(2), np.zeros(1), 0.0, 0.0, 0.0, False)

    def test_stacked_requires_finished_segments(self):
        buf = RolloutBuffer(4)
        buf.add(np.zeros(2), np.zeros(1), 0.0, 1.0, 0.0, False)
        with pytest.raises(ValueError, match="unfinished"):
            buf.stacked()
        buf.finish_segment(0.0, 0.99, 0.95)
        assert buf.stacked()["advantages"].shape == (1,)


class TestPpoLossAndGrads:
    def test_gradients_match_central_differences(self):
        """Mean net, log_std (with the beta entropy term) and value net, over
        random shapes; samples sit inside the clip range or well beyond it."""
        rng = np.random.default_rng(21)
        config = PpoConfig(beta=0.05, value_coef=0.5)
        worst, checked = 0.0, 0
        for _ in range(8):
            obs_dim, act_dim = int(rng.integers(1, 5)), int(rng.integers(1, 4))
            hidden = [int(rng.integers(1, 7)) for _ in range(int(rng.integers(1, 3)))]
            policy = nn.GaussianPolicy.create(obs_dim, act_dim, hidden, -0.3, rng)
            value_net = nn.Mlp([obs_dim, *hidden, 1], rng)
            states = rng.standard_normal((12, obs_dim))
            mean = policy.mean_net.forward(states)[0]
            actions = mean + rng.standard_normal((12, act_dim))
            # ratio exp(-shift): ~1 is unclipped, ~0.5 and ~2 are clipped for one sign of the advantage
            shift = rng.choice([-0.7, -0.05, 0.0, 0.05, 0.7], size=12)
            logp_old = nn.gaussian_logprob(policy, mean, actions) + shift
            args = (states, actions, logp_old, rng.standard_normal(12),
                    rng.standard_normal(12), 0.2, config)
            _, _, _, policy_grads, value_grads = ppo_loss_and_grads(policy, value_net, *args)

            def policy_objective():
                policy_loss, _, entropy, _, _ = ppo_loss_and_grads(policy, value_net, *args)
                return policy_loss - config.beta * entropy

            def value_objective():
                return config.value_coef * ppo_loss_and_grads(policy, value_net, *args)[1]

            worst = max(worst,
                        max_rel_error(policy_grads,
                                      central_differences(policy.params, policy_objective)),
                        max_rel_error(value_grads,
                                      central_differences(value_net.params, value_objective)))
            checked += 1
        assert checked == 8 and worst <= 1e-4


class TestPpoUpdate:
    def test_zero_advantages_freeze_mean_net(self):
        config = small_config(epochs=2)
        buf, policy = filled_buffer(config)
        buf.advantages = [0.0] * len(buf)
        buf.returns = list(np.random.default_rng(3).standard_normal(len(buf)))
        value = nn.Mlp([3, 8, 1], np.random.default_rng(5))
        before_mean = [p.copy() for p in policy.mean_net.params]
        before_log_std = policy.log_std.copy()
        before_value = [p.copy() for p in value.params]
        ppo_update(buf, policy, value, config, 0.0,
                   nn.AdamState.for_params(policy.params),
                   nn.AdamState.for_params(value.params))
        for a, b in zip(policy.mean_net.params, before_mean):
            np.testing.assert_array_equal(a, b)
        assert not np.array_equal(policy.log_std, before_log_std)  # entropy term
        assert any(not np.array_equal(a, b)
                   for a, b in zip(value.params, before_value))

    def test_zero_epochs_no_change(self):
        config = small_config(epochs=0)
        buf, policy = filled_buffer(config)
        value = nn.Mlp([3, 8, 1], np.random.default_rng(5))
        before = [p.copy() for p in policy.params + value.params]
        diag = ppo_update(buf, policy, value, config, 0.0,
                          nn.AdamState.for_params(policy.params),
                          nn.AdamState.for_params(value.params))
        for a, b in zip(policy.params + value.params, before):
            np.testing.assert_array_equal(a, b)
        assert diag["policy_loss"] == []

    def test_deterministic_given_seed(self):
        outs = []
        for _ in range(2):
            config = small_config()
            buf, policy = filled_buffer(config)
            value = nn.Mlp([3, 8, 1], np.random.default_rng(5))
            ppo_update(buf, policy, value, config, 0.25,
                       nn.AdamState.for_params(policy.params),
                       nn.AdamState.for_params(value.params),
                       rng=np.random.default_rng(config.seed))
            outs.append([p.copy() for p in policy.params + value.params])
        for a, b in zip(*outs):
            np.testing.assert_array_equal(a, b)

    def test_value_loss_non_increasing_on_frozen_buffer(self):
        config = small_config(epochs=6, learning_rate=3e-3, learning_rate_final=3e-3)
        buf, policy = filled_buffer(config)
        value = nn.Mlp([3, 8, 1], np.random.default_rng(5))
        diag = ppo_update(buf, policy, value, config, 0.0,
                          nn.AdamState.for_params(policy.params),
                          nn.AdamState.for_params(value.params))
        assert diag["value_loss"][-1] <= diag["value_loss"][0]

    def test_buffer_shorter_than_minibatch(self):
        config = small_config(batch_size=16, buffer_size=16)
        buf = RolloutBuffer(8)
        for _ in range(8):
            buf.add(np.zeros(3), np.zeros(2), 0.0, 1.0, 0.0, False)
        buf.finish_segment(0.0, config.gamma, config.lam)
        policy = nn.GaussianPolicy.create(3, 2, [8], -0.5, np.random.default_rng(0))
        value = nn.Mlp([3, 8, 1], np.random.default_rng(1))
        with pytest.raises(ValueError, match="minibatch"):
            ppo_update(buf, policy, value, config, 0.0,
                       nn.AdamState.for_params(policy.params),
                       nn.AdamState.for_params(value.params))


class TestPpoConfig:
    def test_defaults_match_published_setup(self):
        config = PpoConfig()
        assert config.batch_size == 1024
        assert config.buffer_size == 10240
        assert config.learning_rate == 3.0e-4
        assert config.beta == 9.0e-3
        assert config.epsilon == 0.2
        assert config.lam == 0.95
        assert config.epochs == 5
        assert config.max_training_steps == 5000
        assert config.time_horizon == 64
        assert config.gamma == 0.99
        assert config.extrinsic_strength == 1.0
        assert config.hidden_layers == 2
        assert config.hidden_units == 128
        config.validate()

    def test_batch_larger_than_buffer(self):
        with pytest.raises(ConfigError, match="ppo.batch_size"):
            PpoConfig(batch_size=64, buffer_size=32).validate()

    def test_epsilon_range(self):
        with pytest.raises(ConfigError, match="ppo.epsilon"):
            PpoConfig(epsilon=1.0).validate()

    @pytest.mark.parametrize("value", [0.0, 1.0, 1.5])
    def test_epsilon_final_range(self, value):
        with pytest.raises(ConfigError, match="ppo.epsilon_final"):
            PpoConfig(epsilon_final=value).validate()


class TestTrain:
    def test_zero_steps_initial_checkpoint_only(self, tmp_path):
        env = QuadraticBowlEnv()
        result = train(env, small_config(max_training_steps=0), checkpoint_dir=tmp_path)
        assert result.trace == []
        assert (tmp_path / "checkpoint_init.json").is_file()
        assert not (tmp_path / "checkpoint_final.json").exists()

    def test_trace_length_matches_steps(self):
        env = QuadraticBowlEnv()
        result = train(env, small_config(max_training_steps=40))
        assert len(result.trace) == 40
        assert [row["step"] for row in result.trace] == list(range(1, 41))

    def test_deterministic_trace(self):
        traces = []
        for _ in range(2):
            result = train(QuadraticBowlEnv(), small_config(max_training_steps=80))
            traces.append([(row["step"], row["reward"]) for row in result.trace])
        assert traces[0] == traces[1]

    def test_learns_quadratic_bowl(self):
        config = small_config(max_training_steps=320, learning_rate=2e-2,
                              learning_rate_final=2e-2, seed=3)
        result = train(QuadraticBowlEnv(), config)
        rewards = [row["reward"] for row in result.trace]
        first = float(np.mean(rewards[:40]))
        last = float(np.mean(rewards[-40:]))
        assert last > first

    def test_env_failure_carries_step_index(self):
        with pytest.raises(TrainingError, match="step 1"):
            train(FailingEnv(), small_config(max_training_steps=10))

    def test_final_checkpoint_written_after_training(self, tmp_path):
        train(QuadraticBowlEnv(), small_config(max_training_steps=16),
              checkpoint_dir=tmp_path)
        assert (tmp_path / "checkpoint_final.json").is_file()
        loaded = nn.load_checkpoint(tmp_path / "checkpoint_final.json")
        assert loaded["config"]["max_training_steps"] == 16

    def test_trace_csv_format(self, tmp_path):
        result = train(QuadraticBowlEnv(), small_config(max_training_steps=12))
        path = tmp_path / "trace.csv"
        write_trace_csv(result.trace, path)
        lines = path.read_text().splitlines()
        assert lines[0] == ("step,reward,drag_force,kinetic_energy,"
                            "collision_count,heightmap_sum,policy_loss,"
                            "value_loss,entropy")
        assert len(lines) == 13
        assert lines[1].split(",")[0] == "1"
