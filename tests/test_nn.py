import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from voxwind.nn import (
    AdamState,
    GaussianPolicy,
    Mlp,
    adam_step,
    gaussian_entropy,
    gaussian_logprob,
    save_checkpoint,
)


def reference_forward(net, x):
    """Independent re-implementation of the forward arithmetic (pure python)."""
    h = list(map(float, x))
    last = len(net.weights) - 1
    for li, (w, b) in enumerate(zip(net.weights, net.biases)):
        z = [sum(h[i] * w[i, j] for i in range(w.shape[0])) + b[j]
             for j in range(w.shape[1])]
        h = z if li == last else [math.tanh(v) for v in z]
    return np.array(h)


def central_differences(params, objective, h=1e-5):
    """d objective() / d p for every entry of every array in params."""
    grads = []
    for p in params:
        g = np.zeros_like(p)
        flat = p.ravel()
        gf = g.ravel()
        for k in range(flat.size):
            orig = flat[k]
            flat[k] = orig + h
            up = objective()
            flat[k] = orig - h
            down = objective()
            flat[k] = orig
            gf[k] = (up - down) / (2 * h)
        grads.append(g)
    return grads


def numeric_grads(net, x, loss_weights, h=1e-5):
    """Central-difference gradients of sum(forward(x) * loss_weights)."""
    return central_differences(net.params,
                               lambda: float((net.forward(x)[0] * loss_weights).sum()), h)


def max_rel_error(analytic, numeric):
    worst = 0.0
    for a, n in zip(analytic, numeric):
        denom = np.maximum(np.abs(n), 1e-6)
        worst = max(worst, float(np.max(np.abs(a - n) / denom)))
    return worst


class TestMlpForward:
    def test_zero_net_outputs_zero(self):
        net = Mlp([3, 4, 2], np.random.default_rng(0))
        for w in net.weights:
            w[:] = 0.0
        out, _ = net.forward(np.ones(3))
        np.testing.assert_array_equal(out, np.zeros(2))

    def test_bias_passthrough(self):
        net = Mlp([3, 2], np.random.default_rng(0))
        net.weights[0][:] = 0.0
        net.biases[0][:] = [1.5, -2.0]
        out, _ = net.forward(np.array([9.0, 9.0, 9.0]))
        np.testing.assert_array_equal(out, [1.5, -2.0])

    def test_matches_reference_recompute(self):
        rng = np.random.default_rng(3)
        net = Mlp([4, 8, 2], rng)
        x = rng.standard_normal(4)
        out, _ = net.forward(x)
        np.testing.assert_allclose(out, reference_forward(net, x), rtol=1e-12)

    def test_batch_matches_single(self):
        rng = np.random.default_rng(4)
        net = Mlp([3, 5, 2], rng)
        xs = rng.standard_normal((6, 3))
        batch, _ = net.forward(xs)
        for i in range(6):
            single, _ = net.forward(xs[i])
            np.testing.assert_allclose(batch[i], single, rtol=1e-14)

    def test_dim_mismatch(self):
        net = Mlp([3, 2], np.random.default_rng(0))
        with pytest.raises(ValueError):
            net.forward(np.zeros(4))


class TestMlpBackward:
    def test_zero_grad_out(self):
        rng = np.random.default_rng(0)
        net = Mlp([3, 4, 2], rng)
        out, cache = net.forward(rng.standard_normal(3))
        grads = net.backward(cache, np.zeros((1, 2)))
        for g in grads:
            np.testing.assert_array_equal(g, np.zeros_like(g))

    def test_gradcheck_small_shapes(self):
        rng = np.random.default_rng(11)
        for sizes in ([2, 3, 1], [4, 8, 2], [3, 5, 5, 2], [1, 1], [2, 6, 4, 3]):
            net = Mlp(sizes, rng)
            x = rng.standard_normal(sizes[0])
            lw = rng.standard_normal(sizes[-1])
            out, cache = net.forward(x)
            analytic = net.backward(cache, lw[None])
            numeric = numeric_grads(net, x, lw)
            assert max_rel_error(analytic, numeric) <= 1e-4

    def test_gradcheck_batched(self):
        rng = np.random.default_rng(12)
        net = Mlp([3, 6, 2], rng)
        x = rng.standard_normal((5, 3))
        lw = rng.standard_normal((5, 2))
        _, cache = net.forward(x)
        analytic = net.backward(cache, lw)
        numeric = numeric_grads(net, x, lw)
        assert max_rel_error(analytic, numeric) <= 1e-4

    def test_shape_mismatch(self):
        net = Mlp([3, 2], np.random.default_rng(0))
        _, cache = net.forward(np.zeros(3))
        with pytest.raises(ValueError):
            net.backward(cache, np.zeros((1, 3)))


class TestGaussian:
    def make_policy(self, act_dim=1, log_std=0.0):
        policy = GaussianPolicy.create(2, act_dim, [4], -0.5, np.random.default_rng(0))
        policy.log_std[:] = log_std
        return policy

    def test_logprob_at_mean_unit_sigma(self):
        policy = self.make_policy()
        lp = gaussian_logprob(policy, np.zeros(1), np.zeros(1))
        assert lp == pytest.approx(-0.9189385332046727)

    def test_logprob_decreases_away_from_mean(self):
        policy = self.make_policy()
        lps = [float(gaussian_logprob(policy, np.zeros(1), np.array([d])))
               for d in (0.0, 0.5, 1.0, 2.0, 4.0)]
        assert all(a > b for a, b in zip(lps, lps[1:]))

    def test_logprob_factorizes(self):
        policy2 = self.make_policy(act_dim=2, log_std=0.3)
        policy1 = self.make_policy(act_dim=1, log_std=0.3)
        mean2 = np.array([0.1, -0.4])
        act2 = np.array([0.7, 0.2])
        joint = float(gaussian_logprob(policy2, mean2, act2))
        parts = sum(float(gaussian_logprob(policy1, mean2[[d]], act2[[d]]))
                    for d in range(2))
        assert joint == pytest.approx(parts)

    def test_logprob_batched(self):
        policy = self.make_policy(act_dim=2)
        means = np.zeros((3, 2))
        acts = np.arange(6.0).reshape(3, 2)
        lps = gaussian_logprob(policy, means, acts)
        assert lps.shape == (3,)

    def test_entropy_unit_sigma(self):
        policy = self.make_policy()
        assert gaussian_entropy(policy) == pytest.approx(1.4189385332046727)

    def test_entropy_increases_with_sigma(self):
        assert (gaussian_entropy(self.make_policy(log_std=0.5))
                > gaussian_entropy(self.make_policy(log_std=0.0)))

    def test_doubling_sigma_adds_ln2_per_dim(self):
        lo = gaussian_entropy(self.make_policy(act_dim=3, log_std=0.0))
        hi = gaussian_entropy(self.make_policy(act_dim=3, log_std=math.log(2.0)))
        assert hi - lo == pytest.approx(3 * math.log(2.0))

    def test_sampling_reproducible_and_finite(self):
        policy = GaussianPolicy.create(3, 2, [8], -0.5, np.random.default_rng(1))
        obs = np.array([0.2, -0.1, 0.4])
        a1, lp1 = policy.sample(obs, np.random.default_rng(99))
        a2, lp2 = policy.sample(obs, np.random.default_rng(99))
        np.testing.assert_array_equal(a1, a2)
        assert lp1 == lp2
        assert np.isfinite(lp1)

    def test_negative_logprob_matches_entropy_monte_carlo(self):
        # E[-log p] equals the entropy; check within Monte-Carlo error
        policy = GaussianPolicy.create(2, 3, [4], 0.2, np.random.default_rng(2))
        rng = np.random.default_rng(7)
        n = 100_000
        mean = np.zeros(3)
        samples = mean + np.exp(policy.log_std) * rng.standard_normal((n, 3))
        neg_lp = -gaussian_logprob(policy, np.broadcast_to(mean, (n, 3)), samples)
        entropy = gaussian_entropy(policy)
        stderr = math.sqrt(0.5 * 3 / n)
        assert abs(float(neg_lp.mean()) - entropy) <= 5 * stderr
        assert float(neg_lp.mean()) >= entropy - 5 * stderr


class TestAdam:
    def test_zero_grad_no_change(self):
        p = [np.array([1.0, 2.0])]
        state = AdamState.for_params(p)
        adam_step(p, [np.zeros(2)], state, lr=0.1)
        np.testing.assert_array_equal(p[0], [1.0, 2.0])

    def test_first_step_magnitude_is_lr(self):
        for g in (0.5, -3.0, 100.0):
            p = [np.array([0.0])]
            state = AdamState.for_params(p)
            adam_step(p, [np.array([g])], state, lr=0.01)
            assert abs(p[0][0]) == pytest.approx(0.01, rel=1e-6)
            assert np.sign(p[0][0]) == -np.sign(g)

    def test_equal_histories_update_identically(self):
        p = [np.array([5.0]), np.array([5.0])]
        state = AdamState.for_params(p)
        for _ in range(10):
            adam_step(p, [np.array([0.3]), np.array([0.3])], state, lr=0.05)
        assert p[0][0] == p[1][0]

    def test_shape_mismatch(self):
        p = [np.zeros(2)]
        state = AdamState.for_params(p)
        with pytest.raises(ValueError):
            adam_step(p, [np.zeros(3)], state, lr=0.1)


class TestCheckpoint:
    def test_roundtrip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(42)
        policy = GaussianPolicy.create(5, 3, [8, 8], -0.5, rng)
        value = Mlp([5, 8, 8, 1], rng)
        p_opt = AdamState.for_params(policy.params)
        v_opt = AdamState.for_params(value.params)
        # step the optimizer so the moments are non-trivial
        adam_step(policy.params, [rng.standard_normal(p.shape) for p in policy.params],
                  p_opt, lr=1e-3)
        policy.mean_net.weights[0][0, 0] = -0.0
        p_opt.m[1][0] = -0.0
        path = tmp_path / "ckpt.json"
        save_checkpoint(path, policy, value, p_opt, v_opt, config={"seed": 1})
        doc = json.loads(path.read_text())

        def same_bytes(written, array):
            assert np.asarray(written).tobytes() == array.tobytes()

        for net, key in ((policy.mean_net, "policy"), (value, "value")):
            assert doc[key]["sizes"] == net.sizes
            for layer, w, b in zip(doc[key]["layers"], net.weights, net.biases, strict=True):
                same_bytes(layer["weight"], w)
                same_bytes(layer["bias"], b)
        same_bytes(doc["policy"]["log_std"], policy.log_std)
        for state, key in ((p_opt, "policy"), (v_opt, "value")):
            written = doc["optimizer"][key]
            assert written["t"] == state.t
            assert (written["beta1"], written["beta2"], written["eps"]) == (0.9, 0.999, 1e-8)
            for m, v, am, av in zip(written["m"], written["v"], state.m, state.v, strict=True):
                same_bytes(m, am)
                same_bytes(v, av)
        assert doc["format_version"] == 1
        assert doc["config"] == {"seed": 1}
        # saving the same state again writes the same bytes
        path2 = tmp_path / "ckpt2.json"
        save_checkpoint(path2, policy, value, p_opt, v_opt, config={"seed": 1})
        assert path.read_bytes() == path2.read_bytes()


class TestPolicyInvariants:
    @given(st.floats(-3, 3), st.floats(-3, 3))
    @settings(max_examples=50, deadline=None)
    def test_logprob_finite_everywhere(self, mean, action):
        policy = GaussianPolicy.create(2, 1, [4], -0.5, np.random.default_rng(0))
        lp = float(gaussian_logprob(policy, np.array([mean]), np.array([action])))
        assert np.isfinite(lp)
