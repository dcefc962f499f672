"""Minimal float64 network stack: tanh MLPs, a diagonal Gaussian policy head,
and Adam. No ML framework; exact reverse-mode gradients for the fixed graph."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

LOG_2PI = math.log(2.0 * math.pi)

CHECKPOINT_VERSION = 1

# Adam's decay rates and denominator guard, the constants of Kingma & Ba,
# Adam: A Method for Stochastic Optimization (ICLR 2015)
BETA1, BETA2, EPS = 0.9, 0.999, 1e-8


def xavier_uniform(fan_in: int, fan_out: int, rng: np.random.Generator) -> np.ndarray:
    bound = math.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-bound, bound, size=(fan_in, fan_out))


class Mlp:
    """Affine + tanh stack with an identity output layer.

    Weights are (fan_in, fan_out); forward works on a single vector or a
    (batch, dim) array.
    """

    def __init__(self, sizes, rng: np.random.Generator):
        sizes = [int(s) for s in sizes]
        if len(sizes) < 2:
            raise ValueError("need at least an input and an output size")
        self.sizes = sizes
        self.weights = [xavier_uniform(a, b, rng) for a, b in zip(sizes, sizes[1:])]
        self.biases = [np.zeros(b, dtype=np.float64) for b in sizes[1:]]

    @property
    def params(self) -> list:
        """Flat parameter list [W0, b0, W1, b1, ...]; arrays are live references."""
        out = []
        for w, b in zip(self.weights, self.biases):
            out.append(w)
            out.append(b)
        return out

    def forward(self, x):
        """Run the net; returns (output, cache) where cache feeds backward().
        The cache holds each layer's (batch, dim) activations, a single
        vector's as a batch of one."""
        x = np.asarray(x, dtype=np.float64)
        single = x.ndim == 1
        h = x[None, :] if single else x
        if h.ndim != 2 or h.shape[1] != self.sizes[0]:
            raise ValueError(f"input dim {x.shape} does not match net input {self.sizes[0]}")
        acts = [h]
        last = len(self.weights) - 1
        for li, (w, b) in enumerate(zip(self.weights, self.biases)):
            z = h @ w + b
            h = z if li == last else np.tanh(z)
            acts.append(h)
        return (h[0] if single else h), acts

    def backward(self, acts, grad_out) -> list:
        """Exact parameter gradients for the cached forward pass, aligned with
        .params; grad_out is (batch, output dim), like the cached output."""
        delta = np.asarray(grad_out, dtype=np.float64)
        if delta.shape != acts[-1].shape:
            raise ValueError(f"grad shape {delta.shape} does not match output {acts[-1].shape}")
        grads = [None] * (2 * len(self.weights))
        for li in range(len(self.weights) - 1, -1, -1):
            grads[2 * li] = acts[li].T @ delta
            grads[2 * li + 1] = delta.sum(axis=0)
            if li:
                delta = (delta @ self.weights[li].T) * (1.0 - acts[li] ** 2)  # through tanh
        return grads


@dataclass
class GaussianPolicy:
    """Diagonal Gaussian over actions: state-dependent mean, global log-std."""

    mean_net: Mlp
    log_std: np.ndarray

    @classmethod
    def create(cls, obs_dim: int, act_dim: int, hidden, log_std_init: float,
               rng: np.random.Generator) -> "GaussianPolicy":
        net = Mlp([obs_dim, *hidden, act_dim], rng)
        return cls(net, np.full(act_dim, float(log_std_init)))

    @property
    def action_dim(self) -> int:
        return len(self.log_std)

    @property
    def params(self) -> list:
        return self.mean_net.params + [self.log_std]

    def mean_action(self, obs) -> np.ndarray:
        return self.mean_net.forward(obs)[0]

    def sample(self, obs, rng: np.random.Generator):
        """Draw an action and its log-density under the current policy."""
        mu = self.mean_action(obs)
        action = mu + np.exp(self.log_std) * rng.standard_normal(self.action_dim)
        return action, float(gaussian_logprob(self, mu, action))


def gaussian_logprob(policy: GaussianPolicy, mean, action):
    """Sum over dims of log N(action; mean, exp(log_std)^2); batches on the
    leading axis."""
    mean = np.asarray(mean, dtype=np.float64)
    action = np.asarray(action, dtype=np.float64)
    z = (action - mean) / np.exp(policy.log_std)
    per_dim = -0.5 * z * z - policy.log_std - 0.5 * LOG_2PI
    return per_dim.sum(axis=-1)


def gaussian_entropy(policy: GaussianPolicy) -> float:
    """Entropy of the diagonal Gaussian: sum over dims of 0.5*ln(2*pi*e) + log_std."""
    return float(np.sum(0.5 * (LOG_2PI + 1.0) + policy.log_std))


@dataclass
class AdamState:
    """First/second moment accumulators shaped like their parameters, and the step count."""

    m: list
    v: list
    t: int = 0

    @classmethod
    def for_params(cls, params) -> "AdamState":
        return cls(m=[np.zeros_like(p) for p in params],
                   v=[np.zeros_like(p) for p in params])


def adam_step(params, grads, state: AdamState, lr: float) -> None:
    """Bias-corrected Adam; updates params and state in place."""
    if len(params) != len(grads) or len(params) != len(state.m):
        raise ValueError("params, grads, and state must have matching lengths")
    state.t += 1
    c1 = 1.0 - BETA1 ** state.t
    c2 = 1.0 - BETA2 ** state.t
    for p, g, m, v in zip(params, grads, state.m, state.v):
        g = np.asarray(g, dtype=np.float64)
        if p.shape != g.shape:
            raise ValueError(f"grad shape {g.shape} does not match param {p.shape}")
        m *= BETA1
        m += (1.0 - BETA1) * g
        v *= BETA2
        v += (1.0 - BETA2) * (g * g)
        p -= lr * (m / c1) / (np.sqrt(v / c2) + EPS)


# --- checkpoints ---------------------------------------------------------------


def _mlp_doc(net: Mlp) -> dict:
    return {
        "sizes": net.sizes,
        "layers": [{"weight": w.tolist(), "bias": b.tolist()}
                   for w, b in zip(net.weights, net.biases)],
    }


def _adam_doc(state: AdamState) -> dict:
    return {
        "t": state.t,
        "beta1": BETA1,
        "beta2": BETA2,
        "eps": EPS,
        "m": [a.tolist() for a in state.m],
        "v": [a.tolist() for a in state.v],
    }


def save_checkpoint(path, policy: GaussianPolicy, value_net: Mlp, policy_opt: AdamState,
                    value_opt: AdamState, config: dict) -> None:
    """Write a JSON checkpoint. json renders finite doubles in their shortest
    round-trip repr, so every array reads back bit-exactly."""
    doc = {
        "format_version": CHECKPOINT_VERSION,
        "config": config,
        "policy": {**_mlp_doc(policy.mean_net), "log_std": policy.log_std.tolist()},
        "value": _mlp_doc(value_net),
        "optimizer": {"policy": _adam_doc(policy_opt), "value": _adam_doc(value_opt)},
    }
    Path(path).write_text(json.dumps(doc))

