"""Clipped-surrogate policy optimisation over the wind-tunnel environment."""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from . import nn
from .errors import ConfigError, TrainingError
from .schema import check_fields, setting
from .windtunnel import METRIC_NAMES

_TRACE_FLOAT_KEYS = ("reward", *METRIC_NAMES, "policy_loss", "value_loss", "entropy")
TRACE_CSV_HEADER = ",".join(("step",) + _TRACE_FLOAT_KEYS)

ADVANTAGE_VAR_GUARD = 1e-8


@dataclass
class PpoConfig:
    """Trainer hyperparameters; defaults follow the published training setup."""

    batch_size: int = setting(1024, ge=1)
    buffer_size: int = setting(10240, ge=1, le=100_000)
    learning_rate: float = setting(3.0e-4, ge=0.0)     # decays linearly to learning_rate_final
    learning_rate_final: float = setting(0.0, ge=0.0)
    beta: float = setting(9.0e-3)                      # entropy bonus coefficient, constant schedule
    epsilon: float = setting(0.2, gt=0.0, lt=1.0)      # clip range, decays linearly to epsilon_final
    epsilon_final: float = setting(0.1, gt=0.0, lt=1.0)
    lam: float = setting(0.95, ge=0.0, le=1.0)
    epochs: int = setting(5, ge=0, le=1_000)
    max_training_steps: int = setting(5000, ge=0)      # environment steps
    time_horizon: int = setting(64, ge=1)
    gamma: float = setting(0.99, ge=0.0, le=1.0)
    extrinsic_strength: float = setting(1.0)           # reward multiplier
    value_coef: float = setting(0.5)
    grad_clip: float = setting(0.5)                    # <= 0 disables clipping
    hidden_layers: int = setting(2, ge=1, le=16)
    hidden_units: int = setting(128, ge=1, le=1024)
    log_std_init: float = setting(-0.5)
    seed: int = setting(0, ge=0)

    def validate(self, prefix: str = "ppo") -> None:
        check_fields(self, prefix)
        if self.batch_size > self.buffer_size:
            raise ConfigError(f"{prefix}.batch_size: {self.batch_size} exceeds "
                              f"buffer_size {self.buffer_size}")


class RolloutBuffer:
    """On-policy trajectory store; every row comes from one policy snapshot.

    add() appends raw steps; finish_segment() runs the advantage recursion
    over the unfinished tail with a bootstrap value. stacked() refuses to
    emit until all rows have advantages.
    """

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ValueError("capacity must be at least 1")
        self.capacity = capacity
        self.clear()

    def clear(self) -> None:
        self.states = []
        self.actions = []
        self.logprobs = []
        self.rewards = []
        self.values = []
        self.dones = []
        self.advantages = []
        self.returns = []
        self._seg_start = 0

    def __len__(self) -> int:
        return len(self.rewards)

    @property
    def full(self) -> bool:
        return len(self) >= self.capacity

    def add(self, state, action, logprob, reward, value, done) -> None:
        if self.full:
            raise ValueError("buffer is full")
        self.states.append(np.asarray(state, dtype=np.float64))
        self.actions.append(np.asarray(action, dtype=np.float64))
        self.logprobs.append(float(logprob))
        self.rewards.append(float(reward))
        self.values.append(float(value))
        self.dones.append(bool(done))

    def finish_segment(self, bootstrap_value: float, gamma: float, lam: float) -> None:
        sl = slice(self._seg_start, len(self.rewards))
        if sl.start == sl.stop:
            return
        adv, ret = compute_gae(self.rewards[sl.start:sl.stop],
                               self.values[sl.start:sl.stop],
                               self.dones[sl.start:sl.stop],
                               gamma, lam, bootstrap_value)
        self.advantages.extend(adv)
        self.returns.extend(ret)
        self._seg_start = len(self.rewards)

    def stacked(self) -> dict:
        if len(self.advantages) != len(self.rewards):
            raise ValueError("buffer has an unfinished segment")
        return {
            "states": np.stack(self.states),
            "actions": np.stack(self.actions),
            "logprobs": np.asarray(self.logprobs),
            "advantages": np.asarray(self.advantages),
            "returns": np.asarray(self.returns),
        }


# --- core pieces ----------------------------------------------------------------


def probability_ratio(logp_new, logp_old):
    """exp(logp_new - logp_old); the likelihood ratio of the updated policy."""
    return np.exp(np.asarray(logp_new, dtype=np.float64) - logp_old)


def clipped_surrogate(ratio, advantage, epsilon: float):
    """min(ratio * adv, clip(ratio, 1 - eps, 1 + eps) * adv); broadcasts."""
    if not 0.0 < epsilon < 1.0:
        raise ValueError("epsilon must lie in (0, 1)")
    r = np.asarray(ratio, dtype=np.float64)
    a = np.asarray(advantage, dtype=np.float64)
    return np.minimum(r * a, np.clip(r, 1.0 - epsilon, 1.0 + epsilon) * a)


def linear_schedule(initial: float, final: float, progress: float) -> float:
    if not 0.0 <= progress <= 1.0:
        raise ValueError("progress must lie in [0, 1]")
    return initial + (final - initial) * progress


def compute_gae(rewards, values, dones, gamma: float, lam: float,
                bootstrap_value: float = 0.0):
    """Exponentially weighted advantages from one-step TD residuals.

    delta_t = r_t + gamma * V(s_{t+1}) * (1 - done_t) - V(s_t), accumulated
    backwards with factor gamma * lam * (1 - done_t). Returns (advantages,
    advantages + values).
    """
    rewards = np.asarray(rewards, dtype=np.float64)
    values = np.asarray(values, dtype=np.float64)
    dones = np.asarray(dones, dtype=np.float64)
    if rewards.shape != values.shape or rewards.shape != dones.shape:
        raise ValueError("rewards, values, and dones must have equal lengths")
    n = len(rewards)
    advantages = np.zeros(n, dtype=np.float64)
    last = 0.0
    next_value = float(bootstrap_value)
    for t in range(n - 1, -1, -1):
        nonterminal = 1.0 - dones[t]
        delta = rewards[t] + gamma * next_value * nonterminal - values[t]
        last = delta + gamma * lam * nonterminal * last
        advantages[t] = last
        next_value = values[t]
    return advantages, advantages + values


def normalize_advantages(advantages: np.ndarray) -> np.ndarray:
    """Zero-mean unit-variance rescale, skipped entirely for a variance below
    ADVANTAGE_VAR_GUARD."""
    adv = np.asarray(advantages, dtype=np.float64)
    var = float(adv.var())
    if var < ADVANTAGE_VAR_GUARD:
        return adv.copy()
    return (adv - adv.mean()) / math.sqrt(var)


def clip_grad_norm(grads, max_norm: float) -> float:
    """Scale the gradient list in place so its global L2 norm is <= max_norm."""
    total = math.sqrt(sum(float((g * g).sum()) for g in grads))
    if max_norm > 0 and total > max_norm:
        scale = max_norm / total
        for g in grads:
            g *= scale
    return total


def ppo_loss_and_grads(policy: nn.GaussianPolicy, value_net: nn.Mlp, states, actions,
                       logp_old, advantages, returns, epsilon: float, config: PpoConfig):
    """(policy_loss, value_loss, entropy, policy_grads, value_grads) of a minibatch.

    policy_loss is the negated mean clipped surrogate and value_loss the mean
    squared value error. policy_grads (aligned with policy.params) are the exact
    gradients of policy_loss - beta * entropy, value_grads (aligned with
    value_net.params) those of value_coef * value_loss.
    """
    bsz = len(returns)
    mu, cache = policy.mean_net.forward(states)
    ratio = probability_ratio(nn.gaussian_logprob(policy, mu, actions), logp_old)
    surrogate = clipped_surrogate(ratio, advantages, epsilon)
    policy_loss = -float(surrogate.mean())
    entropy = nn.gaussian_entropy(policy)

    # d(-min)/d(logp): only the unclipped branch carries gradient
    unclipped = surrogate == ratio * advantages
    dlogp = np.where(unclipped, -advantages * ratio, 0.0) / bsz
    var = np.exp(2.0 * policy.log_std)
    diff = actions - mu
    dmu = dlogp[:, None] * (diff / var)
    dlog_std = (dlogp[:, None] * (diff * diff / var - 1.0)).sum(axis=0)
    dlog_std -= config.beta * np.ones(policy.action_dim)  # entropy bonus
    net_grads = policy.mean_net.backward(cache, dmu)

    val, vcache = value_net.forward(states)
    verr = val[:, 0] - returns
    value_loss = float((verr * verr).mean())
    dval = (config.value_coef * 2.0 * verr / bsz)[:, None]
    value_grads = value_net.backward(vcache, dval)
    return policy_loss, value_loss, entropy, net_grads + [dlog_std], value_grads


def ppo_update(buffer: RolloutBuffer, policy: nn.GaussianPolicy, value_net: nn.Mlp,
               config: PpoConfig, progress: float,
               policy_opt: nn.AdamState, value_opt: nn.AdamState,
               rng: np.random.Generator) -> dict:
    """One optimisation phase over a finished buffer.

    Advantages are normalised once across the buffer, then config.epochs of
    shuffled minibatches each take one Adam step per network at the
    schedule-decayed learning rate and clip range. Total objective:
    -clipped surrogate + value_coef * value MSE - beta * entropy.
    Deterministic for a fixed rng.
    """
    data = buffer.stacked()
    n = len(data["returns"])
    if n < config.batch_size:
        raise ValueError(f"buffer has {n} rows, shorter than one minibatch of "
                         f"{config.batch_size}")
    adv_all = normalize_advantages(data["advantages"])
    lr = linear_schedule(config.learning_rate, config.learning_rate_final, progress)
    eps = linear_schedule(config.epsilon, config.epsilon_final, progress)
    diag = {"policy_loss": [], "value_loss": [], "entropy": []}
    for _ in range(config.epochs):
        order = rng.permutation(n)
        pl_acc, vl_acc, ent_acc = [], [], []
        for start in range(0, n - config.batch_size + 1, config.batch_size):
            mb = order[start:start + config.batch_size]
            policy_loss, value_loss, entropy, policy_grads, value_grads = ppo_loss_and_grads(
                policy, value_net, data["states"][mb], data["actions"][mb],
                data["logprobs"][mb], adv_all[mb], data["returns"][mb], eps, config)
            clip_grad_norm(policy_grads, config.grad_clip)
            clip_grad_norm(value_grads, config.grad_clip)
            nn.adam_step(policy.params, policy_grads, policy_opt, lr)
            nn.adam_step(value_net.params, value_grads, value_opt, lr)

            pl_acc.append(policy_loss)
            vl_acc.append(value_loss)
            ent_acc.append(entropy)
        if pl_acc:
            diag["policy_loss"].append(float(np.mean(pl_acc)))
            diag["value_loss"].append(float(np.mean(vl_acc)))
            diag["entropy"].append(float(np.mean(ent_acc)))
    diag["lr"] = lr
    diag["epsilon"] = eps
    return diag


# --- training loop ---------------------------------------------------------------


@dataclass
class TrainResult:
    policy: nn.GaussianPolicy
    trace: list


def train(env, config: PpoConfig, checkpoint_dir=None) -> TrainResult:
    """Run the PPO loop for config.max_training_steps environment steps.

    Collects time_horizon segments into the rollout buffer, updates once the
    buffer fills, and appends one trace row per environment step carrying the
    latest simulation metrics and loss diagnostics. Saves checkpoint_init.json
    (and checkpoint_final.json after any training) under checkpoint_dir.
    """
    config.validate()
    ss = np.random.SeedSequence(config.seed)
    s_pol, s_val, s_act, s_upd = ss.spawn(4)
    hidden = [config.hidden_units] * config.hidden_layers
    policy = nn.GaussianPolicy.create(env.observation_dim, env.action_dim, hidden,
                                      config.log_std_init, np.random.default_rng(s_pol))
    value_net = nn.Mlp([env.observation_dim, *hidden, 1], np.random.default_rng(s_val))
    policy_opt = nn.AdamState.for_params(policy.params)
    value_opt = nn.AdamState.for_params(value_net.params)
    echo = asdict(config)
    if checkpoint_dir is not None:
        checkpoint_dir = Path(checkpoint_dir)
        checkpoint_dir.mkdir(parents=True, exist_ok=True)
        nn.save_checkpoint(checkpoint_dir / "checkpoint_init.json", policy, value_net,
                           policy_opt, value_opt, config=echo)
    trace: list = []
    if config.max_training_steps > 0:
        act_rng = np.random.default_rng(s_act)
        upd_rng = np.random.default_rng(s_upd)
        buffer = RolloutBuffer(config.buffer_size)
        losses = {"policy_loss": 0.0, "value_loss": 0.0,
                  "entropy": nn.gaussian_entropy(policy)}
        obs = env.reset()
        seg_len = 0
        for step_i in range(1, config.max_training_steps + 1):
            action, logp = policy.sample(obs, act_rng)
            val, _ = value_net.forward(obs)
            try:
                next_obs, reward, done, info = env.act(action)
            except Exception as exc:
                raise TrainingError(f"environment failure at training step {step_i}: {exc}") from exc
            reward = reward * config.extrinsic_strength
            buffer.add(obs, action, logp, reward, float(val[0]), done)
            seg_len += 1
            res = info["result"]
            trace.append({
                "step": step_i,
                "reward": reward,
                **res.metrics(),
                **losses,
            })
            if done or seg_len >= config.time_horizon or buffer.full:
                if done:
                    bootstrap = 0.0
                else:
                    nval, _ = value_net.forward(next_obs)
                    bootstrap = float(nval[0])
                buffer.finish_segment(bootstrap, config.gamma, config.lam)
                seg_len = 0
            if buffer.full:
                # a diverging update overflows on the way; the check below
                # reports it once, in place of numpy's warnings
                with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
                    diag = ppo_update(buffer, policy, value_net, config,
                                      progress=step_i / config.max_training_steps,
                                      policy_opt=policy_opt, value_opt=value_opt,
                                      rng=upd_rng)
                if not all(np.isfinite(p).all() for p in policy.params + value_net.params):
                    raise TrainingError("non-finite policy or value parameters after the "
                                        f"PPO update at training step {step_i}")
                if diag["policy_loss"]:
                    losses = {"policy_loss": diag["policy_loss"][-1],
                              "value_loss": diag["value_loss"][-1],
                              "entropy": diag["entropy"][-1]}
                buffer.clear()
            obs = env.reset() if done else next_obs
        if checkpoint_dir is not None:
            nn.save_checkpoint(checkpoint_dir / "checkpoint_final.json", policy,
                               value_net, policy_opt, value_opt, config=echo)
    return TrainResult(policy, trace)


def evaluate_policy(env, policy: nn.GaussianPolicy):
    """Greedy (mean-action) rollout of one episode.

    Returns (final design grid, last SimResult)."""
    obs = env.reset()
    done = False
    result = None
    while not done:
        obs, _, done, info = env.act(policy.mean_action(obs))
        result = info["result"]
    return env.grid.copy(), result


def write_trace_csv(trace, path) -> None:
    lines = [TRACE_CSV_HEADER]
    for row in trace:
        cells = [str(int(row["step"]))]
        cells.extend(repr(float(row[k])) for k in _TRACE_FLOAT_KEYS)
        lines.append(",".join(cells))
    Path(path).write_text("\n".join(lines) + "\n")
