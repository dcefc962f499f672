"""The design-optimisation environment around the particle tunnel.

Observations are the column heights mean-pooled down to pool_dims and scaled
by 1/h_max, followed by the four latest metrics each divided by its baseline
value. Actions are coarse per-region height deltas in [-1, 1], bilinearly
upsampled to the full grid and scaled by max_delta voxels; masked columns
never move. Rewards compare the fresh simulation against a frozen baseline of
the untouched design.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from enum import Enum

import numpy as np

from .errors import ConfigError
from .voxel import VoxelGrid, VoxelMask, apply_height_delta
from .windtunnel import METRIC_NAMES, SimResult, TunnelConfig, run_simulation


class ObjectiveMode(Enum):
    KE = "ke"
    KE_DF = "ke_df"
    KE_DF_VCC = "ke_df_vcc"


@dataclass
class RewardWeights:
    """Term weights: energy gain, drag drop, collision drop, height-change penalty."""

    w_ke: float = 1.0
    w_df: float = 1.0
    w_vcc: float = 1.0
    w_h: float = 0.1

    def validate(self, prefix: str = "env.weights") -> None:
        for name in ("w_ke", "w_df", "w_vcc", "w_h"):
            v = getattr(self, name)
            if not np.isfinite(v) or v < 0:
                raise ConfigError(f"{prefix}.{name}: must be finite and non-negative")
        if self.w_h <= 0:
            raise ConfigError(f"{prefix}.w_h: must be positive")


@dataclass
class Baseline:
    """Metrics of the unmodified design, averaged over n_seeds simulation seeds."""

    drag_force: float
    kinetic_energy: float
    collision_count: float
    heightmap_sum: float
    heatmap: np.ndarray
    n_seeds: int

    def metrics(self) -> dict:
        return {name: float(getattr(self, name)) for name in METRIC_NAMES}


def measure_baseline(grid: VoxelGrid, tunnel: TunnelConfig, n_seeds: int = 3) -> Baseline:
    """Average the SimResult of the untouched design over consecutive seeds."""
    if n_seeds < 1:
        raise ValueError("n_seeds must be at least 1")
    results = [run_simulation(grid, replace(tunnel, seed=tunnel.seed + i))
               for i in range(n_seeds)]
    heatmap = np.mean([r.heatmap for r in results], axis=0)
    return Baseline(
        drag_force=float(np.mean([r.drag_force for r in results])),
        kinetic_energy=float(np.mean([r.kinetic_energy for r in results])),
        collision_count=float(np.mean([r.collision_count for r in results])),
        heightmap_sum=float(np.mean([r.heightmap_sum for r in results])),
        heatmap=heatmap,
        n_seeds=n_seeds,
    )


def reward(result: SimResult, baseline: Baseline, mode: ObjectiveMode,
           weights: RewardWeights, scale: float = 1.0) -> float:
    """Baseline-relative reward; exactly 0 when the result equals the baseline.

    Energy above baseline pays, drag and collisions below baseline pay (when
    their mode terms are active), and any drift of the height sum costs. A
    term whose baseline value is zero is disabled rather than divided.
    """
    total = 0.0
    if baseline.kinetic_energy > 0:
        total += weights.w_ke * (result.kinetic_energy - baseline.kinetic_energy) \
            / baseline.kinetic_energy
    if mode in (ObjectiveMode.KE_DF, ObjectiveMode.KE_DF_VCC) and baseline.drag_force > 0:
        total += weights.w_df * (baseline.drag_force - result.drag_force) \
            / baseline.drag_force
    if mode is ObjectiveMode.KE_DF_VCC and baseline.collision_count > 0:
        total += weights.w_vcc * (baseline.collision_count - result.collision_count) \
            / baseline.collision_count
    if baseline.heightmap_sum > 0:
        total -= weights.w_h * abs(result.heightmap_sum - baseline.heightmap_sum) \
            / baseline.heightmap_sum
    return scale * total


def mean_pool(field2d: np.ndarray, dims) -> np.ndarray:
    """Block-mean a 2D field down to dims; blocks split as evenly as possible."""
    field2d = np.asarray(field2d, dtype=np.float64)
    px, py = dims
    w, l = field2d.shape
    if px < 1 or py < 1 or px > w or py > l:
        raise ValueError(f"pool dims {dims} invalid for field {field2d.shape}")
    xs = np.array_split(np.arange(w), px)
    ys = np.array_split(np.arange(l), py)
    out = np.empty((px, py), dtype=np.float64)
    for i, xi in enumerate(xs):
        for j, yj in enumerate(ys):
            out[i, j] = field2d[np.ix_(xi, yj)].mean()
    return out


def bilinear_upsample(control: np.ndarray, out_dims) -> np.ndarray:
    """Interpolate a coarse control field onto a full grid.

    Output cell centers map into control cell-center coordinates with edge
    clamping; a constant control field therefore upsamples to the exact same
    constant.
    """
    control = np.asarray(control, dtype=np.float64)
    kx, ky = control.shape
    w, l = out_dims

    def axis(k, n):
        c = (np.arange(n) + 0.5) * k / n - 0.5
        lo = np.clip(np.floor(c), 0, k - 1).astype(np.int64)
        hi = np.minimum(lo + 1, k - 1)
        frac = np.clip(c - lo, 0.0, 1.0)
        return lo, hi, frac

    x0, x1, fx = axis(kx, w)
    y0, y1, fy = axis(ky, l)
    wx = fx[:, None]
    wy = fy[None, :]
    return (
        control[np.ix_(x0, y0)] * (1 - wx) * (1 - wy)
        + control[np.ix_(x1, y0)] * wx * (1 - wy)
        + control[np.ix_(x0, y1)] * (1 - wx) * wy
        + control[np.ix_(x1, y1)] * wx * wy
    )


@dataclass
class EnvConfig:
    grid: VoxelGrid
    tunnel: TunnelConfig
    mode: ObjectiveMode = ObjectiveMode.KE_DF_VCC
    weights: RewardWeights = field(default_factory=RewardWeights)
    mask: VoxelMask | None = None
    control_dims: tuple = (8, 8)
    pool_dims: tuple = (8, 8)
    max_delta: int = 2
    episode_length: int = 16
    baseline_seeds: int = 3
    reward_scale: float = 1.0

    def validate(self, prefix: str = "env") -> None:
        def bad(name, msg):
            raise ConfigError(f"{prefix}.{name}: {msg}")

        if not isinstance(self.mode, ObjectiveMode):
            bad("mode", f"unknown objective mode {self.mode!r}")
        self.weights.validate(f"{prefix}.weights")
        kx, ky = self.control_dims
        px, py = self.pool_dims
        if kx < 1 or ky < 1 or kx > self.grid.width or ky > self.grid.length:
            bad("control_dims", f"{self.control_dims} exceeds grid "
                f"({self.grid.width}, {self.grid.length})")
        if px < 1 or py < 1 or px > self.grid.width or py > self.grid.length:
            bad("pool_dims", f"{self.pool_dims} exceeds grid "
                f"({self.grid.width}, {self.grid.length})")
        if self.max_delta < 1:
            bad("max_delta", "must be at least 1")
        if self.episode_length < 1:
            bad("episode_length", "must be at least 1")
        if self.baseline_seeds < 1:
            bad("baseline_seeds", "must be at least 1")
        if self.mask is not None and self.mask.frozen.shape != (self.grid.width, self.grid.length):
            bad("mask", f"mask shape {self.mask.frozen.shape} does not match grid")


class WindTunnelEnv:
    """Episodic design loop: observe the design, nudge heights, re-simulate."""

    def __init__(self, config: EnvConfig):
        config.validate()
        self.config = config
        self._initial = config.grid.copy()
        self.mask = config.mask if config.mask is not None else VoxelMask.none(
            config.grid.width, config.grid.length)
        self.grid = config.grid.copy()
        self.baseline: Baseline | None = None
        self._metrics: dict | None = None
        self._t = 0

    @property
    def observation_dim(self) -> int:
        px, py = self.config.pool_dims
        return px * py + len(METRIC_NAMES)

    @property
    def action_dim(self) -> int:
        kx, ky = self.config.control_dims
        return kx * ky

    def reset(self) -> np.ndarray:
        """Restore the original design; the baseline is measured once and reused."""
        if self.baseline is None:
            self.baseline = measure_baseline(self._initial, self.config.tunnel,
                                             self.config.baseline_seeds)
        self.grid = self._initial.copy()
        self._t = 0
        self._metrics = self.baseline.metrics()
        return self.observe()

    def observe(self) -> np.ndarray:
        """Pure function of the current state; metric slots are 1.0 at baseline."""
        if self._metrics is None or self.baseline is None:
            raise RuntimeError("reset() must run before observe()")
        pooled = mean_pool(self.grid.column_heights / self.grid.h_max,
                           self.config.pool_dims).ravel()
        base = self.baseline.metrics()
        ratios = np.array([
            self._metrics[name] / base[name] if base[name] > 0 else 0.0
            for name in METRIC_NAMES
        ])
        return np.concatenate([pooled, ratios])

    def act(self, action):
        """Apply one coarse height-delta action and re-measure the design.

        Returns (observation, reward, done, info) with the fresh SimResult
        under info["result"].
        """
        if self._metrics is None:
            raise RuntimeError("reset() must run before act()")
        a = np.asarray(action, dtype=np.float64).ravel()
        if a.size != self.action_dim:
            raise ValueError(f"action size {a.size} does not match {self.action_dim}")
        a = np.clip(a, -1.0, 1.0).reshape(self.config.control_dims)
        deltas = bilinear_upsample(a, (self.grid.width, self.grid.length)) \
            * self.config.max_delta
        self.grid = apply_height_delta(self.grid, deltas, self.mask)
        result = run_simulation(self.grid, self.config.tunnel)
        self._metrics = result.metrics()
        value = reward(result, self.baseline, self.config.mode, self.config.weights,
                       self.config.reward_scale)
        self._t += 1
        done = self._t >= self.config.episode_length
        return self.observe(), value, done, {"result": result}
