"""The design-optimisation environment around the particle tunnel.

Observations are the column heights mean-pooled down to pool_dims and scaled
by 1/h_max, followed by the four latest metrics each divided by its baseline
value. Actions are coarse per-region height deltas in [-1, 1], bilinearly
upsampled to the full grid and scaled by max_delta voxels; masked columns
never move. Rewards compare the fresh simulation against a frozen baseline of
the untouched design.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum
from functools import lru_cache

import numpy as np

from .errors import ConfigError
from .schema import check_fields, setting
from .voxel import VoxelGrid, VoxelMask, apply_height_delta
from .windtunnel import METRIC_NAMES, SimResult, TunnelConfig, run_simulation, tunnel_result


class ObjectiveMode(Enum):
    KE = "ke"
    KE_DF = "ke_df"
    KE_DF_VCC = "ke_df_vcc"


@dataclass
class RewardWeights:
    """Term weights: energy gain, drag drop, collision drop, height-change penalty."""

    w_ke: float = setting(1.0, ge=0.0)
    w_df: float = setting(1.0, ge=0.0)
    w_vcc: float = setting(1.0, ge=0.0)
    w_h: float = setting(0.1, gt=0.0)


def measure_baseline(grid: VoxelGrid, tunnel: TunnelConfig, n_seeds: int) -> SimResult:
    """The SimResult of the untouched design, averaged over consecutive seeds.
    A mean can overflow float64 where every seed's metric is finite; that
    raises ConfigError, as an overflowing metric of one simulation does."""
    if n_seeds < 1:
        raise ValueError("n_seeds must be at least 1")
    results = [run_simulation(grid, replace(tunnel, seed=tunnel.seed + i))
               for i in range(n_seeds)]
    with np.errstate(over="ignore"):   # tunnel_result rejects an overflow
        means = {name: float(np.mean([getattr(r, name) for r in results]))
                 for name in METRIC_NAMES}
    return tunnel_result(heatmap=np.mean([r.heatmap for r in results], axis=0), **means)


def reward(result: SimResult, baseline: SimResult, mode: ObjectiveMode,
           weights: RewardWeights) -> float:
    """Reward relative to the baseline; exactly 0 when the result equals it.

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
    return total


def _split_runs(n: int, parts: int):
    """`np.array_split(range(n), parts)` as runs of equal blocks: (output
    slice, input slice, block length) for the longer blocks, then the shorter."""
    size, longer = divmod(n, parts)
    cut = longer * (size + 1)
    runs = ((slice(0, longer), slice(0, cut), size + 1),
            (slice(longer, parts), slice(cut, n), size))
    return [run for run in runs if run[0].start < run[0].stop]


def mean_pool(field2d: np.ndarray, dims) -> np.ndarray:
    """Block-mean a 2D field down to dims; blocks split as evenly as possible.

    Blocks are those of `np.array_split` on each axis, so there are at most
    four rectangles of equal blocks. Each block is gathered in C order and
    summed in one reduction, the sum `ndarray.mean` takes over the block.
    """
    field2d = np.asarray(field2d, dtype=np.float64)
    px, py = dims
    w, l = field2d.shape
    if px < 1 or py < 1 or px > w or py > l:
        raise ValueError(f"pool dims {dims} invalid for field {field2d.shape}")
    out = np.empty((px, py), dtype=np.float64)
    for ox, ix, bx in _split_runs(w, px):
        for oy, iy, by in _split_runs(l, py):
            nx, ny = ox.stop - ox.start, oy.stop - oy.start
            blocks = field2d[ix, iy].reshape(nx, bx, ny, by).transpose(0, 2, 1, 3)
            # A copy: a strided view would be summed in another order.
            blocks = np.ascontiguousarray(blocks).reshape(nx, ny, bx * by)
            out[ox, oy] = np.add.reduce(blocks, axis=-1) / (bx * by)
    return out


@lru_cache(maxsize=64)
def _upsample_axis(k: int, n: int):
    """One axis of `bilinear_upsample` from k control cells to n cells: the
    lower and upper control index, the upper one's weight, and one minus it.
    Read-only, since every call with the same (k, n) shares them."""
    c = (np.arange(n) + 0.5) * k / n - 0.5
    lo = np.clip(np.floor(c), 0, k - 1).astype(np.int64)
    hi = np.minimum(lo + 1, k - 1)
    frac = np.clip(c - lo, 0.0, 1.0)
    tables = (lo, hi, frac, 1 - frac)
    for table in tables:
        table.setflags(write=False)
    return tables


def bilinear_upsample(control: np.ndarray, out_dims) -> np.ndarray:
    """Interpolate a coarse control field onto a full grid.

    Output cell centers map into control cell-center coordinates with edge
    clamping; a constant control field therefore upsamples to the exact same
    constant.
    """
    control = np.asarray(control, dtype=np.float64)
    kx, ky = control.shape
    w, l = out_dims
    x0, x1, fx, gx = _upsample_axis(kx, w)
    y0, y1, fy, gy = _upsample_axis(ky, l)
    x0, x1, wx, ux = x0[:, None], x1[:, None], fx[:, None], gx[:, None]
    wy, uy = fy[None, :], gy[None, :]    # ux = 1 - wx, uy = 1 - wy
    return (
        control[x0, y0] * ux * uy
        + control[x1, y0] * wx * uy
        + control[x0, y1] * ux * wy
        + control[x1, y1] * wx * wy
    )


@dataclass
class EnvConfig:
    grid: VoxelGrid
    tunnel: TunnelConfig
    mode: ObjectiveMode = setting(ObjectiveMode.KE_DF_VCC)
    weights: RewardWeights = setting(factory=RewardWeights)
    mask: VoxelMask | None = None
    control_dims: tuple = setting((8, 8), ge=1)     # coarse action grid
    pool_dims: tuple = setting((8, 8), ge=1)        # observation pooling
    max_delta: int = setting(2, ge=1)               # voxels moved per unit action
    episode_length: int = setting(16, ge=1)
    baseline_seeds: int = setting(3, ge=1)

    def validate(self, prefix: str = "env") -> None:
        check_fields(self, prefix)
        shape = (self.grid.width, self.grid.length)
        for name in ("control_dims", "pool_dims"):
            dims = getattr(self, name)
            if dims[0] > shape[0] or dims[1] > shape[1]:
                raise ConfigError(f"{prefix}.{name}: {tuple(dims)} exceeds grid {shape}")
        if self.mask is not None and self.mask.frozen.shape != shape:
            raise ConfigError(f"{prefix}.mask: shape {self.mask.frozen.shape} is not {shape}")


class WindTunnelEnv:
    """Episodic design loop: observe the design, nudge heights, re-simulate."""

    def __init__(self, config: EnvConfig):
        """Validate the config and measure the untouched design's baseline,
        whose simulations check the tunnel and that the grid fits in it."""
        config.validate()
        self.baseline = measure_baseline(config.grid, config.tunnel, config.baseline_seeds)
        self.config = config
        self._initial = config.grid.copy()
        self.mask = config.mask if config.mask is not None else VoxelMask.none(
            config.grid.width, config.grid.length)
        self.grid = config.grid.copy()
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
        """Restore the original design and the baseline's metrics."""
        self.grid = self._initial.copy()
        self._t = 0
        self._metrics = self.baseline.metrics()
        return self.observe()

    def observe(self) -> np.ndarray:
        """Pure function of the current state; metric slots are 1.0 at baseline."""
        if self._metrics is None:
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
        if not np.isfinite(a).all():
            raise ValueError("action has non-finite components")
        a = np.clip(a, -1.0, 1.0).reshape(self.config.control_dims)
        deltas = bilinear_upsample(a, (self.grid.width, self.grid.length)) \
            * self.config.max_delta
        self.grid = apply_height_delta(self.grid, deltas, self.mask)
        result = run_simulation(self.grid, self.config.tunnel)
        self._metrics = result.metrics()
        value = reward(result, self.baseline, self.config.mode, self.config.weights)
        self._t += 1
        done = self._t >= self.config.episode_length
        return self.observe(), value, done, {"result": result}
