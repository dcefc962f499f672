"""The benchmark's workloads: generated inputs, operations and output checks.

The program sees only inputs written here from the workload seed: PGM
heightmaps, run-config JSON, and voxel grid and mask CSVs made from them by
`voxwind voxelize`. A workload runs in rounds. A round is the unit that
throughput is measured on: one pass of `voxwind simulate` over every design
and speed (sim_sweep), or one in-process `ppo.train` call (train workloads).

Every run replays one fixed pool of input seeds, in an order drawn from the
workload seed, and golden.json holds the outputs the seed code gave for every
pool entry at 10 mph. A 10 mph result must match
them byte for byte; every result must also satisfy the invariants in
`result_invariants`.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

from speed import SpeedClock
from voxwind import cli, ppo, voxel, windtunnel
from voxwind.env import EnvConfig, ObjectiveMode, WindTunnelEnv

GOLDEN_PATH = Path(__file__).with_name("golden.json")

DESK_DOMAIN = [3.2, 1.8, 0.9]
GOLDEN_SPEED = 10.0


@dataclass(frozen=True)
class Design:
    name: str
    shape: str      # wedge | box | half-cylinder
    size: int       # columns along x and along y
    h_max: int
    voxel_size: float


SWEEP_DESIGNS = (
    Design("wedge16", "wedge", 16, 8, 0.1),
    Design("box16", "box", 16, 8, 0.1),
    Design("hcyl16", "half-cylinder", 16, 8, 0.1),
    Design("wedge32", "wedge", 32, 16, 0.05),
    Design("hcyl32", "half-cylinder", 32, 16, 0.05),
)
SWEEP_SPEEDS = (10.0, 60.0)
DESK_WEDGE = SWEEP_DESIGNS[0]


def heightmap_pgm(design: Design) -> bytes:
    """Binary 8-bit PGM of the design's elevation, indexed [x, y], flow along +x."""
    n = design.size
    if design.shape == "wedge":
        profile = np.arange(n) / (n - 1)
    elif design.shape == "box":
        profile = np.ones(n)
    else:
        u = np.linspace(-1.0, 1.0, n)
        profile = np.sqrt(np.clip(1.0 - u * u, 0.0, 1.0))
    pixels = np.floor(np.repeat(profile[:, None], n, axis=1) * 255.0 + 0.5)
    header = f"P5\n{n} {n}\n255\n".encode("ascii")
    return header + pixels.T.astype(np.uint8).tobytes()  # file rows run along y


def result_invariants(metrics: dict, heatmap_total: int, grid_sum: int,
                      burst_count: int, base_cycle_count: float) -> list:
    """Checks that hold for any correct tunnel, at any air speed."""
    errors = []
    for name, value in metrics.items():
        if not math.isfinite(value) or value < 0:
            errors.append(f"{name}={value!r} is not finite and non-negative")
    impacts = metrics["collision_count"] * burst_count * base_cycle_count
    if abs(impacts - heatmap_total) > 1e-9 * max(1.0, heatmap_total):
        errors.append(f"heatmap holds {heatmap_total} impacts, collision_count implies "
                      f"{impacts!r}")
    if metrics["heightmap_sum"] != grid_sum:
        errors.append(f"heightmap_sum={metrics['heightmap_sum']!r}, grid sums to {grid_sum}")
    return errors


def load_golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text())


def checked(check, *args) -> list:
    """Run an output check; an exception while checking is a failed check."""
    try:
        return check(*args)
    except Exception as exc:
        return [f"output check raised {exc!r}"]


@dataclass
class RoundResult:
    """Timings are scaled to the calibrated reference speed (see speed.py)."""

    seconds: float = 0.0        # timed time of the round's operations
    raw_seconds: float = 0.0    # the same, unscaled wall time
    units: int = 0              # simulate calls (sim_sweep) or env steps (train)
    latencies: list = field(default_factory=list)   # seconds per unit
    attempted: int = 0          # operations attempted
    failed: int = 0             # operations that raised or failed a check
    failures: list = field(default_factory=list)    # what went wrong, for the record
    bytes_written: int = 0      # bytes of the files `voxwind simulate` wrote


class Workload:
    """Inputs under `work`, generated from `seed`; rounds replay by index."""

    name = ""
    unit = ""           # what a latency sample times
    # Input seeds with recorded outputs. A run makes at least `pool` rounds,
    # which use every seed once, and takes its latency samples from them, so
    # runs differ in the order of their inputs and not in the inputs.
    pool = 1

    def __init__(self, work: Path, seed: int, golden: dict | None = None):
        self.work = Path(work)
        self.seed = seed
        self.golden = golden
        self.order = random.Random(seed).sample(range(self.pool), self.pool)
        self.clock = SpeedClock()

    def write_grid(self, design: Design) -> Path:
        """Write the design's PGM and voxelise it with the program's CLI."""
        pgm = self.work / f"{design.name}.pgm"
        pgm.write_bytes(heightmap_pgm(design))
        out = self.work / f"{design.name}.csv"
        code = cli.main(["voxelize", "--input", str(pgm), "--h-max", str(design.h_max),
                         "--voxel-size", repr(design.voxel_size), "--out", str(out)])
        if code != 0:
            raise RuntimeError(f"voxwind voxelize exited {code} on {design.name}")
        return out

    def mismatches(self, key: str, outputs: dict) -> list:
        """The recorded outputs of input `key` that `outputs` does not reproduce."""
        expected = (self.golden or {}).get(self.name, {}).get(key)
        if expected is None:
            return [f"golden.json has no {self.name} entry {key!r}"]
        return [f"{name} differs from the recorded output"
                for name, value in expected.items() if outputs.get(name) != value]


class SimSweep(Workload):
    """`voxwind simulate` through cli.main over every design at 10 and 60 mph."""

    name = "sim_sweep"
    unit = "simulate"
    pool = 16       # 160 samples: the tail lands inside the slowest design's

    def setup(self) -> None:
        self.grids = {d.name: self.write_grid(d) for d in SWEEP_DESIGNS}
        self.grid_sums = {name: int(voxel.grid_from_csv(path.read_text()).column_heights.sum())
                          for name, path in self.grids.items()}
        self.configs = {}
        for speed in SWEEP_SPEEDS:
            doc = {"seed": 0, "tunnel": {"air_speed": speed, "particle_count": 256,
                                         "burst_count": 2, "domain_size": DESK_DOMAIN}}
            path = self.work / f"sim_{speed:g}mph.json"
            path.write_text(json.dumps(doc, indent=2) + "\n")
            self.configs[speed] = path

    def ops(self, k: int) -> list:
        """(design, speed, input seed) for every simulate of round k, in a
        shuffled order; each design and speed walks the pool in its own order."""
        combos = [(d, s) for d in SWEEP_DESIGNS for s in SWEEP_SPEEDS]
        ops = [(d, s, self.order[(k + 3 * j) % self.pool]) for j, (d, s) in enumerate(combos)]
        random.Random(self.seed * 1_000_003 + k).shuffle(ops)
        return ops

    def simulate(self, design: Design, speed: float, seed: int):
        """One timed `voxwind simulate`; returns (start, end, exit code, output dir)."""
        out = self.work / "out" / f"{design.name}_{speed:g}"
        argv = ["simulate", "--grid", str(self.grids[design.name]),
                "--config", str(self.configs[speed]), "--out", str(out), "--seed", str(seed)]
        t0 = perf_counter()
        code = cli.main(argv)
        return t0, perf_counter(), code, out

    def outputs(self, out: Path) -> dict:
        return {"simresult_csv": (out / "simresult.csv").read_text()}

    def check(self, design: Design, speed: float, seed: int, code: int, out: Path) -> list:
        if code != 0:
            return [f"exit code {code}"]
        text = (out / "simresult.csv").read_text()
        metrics = windtunnel.simresult_from_csv(text)
        heatmap = np.loadtxt(out / "heatmap.csv", delimiter=",", dtype=np.int64, ndmin=2)
        errors = result_invariants(metrics, int(heatmap.sum()), self.grid_sums[design.name],
                                   burst_count=2, base_cycle_count=10.0)
        if speed == GOLDEN_SPEED:
            errors += self.mismatches(f"{design.name}/seed{seed}", self.outputs(out))
        return errors

    def run_round(self, k: int, tracer=None) -> RoundResult:
        r = RoundResult()
        spans = []
        for design, speed, seed in self.ops(k):
            r.attempted += 1
            label = f"{design.name}@{speed:g}mph seed {seed}"
            self.clock.tick(force=True)
            try:
                if tracer is None:
                    t0, t1, code, out = self.simulate(design, speed, seed)
                else:
                    t0, t1, code, out = tracer.call("cli.simulate", self.simulate,
                                                    design, speed, seed)
            except Exception as exc:  # a failed operation is counted, not fatal
                errors = [repr(exc)]
            else:
                spans.append((t0, t1))
                r.bytes_written += sum(p.stat().st_size for p in out.iterdir())
                errors = checked(self.check, design, speed, seed, code, out)
            r.failed += bool(errors)
            r.failures.extend(f"{label}: {e}" for e in errors)
        self.clock.tick(force=True)
        r.latencies = [(t1 - t0) * self.clock.factor(t0, t1) for t0, t1 in spans]
        r.units = len(spans)
        r.seconds = sum(r.latencies)
        r.raw_seconds = sum(t1 - t0 for t0, t1 in spans)
        return r


class TrainWorkload(Workload):
    """In-process ppo.train on a fresh env per round, one input seed per round."""

    unit = "env step"
    design = DESK_WEDGE
    tunnel: dict = {}
    ppo: dict = {}
    env: dict = {}
    frozen_rows = 0     # leading x rows frozen by the mask CSV (0: no mask)

    def setup(self) -> None:
        grid_csv = self.write_grid(self.design)
        env_doc = {"grid_csv": str(grid_csv), **self.env}
        if self.frozen_rows:
            frozen = np.zeros((self.design.size, self.design.size), dtype=bool)
            frozen[:self.frozen_rows] = True
            mask_csv = self.work / "mask.csv"
            mask_csv.write_text(voxel.mask_to_csv(voxel.VoxelMask(frozen)))
            env_doc["mask_csv"] = str(mask_csv)
        doc = {"seed": 0, "tunnel": {**self.tunnel, "domain_size": DESK_DOMAIN},
               "ppo": self.ppo, "env": env_doc}
        self.config = self.work / f"{self.name}.json"
        self.config.write_text(json.dumps(doc, indent=2) + "\n")
        self.prepared = {0: self.build_env(self.order[0])}

    def build_env(self, seed: int):
        """Parse the generated inputs, build the env and measure its baseline."""
        doc = json.loads(self.config.read_text())
        env_doc = doc["env"]
        grid = voxel.grid_from_csv(Path(env_doc["grid_csv"]).read_text())
        mask = None
        if "mask_csv" in env_doc:
            mask = voxel.mask_from_csv(Path(env_doc["mask_csv"]).read_text())
        tunnel = windtunnel.TunnelConfig(**{**doc["tunnel"], "seed": seed})
        env = WindTunnelEnv(EnvConfig(
            grid=grid, tunnel=tunnel, mode=ObjectiveMode(env_doc["mode"]), mask=mask,
            control_dims=tuple(env_doc["control_dims"]),
            pool_dims=tuple(env_doc["pool_dims"]), max_delta=env_doc["max_delta"],
            episode_length=env_doc["episode_length"],
            baseline_seeds=env_doc["baseline_seeds"]))
        env.reset()
        return env, ppo.PpoConfig(**{**doc["ppo"], "seed": seed})

    def train(self, env, config, tracer=None):
        """One timed ppo.train; returns (TrainResult, [(start, end)] per step,
        wall seconds from the call to the first step).

        A step runs from one env.act call to the next (the last one to the
        return of train), so it covers the policy, the value net, the env step
        and any PPO update that step triggered. Speed-clock ticks happen
        between steps and are left out.
        """
        starts, ends = [], []
        act = env.act
        clock = self.clock

        def stamped_act(*args, **kwargs):
            ends.append(perf_counter())
            clock.tick()
            starts.append(perf_counter())
            return act(*args, **kwargs)

        env.act = stamped_act
        try:
            t0 = perf_counter()
            if tracer is None:
                result = ppo.train(env, config)
            else:
                result = tracer.call("ppo.train", ppo.train, env, config)
            t1 = perf_counter()
        finally:
            del env.act
        clock.tick(force=True)
        ends.append(t1)
        return result, list(zip(starts, ends[1:])), ends[0] - t0

    def outputs(self, env, result) -> dict:
        """trace.csv digest and the SimResult CSV of a greedy evaluation episode."""
        trace_csv = self.work / "trace.csv"
        ppo.write_trace_csv(result.trace, trace_csv)
        grid, final = ppo.evaluate_policy(env, result.policy)
        return {"trace_sha256": hashlib.sha256(trace_csv.read_bytes()).hexdigest(),
                "simresult_csv": windtunnel.simresult_to_csv(final),
                "_grid": grid, "_result": final}

    def check(self, env, config, seed: int, result, outputs: dict) -> list:
        errors = []
        if len(result.trace) != config.max_training_steps:
            errors.append(f"trace has {len(result.trace)} rows, expected "
                          f"{config.max_training_steps}")
        final, grid = outputs["_result"], outputs["_grid"]
        tunnel = env.config.tunnel
        errors += result_invariants(final.metrics(), int(final.heatmap.sum()),
                                    int(grid.column_heights.sum()),
                                    tunnel.burst_count, tunnel.base_cycle_count)
        frozen = env.mask.frozen
        if not np.array_equal(grid.column_heights[frozen],
                              env.config.grid.column_heights[frozen]):
            errors.append("masked columns changed in the evaluated design")
        return errors + self.mismatches(f"seed{seed}", outputs)

    def run_round(self, k: int, tracer=None) -> RoundResult:
        r = RoundResult(attempted=1)
        seed = self.order[k % self.pool]
        try:
            prepared = self.prepared.pop(k, None) if tracer is None else None
            if prepared is None:
                prepared = self.build_env(seed)
            env, config = prepared
            result, steps, lead = self.train(env, config, tracer)
        except Exception as exc:  # a failed operation is counted, not fatal
            errors = [repr(exc)]
        else:
            r.latencies = [(t1 - t0) * self.clock.factor(t0, t1) for t0, t1 in steps]
            r.units = len(steps)
            r.seconds = lead * self.clock.factor(steps[0][0], steps[0][0]) + sum(r.latencies)
            r.raw_seconds = lead + sum(t1 - t0 for t0, t1 in steps)
            errors = checked(lambda: self.check(env, config, seed, result,
                                                self.outputs(env, result)))
        r.failed = int(bool(errors))
        r.failures.extend(f"train seed {seed}: {e}" for e in errors)
        return r


class DeskTrain(TrainWorkload):
    """The acceptance suite's desk_wedge_config settings; the tunnel dominates."""

    name = "desk_train"
    pool = 4        # 512 steps with 4 PPO updates, fewer than the tail's 10
    tunnel = {"air_speed": 10.0, "particle_count": 96, "burst_count": 2, "max_steps": 160}
    ppo = {"batch_size": 32, "buffer_size": 128, "learning_rate": 3e-3,
           "learning_rate_final": 0.0, "epsilon": 0.2, "epsilon_final": 0.1, "epochs": 5,
           "max_training_steps": 128, "time_horizon": 8, "hidden_layers": 2,
           "hidden_units": 64}
    env = {"mode": "ke_df_vcc", "control_dims": [4, 4], "pool_dims": [4, 4],
           "max_delta": 2, "episode_length": 8, "baseline_seeds": 3}


class TrainLearner(TrainWorkload):
    """README-default network and env shapes over a cheap tunnel; the learner,
    observation pooling and per-call tunnel set-up dominate."""

    name = "train_learner"
    pool = 16       # 16 PPO-update steps, so the tail times updates
    tunnel = {"air_speed": 10.0, "particle_count": 4, "burst_count": 1, "max_steps": 40}
    ppo = {"batch_size": 64, "buffer_size": 512, "epochs": 10, "max_training_steps": 512,
           "time_horizon": 64, "hidden_layers": 2, "hidden_units": 128}
    env = {"mode": "ke_df_vcc", "control_dims": [8, 8], "pool_dims": [8, 8],
           "max_delta": 2, "episode_length": 16, "baseline_seeds": 3}
    frozen_rows = 2


WORKLOADS = {w.name: w for w in (DeskTrain, SimSweep, TrainLearner)}
