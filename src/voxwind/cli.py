"""Command-line pipeline: voxelize, simulate, train, report.

Exit codes: 2 file parse failure, 3 config validation failure, 4 training
failure, 5 report inputs missing. The effective run config (defaults
resolved) is echoed as config_echo.json beside every output set.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict, dataclass, field, fields, replace
from pathlib import Path

from .env import EnvConfig, ObjectiveMode, RewardWeights, WindTunnelEnv
from .errors import ConfigError, TrainingError
from .ppo import PpoConfig, evaluate_policy, train, write_trace_csv
from .report import MODES, ComparisonRow, build_comparison_table, export_heatmap_delta
from .voxel import (
    PgmParseError,
    grid_from_csv,
    grid_to_csv,
    heightmap_sum,
    load_heightmap,
    mask_from_csv,
    synth_heightmap,
    voxelise,
)
from .windtunnel import (
    METRIC_NAMES,
    TunnelConfig,
    heatmap_to_csv,
    heatmap_to_pgm,
    run_simulation,
    simresult_from_csv,
    simresult_to_csv,
)

EXIT_PARSE = 2
EXIT_CONFIG = 3
EXIT_TRAIN = 4
EXIT_REPORT = 5


@dataclass
class SynthSpec:
    """Analytic stand-in design generated at train time."""

    shape: str = "wedge"
    width: int = 16
    length: int = 16
    amplitude: float = 1.0
    h_max: int = 8
    voxel_size: float = 0.1


@dataclass
class EnvSettings:
    """JSON-facing environment section; the grid comes from a CSV or a synth spec."""

    grid_csv: str | None = None
    synth: SynthSpec | None = None
    mask_csv: str | None = None
    mode: str = "ke_df_vcc"
    weights: RewardWeights = field(default_factory=RewardWeights)
    control_dims: tuple = (8, 8)
    pool_dims: tuple = (8, 8)
    max_delta: int = 2
    episode_length: int = 16
    baseline_seeds: int = 3
    reward_scale: float = 1.0


@dataclass
class RunConfig:
    seed: int = 0
    out_dir: str | None = None
    tunnel: TunnelConfig = field(default_factory=TunnelConfig)
    ppo: PpoConfig = field(default_factory=PpoConfig)
    env: EnvSettings = field(default_factory=EnvSettings)


def _checked_kwargs(cls, data, path: str) -> dict:
    """Reject unknown keys so hyperparameter typos fail loudly."""
    if not isinstance(data, dict):
        raise ConfigError(f"{path}: expected a JSON object")
    allowed = {f.name for f in fields(cls)}
    kwargs = {}
    for key, value in data.items():
        if key not in allowed:
            raise ConfigError(f"{path}.{key}: unknown key")
        kwargs[key] = value
    return kwargs


def load_run_config(path) -> tuple[RunConfig, dict]:
    """Parse a run-config JSON document with strict unknown-key rejection.

    Returns (config, raw document) so callers can tell explicitly-set keys
    from defaulted ones.
    """
    try:
        raw = json.loads(Path(path).read_text())
    except OSError as exc:
        raise ConfigError(f"config: cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config: invalid JSON in {path}: {exc}") from exc
    top = _checked_kwargs(RunConfig, raw, "config")
    tunnel = TunnelConfig(**_checked_kwargs(TunnelConfig, raw.get("tunnel", {}), "tunnel"))
    ppo = PpoConfig(**_checked_kwargs(PpoConfig, raw.get("ppo", {}), "ppo"))
    env_raw = dict(raw.get("env", {}))
    env_kwargs = _checked_kwargs(EnvSettings, env_raw, "env")
    if "weights" in env_kwargs:
        env_kwargs["weights"] = RewardWeights(
            **_checked_kwargs(RewardWeights, env_raw["weights"], "env.weights"))
    if env_kwargs.get("synth") is not None:
        env_kwargs["synth"] = SynthSpec(
            **_checked_kwargs(SynthSpec, env_raw["synth"], "env.synth"))
    for key in ("control_dims", "pool_dims"):
        if key in env_kwargs:
            dims = env_kwargs[key]
            if not isinstance(dims, (list, tuple)) or len(dims) != 2:
                raise ConfigError(f"env.{key}: expected two integers")
            env_kwargs[key] = tuple(int(v) for v in dims)
    env_settings = EnvSettings(**env_kwargs)
    seed = top.get("seed", 0)
    if not isinstance(seed, int):
        raise ConfigError("config.seed: expected an integer")
    return RunConfig(seed=seed, out_dir=top.get("out_dir"), tunnel=tunnel,
                     ppo=ppo, env=env_settings), raw


def resolve_seeds(run: RunConfig, raw: dict, seed_flag: int | None) -> RunConfig:
    """--seed overrides the master seed; sections keep explicit JSON seeds."""
    if seed_flag is not None:
        run.seed = seed_flag
    if "seed" not in raw.get("tunnel", {}):
        run.tunnel = replace(run.tunnel, seed=run.seed)
    if "seed" not in raw.get("ppo", {}):
        run.ppo = replace(run.ppo, seed=run.seed)
    return run


def config_echo_json(run: RunConfig) -> str:
    doc = {
        "seed": run.seed,
        "out_dir": run.out_dir,
        "tunnel": asdict(run.tunnel),
        "ppo": asdict(run.ppo),
        "env": asdict(run.env),
    }
    return json.dumps(doc, indent=2) + "\n"


def _build_env(run: RunConfig, mode: str) -> WindTunnelEnv:
    settings = run.env
    if (settings.grid_csv is None) == (settings.synth is None):
        raise ConfigError("env.grid_csv: exactly one of env.grid_csv or env.synth is required")
    if settings.grid_csv is not None:
        try:
            grid = grid_from_csv(Path(settings.grid_csv).read_text())
        except (OSError, ValueError) as exc:
            raise ConfigError(f"env.grid_csv: {exc}") from exc
    else:
        spec = settings.synth
        grid = voxelise(
            synth_heightmap(spec.shape, spec.width, spec.length, spec.amplitude),
            spec.h_max, spec.voxel_size)
    mask = None
    if settings.mask_csv is not None:
        try:
            mask = mask_from_csv(Path(settings.mask_csv).read_text())
        except (OSError, ValueError) as exc:
            raise ConfigError(f"env.mask_csv: {exc}") from exc
    try:
        objective = ObjectiveMode(mode)
    except ValueError as exc:
        raise ConfigError(f"env.mode: unknown mode {mode!r}") from exc
    env_config = EnvConfig(
        grid=grid,
        tunnel=run.tunnel,
        mode=objective,
        weights=settings.weights,
        mask=mask,
        control_dims=settings.control_dims,
        pool_dims=settings.pool_dims,
        max_delta=settings.max_delta,
        episode_length=settings.episode_length,
        baseline_seeds=settings.baseline_seeds,
        reward_scale=settings.reward_scale,
    )
    return WindTunnelEnv(env_config)


# --- commands -----------------------------------------------------------------


def cmd_voxelize(args) -> int:
    try:
        data = Path(args.input).read_bytes()
    except OSError as exc:
        print(f"voxelize: cannot read {args.input}: {exc}", file=sys.stderr)
        return EXIT_PARSE
    try:
        hm = load_heightmap(data)
    except PgmParseError as exc:
        print(f"voxelize: {exc}", file=sys.stderr)
        return EXIT_PARSE
    try:
        grid = voxelise(hm, args.h_max, args.voxel_size)
    except ValueError as exc:
        print(f"voxelize: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    Path(args.out).write_text(grid_to_csv(grid))
    print(f"{grid.width}x{grid.length} columns, h_max={grid.h_max}, "
          f"H_s={heightmap_sum(grid)}")
    return 0


def cmd_simulate(args) -> int:
    try:
        run, raw = load_run_config(args.config)
        run = resolve_seeds(run, raw, args.seed)
        run.tunnel.validate("tunnel")
        run.ppo.validate("ppo")
    except ConfigError as exc:
        print(f"simulate: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        grid = grid_from_csv(Path(args.grid).read_text())
    except (OSError, ValueError) as exc:
        print(f"simulate: cannot load grid {args.grid}: {exc}", file=sys.stderr)
        return EXIT_PARSE
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    try:
        result = run_simulation(grid, run.tunnel)
    except ValueError as exc:
        print(f"simulate: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    (out / "simresult.csv").write_text(simresult_to_csv(result))
    (out / "heatmap.csv").write_text(heatmap_to_csv(result.heatmap))
    (out / "heatmap.pgm").write_bytes(heatmap_to_pgm(result.heatmap))
    (out / "config_echo.json").write_text(config_echo_json(run))
    return 0


def cmd_train(args) -> int:
    try:
        run, raw = load_run_config(args.config)
        run = resolve_seeds(run, raw, args.seed)
        mode = args.mode if args.mode is not None else run.env.mode
        run.env.mode = mode
        run.tunnel.validate("tunnel")
        run.ppo.validate("ppo")
        env = _build_env(run, mode)
    except ConfigError as exc:
        print(f"train: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    (out / "config_echo.json").write_text(config_echo_json(run))
    try:
        result = train(env, run.ppo, checkpoint_dir=out)
    except TrainingError as exc:
        print(f"train: {exc}", file=sys.stderr)
        return EXIT_TRAIN
    write_trace_csv(result.trace, out / "trace.csv")
    if run.ppo.max_training_steps == 0:
        return 0
    grid_opt, res_opt = evaluate_policy(env, result.policy)
    (out / "optimised_grid.csv").write_text(grid_to_csv(grid_opt))
    (out / f"simresult_{mode}.csv").write_text(simresult_to_csv(res_opt))
    baseline_dir = out / "baseline"
    baseline_dir.mkdir(exist_ok=True)
    base = env.baseline
    base_row = ",".join(repr(float(getattr(base, name))) for name in METRIC_NAMES)
    (baseline_dir / "simresult.csv").write_text(
        "drag_force,kinetic_energy,collision_count,heightmap_sum\n" + base_row + "\n")
    maps = export_heatmap_delta(base.heatmap, res_opt.heatmap)
    (out / "heatmap_before.pgm").write_bytes(maps.before_pgm)
    (out / "heatmap_after.pgm").write_bytes(maps.after_pgm)
    (out / "heatmap_before.csv").write_text(maps.before_csv)
    (out / "heatmap_after.csv").write_text(maps.after_csv)
    return 0


def cmd_report(args) -> int:
    before_path = Path(args.before) / "simresult.csv"
    if not before_path.is_file():
        print(f"report: missing {before_path}", file=sys.stderr)
        return EXIT_REPORT
    try:
        before = simresult_from_csv(before_path.read_text())
    except ValueError as exc:
        print(f"report: {before_path}: {exc}", file=sys.stderr)
        return EXIT_PARSE
    after_dir = Path(args.after)
    after = {}
    for mode in MODES:
        candidate = after_dir / f"simresult_{mode}.csv"
        if candidate.is_file():
            try:
                after[mode] = simresult_from_csv(candidate.read_text())
            except ValueError as exc:
                print(f"report: {candidate}: {exc}", file=sys.stderr)
                return EXIT_PARSE
    if not after:
        print(f"report: no simresult_<mode>.csv files under {after_dir}", file=sys.stderr)
        return EXIT_REPORT
    rows = []
    for metric in METRIC_NAMES:
        rows.append(ComparisonRow(
            car=args.name,
            metric=metric,
            original=before[metric],
            optimised={mode: vals[metric] for mode, vals in after.items()},
        ))
    Path(args.out).write_text(build_comparison_table(rows))
    return 0


# --- entry point ----------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="voxwind",
        description="Voxel wind-tunnel shape optimisation pipeline.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_vox = sub.add_parser("voxelize", help="heightmap PGM -> voxel grid CSV")
    p_vox.add_argument("--input", required=True, help="heightmap PGM (P2 or P5)")
    p_vox.add_argument("--h-max", dest="h_max", type=int, required=True,
                       help="column height at full-scale elevation")
    p_vox.add_argument("--voxel-size", dest="voxel_size", type=float, required=True,
                       help="voxel edge length in meters")
    p_vox.add_argument("--out", required=True, help="output grid CSV path")
    p_vox.set_defaults(func=cmd_voxelize)

    p_sim = sub.add_parser("simulate", help="run the particle tunnel on a grid")
    p_sim.add_argument("--grid", required=True, help="voxel grid CSV")
    p_sim.add_argument("--config", required=True, help="run config JSON")
    p_sim.add_argument("--out", required=True, help="output directory")
    p_sim.add_argument("--seed", type=int, default=None, help="override config seed")
    p_sim.set_defaults(func=cmd_simulate)

    p_train = sub.add_parser("train", help="optimise the design with PPO")
    p_train.add_argument("--config", required=True, help="run config JSON")
    p_train.add_argument("--mode", choices=[m for m in MODES], default=None,
                         help="objective mode (default from config)")
    p_train.add_argument("--out", required=True, help="output directory")
    p_train.add_argument("--seed", type=int, default=None, help="override config seed")
    p_train.set_defaults(func=cmd_train)

    p_rep = sub.add_parser("report", help="before/after comparison table")
    p_rep.add_argument("--before", required=True,
                       help="directory containing simresult.csv")
    p_rep.add_argument("--after", required=True,
                       help="directory containing simresult_<mode>.csv files")
    p_rep.add_argument("--out", required=True, help="output table CSV path")
    p_rep.add_argument("--name", default="design", help="design name for the car column")
    p_rep.set_defaults(func=cmd_report)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


def app() -> None:
    raise SystemExit(main())
