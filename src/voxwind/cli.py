"""Command-line pipeline: voxelize, simulate, train, report.

Exit codes: 2 file parse failure, 3 config validation failure, 4 training
failure, 5 report inputs missing. The effective run config (defaults
resolved) is echoed as config_echo.json beside every output set.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict, dataclass, replace
from pathlib import Path

from .env import EnvConfig, ObjectiveMode, WindTunnelEnv
from .errors import ConfigError, TrainingError
from .ppo import PpoConfig, evaluate_policy, train, write_trace_csv
from .report import MODES, ComparisonRow, build_comparison_table, export_heatmap_delta
from .schema import build, check_fields, defaults, rules, setting
from .voxel import (
    SYNTH_SHAPES,
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

    shape: str = setting("wedge", choices=SYNTH_SHAPES)
    width: int = setting(16, ge=1)
    length: int = setting(16, ge=1)
    amplitude: float = setting(1.0, ge=0.0, le=1.0)
    h_max: int = setting(8, ge=1)
    voxel_size: float = setting(0.1, gt=0.0)


@dataclass
class GridSource:
    """The env section's design: a grid CSV or a synth spec, and an optional mask."""

    grid_csv: str | None = setting(None, str)
    synth: SynthSpec | None = setting(None, SynthSpec)
    mask_csv: str | None = setting(None, str)


@dataclass
class RunConfig:
    """The run-config document; `env` maps each GridSource and EnvConfig setting to its value."""

    seed: int = setting(0, ge=0)
    tunnel: TunnelConfig = setting(factory=TunnelConfig)
    ppo: PpoConfig = setting(factory=PpoConfig)
    env: dict = setting(kind=(GridSource, EnvConfig),
                        factory=lambda: defaults(GridSource, EnvConfig))


def load_run_config(path, seed: int | None = None) -> RunConfig:
    """Parse and validate a run-config JSON document. `seed` overrides the master
    seed, which the tunnel and ppo sections follow unless they set their own."""
    try:
        raw = json.loads(Path(path).read_text())
    except OSError as exc:
        raise ConfigError(f"config: cannot read {path}: {exc}") from exc
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
        raise ConfigError(f"config: invalid JSON in {path}: {exc}") from exc
    run = build(RunConfig, raw, "")    # converted, not yet checked
    if seed is not None:
        run.seed = seed
    for section in ("tunnel", "ppo"):
        if "seed" not in raw.get(section, {}):
            setattr(run, section, replace(getattr(run, section), seed=run.seed))
    check_fields(run, "")
    return run


def config_echo_json(run: RunConfig) -> str:
    return json.dumps(asdict(run), indent=2, default=lambda member: member.value) + "\n"


def _read_csv(name: str, parse, path: str):
    try:
        return parse(Path(path).read_text())
    except (OSError, ValueError) as exc:
        raise ConfigError(f"env.{name}: {exc}") from exc


def _build_env(run: RunConfig) -> WindTunnelEnv:
    settings = dict(run.env)
    source = GridSource(**{name: settings.pop(name) for name in rules(GridSource)})
    if (source.grid_csv is None) == (source.synth is None):
        raise ConfigError("env.grid_csv: exactly one of env.grid_csv or env.synth is required")
    if source.grid_csv is not None:
        grid = _read_csv("grid_csv", grid_from_csv, source.grid_csv)
    else:
        spec = source.synth
        grid = voxelise(
            synth_heightmap(spec.shape, spec.width, spec.length, spec.amplitude),
            spec.h_max, spec.voxel_size)
    mask = None if source.mask_csv is None else _read_csv("mask_csv", mask_from_csv,
                                                           source.mask_csv)
    return WindTunnelEnv(EnvConfig(grid=grid, tunnel=run.tunnel, mask=mask, **settings))


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
        run = load_run_config(args.config, args.seed)
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
        run = load_run_config(args.config, args.seed)
        if args.mode is not None:
            run.env["mode"] = ObjectiveMode(args.mode)
        env = _build_env(run)
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
    (out / f"simresult_{env.config.mode.value}.csv").write_text(simresult_to_csv(res_opt))
    baseline_dir = out / "baseline"
    baseline_dir.mkdir(exist_ok=True)
    (baseline_dir / "simresult.csv").write_text(simresult_to_csv(env.baseline))
    maps = export_heatmap_delta(env.baseline.heatmap, res_opt.heatmap)
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
    p_train.add_argument("--mode", choices=MODES, default=None,
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
