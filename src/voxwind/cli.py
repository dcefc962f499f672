"""Command-line pipeline: voxelize, simulate, train, report.

Commands raise on failure, and `main` alone maps a failure to one stderr line
and an exit code: 2 file parse failure, bad argument or an --out that cannot
be written, 3 config validation failure, 4 training failure, 5 report inputs
missing. simulate and train echo the effective run config (defaults resolved)
as config_echo.json beside their outputs.
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
from .report import MODES, build_comparison_table, export_heatmap_delta
from .schema import build, check_fields, defaults, rules, setting
from .voxel import (
    H_MAX_LIMIT,
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


class CommandError(Exception):
    """A command's failure, raised as CommandError(exit code, message) for `main` to print."""


@dataclass
class SynthSpec:
    """Analytic stand-in design generated at train time."""

    shape: str = setting("wedge", choices=SYNTH_SHAPES)
    width: int = setting(16, ge=1, le=4096)
    length: int = setting(16, ge=1, le=4096)
    amplitude: float = setting(1.0, ge=0.0, le=1.0)
    h_max: int = setting(8, ge=1, le=H_MAX_LIMIT)
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


def _check_out(out: Path, file: bool = False) -> None:
    """Raise CommandError (exit 2) unless `out` can be written as an output
    directory, or as an output file when `file`. A directory is made with its
    missing parents, so the nearest of it and its parents that exists must be
    a directory. A file is not a directory, and its parent must already be one."""
    where = out
    if file:
        if out.is_dir():
            raise CommandError(EXIT_PARSE, f"--out {out}: is a directory")
        if not out.parent.exists():
            raise CommandError(EXIT_PARSE, f"--out {out}: {out.parent} does not exist")
        where = out.parent
    for path in (where, *where.parents):
        if path.exists():
            if not path.is_dir():
                raise CommandError(EXIT_PARSE, f"--out {out}: {path} exists and is not a directory")
            return


def _table_cell(text: str) -> str:
    """A --name that fills one comparison-table cell as it stands."""
    if any(c in text for c in ',"\r\n'):
        raise argparse.ArgumentTypeError(
            f"{text!r} must not hold a comma, a double quote or a line break")
    return text


# --- commands -----------------------------------------------------------------


def cmd_voxelize(args) -> None:
    try:
        data = Path(args.input).read_bytes()
    except OSError as exc:
        raise CommandError(EXIT_PARSE, f"cannot read {args.input}: {exc}") from exc
    try:
        hm = load_heightmap(data)
    except PgmParseError as exc:
        raise CommandError(EXIT_PARSE, f"cannot parse {args.input}: {exc}") from exc
    _check_out(Path(args.out), file=True)
    try:
        grid = voxelise(hm, args.h_max, args.voxel_size)
    except ValueError as exc:
        raise CommandError(EXIT_CONFIG, str(exc)) from exc
    Path(args.out).write_text(grid_to_csv(grid))
    print(f"{grid.width}x{grid.length} columns, h_max={grid.h_max}, "
          f"H_s={heightmap_sum(grid)}")


def cmd_simulate(args) -> None:
    run = load_run_config(args.config, args.seed)
    try:
        grid = grid_from_csv(Path(args.grid).read_text())
    except (OSError, ValueError) as exc:
        raise CommandError(EXIT_PARSE, f"cannot load grid {args.grid}: {exc}") from exc
    out = Path(args.out)
    _check_out(out)
    try:
        result = run_simulation(grid, run.tunnel)
    except ValueError as exc:
        raise CommandError(EXIT_CONFIG, str(exc)) from exc
    out.mkdir(parents=True, exist_ok=True)
    (out / "simresult.csv").write_text(simresult_to_csv(result))
    (out / "heatmap.csv").write_text(heatmap_to_csv(result.heatmap))
    (out / "heatmap.pgm").write_bytes(heatmap_to_pgm(result.heatmap))
    (out / "config_echo.json").write_text(config_echo_json(run))


def cmd_train(args) -> None:
    run = load_run_config(args.config, args.seed)
    if args.mode is not None:
        run.env["mode"] = ObjectiveMode(args.mode)
    out = Path(args.out)
    _check_out(out)
    env = _build_env(run)   # measures the baseline, which can fail, before --out is made
    out.mkdir(parents=True, exist_ok=True)
    (out / "config_echo.json").write_text(config_echo_json(run))
    result = train(env, run.ppo, checkpoint_dir=out)
    write_trace_csv(result.trace, out / "trace.csv")
    if run.ppo.max_training_steps == 0:
        return
    grid_opt, res_opt = evaluate_policy(env, result.policy)
    (out / "optimised_grid.csv").write_text(grid_to_csv(grid_opt))
    (out / f"simresult_{env.config.mode.value}.csv").write_text(simresult_to_csv(res_opt))
    baseline_dir = out / "baseline"
    baseline_dir.mkdir(exist_ok=True)
    (baseline_dir / "simresult.csv").write_text(simresult_to_csv(env.baseline))
    before_pgm, after_pgm = export_heatmap_delta(env.baseline.heatmap, res_opt.heatmap)
    (out / "heatmap_before.pgm").write_bytes(before_pgm)
    (out / "heatmap_after.pgm").write_bytes(after_pgm)
    (out / "heatmap_before.csv").write_text(heatmap_to_csv(env.baseline.heatmap))
    (out / "heatmap_after.csv").write_text(heatmap_to_csv(res_opt.heatmap))


def _read_simresult(path: Path) -> dict:
    try:
        return simresult_from_csv(path.read_text())
    except ValueError as exc:
        raise CommandError(EXIT_PARSE, f"{path}: {exc}") from exc


def cmd_report(args) -> None:
    before_path = Path(args.before) / "simresult.csv"
    if not before_path.is_file():
        raise CommandError(EXIT_REPORT, f"missing {before_path}")
    before = _read_simresult(before_path)
    after_dir = Path(args.after)
    paths = {mode: after_dir / f"simresult_{mode}.csv" for mode in MODES}
    after = {mode: _read_simresult(path) for mode, path in paths.items() if path.is_file()}
    if not after:
        raise CommandError(EXIT_REPORT, f"no simresult_<mode>.csv files under {after_dir}")
    _check_out(Path(args.out), file=True)
    Path(args.out).write_text(build_comparison_table(args.name, before, after))


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
    p_rep.add_argument("--name", type=_table_cell, default="design",
                       help="design name for the car column")
    p_rep.set_defaults(func=cmd_report)
    return parser


def main(argv=None) -> int:
    """Run one command. Its failure is printed here alone, as one stderr line
    `<command>: <message>`, and picks the exit code; success returns 0."""
    args = build_parser().parse_args(argv)
    try:
        args.func(args)
        return 0
    except CommandError as exc:
        code, message = exc.args
    except ConfigError as exc:
        code, message = EXIT_CONFIG, exc
    except TrainingError as exc:
        code, message = EXIT_TRAIN, exc
    print(f"{args.command}: {message}", file=sys.stderr)
    return code


def app() -> None:
    raise SystemExit(main())
