"""voxwind benchmark: one workload per process, metrics as one JSON line.

    python3 perfbench/run.py --workload sim_sweep --seed 3 --seconds 30 --trace 0

Run from the root of a voxwind checkout; the package is imported from its
`src/` directory. With --trace 0 the last line of standard output holds the
end-to-end metrics, measured with tracing off; with --trace 1 it holds the
per-layer metrics of a traced run, which also reports the tracing overhead.
Human-readable lines above it name every metric with its unit, and a run
record (machine, settings, sample counts, per-layer table) is written under
`.perfbench_runs/` in the checkout. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

from speed import REFERENCE_S

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RUNS = ROOT / ".perfbench_runs"

SETUP_PROBES = 7          # set-ups per run behind the setup_s median
SETUP_TIMEOUT_S = 120
WARMUP_S = 0.5            # BLAS warm-up before the first timed round
TRACE_PAIR_S = {"desk_train": 14.0, "sim_sweep": 5.0, "train_learner": 4.0}

LIMITS = (
    "2 CPUs shared with other tenants, whose speed drifts; timings other than "
    "setup_s are scaled by an interleaved speed kernel (speed.py) and reported "
    "as medians over rounds or samples",
    "no hardware counters: per-layer numbers are wall-clock spans and counts",
    "spans wrap calls into voxwind's public functions from the benchmark's own "
    "files; nothing inside src/voxwind is instrumented",
    "OpenBLAS ran about 3x slower in the first seconds of a process on the seed "
    "code (mlp_backward 0.97 s cold, 0.08 s warm); a "
    f"{WARMUP_S} s matmul warm-up runs before timing, and BLAS threads are not pinned",
)


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    raise SystemExit(2)


def import_program():
    """Import voxwind from this checkout's src/ and nowhere else."""
    if not (SRC / "voxwind" / "__init__.py").is_file():
        fail(f"no voxwind package under {SRC}; run from a voxwind checkout")
    sys.path.insert(0, str(SRC))
    import voxwind

    if Path(voxwind.__file__).resolve().parent != SRC / "voxwind":
        fail(f"imported voxwind from {voxwind.__file__}, not from {SRC}")


# --- statistics --------------------------------------------------------------------


TAIL_BAND = 2     # order statistics averaged on each side of the tail sample


def tail(samples: list) -> tuple:
    """(value, percentile) at the highest percentile with ten samples above it.

    That percentile's sample is the 11th largest. A single order statistic
    carries the whole noise of one sample on shared CPUs, so the value is the
    mean of the 9th- to 13th-largest samples, centred on it.
    """
    ordered = sorted(samples)
    n = len(ordered)
    if n < 11 + TAIL_BAND:
        return ordered[-1], 100.0
    i = n - 11
    return statistics.fmean(ordered[i - TAIL_BAND:i + TAIL_BAND + 1]), 100.0 * (n - 10) / n


def end_to_end(rounds: list, latency_rounds: int | None = None) -> dict:
    """Throughput (median over rounds) and per-unit latency of a list of rounds.

    Latency comes from the first `latency_rounds` rounds only, so the sample
    count, and with it the tail percentile, does not move with the speed of
    the program.
    """
    done = [r for r in rounds if r.units]
    if not done:
        raise RuntimeError("no round completed an operation")
    latencies = [x for r in rounds[:latency_rounds] for x in r.latencies]
    value, pct = tail(latencies)
    return {
        "ops_per_s": statistics.median(r.units / r.seconds for r in done),
        "raw_ops_per_s": statistics.median(r.units / r.raw_seconds for r in done),
        "op_ms_p50": 1e3 * statistics.median(latencies),
        "op_ms_tail": 1e3 * value,
        "tail_percentile": pct,
        "latency_samples": len(latencies),
        "top_latencies_ms": [1e3 * x for x in sorted(latencies)[-20:]],
        "rounds": len(done),
        "units": sum(r.units for r in done),
        "timed_s": sum(r.seconds for r in done),
    }


# --- run record ---------------------------------------------------------------------


def openblas_threads():
    """Thread count reported by the OpenBLAS library numpy loaded, if any."""
    import ctypes

    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line}
    except OSError:
        return None
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for sym in ("openblas_get_num_threads", "scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def git_sha():
    """HEAD of the checkout read from .git, or None outside a git checkout."""
    git = ROOT / ".git"
    try:
        ref = (git / "HEAD").read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        if (git / name).is_file():
            return (git / name).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def machine_record() -> dict:
    import numpy as np

    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), None)
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except Exception:  # the config layout differs across numpy versions
        blas = None
    digest = hashlib.sha256()
    for path in sorted((SRC / "voxwind").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu or platform.processor() or None,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": openblas_threads(),
        "env": {k: os.environ.get(k) for k in ("VOXWIND_THREADS", "OPENBLAS_NUM_THREADS",
                                               "OMP_NUM_THREADS")},
        "git_sha": git_sha(),
        "src_sha256": digest.hexdigest(),
        "limits": list(LIMITS),
    }


# --- set-up -------------------------------------------------------------------------


def setup_probe(workload: str, seed: int) -> float:
    """Seconds from starting a fresh interpreter to the end of its set-up.

    Wall time, unscaled: scaling by the speed kernel, run either here or in
    the probe, made the spread of set-up times wider, not narrower.
    """
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--setup-only"]
    t0 = perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    ready = False
    try:
        for line in proc.stdout:  # the program's own output comes first
            if line.strip() == "ready":
                elapsed = perf_counter() - t0
                ready = True
                break
        proc.stdout.read()
        code = proc.wait(timeout=SETUP_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if not ready or code != 0:
        raise RuntimeError(f"set-up probe exited {code} before finishing its set-up")
    return elapsed


def warm_up() -> None:
    import numpy as np

    a = np.full((64, 128), 0.5)
    b = np.full((128, 128), 0.25)
    t_end = perf_counter() + WARMUP_S
    while perf_counter() < t_end:
        np.tanh(a @ b).T @ a


# --- runs ---------------------------------------------------------------------------


def measure(wl, seconds: float) -> list:
    """Untraced rounds until `seconds` have passed and the latency window is full."""
    rounds = []
    t_end = perf_counter() + seconds
    while True:
        rounds.append(wl.run_round(len(rounds)))
        if perf_counter() >= t_end and len(rounds) >= wl.pool:
            return rounds


def traced(wl, seconds: float, recorder) -> tuple:
    """A fixed number of round pairs, each run once untraced and once traced.

    The pair count depends only on the workload and --seconds, so the counts
    the traced rounds record repeat exactly for a fixed seed. The two halves
    of a pair swap order from pair to pair, so neither side always runs warm.
    """
    pairs = max(1, round(seconds / TRACE_PAIR_S[wl.name]))
    plain, spanned = [], []
    for k in range(pairs):
        for traced_half in ((False, True) if k % 2 == 0 else (True, False)):
            if traced_half:
                with recorder.installed():
                    spanned.append(wl.run_round(k, tracer=recorder))
            else:
                plain.append(wl.run_round(k))
    return plain, spanned


def layer_metrics(recorder, spanned: list, workload: str) -> dict:
    """Every per-layer metric, from the spans and counters of the traced rounds."""
    s = recorder.summary()
    names, counters = s["names"], recorder.counters

    def get(name, key):
        return names.get(name, {}).get(key, 0 if key == "calls" else 0.0)

    psteps = counters["windtunnel.particle_steps"]
    op = "cli.simulate" if workload == "sim_sweep" else "ppo.train"
    op_s = get(op, "busy_s")
    sim_s = get("windtunnel.run_simulation", "busy_s")
    m = {
        "windtunnel.run_simulation.calls": get("windtunnel.run_simulation", "calls"),
        "windtunnel.run_simulation.busy_s": sim_s,
        "windtunnel.run_simulation.self_s": get("windtunnel.run_simulation", "self_s"),
        "windtunnel.step.calls": get("windtunnel.step", "calls"),
        "windtunnel.step.busy_s": get("windtunnel.step", "busy_s"),
        "windtunnel.particle_steps": psteps,
        "windtunnel.step.us_per_particle_step":
            1e6 * get("windtunnel.step", "busy_s") / psteps if psteps else 0.0,
        "windtunnel.contacts": counters["windtunnel.contacts"],
        "windtunnel.contacts_per_particle_step":
            counters["windtunnel.contacts"] / psteps if psteps else 0.0,
        "windtunnel.inflight_at_cap": counters["windtunnel.inflight_at_cap"],
        "windtunnel.neighborhood_reach.busy_s": get("windtunnel.neighborhood_reach", "busy_s"),
        "env.act.calls": get("env.act", "calls"),
        "env.act.self_s": get("env.act", "self_s"),
        "env.mean_pool.busy_s": get("env.mean_pool", "busy_s"),
        "env.bilinear_upsample.busy_s": get("env.bilinear_upsample", "busy_s"),
        "env.measure_baseline.busy_s": get("env.measure_baseline", "busy_s"),
        "voxel.apply_height_delta.busy_s": get("voxel.apply_height_delta", "busy_s"),
        "voxel.grid_from_csv.busy_s": get("voxel.grid_from_csv", "busy_s"),
        "voxel.load_heightmap.busy_s": get("voxel.load_heightmap", "busy_s"),
        "voxel.voxelise.busy_s": get("voxel.voxelise", "busy_s"),
        "nn.Mlp.forward.calls": get("nn.Mlp.forward", "calls"),
        "nn.Mlp.forward.rows": counters["nn.Mlp.forward.rows"],
        "nn.Mlp.forward.busy_s": get("nn.Mlp.forward", "busy_s"),
        "nn.Mlp.backward.busy_s": get("nn.Mlp.backward", "busy_s"),
        "nn.adam_step.calls": get("nn.adam_step", "calls"),
        "nn.adam_step.busy_s": get("nn.adam_step", "busy_s"),
        "nn.GaussianPolicy.sample.busy_s": get("nn.GaussianPolicy.sample", "busy_s"),
        "ppo.ppo_update.calls": get("ppo.ppo_update", "calls"),
        "ppo.ppo_update.busy_s": get("ppo.ppo_update", "busy_s"),
        "ppo.ppo_update.self_s": get("ppo.ppo_update", "self_s"),
        "ppo.compute_gae.busy_s": get("ppo.compute_gae", "busy_s"),
        "ppo.train.self_s": get("ppo.train", "self_s"),
        "cli.simulate.self_s": get("cli.simulate", "self_s"),
        "cli.bytes_written": sum(r.bytes_written for r in spanned),
        # share of the timed operation (simulate, or train) spent in the tunnel
        "windtunnel.run_simulation.op_share":
            recorder.time_under("windtunnel.run_simulation", op) / op_s if op_s else 0.0,
    }
    for layer, row in s["layers"].items():
        for key, value in row.items():
            m[f"layer.{layer}.{key}"] = value
    return m


def seed_check(m: dict, workload: str) -> dict:
    """The layer shares the seed code shows; a later change may move them."""
    if workload == "sim_sweep":
        spent = m["layer.nn.busy_s"] + m["layer.ppo.busy_s"]
        return {"claim": "no time in nn or ppo", "value": spent, "holds": spent == 0.0}
    share = m["windtunnel.run_simulation.op_share"]
    if workload == "desk_train":
        return {"claim": "run_simulation >= 90% of ppo.train", "value": share,
                "holds": share >= 0.90}
    return {"claim": "time outside run_simulation >= 40% of ppo.train",
            "value": 1.0 - share, "holds": 1.0 - share >= 0.40}


UNITS = {"setup_s": "s", "ops_per_s": "1/s", "op_ms_p50": "ms", "op_ms_tail": "ms",
         "peak_rss_mb": "MB"}
ALIASES = {
    "sim_sweep": {"ops_per_s": "sims_per_s", "op_ms_p50": "sim_ms_p50",
                  "op_ms_tail": "sim_ms_tail"},
    "train": {"ops_per_s": "train_env_steps_per_s", "op_ms_p50": "step_ms_p50",
              "op_ms_tail": "step_ms_tail"},
}


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("us_per_particle_step"):
        return "us"
    if name.endswith(("_share", "_per_particle_step")):
        return "ratio"
    if name.endswith("bytes_written"):
        return "B"
    return "count"


def per_layer_names() -> list:
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [m["name"] for m in doc["per_layer"]]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("desk_train", "sim_sweep", "train_learner"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        fail("--seconds must be positive")

    import_program()
    from workloads import WORKLOADS, load_golden

    RUNS.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=RUNS))
    try:
        if args.setup_only:
            WORKLOADS[args.workload](work, args.seed).setup()
            print("ready", flush=True)
            return 0
        return run(args, work, WORKLOADS[args.workload], load_golden())
    finally:
        shutil.rmtree(work, ignore_errors=True)


def run(args, work: Path, workload_cls, golden: dict) -> int:
    name = args.workload
    family = "sim_sweep" if name == "sim_sweep" else "train"
    record = {"workload": name, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "machine": machine_record()}
    print(f"# {name} seed={args.seed} seconds={args.seconds:g} trace={args.trace} "
          f"unit={workload_cls.unit}")
    m = record["machine"]
    print(f"# machine: {m['nproc']} cpus ({m['cpu_model']}), python {m['python']}, "
          f"numpy {m['numpy']}, {m['blas']} with {m['blas_threads']} threads, "
          f"VOXWIND_THREADS={m['env']['VOXWIND_THREADS']}, git {m['git_sha']}")

    if args.trace == 0:
        setups = [setup_probe(name, args.seed) for _ in range(SETUP_PROBES)]
        record["setup_probes_s"] = setups

    from spans import Recorder

    recorder = Recorder()
    wl = workload_cls(work, args.seed, golden)
    if args.trace:
        with recorder.installed():
            wl.setup()
    else:
        wl.setup()
    warm_up()

    if args.trace == 0:
        rounds = measure(wl, args.seconds)
        e2e = end_to_end(rounds, wl.pool)
        e2e["setup_s"] = statistics.median(setups)
        e2e["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics = {k: e2e[k] for k in UNITS}
    else:
        plain, spanned = traced(wl, args.seconds, recorder)
        rounds = plain + spanned
        e2e = end_to_end(spanned)
        base = end_to_end(plain)
        overhead = {k: {"traced": e2e[k], "untraced": base[k], "traced_minus_untraced":
                        e2e[k] - base[k], "relative": e2e[k] / base[k] - 1.0}
                    for k in ("ops_per_s", "op_ms_p50", "op_ms_tail")}
        layers = layer_metrics(recorder, spanned, name)
        check = seed_check(layers, name)
        record.update(tracing_overhead=overhead, per_layer=layers, seed_check=check,
                      untraced=base, missing_trace_targets=recorder.missing)
        metrics = {k: layers[k] for k in per_layer_names()}

    attempted = sum(r.attempted for r in rounds)
    failures = [f for r in rounds for f in r.failures]
    failed = sum(r.failed for r in rounds)
    record.update(end_to_end=e2e, attempted=attempted, failed=failed,
                  failed_frac=failed / attempted, failures=failures[:50])

    alias = ALIASES[family]
    print(f"# {e2e['rounds']} rounds, {e2e['units']} {workload_cls.unit} ops, "
          f"{e2e['timed_s']:.2f} s timed")
    if args.trace == 0:
        for key, unit in UNITS.items():
            also = f"  ({alias[key]})" if key in alias else ""
            print(f"{key} = {e2e[key]:.6g} {unit}{also}")
        print(f"  setup_s: median of {SETUP_PROBES} set-ups in fresh interpreters")
        print(f"  op_ms_p50: median of {e2e['latency_samples']} samples from the first "
              f"{wl.pool} rounds")
        print(f"  op_ms_tail: p{e2e['tail_percentile']:.2f} of {e2e['latency_samples']} "
              f"samples (10 above it); mean of the 9th- to 13th-largest")
        print(f"  ops_per_s: median of {e2e['rounds']} round rates "
              f"(unscaled: {e2e['raw_ops_per_s']:.6g} 1/s)")
        print(f"  timings are scaled to the calibrated reference speed "
              f"({REFERENCE_S * 1e3:g} ms per speed-kernel run; see perfbench/speed.py)")
    else:
        for key, value in layers.items():
            print(f"{key} = {value:.6g} {layer_unit(key)}")
        for key, row in overhead.items():
            print(f"tracing overhead {key}: {row['traced']:.6g} traced - "
                  f"{row['untraced']:.6g} untraced = {row['traced_minus_untraced']:+.6g} "
                  f"{UNITS[key]} ({100 * row['relative']:+.1f}%)")
        print(f"seed check: {check['claim']}: {check['value']:.4f} "
              f"{'holds' if check['holds'] else 'does not hold'}")
        if recorder.missing:
            print(f"# not traced (absent from the program): {', '.join(recorder.missing)}")
    print(f"failed_frac = {failed / attempted:.6g} ratio ({failed}/{attempted} operations)")
    for f in failures[:10]:
        print(f"# FAILED {f}")

    stem = RUNS / f"{name}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        recorder.write_csv(f"{stem}-spans.csv")
    Path(f"{stem}.json").write_text(json.dumps(record, indent=2) + "\n")

    units = UNITS if args.trace == 0 else {k: layer_unit(k) for k in metrics}
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
