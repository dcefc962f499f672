#!/usr/bin/env python3
"""Alternating perfbench pairs for two voxwind checkouts, written as BENCH_<label>.json.

For every workload and seed, runs

    python3 perfbench/run.py --workload <workload> --seed <seed> --seconds <s> --trace 0

once in the parent checkout and once in the change checkout, one process at
a time: odd seeds run the parent first, even seeds the change first, so a
drift in CPU speed hits both sides alike. Each run's last line of standard
output holds its end-to-end metrics. Per workload and metric, the file holds
the medians, the quartile spreads, the pairs the change won, BENCHMARK.json's
bound and every run (the fields of METRIC_FIELDS), plus each side's
attempted and failed operations. An existing `--out` file keeps its other
workloads and top-level notes, so workloads can be measured in separate
calls; `--notes` merges a JSON object of free-text fields (the change, the
claimed gain, kernel timings) into the top level.

    python3 scripts/bench_pairs.py --parent ../parent --change . --label mine \\
        --workload desk_train --workload sim_sweep --seeds 1-10 --seconds 30
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

import numpy as np

COMMAND = "python3 perfbench/run.py --workload <workload> --seed <seed> --seconds <seconds> --trace 0"

METRIC_FIELDS = {
    "parent_median": "median over the parent runs",
    "change_median": "median over the change runs",
    "change_vs_parent": "(change_median - parent_median) / parent_median",
    "parent_iqr": "distance between the quartiles of the parent runs",
    "change_iqr": "distance between the quartiles of the change runs",
    "change_better_pairs": "seeds on which the change run beat the parent run, ties counting "
                           "for neither",
    "pairs": "seeds run, each with one parent and one change run",
    "bound": "BENCHMARK.json's bound on the relative worsening",
    "within_bound": "the change median is not worse than the parent's by more than the bound",
    "parent_runs": "every parent run, in seed order",
    "change_runs": "every change run, in seed order",
    "unit": "the metric's unit as perfbench prints it",
}

LIMITS = [
    "one perfbench process at a time, from two separate checkouts",
    "odd seeds ran the parent first, even seeds the change first, for every workload",
]

# machine fields that differ between the checkouts or repeat perfbench's limits
TREE_FIELDS = ("git_sha", "src_sha256", "limits")


def run_order(seed: int) -> tuple:
    """The sides in the order they run on `seed`."""
    return ("parent", "change") if seed % 2 else ("change", "parent")


def parse_seeds(text: str) -> list:
    """'1-10' or '1,3,5' as a list of seeds."""
    if "-" in text:
        lo, hi = (int(v) for v in text.split("-", 1))
        return list(range(lo, hi + 1))
    return [int(v) for v in text.split(",")]


def perfbench(root: Path, workload: str, seed: int, seconds: float) -> dict:
    """One untraced perfbench run in checkout `root`: its last output line, and
    the machine of its run record."""
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", f"{seconds:g}", "--trace", "0"],
        cwd=root, capture_output=True, text=True, check=True)
    last = json.loads(done.stdout.strip().splitlines()[-1])
    record = root / ".perfbench_runs" / f"{workload}-seed{seed}-trace0.json"
    last["machine"] = json.loads(record.read_text())["machine"]
    return last


def metric_summary(parent: list, change: list, better: str, bound: float) -> dict:
    """The METRIC_FIELDS of one metric, from the parent's and the change's
    values in seed order."""
    p, c = np.asarray(parent, dtype=float), np.asarray(change, dtype=float)
    sign = 1.0 if better == "higher" else -1.0
    p_med, c_med = float(np.median(p)), float(np.median(c))
    relative = (c_med - p_med) / p_med
    return {
        "better": better,
        "parent_median": p_med,
        "change_median": c_med,
        "change_vs_parent": relative,
        "parent_iqr": float(np.subtract(*np.percentile(p, [75, 25]))),
        "change_iqr": float(np.subtract(*np.percentile(c, [75, 25]))),
        "change_better_pairs": int((sign * (c - p) > 0).sum()),
        "pairs": len(p),
        "bound": bound,
        "within_bound": bool(-sign * relative <= bound),
        "parent_runs": p.tolist(),
        "change_runs": c.tolist(),
    }


def workload_summary(runs: dict, seeds: list, end_to_end: list) -> dict:
    """One workload's entry from its runs, {"parent": [...], "change": [...]}
    in seed order, each a perfbench last line; `end_to_end` is
    BENCHMARK.json's list of metrics."""
    metrics = {}
    for spec in end_to_end:
        name = spec["name"]
        values = {side: [r["metrics"][name]["value"] for r in runs[side]] for side in runs}
        metrics[name] = {**metric_summary(values["parent"], values["change"], spec["better"],
                                          spec["bound"]),
                         "unit": runs["change"][0]["metrics"][name]["unit"]}
    return {
        "seeds": list(seeds),
        "failed": {side: sum(r["failed"] for r in runs[side]) for side in runs},
        "attempted": {side: sum(r["attempted"] for r in runs[side]) for side in runs},
        "metrics": metrics,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--parent", required=True, type=Path, help="parent checkout root")
    parser.add_argument("--change", required=True, type=Path, help="change checkout root")
    parser.add_argument("--label", required=True, help="the file's label, as in BENCH_<label>")
    parser.add_argument("--workload", action="append", required=True,
                        help="a perfbench workload; repeatable")
    parser.add_argument("--seeds", type=parse_seeds, default=parse_seeds("1-10"),
                        help="'1-10' or '1,3,5' (default 1-10)")
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--notes", type=Path, help="JSON object merged into the top level")
    parser.add_argument("--out", type=Path, help="default BENCH_<label>.json")
    args = parser.parse_args()
    out = args.out or Path(f"BENCH_{args.label}.json")
    doc = json.loads(out.read_text()) if out.exists() else {}
    end_to_end = json.loads((args.change / "BENCHMARK.json").read_text())["end_to_end"]
    roots = {"parent": args.parent, "change": args.change}
    machine, src = None, {}
    for workload in args.workload:
        runs = {"parent": [], "change": []}
        for seed in args.seeds:
            for side in run_order(seed):
                last = perfbench(roots[side], workload, seed, args.seconds)
                m = last.pop("machine")
                src[side] = m["src_sha256"]
                machine = {k: v for k, v in m.items() if k not in TREE_FIELDS}
                runs[side].append(last)
                print(f"{workload} seed {seed} {side}: "
                      + ", ".join(f"{k} {v['value']:.6g}" for k, v in last["metrics"].items()),
                      file=sys.stderr)
        doc.setdefault("workloads", {})[workload] = workload_summary(runs, args.seeds,
                                                                     end_to_end)
    notes = json.loads(args.notes.read_text()) if args.notes else {}
    limits = LIMITS + notes.pop("limits", [])
    doc.update(label=args.label, command=COMMAND.replace("<seconds>", f"{args.seconds:g}"),
               machine=machine, src_sha256=src, limits=limits, metric_fields=METRIC_FIELDS,
               **notes)
    out.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
