"""Write perfbench/golden.json: the outputs of every pooled input at 10 mph.

    python3 perfbench/record_golden.py

Run from the root of a checkout of the code whose outputs the benchmark's
byte-for-byte checks should hold to. A change that alters these outputs on
purpose records them again and says why.
"""

from __future__ import annotations

import json
import shutil
import tempfile

import run


def main() -> int:
    run.import_program()
    from workloads import GOLDEN_PATH, GOLDEN_SPEED, SWEEP_DESIGNS, WORKLOADS

    machine = run.machine_record()
    golden = {"recorded_from": {"git_sha": machine["git_sha"],
                                "src_sha256": machine["src_sha256"]}}
    run.RUNS.mkdir(exist_ok=True)
    work = tempfile.mkdtemp(prefix="golden-", dir=run.RUNS)
    try:
        for name, cls in WORKLOADS.items():
            wl = cls(work, seed=0)
            wl.setup()
            entries = golden[name] = {}
            for seed in range(wl.pool):
                if name == "sim_sweep":
                    for design in SWEEP_DESIGNS:
                        _, _, code, out = wl.simulate(design, GOLDEN_SPEED, seed)
                        if code != 0:
                            raise RuntimeError(f"simulate {design.name} seed {seed} exited {code}")
                        entries[f"{design.name}/seed{seed}"] = wl.outputs(out)
                else:
                    env, config = wl.build_env(seed)
                    result, _, _ = wl.train(env, config)
                    outputs = wl.outputs(env, result)
                    entries[f"seed{seed}"] = {k: v for k, v in outputs.items()
                                              if not k.startswith("_")}
            print(f"{name}: {len(entries)} entries", flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    GOLDEN_PATH.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
