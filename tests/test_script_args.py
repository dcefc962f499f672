"""The scripts reject a count below 1 with argparse's usage error, before
any work, rather than failing inside it."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("script, argv, option", [
    ("wedge_experiment.py", ["--steps", "0"], "--steps"),
    ("kernel_bench.py", ["--tree", "cur=src", "--repeats", "0"], "--repeats"),
])
def test_count_below_one_is_a_usage_error(script, argv, option):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    run = subprocess.run([sys.executable, str(ROOT / "scripts" / script), *argv],
                         capture_output=True, text=True, cwd=ROOT, env=env, timeout=120)
    assert run.returncode == 2, run.stderr
    assert option in run.stderr
    assert "Traceback" not in run.stderr
