import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"


def diff_trees(*trees, configs=30):
    argv = [sys.executable, str(ROOT / "scripts" / "diff_trees.py"), "--configs", str(configs),
            "--seed", "3"]
    for label, src in trees:
        argv += ["--tree", f"{label}={src}"]
    return subprocess.run(argv, capture_output=True, text=True, timeout=300)


def test_same_tree_has_no_differences():
    run = diff_trees(("a", SRC), ("b", SRC))
    assert run.returncode == 0, run.stderr
    assert "30 configs, 0 differing" in run.stdout
    assert " with at most TAIL_ROWS (8) burst rows, " in run.stdout
    # the second tree's hand-offs and retired rows are counted
    assert "b: " in run.stdout and " rows were retired" in run.stdout


def test_changed_bounce_differs(tmp_path):
    # a tree whose bounce keeps half the restitution: some config's drag,
    # energy or heatmap must move, and the script must say which and fail
    changed = tmp_path / "src"
    shutil.copytree(SRC / "voxwind", changed / "voxwind",
                    ignore=shutil.ignore_patterns("__pycache__"))
    tunnel = changed / "voxwind" / "windtunnel.py"
    text = tunnel.read_text()
    assert text.count("1.0 + config.restitution") == 2
    tunnel.write_text(text.replace("1.0 + config.restitution", "1.0 + 0.5 * config.restitution"))
    run = diff_trees(("old", SRC), ("new", changed))
    assert run.returncode == 1, run.stderr
    assert " differs in " in run.stdout
