"""Import voxwind source trees side by side in one process, for the scripts
that compare two trees (`kernel_bench.py`, `diff_trees.py`)."""

import importlib.util
import sys
from pathlib import Path


def load_tree(name: str, src: str):
    """voxwind from the `src` directory, imported as package `name`; its
    modules, `windtunnel`, `voxel` and `env` among them, are attributes."""
    pkg = Path(src).resolve() / "voxwind"
    spec = importlib.util.spec_from_file_location(
        name, pkg / "__init__.py", submodule_search_locations=[str(pkg)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def parse_trees(specs):
    """LABEL=SRC arguments as {label: package}, each under its own name."""
    trees = {}
    for i, spec in enumerate(specs):
        label, src = spec.split("=", 1)
        trees[label] = load_tree(f"voxwind_tree{i}", src)
    return trees
