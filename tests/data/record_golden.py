"""Re-record the golden files that tests/test_golden.py compares against.

    PYTHONPATH=src python tests/data/record_golden.py

Run it only for a deliberate change of the tunnel's or the trainer's outputs,
and say in CHANGES.md why the outputs moved.
"""

import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from test_golden import GOLDEN_DIR, SIM_CASES, TRAIN_CASE, case_outputs  # noqa: E402


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        for case in SIM_CASES + [TRAIN_CASE]:
            work = Path(tmp) / case
            work.mkdir()
            target = GOLDEN_DIR / case
            target.mkdir(parents=True, exist_ok=True)
            for name, data in case_outputs(case, work).items():
                path = target / name   # a name may hold a subpath, as baseline/ does
                path.parent.mkdir(parents=True, exist_ok=True)
                path.write_bytes(data)
            print(f"recorded {case}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
