"""`scripts/bench_pairs.py`: the run order of its pairs and the summary it
writes, on synthetic perfbench records."""

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "scripts"))
import bench_pairs  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
END_TO_END = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]


def record(ops_per_s, failed=0, attempted=10):
    """A perfbench last line whose metrics all read `ops_per_s`."""
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {spec["name"]: {"value": ops_per_s, "unit": spec["unit"]}
                        for spec in END_TO_END}}


def test_sides_alternate_which_runs_first():
    assert [bench_pairs.run_order(s) for s in (1, 2, 3)] == [
        ("parent", "change"), ("change", "parent"), ("parent", "change")]
    assert bench_pairs.parse_seeds("3-6") == [3, 4, 5, 6]
    assert bench_pairs.parse_seeds("1,5") == [1, 5]


def test_higher_is_better_summary():
    s = bench_pairs.metric_summary([10.0, 12.0, 11.0, 13.0], [13.0, 12.0, 14.0, 15.0],
                                   "higher", 0.25)
    assert (s["parent_median"], s["change_median"]) == (11.5, 13.5)
    assert s["change_vs_parent"] == pytest.approx(2.0 / 11.5)
    assert s["parent_iqr"] == pytest.approx(12.25 - 10.75)
    assert s["change_iqr"] == pytest.approx(14.25 - 12.75)
    # the tie on the second seed counts for neither side
    assert s["change_better_pairs"] == 3 and s["pairs"] == 4
    assert s["within_bound"] and s["parent_runs"] == [10.0, 12.0, 11.0, 13.0]


@pytest.mark.parametrize("better, change, within", [
    ("lower", [1.24], True), ("lower", [1.26], False),
    ("higher", [0.76], True), ("higher", [0.74], False)])
def test_bound_is_on_the_worsening_side(better, change, within):
    s = bench_pairs.metric_summary([1.0], change, better, 0.25)
    assert s["within_bound"] is within
    assert s["change_better_pairs"] == int((change[0] < 1.0) == (better == "lower"))


def test_main_alternates_pairs_and_writes_every_metric(tmp_path, monkeypatch):
    parent, change = tmp_path / "parent", tmp_path / "change"
    change.mkdir()
    (change / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    calls = []

    def fake(root, workload, seed, seconds):
        calls.append((root.name, workload, seed, seconds))
        last = record(2.0 * seed if root == change else float(seed), failed=int(root == parent))
        return {**last, "machine": {"nproc": 2, "src_sha256": root.name, "git_sha": None}}

    monkeypatch.setattr(bench_pairs, "perfbench", fake)
    notes = tmp_path / "notes.json"
    notes.write_text(json.dumps({"change": "text", "limits": ["a note"]}))
    out = tmp_path / "BENCH_x.json"
    monkeypatch.setattr(sys, "argv", [
        "bench_pairs.py", "--parent", str(parent), "--change", str(change), "--label", "x",
        "--workload", "desk_train", "--seeds", "1-3", "--seconds", "2", "--notes", str(notes),
        "--out", str(out)])
    assert bench_pairs.main() == 0
    assert [(side, seed) for side, _, seed, _ in calls] == [
        ("parent", 1), ("change", 1), ("change", 2), ("parent", 2), ("parent", 3), ("change", 3)]
    doc = json.loads(out.read_text())
    assert doc["label"] == "x" and doc["change"] == "text"
    assert doc["limits"] == bench_pairs.LIMITS + ["a note"]
    assert doc["machine"] == {"nproc": 2}
    assert doc["src_sha256"] == {"parent": "parent", "change": "change"}
    assert set(doc["metric_fields"]) == set(bench_pairs.METRIC_FIELDS)
    entry = doc["workloads"]["desk_train"]
    assert entry["seeds"] == [1, 2, 3]
    assert entry["failed"] == {"parent": 3, "change": 0}
    assert entry["attempted"] == {"parent": 30, "change": 30}
    assert set(entry["metrics"]) == {spec["name"] for spec in END_TO_END}
    ops = entry["metrics"]["ops_per_s"]
    assert ops["parent_runs"] == [1.0, 2.0, 3.0] and ops["change_runs"] == [2.0, 4.0, 6.0]
    assert ops["change_better_pairs"] == 3 and ops["unit"] == "1/s"
    assert entry["metrics"]["op_ms_p50"]["change_better_pairs"] == 0
    # a second call for another workload keeps the first
    monkeypatch.setattr(sys, "argv", [
        "bench_pairs.py", "--parent", str(parent), "--change", str(change), "--label", "x",
        "--workload", "sim_sweep", "--seeds", "1", "--out", str(out)])
    bench_pairs.main()
    assert set(json.loads(out.read_text())["workloads"]) == {"desk_train", "sim_sweep"}
