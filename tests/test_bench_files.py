import json
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
BENCH_FILES = sorted(ROOT.glob("BENCH_*.json"))


def test_bench_files_hold_correct_pairs_for_every_workload():
    # a committed trajectory must cover every workload the benchmark
    # declares, with parent and change runs whose output checks all passed
    assert BENCH_FILES, "no BENCH_*.json committed"
    workloads = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]
    for path in BENCH_FILES:
        doc = json.loads(path.read_text())
        for key in ("seed", "seconds", "parent", "change", "machine"):
            assert key in doc, f"{path.name}: no {key}"
        for name in workloads:
            pairs = doc["workloads"][name]["pairs"]
            assert pairs, f"{path.name}: no pairs for {name}"
            for pair in pairs:
                for side in ("parent", "change"):
                    line = pair[side]
                    assert line["correct"] is True and line["failed"] == 0, \
                        f"{path.name}: {name} {side} run failed its checks"


def test_traced_spreads_bound_their_medians():
    # files written since the traced medians carry each side's min and max
    # must keep every median inside its side's spread; older files have no
    # spread and pass as they are
    for path in BENCH_FILES:
        doc = json.loads(path.read_text())
        for name, workload in doc["workloads"].items():
            for metric, med in workload["trace"].get("median", {}).items():
                for side in ("parent", "change"):
                    if f"{side}_min" in med:
                        assert med[f"{side}_min"] <= med[side] <= med[f"{side}_max"], \
                            f"{path.name}: {name} {metric} {side}"
