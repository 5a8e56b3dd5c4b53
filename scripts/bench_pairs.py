#!/usr/bin/env python3
"""Run the perfbench workloads on two commits in alternating pairs and
write the result lines, with the machine they ran on, to one JSON file.

Both commits are exported with ``git archive`` into a temporary directory,
and each run uses its own export's ``perfbench/`` and ``src/``. For every
workload in ``BENCHMARK.json``, each of ``PAIRS`` pairs runs
``perfbench/run.py --trace 0`` once per commit for the benchmark's
``run_seconds``, the order swapping from pair to pair (parent first, then
change first), so that slow drift of the host's speed falls on both sides
alike. After the pairs, ``TRACE_RUNS`` rounds of ``--trace 1`` runs of
``TRACE_SECONDS`` record the per-layer figures, one run per commit and
round, alternated in the same way. The file holds every run's last-line
JSON, per-metric medians and quartiles of the pairs and how many of them
the change won, and per side the median, min and max of each per-layer
metric over the traced runs.

Usage:
    python scripts/bench_pairs.py PARENT_REV CHANGE_REV BENCH_N.json
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
PAIRS = 10
SEED = 2
TRACE_SECONDS = 10
TRACE_RUNS = 3


def export(rev: str, dest: Path) -> str:
    """Extract the tree of ``rev`` into ``dest``; returns its full hash."""
    commit = subprocess.run(["git", "rev-parse", "--verify", f"{rev}^{{commit}}"], cwd=ROOT,
                            check=True, capture_output=True, text=True).stdout.strip()
    dest.mkdir()
    archive = subprocess.run(["git", "archive", commit], cwd=ROOT, check=True,
                             capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)
    return commit


def run_once(checkout: Path, workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(f"{workload} in {checkout} printed nothing: {proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def blas_name() -> str:
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]
        return f"{deps['blas']['name']} {deps['blas'].get('version', '')}".strip()
    except Exception:  # older numpy: no dict form of the build config
        return "unknown"


def summarize(pairs: list, better: dict) -> dict:
    """Per metric: the parent's median and quartiles, the change's median,
    and in how many pairs the change was better."""
    out = {}
    for name, direction in better.items():
        par = np.array([p["parent"]["metrics"][name]["value"] for p in pairs])
        chg = np.array([p["change"]["metrics"][name]["value"] for p in pairs])
        wins = chg < par if direction == "lower" else chg > par
        q1, med, q3 = np.percentile(par, [25, 50, 75])
        out[name] = {"parent_median": float(med), "parent_q1": float(q1),
                     "parent_q3": float(q3), "change_median": float(np.median(chg)),
                     "change_relative": float(np.median(chg) / med - 1.0),
                     "change_wins": int(wins.sum()), "pairs": len(pairs)}
    return out


def trace_medians(traced: dict) -> dict:
    """Per metric of the traced runs, each side's median over its runs
    (keyed by the side), with its min and max (``<side>_min``,
    ``<side>_max``), so that two medians closer than either side's spread
    show as such."""
    out = {}
    for name in traced["parent"][0]["metrics"]:
        out[name] = {}
        for side, runs in traced.items():
            values = [run["metrics"][name]["value"] for run in runs]
            out[name].update({side: float(np.median(values)), f"{side}_min": float(min(values)),
                              f"{side}_max": float(max(values))})
    return out


def alternating(rounds: int):
    """The order of the two sides in each of ``rounds`` rounds, parent first
    in the even ones."""
    for i in range(rounds):
        yield i, ("parent", "change") if i % 2 == 0 else ("change", "parent")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent", help="the commit to compare against")
    ap.add_argument("change", help="the commit being measured")
    ap.add_argument("out", type=Path, help="the JSON file to write")
    args = ap.parse_args()

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    better = {m["name"]: m["better"] for m in bench["end_to_end"]}
    with tempfile.TemporaryDirectory() as tmp:
        sides = {side: Path(tmp) / side for side in ("parent", "change")}
        commits = {side: export(getattr(args, side), path) for side, path in sides.items()}
        doc = {
            "command": bench["command"],
            "seed": SEED,
            "seconds": seconds,
            "trace_seconds": TRACE_SECONDS,
            "trace_runs": TRACE_RUNS,
            "parent": {"commit": commits["parent"]},
            "change": {"commit": commits["change"]},
            "machine": {"nproc": os.cpu_count(), "python": platform.python_version(),
                        "numpy": np.__version__, "blas": blas_name(),
                        "platform": platform.platform()},
            "workloads": {},
        }
        for wl in (w["name"] for w in bench["workloads"]):
            pairs = []
            for i, order in alternating(PAIRS):
                pair = {}
                for side in order:
                    pair[side] = run_once(sides[side], wl, SEED, seconds, 0)
                    print(f"{wl} pair {i + 1} {side}: correct={pair[side]['correct']} "
                          f"run_s={pair[side]['metrics']['run_s']['value']:.4f}", flush=True)
                pairs.append({"parent": pair["parent"], "change": pair["change"]})
            traced = {"parent": [], "change": []}
            for _, order in alternating(TRACE_RUNS):
                for side in order:
                    traced[side].append(run_once(sides[side], wl, SEED, TRACE_SECONDS, 1))
            doc["workloads"][wl] = {"pairs": pairs, "summary": summarize(pairs, better),
                                    "trace": {"runs": traced, "median": trace_medians(traced)}}
            args.out.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
