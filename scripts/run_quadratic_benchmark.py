#!/usr/bin/env python3
"""Reproduce the quadratic benchmark end to end: generate the two seeded
instances (d=10/k=5 and d=50/k=10), run the doubly stochastic solver against
the fixed-step implicit-gradient baseline, and write per-run CSVs plus one
objective-vs-time SVG per instance size.

Usage: python scripts/run_quadratic_benchmark.py [--out DIR] [--seeds 1 2 3]
"""

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from dsblo.experiment import config_from_dict, run_experiment
from dsblo.problem import generate_instance, save_instance
from dsblo.verify import BENCHMARKS, benchmark_config


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="benchmark_out")
    ap.add_argument("--seeds", type=int, nargs="+", default=[1])
    ap.add_argument("--iterations", type=int, default=None,
                    help="override the per-run iteration count")
    args = ap.parse_args()
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    for size, bench in BENCHMARKS.items():
        save_instance(generate_instance(**bench["instance"]), out / f"instance_d{size}.json")
        summary = run_experiment(config_from_dict(
            benchmark_config(size, out / f"d{size}", args.seeds, args.iterations)))
        print(f"d={size}:")
        for run in summary["runs"]:
            print(f"  {run['label']} seed={run['seed']}: {run['status']}"
                  + (f"  final_F={run['final_F']:.4f}" if run.get("final_F") is not None else ""))
        if summary["failed"]:
            return 1
        (out / f"d{size}_summary.json").write_text(json.dumps(summary, indent=1))
    print(f"outputs in {out}/")
    return 0


if __name__ == "__main__":
    sys.exit(main())
