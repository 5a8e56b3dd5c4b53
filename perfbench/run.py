#!/usr/bin/env python3
"""Benchmark of the dsblo solver stack, one workload per process.

    python3 perfbench/run.py --workload paper-d10 --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; ``src/dsblo`` is imported from
there. BLAS is pinned to one thread before numpy loads. The run sets up
``SETUP_REPEATS`` times, then repeats the workload's task ("pass") until
``--seconds`` have passed, then checks the outputs. A pass's time is the
sum of its segments' fastest times across passes, scaled to the
reference speed of ``calibrate.Probe``. The last line of standard output
is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics (setup_s, run_s, peak_rss_mb,
work_per_s); ``--trace 1`` alternates untraced and traced passes and
reports the per-layer metrics and the tracing overhead, and writes the
spans to ``perfbench_out/<workload>/spans.csv.gz``. See README.md.
"""

import os
import sys
import time

# One BLAS thread: the solves are small, and extra threads only add noise.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"
# run_experiment would otherwise take its output directory and worker count
# from these.
os.environ.pop("DSBLO_OUT_DIR", None)
os.environ.pop("DSBLO_WORKERS", None)

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT = ROOT / "perfbench_out"
WORKLOAD_NAMES = ("paper-d10", "active-d200", "mc-d50")
SETUP_REPEATS = 5
IMPORT_PROBE = ("import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
                "import numpy, dsblo, dsblo.experiment; print(time.perf_counter() - t)")


def parse_args():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args()


def import_seconds() -> float:
    """Time to import numpy and dsblo in a fresh interpreter."""
    out = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(SRC)],
                         capture_output=True, text=True, timeout=120, check=True)
    return float(out.stdout.strip())


def fastest_composite(passes) -> float:
    """Sum over segments of each segment's fastest time across the passes.

    A pass is split at checkpoints into segments that do the same work in
    every pass. The machine's slow spells are short compared with a pass,
    so the fastest copy of each segment is steadier than the fastest pass.
    """
    if len({len(p) for p in passes}) != 1:
        raise RuntimeError("passes were split into different numbers of segments")
    return float(np.min(np.vstack(passes), axis=0).sum())


def main() -> int:
    args = parse_args()
    if not (SRC / "dsblo" / "__init__.py").is_file():
        print(f"no dsblo sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import dsblo
    if Path(dsblo.__file__).resolve().parent != SRC / "dsblo":
        print(f"imported dsblo from {dsblo.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import workloads
    from tracing import Instrument
    from calibrate import REFERENCE_S, Probe

    out_dir = OUT / args.workload
    instrument = Instrument()
    wl = workloads.make(args.workload, args.seed, out_dir, mark=instrument.checkpoint)
    trace = bool(args.trace)
    instrument.install(trace)

    # Each set-up is scaled by a probe taken just before it: set-up is too
    # short to have quiet moments of its own.
    probe = Probe()
    setup_times = []
    for _ in range(SETUP_REPEATS):
        local = min(probe.sample(3))
        t0 = time.perf_counter()
        wl.setup()
        seconds = time.perf_counter() - t0 + import_seconds()
        setup_times.append(seconds * REFERENCE_S / local)
    setup_s = statistics.median(setup_times)

    # Passes alternate untraced / traced when tracing, so both kinds see the
    # same spells of machine load.
    ops = []
    segments = {False: [], True: []}
    traced_passes = []  # (first span, end span, seconds)
    deadline = time.perf_counter() + args.seconds
    i = 0
    while True:
        traced = trace and i % 2 == 1
        instrument.install(traced)
        first = len(instrument.spans)
        instrument.checkpoints.clear()
        t0 = time.perf_counter()
        result = wl.run_pass()
        t1 = time.perf_counter()
        segments[traced].append(np.diff([t0, *instrument.checkpoints, t1]))
        if traced:
            traced_passes.append((first, len(instrument.spans), t1 - t0))
        ops.append(wl.pass_check(result))
        probe.record()
        i += 1
        if time.perf_counter() >= deadline and (not trace or i % 2 == 0):
            break
    instrument.install(trace)
    ops.extend(wl.final_checks())
    instrument.uninstall()

    for c in ops:
        if not c.ok or c.name != "pass_matches_first_pass":
            print(f"{'ok  ' if c.ok else 'FAIL'} {c.name}: {c.detail}")
    failed = sum(not c.ok for c in ops)

    # Times are reported at the probe's reference machine speed.
    speed = probe.speed_factor()
    raw_run_s = fastest_composite(segments[False])
    run_s = raw_run_s * speed
    if not trace:
        metrics = {
            "setup_s": (setup_s, "s"),
            "run_s": (run_s, "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
            "work_per_s": (wl.units / run_s, "1/s"),
        }
    else:
        traced_s = fastest_composite(segments[True]) * speed
        metrics = instrument.layer_metrics()
        metrics["trace.run_s"] = (traced_s, "s")
        metrics["trace.overhead_s"] = (traced_s - run_s, "s")
        median_shares = instrument.layer_shares(traced_passes)
        summary = {"workload": args.workload, "seed": args.seed,
                   "untraced_run_s": run_s, "traced_run_s": traced_s, "speed_factor": speed,
                   "passes": {"untraced": len(segments[False]),
                              "traced": len(segments[True])},
                   "layer_share_of_traced_pass": median_shares,
                   "lower_level": instrument.solve_counts(),
                   "metrics": {k: v for k, (v, _u) in metrics.items()}}
        (out_dir / "trace_summary.json").write_text(json.dumps(summary, indent=1) + "\n")
        instrument.write(out_dir / "spans.csv.gz")
        print("self time per layer as a share of a traced pass (median over passes): "
              + ", ".join(f"{k} {100 * v:.1f}%" for k, v in median_shares.items()))

    whole = min(float(seg.sum()) for seg in segments[False])
    print(f"{args.workload} seed={args.seed}: {len(segments[False]) + len(segments[True])} "
          f"passes of {len(segments[False][0])} segments; untraced wall times: fastest "
          f"pass {whole:.4f} s, fastest segments {raw_run_s:.4f} s; speed factor "
          f"{speed:.4f} (fastest probe {1e3 * float(np.min(probe.batches)):.4f} ms); "
          f"{len(ops)} operations, {failed} failed")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
