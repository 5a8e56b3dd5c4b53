#!/usr/bin/env python3
"""Check that two commits produce the same benchmark outputs.

Both commits are exported with ``bench_pairs.export``. For each commit, one
subprocess imports that export's own ``src/dsblo`` and
``perfbench/workloads.py`` and, for every workload at seeds 1 and 2, runs
``setup()`` and then ``run_pass()`` twice (the second pass on a filled
active-set cache). It digests what the workload leaves behind:

* every CSV under the workload's output directory, wall-time column blanked
  by that commit's ``perfbench/checks.masked_csv``;
* every ``*.runlog.json`` without its ``timings`` (also those nested in
  its diagnostics report);
* every ``summary.json`` with the output directory's path masked;
* the instance fingerprint;
* for ``mc-d50``, each smoothing-error check's dict and each stationarity
  window's ``combined`` bytes, norm and fallback count.

SVG plots are skipped: their x axis is wall time. The keys whose digests
differ, or that only one commit has, are printed, and the exit status is 1
when there are any.

Usage:
    python scripts/compare_outputs.py PARENT_REV CHANGE_REV
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

from bench_pairs import export

SEEDS = (1, 2)
PASSES = 2
WORKLOADS = ("paper-d10", "active-d200", "mc-d50")


def _sha(data) -> str:
    return hashlib.sha256(data if isinstance(data, bytes) else data.encode()).hexdigest()


def _untimed(obj):
    """A run-log's JSON without its ``timings`` dicts, at any depth."""
    if isinstance(obj, dict):
        return {k: _untimed(v) for k, v in obj.items() if k != "timings"}
    return obj


def digest_dir(out_dir: Path, prefix: str) -> dict:
    """Digests of the files a workload wrote under ``out_dir``, keyed by
    ``prefix`` and the file's path relative to it; CSVs are masked by
    ``perfbench/checks.py``'s ``masked_csv``, which must be importable."""
    from checks import masked_csv

    digests = {}
    for path in sorted(out_dir.rglob("*")):
        key = f"{prefix}/{path.relative_to(out_dir).as_posix()}"
        if path.suffix == ".csv":
            digests[key] = _sha("\n".join(masked_csv(path.read_text())))
        elif path.name.endswith(".runlog.json"):
            digests[key] = _sha(json.dumps(_untimed(json.loads(path.read_text())),
                                           sort_keys=True))
        elif path.name == "summary.json":
            digests[key] = _sha(path.read_text().replace(str(out_dir), "<out>"))
    return digests


def digest_mc(result, prefix: str) -> dict:
    """Digests of one ``mc-d50`` pass: its error-check dicts and windows."""
    pecs, windows = result
    digests = {f"{prefix}/pec{i}": _sha(repr(sorted(res.items())))
               for i, res in enumerate(pecs)}
    for i, win in enumerate(windows):
        digests[f"{prefix}/window{i}"] = _sha(
            win.combined.tobytes() + repr((win.norm, win.mc_fallbacks)).encode())
    return digests


def digest_checkout(checkout: Path, work: Path) -> dict:
    """Run every workload of ``checkout`` with its own sources and digest
    the outputs; meant to run in a fresh interpreter per checkout."""
    sys.path[:0] = [str(checkout / "src"), str(checkout / "perfbench")]
    import workloads

    digests = {}
    for seed in SEEDS:
        for name in WORKLOADS:
            out_dir = work / f"seed{seed}" / name
            wl = workloads.make(name, seed, out_dir, mark=lambda: None)
            wl.setup()
            prefix = f"seed{seed}/{name}"
            digests[f"{prefix}/fingerprint"] = wl.inst.fingerprint
            for n in range(1, PASSES + 1):
                result = wl.run_pass()
                if name == "mc-d50":
                    digests.update(digest_mc(result, f"{prefix}/pass{n}"))
                digests.update(digest_dir(out_dir, f"{prefix}/pass{n}"))
    return digests


def differing(parent: dict, change: dict) -> list:
    """The keys whose digests differ or that only one side has, sorted."""
    return sorted(key for key in parent.keys() | change.keys()
                  if parent.get(key) != change.get(key))


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent", help="the commit to compare against")
    ap.add_argument("change", help="the commit being checked")
    ap.add_argument("--digest", nargs=2, metavar=("CHECKOUT", "OUT_JSON"),
                    help=argparse.SUPPRESS)  # one side, in its own interpreter
    args = ap.parse_args()
    if args.digest:
        checkout, out = map(Path, args.digest)
        out.write_text(json.dumps(digest_checkout(checkout, out.parent / "work")))
        return 0

    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    env.pop("DSBLO_OUT_DIR", None)
    env.pop("DSBLO_WORKERS", None)
    digests = {}
    with tempfile.TemporaryDirectory() as tmp:
        for side in ("parent", "change"):
            side_dir = Path(tmp) / side
            side_dir.mkdir()
            checkout = side_dir / "tree"
            export(getattr(args, side), checkout)
            out = side_dir / "digests.json"
            subprocess.run([sys.executable, __file__, args.parent, args.change,
                            "--digest", str(checkout), str(out)],
                           cwd=checkout, env=env, check=True)
            digests[side] = json.loads(out.read_text())
    diff = differing(digests["parent"], digests["change"])
    for key in diff:
        print(f"differs: {key}")
    print(f"{len(digests['parent'])} parent and {len(digests['change'])} change digests, "
          f"{len(diff)} differ")
    return 1 if diff else 0


if __name__ == "__main__":
    sys.exit(main())
