"""The benchmark in ``perfbench/`` still runs against the library.

perfbench is frozen between benchmark changes, while the library it calls
(``ManualMode``, ``DsbloParams``, ``sample_perturbation(...).q`` and
``.norm``, ``stationarity_window(...).combined``, ...) keeps changing, so a
library change that breaks it must fail here rather than in a benchmark
run. Each test runs a copy of ``perfbench/`` and ``src/`` in its temporary
directory, which leaves the checkout's ``perfbench_out/`` untouched.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _run_copy(tmp_path, *args):
    for name in ("perfbench", "src"):
        shutil.copytree(ROOT / name, tmp_path / name,
                        ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run([sys.executable, *args], cwd=tmp_path, capture_output=True,
                         text=True, timeout=300)
    assert out.returncode == 0, out.stdout[-3000:] + out.stderr[-3000:]
    return out.stdout


def test_selftest(tmp_path):
    assert "0 decided wrongly" in _run_copy(tmp_path, "perfbench/selftest.py")


@pytest.mark.parametrize("workload", ["paper-d10", "mc-d50"])
def test_traced_run(tmp_path, workload):
    stdout = _run_copy(tmp_path, "perfbench/run.py", "--workload", workload, "--seed", "1",
                       "--seconds", "1", "--trace", "1")
    result = json.loads(stdout.strip().splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0
