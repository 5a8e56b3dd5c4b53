import importlib
import json
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture
def compare_outputs(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "scripts"))
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    return importlib.import_module("compare_outputs")


def _write_run(out_dir: Path, wall: float, F: str = "1.25"):
    """The files of one run as ``run_experiment`` lays them out."""
    (out_dir / "pass").mkdir(parents=True)
    (out_dir / "pass" / "dsblo.csv").write_text(
        f"t,wall_time_s,F,eta,m_norm,stationarity_norm,q_norm\n1,{wall!r},{F},0.1,2.0,,0.001\n")
    timings = {"total_s": wall}
    (out_dir / "pass" / "dsblo.runlog.json").write_text(json.dumps(
        {"seed": 1, "timings": timings, "lower_level": {"solves": 3},
         "diagnostics": {"iterations": 1, "timings": timings}}))
    (out_dir / "pass" / "summary.json").write_text(json.dumps(
        {"output_dir": str(out_dir / "pass"), "runs": [
            {"csv": str(out_dir / "pass" / "dsblo.csv"), "final_F": 1.25}]}))
    (out_dir / "pass" / "objective_vs_time.svg").write_text(f"<svg>{wall}</svg>\n")


class TestCompareOutputs:
    def test_equal_runs_pass_and_a_changed_csv_byte_is_reported(self, compare_outputs,
                                                                 tmp_path):
        # wall times, timings, output paths and SVGs differ between the two
        # sides without counting; one byte of F does count
        _write_run(tmp_path / "a", wall=0.5)
        _write_run(tmp_path / "b", wall=0.75)
        parent = compare_outputs.digest_dir(tmp_path / "a", "seed1/paper-d10/pass1")
        change = compare_outputs.digest_dir(tmp_path / "b", "seed1/paper-d10/pass1")
        assert sorted(parent) == ["seed1/paper-d10/pass1/pass/dsblo.csv",
                                  "seed1/paper-d10/pass1/pass/dsblo.runlog.json",
                                  "seed1/paper-d10/pass1/pass/summary.json"]
        assert compare_outputs.differing(parent, change) == []

        csv = tmp_path / "b" / "pass" / "dsblo.csv"
        csv.write_text(csv.read_text().replace(",1.25,", ",1.26,"))
        change = compare_outputs.digest_dir(tmp_path / "b", "seed1/paper-d10/pass1")
        assert compare_outputs.differing(parent, change) == [
            "seed1/paper-d10/pass1/pass/dsblo.csv"]
        # a key only one side has is reported too
        del change["seed1/paper-d10/pass1/pass/summary.json"]
        assert compare_outputs.differing(parent, change) == [
            "seed1/paper-d10/pass1/pass/dsblo.csv", "seed1/paper-d10/pass1/pass/summary.json"]


class TestPytestSettings:
    def test_failing_hypothesis_test_reports_as_a_failure(self, tmp_path):
        # hypothesis's failure report must not turn into an INTERNALERROR
        # under the repo's warnings-as-errors filters, which would end the
        # session before the other tests run
        (tmp_path / "test_pair.py").write_text(textwrap.dedent("""
            from hypothesis import given, strategies as st

            @given(st.integers())
            def test_fails(n):
                assert n < 0

            def test_passes():
                pass
        """))
        out = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
             "-c", str(ROOT / "pyproject.toml"), "--rootdir", str(tmp_path), "test_pair.py"],
            cwd=tmp_path, capture_output=True, text=True, timeout=300)
        assert "INTERNALERROR" not in out.stdout + out.stderr, out.stdout[-2000:]
        assert "1 failed, 1 passed" in out.stdout
