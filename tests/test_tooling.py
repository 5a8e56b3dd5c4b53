import importlib
import json
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from dsblo import experiment, verify
from dsblo.errors import Infeasible
from dsblo.experiment import config_from_dict, run_experiment

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

    def test_drift_line_counts_rows_and_takes_each_columns_largest_difference(
            self, compare_outputs):
        header = "t,wall_time_s,F,eta,m_norm,stationarity_norm,q_norm"
        parent = [header, "1,,0.5,0.1,2.0,,0.001", "2,,0.25,0.1,1.5,1.5,0.001",
                  "3,,0.125,0.1,1.0,1.0,0.001"]
        change = [header, "1,,0.5,0.1,2.0,,0.001", "2,,0.2500000000000002,0.1,1.5,1.5,0.001",
                  "3,,0.125,0.1,1.25,,0.001"]
        # the blanked wall time is left out; a cell blank on one side only
        # differs by inf
        assert compare_outputs.csv_drift(parent, change) == (
            "2 of 3 rows differ; max |diff| t 0, F 2.22e-16, eta 0, m_norm 0.25, "
            "stationarity_norm inf, q_norm 0")
        assert compare_outputs.csv_drift(parent, change[:3]) == (
            "headers or lengths differ: 3 parent and 2 change rows")


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


class TestBenchPairs:
    def test_trace_medians_carry_each_sides_spread(self, monkeypatch):
        # each side's median over its traced runs, with its min and max
        monkeypatch.syspath_prepend(str(ROOT / "scripts"))
        bench_pairs = importlib.import_module("bench_pairs")

        def run(value):
            return {"metrics": {"lower_level.solve_us": {"value": value, "unit": "us"}}}

        traced = {"parent": [run(3.0), run(1.0), run(2.0)], "change": [run(5.0), run(4.0),
                                                                         run(9.0)]}
        assert bench_pairs.trace_medians(traced) == {"lower_level.solve_us": {
            "parent": 2.0, "parent_min": 1.0, "parent_max": 3.0,
            "change": 5.0, "change_min": 4.0, "change_max": 9.0}}


class TestBenchmarkConfig:
    def test_script_and_acceptance_check_run_one_config(self, tmp_path):
        # run_quadratic_benchmark.py and check_benchmark both build their
        # runs with verify.benchmark_config; at one T they write the same CSVs
        out = subprocess.run(
            [sys.executable, "-W", "error", str(ROOT / "scripts" / "run_quadratic_benchmark.py"),
             "--iterations", "40", "--out", str(tmp_path / "script")],
            capture_output=True, text=True, timeout=300)
        assert out.returncode == 0, out.stderr
        for size in verify.BENCHMARKS:
            run_experiment(config_from_dict(
                verify.benchmark_config(size, tmp_path / f"check{size}", T=40)))
            csvs = sorted((tmp_path / "script" / f"d{size}").glob("*.csv"))
            assert [p.name for p in csvs] == [f"dsblo_d{size}.csv", f"igd_d{size}.csv"]
            for path in csvs:
                assert (verify._masked_csv(path)
                        == verify._masked_csv(tmp_path / f"check{size}" / path.name))

    def test_failed_run_fails_the_check_with_its_error(self, monkeypatch):
        def infeasible(*args, **kwargs):
            raise Infeasible("forced")

        monkeypatch.setattr(experiment, "run_igd_baseline", infeasible)
        result = verify.check_benchmark(10)
        assert not result.passed
        assert result.detail.startswith("d=10: run failed: igd_d10: Traceback")
        assert "dsblo.errors.Infeasible: forced" in result.detail
