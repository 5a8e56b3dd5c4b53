import json
from pathlib import Path

import numpy as np
import pytest

import dsblo.algorithm as algo
import dsblo.experiment as exp_mod
import dsblo.problem as problem_mod
import dsblo.verify as verify_mod
from dsblo.cli import main
from dsblo.errors import ConfigError
from dsblo.experiment import (CSV_HEADER, config_from_dict, load_config,
                              run_experiment, write_objective_svg)


def tiny_config(tmp_path, **over):
    doc = {
        "instance": {"d_u": 6, "d_l": 6, "k": 3, "seed": 1},
        "algorithms": [
            {"name": "dsblo", "label": "dsblo", "T": 30, "beta": 0.9,
             "gamma1": 10.0, "gamma2": 30.0, "K": 5, "delta_y": 1e-8},
            {"name": "igd", "label": "igd", "T": 30, "step": 0.02},
        ],
        "seeds": [1],
        "output_dir": str(tmp_path / "out"),
        "eval_every": 1,
    }
    doc.update(over)
    return doc


class TestConfig:
    def test_requires_algorithms(self, tmp_path):
        with pytest.raises(ConfigError, match="no algorithms"):
            config_from_dict(tiny_config(tmp_path, algorithms=[]))

    def test_requires_instance(self, tmp_path):
        doc = tiny_config(tmp_path)
        del doc["instance"]
        with pytest.raises(ConfigError, match="instance"):
            config_from_dict(doc)

    def test_unique_labels(self, tmp_path):
        doc = tiny_config(tmp_path)
        doc["algorithms"][1]["label"] = "dsblo"
        with pytest.raises(ConfigError, match="unique"):
            config_from_dict(doc)

    def test_unknown_algorithm(self, tmp_path):
        doc = tiny_config(tmp_path, algorithms=[{"name": "newton", "T": 5}])
        with pytest.raises(ConfigError, match="unknown name"):
            config_from_dict(doc)

    def test_unknown_format(self, tmp_path):
        with pytest.raises(ConfigError, match="format"):
            config_from_dict(tiny_config(tmp_path, formats=["png"]))

    def test_missing_instance_file(self, tmp_path):
        doc = tiny_config(tmp_path, instance={"path": "nope.json"})
        with pytest.raises(ConfigError, match="not found"):
            config_from_dict(doc, base_dir=tmp_path)

    @pytest.mark.parametrize("text", [
        '{"format": "nope"}',
        "{not json",
        "[1, 2]",
        '{"format": "dsblo-instance", "d_l": 2}',
        '{"d_l": "two", "format": "dsblo-instance", "d_u": 1, "A": [], "B": [], "b": []}',
    ])
    def test_instance_file_not_an_instance(self, tmp_path, capsys, text):
        (tmp_path / "inst.json").write_text(text)
        doc = tiny_config(tmp_path, instance={"path": "inst.json"})
        with pytest.raises(ConfigError, match="cannot read instance file"):
            config_from_dict(doc, base_dir=tmp_path)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(doc))
        assert main(["run", "--config", str(cfg_path)]) == 2
        assert "config error: cannot read instance file" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_load_config_bad_json(self, tmp_path):
        p = tmp_path / "cfg.json"
        p.write_text("{not json")
        with pytest.raises(ConfigError, match="JSON"):
            load_config(p)

    @pytest.mark.parametrize("edit, match", [
        (lambda doc: doc["algorithms"][0].pop("beta"), "missing beta"),
        (lambda doc: doc.update(eval_every="5"), "eval_every must be an integer"),
        (lambda doc: doc.update(seeds="12"), "seeds must be a nonempty list"),
        (lambda doc: doc.update(seeds=3), "seeds must be a nonempty list"),
        (lambda doc: doc["instance"].update(k=-1), "k must be an integer >= 0"),
        (lambda doc: doc["algorithms"][0].update(mode="manual"), "unknown dsblo mode"),
        (lambda doc: doc["algorithms"][0].update(ll_tol=1e-6), "ll_tol was removed"),
        (lambda doc: doc["algorithms"][0].update(epsilon=1.0),
         "epsilon is a theory-mode target"),
        (lambda doc: doc["algorithms"][0].update(delta_bar=0.01),
         "delta_bar is a theory-mode target"),
        (lambda doc: doc.update(instance={"path": 5}), "path must be a string"),
        (lambda doc: doc.update(output_dir=5), "output_dir must be a string"),
        (lambda doc: doc.update(formats=5), "formats must be a list"),
        (lambda doc: doc.update(formats="csv"), "formats must be a list"),
        (lambda doc: doc.update(instance={"d_u": 10, "d_l": 10, "k": 5, "seed": 1,
                                          "box_radius": None}),
         "cannot certify a bounded feasible set"),
        (lambda doc: doc["algorithms"][0].update(option="bogus"), "unknown option 'bogus'"),
        (lambda doc: doc["algorithms"][0].update(perturb_radius=0),
         "perturb_radius must be a number > 0"),
        (lambda doc: doc["algorithms"][1].update(perturb_radius=0),
         "perturb_radius must be a number > 0"),
        (lambda doc: doc["algorithms"][0].update(beta=1.5), "beta=1.5 outside"),
        (lambda doc: doc["algorithms"][0].update(T=5), "T=5 must exceed K=5"),
        (lambda doc: doc.update(seeds=[1, 1]), "seeds are not unique"),
        (lambda doc: doc["algorithms"][1].update(label="../escaped"),
         "label must be a plain file name"),
        (lambda doc: doc["algorithms"][1].update(label="a/b"), "label must be a plain file name"),
        (lambda doc: doc["algorithms"][1].update(label=7), "label must be a plain file name"),
        (lambda doc: doc["algorithms"][1].update(label=None), "label must be a plain file name"),
        (lambda doc: doc["algorithms"][1].update(label=""), "label must be a plain file name"),
        (lambda doc: doc["algorithms"][1].update(label=".."), "label must be a plain file name"),
        (lambda doc: doc["algorithms"][1].update(step=-0.1), "step must be a number >= 0"),
        (lambda doc: doc["algorithms"][1].update(ll_tol=0), "ll_tol was removed"),
        (lambda doc: doc["algorithms"][1].update(ll_tol=-1), "ll_tol was removed"),
        (lambda doc: doc["algorithms"][1].update(ll_tol=1e-8), "ll_tol was removed"),
    ], ids=["dsblo-without-beta", "eval-every-string", "seeds-string", "seeds-int",
            "instance-k-negative", "mode-string", "dsblo-ll-tol", "manual-epsilon",
            "manual-delta-bar", "instance-path-int",
            "output-dir-int", "formats-int", "formats-string", "instance-unbounded",
            "option-unknown", "dsblo-radius-zero", "igd-radius-zero", "beta-out-of-range",
            "t-not-beyond-k", "seeds-repeated", "label-escapes-output-dir",
            "label-with-slash", "label-int", "label-null", "label-empty", "label-dot-dot",
            "igd-step-negative", "igd-ll-tol-zero", "igd-ll-tol-negative",
            "igd-ll-tol-positive"])
    def test_rejected_at_load(self, tmp_path, capsys, edit, match):
        doc = tiny_config(tmp_path)
        edit(doc)
        with pytest.raises(ConfigError, match=match):
            config_from_dict(doc)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(doc))
        assert main(["run", "--config", str(cfg_path)]) == 2
        assert capsys.readouterr().err.startswith("config error: ")
        assert not (tmp_path / "out").exists()

    def test_theory_mode(self, tmp_path):
        doc = tiny_config(tmp_path, wall_clock_budget_s=0.0)
        doc["algorithms"][0] = {"name": "dsblo", "label": "dsblo", "T": 10**9,
                                "mode": {"kind": "theory", "delta_v": 0.0, "l_f_bar": 5.0},
                                "epsilon": 1.0, "delta_bar": 0.5}
        params = config_from_dict(doc).algorithms[0].params
        assert params.mode == algo.TheoryMode(epsilon=1.0, delta_bar=0.5, delta_v=0.0,
                                              l_f_bar=5.0)
        assert params.T == 10**9
        summary = run_experiment(config_from_dict(doc))
        assert [r["status"] for r in summary["runs"]] == ["ok", "ok"]
        meta = json.loads((Path(summary["output_dir"]) / "dsblo.runlog.json").read_text())
        assert meta["params"]["mode_kind"] == "TheoryMode" and meta["truncated"]
        assert meta["params"]["mode"] == {"epsilon": 1.0, "delta_bar": 0.5, "delta_v": 0.0,
                                          "l_f_bar": 5.0, "lf_delta": None}
        assert "epsilon" not in meta["params"] and "delta_bar" not in meta["params"]

    def test_readme_config_parses(self, tmp_path):
        text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        section = text.split("### Experiment config", 1)[1]
        block = section.split("```json\n", 1)[1].split("```", 1)[0]
        cfg = config_from_dict(json.loads(block), base_dir=tmp_path)
        assert [a.name for a in cfg.algorithms] == ["dsblo", "igd"]
        assert cfg.seeds == [1, 2, 3]


class TestRunExperiment:
    def test_outputs(self, tmp_path):
        cfg = config_from_dict(tiny_config(tmp_path))
        summary = run_experiment(cfg)
        assert not summary["failed"]
        out = Path(summary["output_dir"])
        csvs = sorted(p.name for p in out.glob("*.csv"))
        assert csvs == ["dsblo.csv", "igd.csv"]
        assert (out / "objective_vs_time.svg").exists()
        assert (out / "summary.json").exists()
        assert (out / "dsblo.runlog.json").exists()
        header = (out / "dsblo.csv").read_text().splitlines()[0]
        assert header == CSV_HEADER == "t,wall_time_s,F,eta,m_norm,stationarity_norm,q_norm"
        meta = json.loads((out / "dsblo.runlog.json").read_text())
        assert meta["instance_fingerprint"] == summary["instance_fingerprint"]
        assert meta["diagnostics"]["displacement"]["violations"] == 0

    def test_runlog_counts_lower_level_solves(self, tmp_path, monkeypatch):
        # the runlog totals the gradient-sample solves' pivots and repairs
        import dsblo.lower_level as ll
        stats = []
        real = ll.solve_ll_quadratic

        def recording(inst, x, q, start=()):
            sol = real(inst, x, q, start)
            stats.append(sol.stats)
            return sol

        monkeypatch.setattr(ll, "solve_ll_quadratic", recording)
        doc = tiny_config(tmp_path, eval_every=0)
        doc["instance"]["k"] = 12  # a row binds along the dsblo run
        summary = run_experiment(config_from_dict(doc))
        out = Path(summary["output_dir"])
        counts = [json.loads((out / f"{lab}.runlog.json").read_text())["lower_level"]
                  for lab in ("dsblo", "igd")]
        assert [c["solves"] for c in counts] == [30, 30] and len(stats) == 60
        for c, part in zip(counts, (stats[:30], stats[30:])):
            assert c["pivots"] == sum(s["pivots"] for s in part)
            assert c["repairs"] == sum(s["repairs"] for s in part)
        assert counts[0]["pivots"] > 0

    def test_progress_lines_show_the_csv_F(self, tmp_path, capsys):
        # F is filled in after the loop, so the live line solves it itself
        doc = tiny_config(tmp_path, progress_every=7)
        summary = run_experiment(config_from_dict(doc))
        assert not summary["failed"]
        lines = capsys.readouterr().out.splitlines()
        out = Path(summary["output_dir"])
        for label in ("dsblo", "igd"):
            rows = [r.split(",") for r in (out / f"{label}.csv").read_text().splitlines()[1:]]
            csv_F = {int(r[0]): float(r[2]) for r in rows}
            printed = [ln for ln in lines if ln.startswith(f"{label} seed=1 ")]
            assert [int(ln.split(" t=")[1].split()[0]) for ln in printed] == [1, 7, 14, 21, 28]
            for ln in printed:
                t = int(ln.split(" t=")[1].split()[0])
                assert ln.split(" F=")[1] == f"{csv_F[t]:.6g}"

    def test_progress_lines_without_F(self, tmp_path, capsys):
        run_experiment(config_from_dict(tiny_config(tmp_path, progress_every=10,
                                                    eval_every=0)))
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 8 and not any(" F=" in ln for ln in lines)

    def test_one_stationarity_profile_per_run(self, tmp_path, monkeypatch):
        import dsblo.diagnostics as diag_mod
        calls = []
        real = diag_mod.stationarity_profile

        def counting(log, beta, K):
            calls.append(log.algorithm)
            return real(log, beta, K)

        monkeypatch.setattr(diag_mod, "stationarity_profile", counting)
        monkeypatch.setattr(algo, "stationarity_profile", counting)
        summary = run_experiment(config_from_dict(tiny_config(tmp_path)))
        # the CSV's window norms and the report's come from that one profile
        assert calls == ["dsblo"]
        out = Path(summary["output_dir"])
        meta = json.loads((out / "dsblo.runlog.json").read_text())
        rows = [r.split(",") for r in (out / "dsblo.csv").read_text().splitlines()[1:]]
        norms = [float(r[5]) for r in rows if r[5]]
        assert meta["diagnostics"]["stationarity"]["min_window_norm"] == min(norms)

    def test_seed_suffixed_filenames(self, tmp_path):
        cfg = config_from_dict(tiny_config(tmp_path, seeds=[1, 2, 3]))
        summary = run_experiment(cfg)
        out = Path(summary["output_dir"])
        names = sorted(p.name for p in out.glob("dsblo_seed*.csv"))
        assert names == ["dsblo_seed1.csv", "dsblo_seed2.csv", "dsblo_seed3.csv"]

    def test_failure_recorded_others_proceed(self, tmp_path):
        cfg = config_from_dict(tiny_config(tmp_path))
        # past the config check, run_igd_baseline rejects the step; that run
        # fails, and must not sink the dsblo run
        cfg.algorithms[1].params["step"] = -1.0
        summary = run_experiment(cfg)
        assert summary["failed"]
        by_label = {r["label"]: r for r in summary["runs"]}
        assert by_label["dsblo"]["status"] == "ok"
        assert by_label["igd"]["status"] == "error"

    def test_window_violation_recorded_in_summary(self, tmp_path, monkeypatch):
        # an oversized step breaks the window step budget of the dsblo run only
        monkeypatch.setattr(algo, "step_size",
                            lambda m, gamma1, gamma2: 2.0 / (gamma1 * np.linalg.norm(m)))
        summary = run_experiment(config_from_dict(tiny_config(tmp_path)))
        doc = json.loads((Path(summary["output_dir"]) / "summary.json").read_text())
        by_label = {r["label"]: r for r in doc["runs"]}
        assert doc["failed"]
        assert by_label["dsblo"]["status"] == "error"
        assert "dsblo.errors.WindowViolation" in by_label["dsblo"]["error"]
        assert by_label["igd"]["status"] == "ok"

    def test_one_fingerprint_per_experiment(self, tmp_path, monkeypatch):
        # the config builds the instance once; its runs reuse it and its hash
        built, hashed = [], []
        orig_generate, orig_fp = exp_mod.generate_instance, problem_mod.fingerprint
        monkeypatch.setattr(exp_mod, "generate_instance",
                            lambda **kw: built.append(kw) or orig_generate(**kw))
        monkeypatch.setattr(problem_mod, "fingerprint",
                            lambda inst: hashed.append(inst) or orig_fp(inst))
        cfg = config_from_dict(tiny_config(tmp_path))
        summaries = [run_experiment(cfg) for _ in range(2)]
        assert len(built) == 1 and len(hashed) == 1
        for summary in summaries:
            assert [r["status"] for r in summary["runs"]] == ["ok", "ok"]
            assert summary["instance_fingerprint"] == orig_fp(hashed[0])
            meta = json.loads((Path(summary["output_dir"]) / "dsblo.runlog.json").read_text())
            assert meta["instance_fingerprint"] == summary["instance_fingerprint"]

    def test_wall_clock_budget_truncates(self, tmp_path):
        doc = tiny_config(tmp_path, wall_clock_budget_s=0.0)
        doc["algorithms"] = [doc["algorithms"][0]]
        doc["algorithms"][0]["T"] = 5000
        summary = run_experiment(config_from_dict(doc))
        assert summary["runs"][0]["truncated"]

    def test_instance_from_file(self, tmp_path):
        from dsblo.problem import generate_instance, save_instance, fingerprint
        inst = generate_instance(6, 6, 3, seed=1)
        p = tmp_path / "inst.json"
        save_instance(inst, p)
        doc = tiny_config(tmp_path, instance={"path": str(p)})
        cfg = config_from_dict(doc)
        p.unlink()  # read once, at load; the runs use that instance
        summary = run_experiment(cfg)
        assert [r["status"] for r in summary["runs"]] == ["ok", "ok"]
        assert summary["instance_fingerprint"] == fingerprint(inst)


class TestSvg:
    def test_polyline_and_legend(self, tmp_path):
        p = tmp_path / "plot.svg"
        write_objective_svg(
            [{"label": "alg<1>", "time": [0.0, 1.0, 2.0], "value": [3.0, 1.0, 0.5]}], p)
        text = p.read_text()
        assert "<polyline" in text
        assert "alg&lt;1&gt;" in text
        assert "wall time (s)" in text

    def test_empty_series(self, tmp_path):
        p = tmp_path / "empty.svg"
        write_objective_svg([], p)
        assert "</svg>" in p.read_text()


class TestCli:
    def test_generate_deterministic_fingerprint(self, tmp_path, capsys):
        out = tmp_path / "inst.json"
        args = ["generate", "--du", "10", "--dl", "10", "--k", "5",
                "--seed", "1", "-o", str(out)]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert main(args) == 0
        second = capsys.readouterr().out
        fp1 = [l for l in first.splitlines() if l.startswith("fingerprint")]
        fp2 = [l for l in second.splitlines() if l.startswith("fingerprint")]
        assert fp1 == fp2 and fp1

    def test_generate_k_zero(self, tmp_path):
        out = tmp_path / "boxed.json"
        assert main(["generate", "--du", "3", "--dl", "3", "--k", "0",
                     "--seed", "0", "-o", str(out)]) == 0
        from dsblo.problem import load_instance
        inst = load_instance(out)
        assert inst.constraints.n_random_rows == 0
        assert inst.constraints.k == 6

    def test_generate_no_box_rejected(self, tmp_path, capsys):
        rc = main(["generate", "--du", "3", "--dl", "3", "--k", "2",
                   "--seed", "0", "--no-box", "-o", str(tmp_path / "x.json")])
        assert rc == 1
        assert "bounded" in capsys.readouterr().err

    def test_inspect(self, tmp_path, capsys):
        out = tmp_path / "inst.json"
        main(["generate", "--du", "4", "--dl", "5", "--k", "2", "--seed", "3",
              "-o", str(out)])
        capsys.readouterr()
        assert main(["inspect", str(out)]) == 0
        text = capsys.readouterr().out
        assert "d_u=4 d_l=5" in text
        assert "2 random" in text

    def test_inspect_missing_file(self, tmp_path, capsys):
        assert main(["inspect", str(tmp_path / "missing.json")]) == 1

    @pytest.mark.parametrize("edit", [
        lambda doc: doc.update(d_l="two"),
        lambda doc: doc.pop("Q2"),
    ], ids=["mistyped-field", "missing-key"])
    def test_inspect_malformed_instance(self, tmp_path, capsys, edit):
        from dsblo.problem import generate_instance, instance_to_dict
        doc = instance_to_dict(generate_instance(3, 2, 1, seed=0))
        edit(doc)
        path = tmp_path / "inst.json"
        path.write_text(json.dumps(doc))
        assert main(["inspect", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: cannot read instance")
        assert "Traceback" not in err

    def test_run_end_to_end(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(tiny_config(tmp_path)))
        assert main(["run", "--config", str(cfg_path)]) == 0
        out = capsys.readouterr().out
        assert "[ok] dsblo" in out and "[ok] igd" in out

    def test_run_out_dir_option(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(tiny_config(tmp_path)))
        other = tmp_path / "elsewhere"
        assert main(["run", "--config", str(cfg_path), "--out-dir", str(other)]) == 0
        assert f"outputs in {other}" in capsys.readouterr().out
        assert sorted(p.name for p in other.glob("*.csv")) == ["dsblo.csv", "igd.csv"]
        assert json.loads((other / "summary.json").read_text())["output_dir"] == str(other)
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("value", ["-1", "two"])
    def test_run_progress_must_be_a_count(self, tmp_path, capsys, value):
        # the config key progress_every takes an integer >= 0; so does --progress
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(tiny_config(tmp_path)))
        with pytest.raises(SystemExit) as exc:
            main(["run", "--config", str(cfg_path), "--progress", value])
        assert exc.value.code == 2
        assert "--progress: must be an integer >= 0" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_run_bad_config(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(tiny_config(tmp_path, algorithms=[])))
        assert main(["run", "--config", str(cfg_path)]) == 2

    def test_verify_wiring(self, capsys, monkeypatch):
        canned = [verify_mod.CheckResult("a", True, "fine", 0.1),
                  verify_mod.CheckResult("b", False, "broken", 0.2)]
        monkeypatch.setattr("dsblo.cli.verify_mod.run_verify", lambda level: canned)
        assert main(["verify", "--level", "fast", "--json"]) == 1
        out = capsys.readouterr().out
        assert "PASS a" in out and "FAIL b" in out
        assert '"passed": false' in out

    def test_verify_detects_tampered_gradient(self, monkeypatch):
        # fault injection: a sign flip in the gradient assembly must trip the
        # finite-difference gate
        real = verify_mod.implicit_gradient

        def flipped(problem, x, sol):
            g = real(problem, x, sol)
            return type(g)(grad=-g.grad)

        monkeypatch.setattr(verify_mod, "implicit_gradient", flipped)
        res = verify_mod.check_implicit_fd(n_instances=1, n_points=2)
        assert not res.passed
