"""The benchmark's workloads.

Each workload fixes its instance; ``--seed`` drives everything random the
program is handed (the outer-loop seed, the Monte-Carlo draws) and the
points and directions the checks sample. ``setup`` builds the inputs and
warms the code paths, ``run_pass`` is the timed task (identical on every
call within a run), ``pass_check`` compares a pass with the run's first
pass, and ``final_checks`` verifies the outputs against quantities
computed in ``checks``.

Calls into ``dsblo`` go through module attributes (``experiment.run_experiment``
rather than an imported name) so the tracer sees them.
"""

from __future__ import annotations

import shutil
from pathlib import Path
from typing import List, Optional

import numpy as np

from dsblo import algorithm, diagnostics, experiment, implicit_grad, lower_level, problem

from checks import (Check, check_gradient_fd, check_kkt, check_paper_gates,
                    check_smoothing_bound, check_window_replay, masked_csv, window_weights)

RADIUS = 1e-3


def _solve(inst):
    def solve(x, q):
        return lower_level.solve_ll_quadratic(inst, x, q)
    return solve


def replay_perturbations(records, seed: int, d_l: int, wanted) -> dict:
    """The perturbation each wanted record was computed with.

    ``run_dsblo`` and ``run_igd_baseline`` draw one q per gradient sample
    from the first of three streams spawned from the run seed; a degenerate
    active set makes them draw again, so draws are matched to records by
    their norm, which the record keeps.
    """
    q_rng = np.random.default_rng(np.random.SeedSequence(seed).spawn(3)[0])
    wanted = set(wanted)
    out = {}
    for i, rec in enumerate(records[:max(wanted) + 1]):
        for _ in range(5):
            q = lower_level.sample_perturbation(RADIUS, q_rng, d_l)
            if q.norm == rec.q_norm:
                break
        else:
            raise RuntimeError(f"no perturbation draw matches record {i}")
        if i in wanted:
            out[i] = q.q
    return out


class ExperimentWorkload:
    """Outer-loop runs through ``run_experiment`` with CSV and SVG output."""

    def __init__(self, seed: int, out_dir: Path, *, dims, instance_seed: int,
                 dsblo: dict, igd_step: Optional[float], T: int, eval_every: int,
                 warmup_T: int, smoothing_samples: int, paper_checks: bool):
        self.seed = seed
        self.out_dir = out_dir
        self.dims = dims
        self.instance_seed = instance_seed
        self.dsblo = dsblo
        self.igd_step = igd_step
        self.T = T
        self.eval_every = eval_every
        self.warmup_T = warmup_T
        self.smoothing_samples = smoothing_samples
        self.paper_checks = paper_checks
        self.labels = ["dsblo"] + (["igd"] if igd_step is not None else [])
        self.units = T * len(self.labels)
        self.first_pass = None

    def _config(self, T: int, out: Path):
        algs = [{"name": "dsblo", "label": "dsblo", "T": T, "perturb_radius": RADIUS,
                 "option": "deterministic", **self.dsblo}]
        if self.igd_step is not None:
            algs.append({"name": "igd", "label": "igd", "T": T, "step": self.igd_step,
                         "perturb_radius": RADIUS})
        d_u, d_l, k = self.dims
        return experiment.config_from_dict({
            "instance": {"d_u": d_u, "d_l": d_l, "k": k, "seed": self.instance_seed},
            "algorithms": algs,
            "seeds": [self.seed],
            "output_dir": str(out),
            "formats": ["csv", "svg"],
            "eval_every": self.eval_every,
            "workers": 1,
        })

    def setup(self):
        d_u, d_l, k = self.dims
        self.inst = problem.generate_instance(d_u, d_l, k, seed=self.instance_seed)
        summary = experiment.run_experiment(self._config(self.warmup_T, self.out_dir / "warmup"))
        if summary["failed"]:
            raise RuntimeError(f"warm-up run failed: {summary}")
        self.cfg = self._config(self.T, self.out_dir / "pass")

    def run_pass(self):
        return experiment.run_experiment(self.cfg)

    def pass_check(self, summary) -> Check:
        runs_ok = not summary["failed"] and all(
            r["status"] == "ok" and not r["truncated"] for r in summary["runs"])
        csvs = {lab: masked_csv((self.out_dir / "pass" / f"{lab}.csv").read_text())
                for lab in self.labels} if runs_ok else None
        if self.first_pass is None:
            self.first_pass = csvs
        same = runs_ok and csvs == self.first_pass
        return Check("pass_matches_first_pass", same,
                     "runs ok, masked CSVs identical to the first pass" if same
                     else f"runs ok={runs_ok}, CSVs differ from the first pass")

    def _library_logs(self):
        mode = algorithm.ManualMode(**self.dsblo)
        logs = {"dsblo": algorithm.run_dsblo(
            self.inst, algorithm.DsbloParams(T=self.T, mode=mode, perturb_radius=RADIUS,
                                             seed=self.seed),
            eval_every=self.eval_every)}
        if self.igd_step is not None:
            logs["igd"] = algorithm.run_igd_baseline(
                self.inst, step=self.igd_step, T=self.T, seed=self.seed,
                perturb_radius=RADIUS, eval_every=self.eval_every)
        return logs

    def final_checks(self) -> List[Check]:
        inst = self.inst
        solve = _solve(inst)
        rng = np.random.default_rng([self.seed, 7])
        checks = []
        pass_dir = self.out_dir / "pass"
        texts = {lab: (pass_dir / f"{lab}.csv").read_text() for lab in self.labels}

        # The trajectory behind the CSVs, from a direct library run: its CSV
        # must equal the pass's, so its records are the pass's iterates.
        logs = self._library_logs()
        check_dir = self.out_dir / "check"
        check_dir.mkdir(parents=True, exist_ok=True)
        for lab, log in logs.items():
            experiment.write_csv(log, check_dir / f"{lab}.csv")
            same = masked_csv((check_dir / f"{lab}.csv").read_text()) == masked_csv(texts[lab])
            checks.append(Check(f"{lab}_library_run_reproduces_csv", same,
                                f"{len(log.records)} records"))

        for lab, log in logs.items():
            idx = sorted(rng.choice(len(log.records), size=6, replace=False).tolist())
            qs = replay_perturbations(log.records, self.seed, inst.d_l, idx)
            kkt_cases, fd_cases = [], []
            for i in idx:
                rec = log.records[i]
                sol = solve(rec.x_bar, qs[i])
                kkt_cases.append((rec.x_bar, qs[i], sol.y_hat, sol.lam))
                fd_cases.append((rec.x_bar, qs[i], rec.grad))
            checks.append(check_kkt(f"{lab}_ll_kkt_at_sampled_iterates", inst, kkt_cases))
            checks.append(check_gradient_fd(f"{lab}_gradient_fd_at_sampled_iterates",
                                            inst, solve, fd_cases[:3], rng))

        x_end = logs["dsblo"].records[-1].x
        n = self.smoothing_samples
        res = diagnostics.perturbation_error_check(
            inst, x_end, RADIUS, n, np.random.default_rng([self.seed, 11]))
        replay = np.random.default_rng([self.seed, 11])
        checks.append(check_smoothing_bound(
            "smoothing_bound_at_final_iterate", inst, solve,
            lambda: lower_level.sample_perturbation(RADIUS, replay, inst.d_l).q,
            x_end, RADIUS, n, res))

        if self.paper_checks:
            checks.extend(check_paper_gates(texts))
        return checks


class MonteCarloWorkload:
    """Monte-Carlo diagnostics at fixed points of the d=50/k=10 instance.

    The points are the ends of short dsblo trajectories started from fixed
    random x0, so their active sets differ; set-up runs and records the
    trajectories. A pass makes, per point, ``PEC_CALLS`` smoothing-error
    checks of ``PEC_N`` samples at the last iterate and ``WIN_CALLS``
    Monte-Carlo stationarity windows of ``WIN_M`` samples per window point,
    each call with its own random stream. Many short calls give the pass
    many checkpoints.
    """

    MODE = dict(beta=0.9, gamma1=20.0, gamma2=200.0, K=10, delta_y=1e-8)
    POINT_SEED = 5
    N_POINTS = 4
    TRAJ_T = 12
    PEC_CALLS, PEC_N = 8, 32
    WIN_CALLS, WIN_M = 4, 2

    def __init__(self, seed: int, out_dir: Path, mark):
        self.seed = seed
        self.mark = mark
        self.out_dir = out_dir
        K = self.MODE["K"]
        self.units = self.N_POINTS * (self.PEC_CALLS * self.PEC_N
                                      + self.WIN_CALLS * K * self.WIN_M)
        self.first_pass = None

    def setup(self):
        inst = problem.generate_instance(50, 50, 10, seed=1)
        point_rng = np.random.default_rng(self.POINT_SEED)
        self.logs = []
        traj_dir = self.out_dir / "trajectories"
        traj_dir.mkdir(parents=True, exist_ok=True)
        params = algorithm.DsbloParams(T=self.TRAJ_T, mode=algorithm.ManualMode(**self.MODE),
                                       perturb_radius=RADIUS, seed=self.POINT_SEED)
        for j in range(self.N_POINTS):
            x0 = 0.5 * point_rng.standard_normal(inst.d_u)
            log = algorithm.run_dsblo(inst, params, x0=x0, eval_every=1)
            experiment.write_csv(log, traj_dir / f"traj{j}.csv")
            log.diagnostics_report = diagnostics.build_report(log)
            self.logs.append(log)
        self.inst = inst
        # warm-up: a short Monte-Carlo evaluation at the first point
        diagnostics.perturbation_error_check(inst, self.logs[0].records[-1].x, RADIUS, 8,
                                             np.random.default_rng(0))

    def _pec(self, j: int, c: int):
        return diagnostics.perturbation_error_check(
            self.inst, self.logs[j].records[-1].x, RADIUS, self.PEC_N,
            np.random.default_rng([self.seed, j, c]))

    def _window(self, j: int, c: int):
        return diagnostics.stationarity_window(
            self.logs[j], self.TRAJ_T, self.MODE["beta"], self.MODE["K"], inst=self.inst,
            mc_samples=self.WIN_M, radius=RADIUS,
            rng=np.random.default_rng([self.seed, j, 100 + c]))

    def run_pass(self):
        pecs, windows = [], []
        for j in range(self.N_POINTS):
            for c in range(self.PEC_CALLS):
                pecs.append(self._pec(j, c))
                self.mark()
            for c in range(self.WIN_CALLS):
                windows.append(self._window(j, c))
                self.mark()
        return pecs, windows

    def pass_check(self, result) -> Check:
        pecs, windows = result
        key = ([tuple(sorted(res.items())) for res in pecs],
               [win.combined.tobytes() for win in windows])
        if self.first_pass is None:
            self.first_pass = key
        same = key == self.first_pass
        return Check("pass_matches_first_pass", same,
                     "estimates identical to the first pass" if same
                     else "estimates differ from the first pass")

    def final_checks(self) -> List[Check]:
        inst = self.inst
        solve = _solve(inst)
        K, beta = self.MODE["K"], self.MODE["beta"]
        weights = window_weights(beta, K)
        fd_rng = np.random.default_rng([self.seed, 13])
        checks = []
        kkt_cases, fd_cases, windows = [], [], []
        for j, log in enumerate(self.logs):
            for c in range(self.PEC_CALLS):
                replay = np.random.default_rng([self.seed, j, c])
                checks.append(check_smoothing_bound(
                    f"smoothing_bound_point{j}_call{c}", inst, solve,
                    lambda: lower_level.sample_perturbation(RADIUS, replay, inst.d_l).q,
                    log.records[-1].x, RADIUS, self.PEC_N, self._pec(j, c)))
            for c in range(self.WIN_CALLS):
                replay = np.random.default_rng([self.seed, j, 100 + c])
                means = []
                for rec in log.records[self.TRAJ_T - K:self.TRAJ_T]:
                    grads = []
                    for _ in range(self.WIN_M):
                        q = lower_level.sample_perturbation(RADIUS, replay, inst.d_l).q
                        sol = solve(rec.x_bar, q)
                        grads.append(implicit_grad.implicit_gradient(inst, rec.x_bar, sol).grad)
                        if c == 0:
                            kkt_cases.append((rec.x_bar, q, sol.y_hat, sol.lam))
                    means.append(np.mean(grads, axis=0))
                    if c == 0 and len(fd_cases) < 2 * (j + 1):
                        fd_cases.append((rec.x_bar, q, grads[-1]))
                windows.append((weights @ np.asarray(means), self._window(j, c).combined))
        checks.append(check_window_replay("mc_window_matches_replay", windows))
        checks.append(check_kkt("ll_kkt_at_window_samples", inst, kkt_cases))
        checks.append(check_gradient_fd("gradient_fd_at_window_samples", inst, solve,
                                        fd_cases, fd_rng))
        return checks


def make(name: str, seed: int, out_dir: Path, mark):
    """The named workload; ``mark()`` records a checkpoint inside a pass."""
    if out_dir.exists():
        shutil.rmtree(out_dir)
    out_dir.mkdir(parents=True)
    if name == "paper-d10":
        return ExperimentWorkload(
            seed, out_dir, dims=(10, 10, 5), instance_seed=1,
            dsblo=dict(beta=0.9, gamma1=20.0, gamma2=20.0, K=10, delta_y=1e-8),
            igd_step=0.05, T=2000, eval_every=1, warmup_T=50,
            smoothing_samples=256, paper_checks=True)
    if name == "active-d200":
        return ExperimentWorkload(
            seed, out_dir, dims=(200, 200, 40), instance_seed=1,
            dsblo=dict(beta=0.9, gamma1=20.0, gamma2=200.0, K=10, delta_y=1e-8),
            igd_step=None, T=60, eval_every=5, warmup_T=12,
            smoothing_samples=32, paper_checks=False)
    if name == "mc-d50":
        return MonteCarloWorkload(seed, out_dir, mark)
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("paper-d10", "active-d200", "mc-d50")
