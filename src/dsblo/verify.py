"""Acceptance checks behind ``dsblo verify`` and the acceptance test suite.

Each check is a standalone function returning a CheckResult; ``run_verify``
aggregates them. ``fast`` covers the cheap correctness gates (reference-
oracle equivalence, KKT certification, finite-difference agreement, schedule
formulas, sampled-gradient unbiasedness); ``full`` adds the Monte-Carlo
smoothing-error bound, strict-complementarity sampling, window invariants,
the benchmark reproduction runs and end-to-end determinism.
"""

from __future__ import annotations

import decimal
import json
import math
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, List

import numpy as np

from .algorithm import DsbloParams, ManualMode, TheoryMode, run_dsblo, schedule
from .diagnostics import (fd_gradient_oracle, perturbation_error_check, stationarity_window,
                          window_weights)
from .errors import Infeasible
from .experiment import config_from_dict, run_experiment
from .implicit_grad import implicit_gradient, jacobians, sampled_implicit_gradient
from .lower_level import (KKT_TOL, TAU_FEAS, _ball_draw, _ball_draws, sc_margin,
                          solve_ll_bruteforce, solve_ll_quadratic)
from .problem import Polyhedron, QuadraticBilevel, eval_f, generate_instance


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str
    seconds: float = 0.0


def _timed(name: str, fn: Callable[[], tuple]) -> CheckResult:
    t0 = time.monotonic()
    try:
        passed, detail = fn()
    except Exception as exc:  # a crashed check is a failed check
        passed, detail = False, f"raised {type(exc).__name__}: {exc}"
    return CheckResult(name=name, passed=passed, detail=detail,
                       seconds=time.monotonic() - t0)


# -- criterion 1: reference-oracle equivalence ------------------------------


def check_ll_bruteforce(n_instances: int = 100) -> CheckResult:
    def body():
        t0 = time.monotonic()
        worst_dy = 0.0
        mismatches = 0
        for i in range(n_instances):
            inst = generate_instance(3, 3, k=(i % 6) + 1, seed=1000 + i)
            rng = np.random.default_rng(500 + i)
            x = 0.5 * rng.standard_normal(inst.d_u)
            q = _ball_draw(1e-3, rng, inst.d_l)
            try:
                fast = solve_ll_quadratic(inst, x, q)
            except Infeasible:
                try:
                    solve_ll_bruteforce(inst, x, q)
                except Infeasible:
                    continue
                mismatches += 1
                continue
            slow = solve_ll_bruteforce(inst, x, q)
            # warm starts: every row, and the active set at a nearby point
            try:
                near = solve_ll_quadratic(inst, x + 0.05 * rng.standard_normal(inst.d_u),
                                          q).active_set
            except Infeasible:
                near = ()
            for sol in (fast, solve_ll_quadratic(inst, x, q, tuple(range(inst.constraints.k))),
                        solve_ll_quadratic(inst, x, q, near)):
                dy = float(np.linalg.norm(sol.y_hat - slow.y_hat))
                worst_dy = max(worst_dy, dy)
                if dy > 1e-8 or sol.active_set != slow.active_set:
                    mismatches += 1
        elapsed = time.monotonic() - t0
        ok = mismatches == 0 and elapsed < 30.0
        return ok, (f"{n_instances} instances, no start and two warm starts each, "
                    f"max ||dy||={worst_dy:.2e}, {mismatches} mismatches, "
                    f"{elapsed:.1f}s (< 30s required)")

    return _timed("ll_bruteforce_equivalence", body)


# -- criterion 2: KKT certification -----------------------------------------


def check_kkt_certification(n_instances: int = 50, points_per: int = 3) -> CheckResult:
    def body():
        max_kkt = 0.0
        max_viol = -np.inf
        min_lam = np.inf
        n_solves = 0
        for i in range(n_instances):
            inst = generate_instance(10, 10, 5, seed=2000 + i)
            rng = np.random.default_rng(300 + i)
            start = ()
            for _ in range(points_per):
                x = 0.5 * rng.standard_normal(inst.d_u)
                q = _ball_draw(1e-3, rng, inst.d_l)
                try:
                    # without a start, and warm from the previous point's
                    # active set
                    sols = [solve_ll_quadratic(inst, x, q),
                            solve_ll_quadratic(inst, x, q, start)]
                except Infeasible:
                    continue
                start = sols[0].active_set
                for sol in sols:
                    n_solves += 1
                    max_kkt = max(max_kkt, sol.kkt_residual)
                    max_viol = max(max_viol, sol.max_violation)
                    if sol.active_set:
                        min_lam = min(min_lam, float(np.min(sol.lam[list(sol.active_set)])))
        ok = max_kkt <= KKT_TOL and max_viol <= TAU_FEAS and min_lam >= 0.0
        return ok, (f"{n_solves} solves: max kkt={max_kkt:.2e} (<={KKT_TOL:g}), "
                    f"max violation={max_viol:.2e} (<={TAU_FEAS:g}), "
                    f"min active multiplier={min_lam:.2e} (>=0)")

    return _timed("kkt_certification", body)


# -- criterion 3: finite-difference agreement -------------------------------


def margin_point(inst: QuadraticBilevel, q, rng, margin: float = 1e-3,
                 scale: float = 0.5, max_tries: int = 1000):
    """Random x whose lower-level solve has multiplier margin and inactive
    slack both at least ``margin`` (the solution map is smooth there)."""
    for _ in range(max_tries):
        x = scale * rng.standard_normal(inst.d_u)
        try:
            sol = solve_ll_quadratic(inst, x, q)
        except Infeasible:
            continue
        if sc_margin(sol) < margin:
            continue
        slacks = inst.constraints.slacks(x, sol.y_hat)
        inactive = np.delete(slacks, list(sol.active_set)) if sol.active_set else slacks
        if inactive.size and float(np.min(inactive)) < margin:
            continue
        return x, sol
    raise RuntimeError("no margin point found")


def check_implicit_fd(n_instances: int = 10, n_points: int = 10,
                      fd_step: float = 1e-5) -> CheckResult:
    def body():
        worst_rel = 0.0
        worst_tan = 0.0
        for i in range(n_instances):
            inst = generate_instance(10, 10, 5, seed=1 + i)
            rng = np.random.default_rng(42 + i)
            for _ in range(n_points):
                q = _ball_draw(1e-3, rng, inst.d_l)
                x, sol = margin_point(inst, q, rng)
                ig = implicit_gradient(inst, x, sol)
                if sol.active_set:
                    Abar = inst.constraints.A[list(sol.active_set)]
                    Bbar = inst.constraints.B[list(sol.active_set)]
                    jac_y, _ = jacobians(inst, sol)
                    worst_tan = max(worst_tan, float(np.linalg.norm(Abar @ jac_y + Bbar)))

                def F_q(xp):
                    return eval_f(inst, xp, solve_ll_quadratic(inst, xp, q).y_hat)

                fd = fd_gradient_oracle(F_q, x, fd_step)
                rel = float(np.linalg.norm(ig.grad - fd) / max(np.linalg.norm(fd), 1e-9))
                worst_rel = max(worst_rel, rel)
        ok = worst_rel <= 1e-4 and worst_tan <= 1e-8
        return ok, (f"{n_instances}x{n_points} margin points: max relative "
                    f"gradient error {worst_rel:.2e} (<=1e-4), max tangency "
                    f"residual {worst_tan:.2e} (<=1e-8)")

    return _timed("implicit_gradient_fd", body)


# -- criterion 4: strict complementarity under perturbation ------------------


def degenerate_instance() -> QuadraticBilevel:
    """Instance whose unperturbed lower level has an active row with a zero
    multiplier: min ||y||^2 over y_1 <= 0 (plus box rows) at x = 0."""
    A = np.vstack([[1.0, 0.0], np.eye(2), -np.eye(2)])
    B = np.zeros((5, 2))
    b = np.array([0.0, 10.0, 10.0, 10.0, 10.0])
    return QuadraticBilevel(
        Q1=np.ones((2, 2)), Q2=np.zeros((2, 2)),
        cx=np.ones((1, 2)), cy=np.ones((1, 2)),
        constraints=Polyhedron(A, B, b, n_random_rows=1),
    )


def check_strict_complementarity(n_draws: int = 1000) -> CheckResult:
    def body():
        inst = degenerate_instance()
        x = np.zeros(2)
        base = solve_ll_quadratic(inst, x, None)
        if sc_margin(base) != 0.0:
            return False, f"unperturbed solve reported margin {sc_margin(base)} != 0"
        bad = 0
        worst = np.inf
        for q in _ball_draws(1e-3, np.random.default_rng(9), 2, n_draws)[0]:
            sol = solve_ll_quadratic(inst, x, q)
            m = sc_margin(sol)
            worst = min(worst, m)
            if not m > 0.0:
                bad += 1
        return bad == 0, (f"unperturbed margin 0.0; {n_draws} perturbed solves, "
                          f"{bad} with margin <= 0 (min margin {worst:.2e})")

    return _timed("strict_complementarity_sampling", body)


# -- criterion 5: smoothing error bound --------------------------------------


def mc_window_reference(log, t: int, beta: float, K: int, inst: QuadraticBilevel,
                        mc_samples: int, radius: float, rng: np.random.Generator) -> tuple:
    """The Monte-Carlo ``stationarity_window`` one draw at a time: each draw
    replayed from rng in stream order, solved without a start and
    differentiated by ``implicit_gradient``, then the mean per point and the
    weighted sum. Returns the combined vector and each draw's number of
    active rows."""
    means, active = [], []
    for rec in log.records[t - K:t]:
        grads = []
        for _ in range(mc_samples):
            q = _ball_draw(radius, rng, inst.d_l)
            sol = solve_ll_quadratic(inst, rec.x_bar, q)
            grads.append(implicit_gradient(inst, rec.x_bar, sol).grad)
            active.append(len(sol.active_set))
        means.append(np.mean(grads, axis=0))
    return window_weights(beta, K) @ np.asarray(means), active


def mc_window_logs(n_points: int = 4) -> tuple:
    """The d=50/k=10 instance and the T=12 dsblo runs from seeded x0 whose
    last iterates are the benchmark's Monte-Carlo points (its ``mc-d50``
    recipe); their window draws bind up to nine rows."""
    inst = generate_instance(50, 50, 10, seed=1)
    point_rng = np.random.default_rng(5)
    mode = ManualMode(beta=0.9, gamma1=20.0, gamma2=200.0, K=10, delta_y=1e-8)
    params = DsbloParams(T=12, mode=mode, perturb_radius=1e-3, seed=5)
    return inst, [run_dsblo(inst, params, x0=0.5 * point_rng.standard_normal(inst.d_u),
                            eval_every=0) for _ in range(n_points)]


def check_perturbation_error(n_instances: int = 3, n_points: int = 5,
                             n_samples: int = 1000) -> CheckResult:
    def body():
        violations = fallbacks = 0
        worst = 0.0
        for i in range(n_instances):
            inst = generate_instance(10, 10, 5, seed=1 + i)
            rng = np.random.default_rng(7000 + i)
            done = 0
            while done < n_points:
                x = 0.5 * rng.standard_normal(inst.d_u)
                try:
                    res = perturbation_error_check(inst, x, radius=1e-3,
                                                   n_samples=n_samples, rng=rng)
                except Infeasible:
                    continue
                done += 1
                fallbacks += res["mc_fallbacks"]
                worst = max(worst, res["gap"] / res["bound"])
                if not res["ok"]:
                    violations += 1

        # Monte-Carlo windows whose draws bind rows, so the batched
        # active-set solves and adjoints run here
        inst, logs = mc_window_logs()
        worst_win, active, win_fallbacks = 0.0, [], 0
        for j, log in enumerate(logs):
            window = (log, len(log.records), log.schedule.beta, log.schedule.K)
            for c in range(2):
                seed = [j, 100 + c]
                win = stationarity_window(*window, inst=inst, mc_samples=2, radius=1e-3,
                                          rng=np.random.default_rng(seed))
                ref, rows = mc_window_reference(*window, inst, 2, 1e-3,
                                                np.random.default_rng(seed))
                dev = float(np.abs(win.combined - ref).max()) / max(1.0, float(np.abs(ref).max()))
                worst_win = max(worst_win, dev)
                active += rows
                win_fallbacks += win.mc_fallbacks
        ok = violations == 0 and worst_win <= 1e-9 and max(active) > 0
        return ok, (f"{n_instances * n_points} points: {violations} "
                    f"bound violations, worst gap/bound={worst:.3f}, "
                    f"{fallbacks} MC fallbacks; 8 MC windows at d=50: "
                    f"{min(active)}..{max(active)} active rows per draw, "
                    f"{win_fallbacks} MC fallbacks, max deviation from the per-draw "
                    f"reference {worst_win:.1e} (<=1e-9)")

    return _timed("perturbation_error_bound", body)


# -- criterion 6: schedule formulas vs arbitrary precision -------------------


def schedule_recompute_mp(eps: float, dv: float, lf: float, db: float, dps: int = 60):
    """Recompute the theory-mode constants end to end in ``dps``-digit
    decimal arithmetic, rounding only the final values to float."""
    with decimal.localcontext() as ctx:
        ctx.prec = dps
        e, v, l, d = (decimal.Decimal(t) for t in (eps, dv, lf, db))
        spread = v + 2 * l
        u = e ** 2 / (960 * (v ** 2 + 2 * l ** 2))
        beta = 1 - u
        k_real = (32 * spread / e).ln() / -(1 - u).ln()
        K = int(k_real.to_integral_value(rounding=decimal.ROUND_CEILING))
        gamma1 = K / d
        gamma2 = 4 * gamma1 * spread
        delta_y = min(e ** 2 / (1280 * spread), 2 * e / 3, l)
        nearest = k_real.to_integral_value(rounding=decimal.ROUND_HALF_EVEN)
        return {
            "beta": float(beta), "K": K, "gamma1": float(gamma1),
            "gamma2": float(gamma2), "delta_y": float(delta_y), "delta_bar": float(K / gamma1),
            "k_gap": float(abs(k_real - nearest)),
        }


def _ulp_close(a: float, b: float, ulps: int = 4) -> bool:
    return abs(a - b) <= ulps * math.ulp(max(abs(a), abs(b)))


def check_schedule_formulas(n_tuples: int = 20) -> CheckResult:
    def body():
        rng = np.random.default_rng(123)
        worst_ulps = 0.0
        done = 0
        while done < n_tuples:
            eps = float(rng.uniform(0.05, 1.0))
            dv = float(rng.uniform(0.0, 5.0))
            lf = float(rng.uniform(0.5, 5.0))
            db = float(rng.uniform(0.01, 1.0))
            ref = schedule_recompute_mp(eps, dv, lf, db)
            if ref["k_gap"] < 1e-6:  # knife-edge ceil; redraw
                continue
            done += 1
            mode = TheoryMode(epsilon=eps, delta_bar=db, delta_v=dv, l_f_bar=lf)
            got = schedule(DsbloParams(T=ref["K"] + 1, mode=mode))
            if got.K != ref["K"]:
                return False, f"K mismatch: {got.K} vs {ref['K']} at eps={eps}"
            for fld in ("beta", "gamma1", "gamma2", "delta_y", "delta_bar"):
                a, b = getattr(got, fld), ref[fld]
                if not _ulp_close(a, b):
                    return False, f"{fld} beyond 4 ulps: {a!r} vs {b!r}"
                if b != a:
                    worst_ulps = max(worst_ulps, abs(a - b) / math.ulp(max(abs(a), abs(b))))
        return True, (f"{n_tuples} tuples: K exact, real-valued constants within "
                      f"{max(worst_ulps, 0.0):.1f} ulps (<=4 allowed)")

    return _timed("schedule_formulas", body)


# -- criterion 7: window invariants ------------------------------------------


def check_window_invariant() -> CheckResult:
    def body():
        inst = generate_instance(10, 10, 5, seed=1)
        params = DsbloParams(
            T=300, mode=ManualMode(beta=0.9, gamma1=20.0, gamma2=20.0, K=10, delta_y=1e-8),
            perturb_radius=1e-3, seed=3,
        )
        disp = run_dsblo(inst, params, eval_every=0).windows
        sums_ok = all(
            abs(window_weights(b, k).sum() - 1.0) <= 1e-12
            for b, k in [(0.9, 10), (0.99, 40), (0.5, 2), (0.999, 100)]
        )
        ok = disp["violations"] == 0 and sums_ok and disp["checked"] > 0
        return ok, (f"{disp['checked']} window points, {disp['violations']} "
                    f"displacement violations, max ratio {disp['max_ratio']:.3f}, "
                    f"weight sums within 1e-12: {sums_ok}")

    return _timed("window_invariants", body)


# -- criterion 8: sampled-gradient unbiasedness ------------------------------


def check_option2_unbiasedness(n_points: int = 20) -> CheckResult:
    def body():
        inst = generate_instance(6, 6, 3, seed=11, n_components=8)
        rng = np.random.default_rng(77)
        worst = 0.0
        done = 0
        while done < n_points:
            x = 0.5 * rng.standard_normal(inst.d_u)
            q = _ball_draw(1e-3, rng, inst.d_l)
            try:
                sol = solve_ll_quadratic(inst, x, q)
                full = implicit_gradient(inst, x, sol).grad
                mean = np.mean(
                    [sampled_implicit_gradient(inst, x, sol, xi).grad
                     for xi in range(inst.n_components)], axis=0)
            except Infeasible:
                continue
            done += 1
            gap = float(np.linalg.norm(mean - full)) / max(1.0, float(np.linalg.norm(full)))
            worst = max(worst, gap)
        return worst <= 1e-12, f"{n_points} points: max |mean - full| = {worst:.2e} (<=1e-12)"

    return _timed("sampled_gradient_unbiasedness", body)


# -- criterion 9: benchmark reproduction -------------------------------------

# Tuned within the documented step range [1e-3, 1e-1] (effective step for
# the momentum loop is 1/(gamma1 ||m|| + gamma2) <= 1/gamma2).
BENCHMARKS = {
    10: {
        "instance": {"d_u": 10, "d_l": 10, "k": 5, "seed": 1},
        "dsblo": {"beta": 0.9, "gamma1": 20.0, "gamma2": 20.0, "K": 10, "delta_y": 1e-8},
        "igd": {"step": 0.05},
        "T": 2000,
        "budget_s": 60.0,
        "eval_every": 1,
    },
    50: {
        "instance": {"d_u": 50, "d_l": 50, "k": 10, "seed": 1},
        "dsblo": {"beta": 0.9, "gamma1": 20.0, "gamma2": 200.0, "K": 10, "delta_y": 1e-8},
        "igd": {"step": 0.002},
        "T": 2000,
        "budget_s": 300.0,
        "eval_every": 5,
    },
}


def benchmark_config(size: int, output_dir, seeds=(1,), T=None) -> dict:
    """The config document (for ``config_from_dict``) of the benchmark
    reproduction at ``size``: dsblo against igd, labelled ``dsblo_d{size}``
    and ``igd_d{size}``, at the entry's T (or ``T``) and ``eval_every``,
    perturbation radius 1e-3, run seeds ``seeds``, on the entry's instance
    spec."""
    bench = BENCHMARKS[size]
    T = bench["T"] if T is None else T
    return {
        "instance": bench["instance"],
        "algorithms": [
            {"name": "dsblo", "label": f"dsblo_d{size}", "T": T, **bench["dsblo"],
             "perturb_radius": 1e-3},
            {"name": "igd", "label": f"igd_d{size}", "T": T, **bench["igd"],
             "perturb_radius": 1e-3},
        ],
        "seeds": list(seeds),
        "output_dir": str(output_dir),
        "eval_every": bench["eval_every"],
    }


def check_benchmark(size: int) -> CheckResult:
    def body():
        budget = BENCHMARKS[size]["budget_s"]
        with tempfile.TemporaryDirectory() as tmp:
            t0 = time.monotonic()
            summary = run_experiment(config_from_dict(benchmark_config(size, tmp)))
            elapsed = time.monotonic() - t0
            runs = {run["label"]: run for run in summary["runs"]}
            failed = [f"{label}: {run['error']}" for label, run in runs.items()
                      if run["status"] != "ok"]
            if failed:
                return False, f"d={size}: run failed: " + "; ".join(failed)
            logs = {label: json.loads((Path(tmp) / f"{label}.runlog.json").read_text())
                    for label in runs}
        report = logs[f"dsblo_d{size}"]["diagnostics"]
        F_first, F_last = report["objective"]["first"], report["objective"]["last"]
        trailing = report["stationarity"]["trailing_avg"]
        igd_F_last = runs[f"igd_d{size}"]["final_F"]
        decreased = F_last < F_first
        stat_ok = trailing <= 0.1
        time_ok = elapsed < budget
        rel_gap = abs(igd_F_last - F_last) / max(abs(F_last), 1e-9)
        basin_ok = rel_gap <= 0.05
        ok = decreased and stat_ok and time_ok and basin_ok
        counts = ", ".join(f"{label} {log['lower_level']}" for label, log in logs.items())
        return ok, (f"d={size}: F {F_first:.3f} -> {F_last:.3f} "
                    f"(decreased={decreased}), trailing stationarity "
                    f"{trailing:.4f} (<=0.1), baseline gap "
                    f"{100 * rel_gap:.2f}% (<=5%), runtime {elapsed:.1f}s "
                    f"(<{budget:.0f}s); lower_level {counts}")

    return _timed(f"benchmark_reproduction_d{size}", body)


# -- criterion 10: determinism ------------------------------------------------


def _masked_csv(path: Path) -> List[str]:
    out = []
    for line in path.read_text().splitlines():
        cols = line.split(",")
        if cols and cols[0] != "t":
            cols[1] = ""  # wall_time_s
        out.append(",".join(cols))
    return out


def check_determinism() -> CheckResult:
    def body():
        with tempfile.TemporaryDirectory() as tmp:
            outs = []
            for run_i in range(2):
                doc = benchmark_config(10, f"{tmp}/run{run_i}", seeds=(1, 2), T=60)
                summary = run_experiment(config_from_dict({**doc, "formats": ["csv"]}))
                if summary["failed"]:
                    return False, f"experiment failed: {summary}"
                outs.append(sorted(Path(summary["output_dir"]).glob("*.csv")))
            if [p.name for p in outs[0]] != [p.name for p in outs[1]]:
                return False, "runs produced different file sets"
            for p0, p1 in zip(*outs):
                if _masked_csv(p0) != _masked_csv(p1):
                    return False, f"CSV mismatch: {p0.name}"
            n = len(outs[0])
        return True, f"{n} CSVs byte-identical with the wall-time column masked"

    return _timed("determinism", body)


# -- driver -------------------------------------------------------------------

FAST_CHECKS = [
    check_ll_bruteforce,
    check_kkt_certification,
    check_implicit_fd,
    check_schedule_formulas,
    check_option2_unbiasedness,
]

FULL_EXTRA = [
    check_strict_complementarity,
    check_perturbation_error,
    check_window_invariant,
    lambda: check_benchmark(10),
    lambda: check_benchmark(50),
    check_determinism,
]


def run_verify(level: str = "fast") -> List[CheckResult]:
    if level not in ("fast", "full"):
        raise ValueError(f"unknown verify level {level!r}")
    checks = list(FAST_CHECKS)
    if level == "full":
        checks += FULL_EXTRA
    return [fn() for fn in checks]
