#!/usr/bin/env python3
"""Shows that the benchmark's correctness checks are not vacuous.

    python3 perfbench/selftest.py

Each case hands a check either genuine solver output, which it must accept,
or a slightly corrupted copy, which it must reject. Exits 1 if any check
decides a case the wrong way.
"""

import os
import sys
from pathlib import Path

os.environ["OPENBLAS_NUM_THREADS"] = "1"
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np  # noqa: E402

from dsblo import diagnostics, implicit_grad, lower_level, problem  # noqa: E402

from checks import (check_gradient_fd, check_kkt, check_paper_gates,  # noqa: E402
                    check_smoothing_bound, check_window_replay, masked_csv)

RADIUS = 1e-3


def active_point(inst, rng):
    """A perturbation and a point whose lower-level solve has active rows."""
    while True:
        x = 2.0 * rng.standard_normal(inst.d_u)
        q = lower_level.sample_perturbation(RADIUS, rng, inst.d_l).q
        sol = lower_level.solve_ll_quadratic(inst, x, q)
        if len(sol.active_set) >= 2 and lower_level.sc_margin(sol) > 1e-3:
            return x, q, sol


def csv_text(F, stationarity):
    lines = ["t,wall_time_s,F,eta,m_norm,stationarity_norm,q_norm"]
    for t, (f, s) in enumerate(zip(F, stationarity), start=1):
        lines.append(f"{t},{0.001 * t!r},{f!r},0.05,1.0,{'' if s is None else repr(s)},0.0005")
    return "\n".join(lines) + "\n"


def main() -> int:
    inst = problem.generate_instance(10, 10, 5, seed=1)
    rng = np.random.default_rng(3)
    x, q, sol = active_point(inst, rng)
    y, lam = np.asarray(sol.y_hat), np.asarray(sol.lam)
    act = list(sol.active_set)

    def solve(xp, qp):
        return lower_level.solve_ll_quadratic(inst, xp, qp)

    grad = implicit_grad.implicit_gradient(inst, x, sol).grad
    # the chain rule through the unconstrained solution map y = -(Q2'x + q)/2
    gx, gy = inst.grad_f(x, y)
    grad_free = gx - 0.5 * inst.Q2 @ gy
    lam_neg = lam.copy()
    lam_neg[act[0]] = -lam_neg[act[0]]
    y_out = y.copy()
    y_out[0] += 1e-6

    n = 64
    res = diagnostics.perturbation_error_check(inst, x, RADIUS, n, np.random.default_rng(5))

    def replay(seed):
        r = np.random.default_rng(seed)
        return lambda: lower_level.sample_perturbation(RADIUS, r, inst.d_l).q

    def smoothing(result, seed=5):
        return check_smoothing_bound("s", inst, solve, replay(seed), x, RADIUS, n, result)

    w = rng.standard_normal(inst.d_u)
    steps = 400
    F = [float(v) for v in -1.0 + np.exp(-np.arange(steps) / 50.0)]
    st = [None] * 10 + [0.01] * (steps - 10)
    good = {"dsblo": csv_text(F, st), "igd": csv_text(F, st)}

    def gates(texts):
        return all(c.ok for c in check_paper_gates(texts))

    def fd(g):
        return check_gradient_fd("g", inst, solve, [(x, q, g)], np.random.default_rng(0)).ok

    cases = [
        ("KKT: solver output", True, check_kkt("k", inst, [(x, q, y, lam)]).ok),
        ("KKT: y shifted by 1e-6 along all coordinates", False,
         check_kkt("k", inst, [(x, q, y + 1e-6, lam)]).ok),
        ("KKT: one y coordinate moved by 1e-6", False,
         check_kkt("k", inst, [(x, q, y_out, lam)]).ok),
        ("KKT: an active multiplier negated", False,
         check_kkt("k", inst, [(x, q, y, lam_neg)]).ok),
        ("KKT: multipliers scaled by 1.0001", False,
         check_kkt("k", inst, [(x, q, y, lam * 1.0001)]).ok),
        ("KKT: solution for another perturbation", False,
         check_kkt("k", inst, [(x, -q, y, lam)]).ok),
        ("FD: implicit gradient", True, fd(grad)),
        ("FD: gradient scaled by 1.01", False, fd(1.01 * grad)),
        ("FD: gradient plus 1e-3 times a random unit vector", False,
         fd(grad + 1e-3 * w / np.linalg.norm(w))),
        ("FD: gradient that ignores the active rows", False, fd(grad_free)),
        ("smoothing: perturbation_error_check result", True, smoothing(res).ok),
        ("smoothing: Monte-Carlo mean moved by 1e-6", False,
         smoothing({**res, "Fbar_mc": res["Fbar_mc"] + 1e-6}).ok),
        ("smoothing: exact F moved by 1e-6", False, smoothing({**res, "F": res["F"] + 1e-6}).ok),
        ("smoothing: reported bound violated", False, smoothing({**res, "ok": False}).ok),
        ("smoothing: draws from another stream", False, smoothing(res, seed=6).ok),
        ("window: replay equal to report", True,
         check_window_replay("w", [(grad, grad.copy())]).ok),
        ("window: report scaled by 1 + 1e-6", False,
         check_window_replay("w", [(grad, grad * (1 + 1e-6))]).ok),
        ("CSV: wall time differs", True,
         masked_csv(good["dsblo"]) == masked_csv(good["dsblo"].replace("0.001,", "0.002,"))),
        ("CSV: one F value differs in the last digit", False,
         masked_csv(good["dsblo"]) == masked_csv(good["dsblo"].replace(repr(F[7]),
                                                                        repr(float(np.nextafter(F[7], 1)))))),
        ("gates: decreasing F, small window norms, same final F", True, gates(good)),
        ("gates: dsblo F ends above its start", False,
         gates({**good, "dsblo": csv_text(F[::-1], st)})),
        ("gates: trailing window norm 0.11", False,
         gates({**good, "dsblo": csv_text(F, [None] * 10 + [0.11] * (steps - 10))})),
        ("gates: igd final F 6% off", False,
         gates({**good, "igd": csv_text(F[:-1] + [1.06 * F[-1]], st)})),
    ]
    wrong = 0
    for label, expect_ok, got_ok in cases:
        right = expect_ok == got_ok
        wrong += not right
        print(f"{'ok   ' if right else 'WRONG'} {'accepts' if got_ok else 'rejects'}  {label}")
    print(f"{len(cases)} cases, {wrong} decided wrongly")
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main())
