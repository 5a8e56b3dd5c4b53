"""Correctness checks that the benchmark computes apart from the solver.

The quadratic instance family is

    f(x, y) = ||x||^2 + 0.1 x'Q1 y + ||y||^2 + cx'x + cy'y
    g(x, y) = ||x||^2 + x'Q2 y + ||y||^2,   A y + B x <= b,

so the perturbed lower-level KKT conditions, the upper objective and its
gradients are written out here from the instance matrices alone. The
functions take the solver as an argument where they need fresh lower-level
solutions, so the self-test can hand them corrupted results.

Every check returns a ``Check``; a run counts each one as an operation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Sequence

import numpy as np

# Stationarity residual ||2y + Q2'x + q + A'lam||. The solver certifies
# 1e-10; the slack covers recomputation round-off at d = 200.
STATIONARITY_TOL = 1e-8
FEASIBILITY_TOL = 1e-9
COMPLEMENTARITY_TOL = 1e-9
# Directional derivatives must match a central difference to this share of
# ||grad||, on top of the difference quotient's round-off.
FD_RTOL = 1e-6
FD_STEPS = (1e-5, 1e-6, 1e-7)
# Monte-Carlo means recomputed from replayed draws must agree this closely.
REPLAY_RTOL = 1e-9


@dataclass(frozen=True)
class Check:
    name: str
    ok: bool
    detail: str


def upper_objective(inst, x: np.ndarray, y: np.ndarray) -> float:
    cx = inst.cx.mean(axis=0)
    cy = inst.cy.mean(axis=0)
    return float(x @ x + 0.1 * (x @ (inst.Q1 @ y)) + y @ y + cx @ x + cy @ y)


def upper_gradient_norm(inst, x: np.ndarray, y: np.ndarray) -> float:
    gx = 2.0 * x + 0.1 * (inst.Q1 @ y) + inst.cx.mean(axis=0)
    gy = 0.1 * (inst.Q1.T @ x) + 2.0 * y + inst.cy.mean(axis=0)
    return float(np.sqrt(gx @ gx + gy @ gy))


def kkt_residuals(inst, x, q, y, lam) -> dict:
    """Residuals of the perturbed lower-level KKT system at (y, lam)."""
    poly = inst.constraints
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    lam = np.asarray(lam, dtype=float)
    q = np.zeros(inst.d_l) if q is None else np.asarray(q, dtype=float)
    slack = poly.b - poly.B @ x - poly.A @ y
    grad = 2.0 * y + inst.Q2.T @ x + q + poly.A.T @ lam
    return {
        "stationarity": float(np.linalg.norm(grad)),
        "infeasibility": float(max(0.0, -np.min(slack))),
        "negative_multiplier": float(max(0.0, -np.min(lam))),
        "complementarity": float(np.max(np.abs(lam * slack))),
    }


def kkt_ok(res: dict) -> bool:
    return (res["stationarity"] <= STATIONARITY_TOL
            and res["infeasibility"] <= FEASIBILITY_TOL
            and res["negative_multiplier"] == 0.0
            and res["complementarity"] <= COMPLEMENTARITY_TOL)


def check_kkt(name: str, inst, cases: Sequence[tuple]) -> Check:
    """``cases`` holds (x, q, y, lam) tuples of lower-level solutions."""
    worst = {"stationarity": 0.0, "infeasibility": 0.0,
             "negative_multiplier": 0.0, "complementarity": 0.0}
    bad = 0
    active = []
    for x, q, y, lam in cases:
        res = kkt_residuals(inst, x, q, y, lam)
        bad += not kkt_ok(res)
        active.append(int(np.count_nonzero(np.asarray(lam) > 0)))
        for k, v in res.items():
            worst[k] = max(worst[k], v)
    detail = (f"{len(cases)} solves, {bad} failing; worst stationarity "
              f"{worst['stationarity']:.1e}, infeasibility {worst['infeasibility']:.1e}, "
              f"negative lam {worst['negative_multiplier']:.1e}, complementarity "
              f"{worst['complementarity']:.1e}; rows with lam>0 per solve "
              f"{min(active, default=0)}..{max(active, default=0)}")
    return Check(name, bool(cases) and bad == 0, detail)


def directional_fd_error(inst, solve: Callable, x, q, grad, u) -> tuple:
    """|grad'u - central difference of F_q along u| and its tolerance.

    F_q(x) = f(x, y*_q(x)) is piecewise smooth; the step shrinks until the
    solves at x +- h u keep the active set found at x, so the quotient does
    not straddle a kink. Returns (error, tolerance, step).
    """
    base = solve(x, q).active_set
    for h in FD_STEPS:
        sp = solve(x + h * u, q)
        sm = solve(x - h * u, q)
        if sp.active_set == base == sm.active_set:
            break
    else:
        return np.inf, 0.0, 0.0
    fp = upper_objective(inst, x + h * u, np.asarray(sp.y_hat))
    fm = upper_objective(inst, x - h * u, np.asarray(sm.y_hat))
    fd = (fp - fm) / (2.0 * h)
    roundoff = 64.0 * np.finfo(float).eps * (1.0 + abs(fp) + abs(fm)) / (2.0 * h)
    tol = FD_RTOL * float(np.linalg.norm(grad)) + roundoff
    return abs(fd - float(np.asarray(grad) @ u)), tol, h


def check_gradient_fd(name: str, inst, solve: Callable, cases: Sequence[tuple],
                      rng: np.random.Generator, n_dirs: int = 3) -> Check:
    """``cases`` holds (x, q, grad) triples: an implicit gradient of F_q at x."""
    bad = 0
    worst = 0.0
    for x, q, grad in cases:
        for _ in range(n_dirs):
            u = rng.standard_normal(len(x))
            u /= np.linalg.norm(u)
            err, tol, _h = directional_fd_error(inst, solve, x, q, grad, u)
            worst = max(worst, err / tol if tol > 0 else np.inf)
            bad += not err <= tol
    return Check(name, bool(cases) and bad == 0,
                 f"{len(cases)} points x {n_dirs} directions, {bad} failing; "
                 f"worst error/tolerance {worst:.2e}")


def check_smoothing_bound(name: str, inst, solve: Callable, sample_q: Callable,
                          x, radius: float, n_samples: int, res: dict) -> Check:
    """Re-derive a ``perturbation_error_check`` result from replayed draws.

    ``sample_q()`` must replay the perturbations the check drew. The exact
    F, the Monte-Carlo mean and its standard error are recomputed from
    KKT-checked solves, and the bound |mean - F| <= L r / mu + 3 stderr is
    tested with L taken as 1.5 times the largest ||grad f|| over all samples.
    """
    x = np.asarray(x, dtype=float)
    sol0 = solve(x, None)
    if not kkt_ok(kkt_residuals(inst, x, None, sol0.y_hat, sol0.lam)):
        return Check(name, False, "unperturbed solve fails the KKT recomputation")
    exact = upper_objective(inst, x, np.asarray(sol0.y_hat))
    vals = np.empty(n_samples)
    l_hat = 0.0
    kkt_bad = 0
    for i in range(n_samples):
        q = sample_q()
        sol = solve(x, q)
        y = np.asarray(sol.y_hat)
        kkt_bad += not kkt_ok(kkt_residuals(inst, x, q, y, sol.lam))
        vals[i] = upper_objective(inst, x, y)
        l_hat = max(l_hat, upper_gradient_norm(inst, x, y))
    mean = float(vals.mean())
    stderr = float(vals.std(ddof=1) / np.sqrt(n_samples))
    bound = 1.5 * l_hat * radius / inst.mu_g + 3.0 * stderr
    gap = abs(mean - exact)

    def close(a, b):
        return abs(a - b) <= REPLAY_RTOL * (1.0 + abs(b))

    agree = close(res["F"], exact) and close(res["Fbar_mc"], mean)
    ok = agree and kkt_bad == 0 and gap <= bound and bool(res["ok"])
    return Check(name, ok,
                 f"F {exact:.6g}, mean {mean:.6g} (reported {res['Fbar_mc']:.6g}), "
                 f"gap/bound {gap / bound:.3f}, {kkt_bad} KKT failures, "
                 f"reported ok={res['ok']}")


def window_weights(beta: float, K: int) -> np.ndarray:
    """beta^(t-i) (1 - beta) / (1 - beta^K) for the K window points."""
    w = np.array([beta ** (K - 1 - j) for j in range(K)])
    return w * (1.0 - beta) / (1.0 - beta ** K)


def check_window_replay(name: str, windows: Sequence[tuple]) -> Check:
    """``windows`` holds (replayed, reported) combined window gradients."""
    worst = max(float(np.linalg.norm(a - b)) / max(float(np.linalg.norm(a)), 1e-300)
                for a, b in windows)
    return Check(name, worst <= REPLAY_RTOL,
                 f"{len(windows)} windows, worst relative difference {worst:.1e}")


def check_paper_gates(texts: dict) -> List[Check]:
    """The d=10 benchmark gates, read from the dsblo and igd run CSVs: F
    decreases for both, the trailing-quarter mean of the dsblo window norms
    is at most 0.1, and the final objectives lie within 5% of each other."""
    cols = {lab: read_csv_columns(t) for lab, t in texts.items()}
    checks = []
    finals = {}
    for lab, c in cols.items():
        F = c["F"][~np.isnan(c["F"])]
        finals[lab] = F[-1]
        checks.append(Check(f"{lab}_objective_decreases", bool(F[-1] < F[0]),
                            f"F {F[0]:.6g} -> {F[-1]:.6g}"))
    st = cols["dsblo"]["stationarity_norm"]
    st = st[~np.isnan(st)]
    tail = float(st[int(0.75 * len(st)):].mean())
    checks.append(Check("dsblo_trailing_stationarity_le_0.1", tail <= 0.1,
                        f"trailing-quarter mean window norm {tail:.3g}"))
    gap = abs(finals["igd"] - finals["dsblo"]) / max(abs(finals["dsblo"]), 1e-9)
    checks.append(Check("dsblo_igd_final_F_within_5pct", gap <= 0.05,
                        f"relative gap {gap:.2e}"))
    return checks


def read_csv_columns(text: str) -> dict:
    """Columns of a run CSV; blank cells become NaN."""
    lines = text.strip().splitlines()
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return {name: np.array([float(r[j]) if r[j] else np.nan for r in rows])
            for j, name in enumerate(header)}


def masked_csv(text: str) -> List[str]:
    """CSV lines with the wall-time column blanked."""
    out = []
    for line in text.splitlines():
        cols = line.split(",")
        if cols[0] != "t":
            cols[1] = ""
        out.append(",".join(cols))
    return out
