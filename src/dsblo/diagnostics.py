"""Run diagnostics: exact objective evaluation, Monte-Carlo evaluation of
the perturbation-smoothed objective, windowed stationarity estimates, and
the finite-difference oracle used to cross-check analytic gradients."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import WindowIncomplete, WindowViolation
from .implicit_grad import implicit_gradient
from .lower_level import _ball_draw, solve_ll_quadratic, solve_qp_batch
from .problem import QuadraticBilevel, eval_f


def eval_F_exact(inst: QuadraticBilevel, x: np.ndarray, start=()) -> float:
    """Implicit objective f(x, y*(x)) with the unperturbed lower level
    solved exactly, starting from the rows in ``start``; this is the
    quantity the benchmark plots."""
    sol = solve_ll_quadratic(inst, x, None, start)
    return eval_f(inst, x, sol.y_hat)


def _mc_solves(inst: QuadraticBilevel, x: np.ndarray, radius: float,
               n_samples: int, rng: np.random.Generator, start=()) -> tuple:
    """The n_samples >= 1 exact lower-level solves at x, each under a fresh
    ball-uniform perturbation drawn from rng in stream order, and how many
    fell back to a single solve. The first draw is solved from the rows in
    ``start``, the others in one batch on its active set (``solve_qp_batch``);
    a draw the batch rejects is solved from the previous sample's set."""
    x = np.asarray(x, dtype=float)
    qs = np.array([_ball_draw(radius, rng, inst.d_l) for _ in range(n_samples)])
    sols = [solve_ll_quadratic(inst, x, qs[0], start)]
    poly = inst.constraints
    batch = solve_qp_batch(inst.hess_yy_diag, inst.Q2.T @ x + qs[1:], poly.A, poly.rhs(x),
                           sols[0].active_set)
    for q, sol in zip(qs[1:], batch):
        sols.append(sol if sol is not None else
                    solve_ll_quadratic(inst, x, q, sols[-1].active_set))
    return sols, batch.count(None)


@dataclass(frozen=True)
class StationarityWindow:
    """Geometric convex combination of the last K stored gradients; its norm
    upper-bounds the distance of 0 to the radius-delta_bar Goldstein
    subdifferential at the window anchor x_{t-K}. ``mc_fallbacks`` counts the
    Monte-Carlo solves that fell back to a single solve."""

    weights: np.ndarray
    combined: np.ndarray
    norm: float
    mc_fallbacks: int = 0


def window_weights(beta: float, K: int) -> np.ndarray:
    """Weights beta^{t-i} (1-beta) / (1-beta^K) for i = t-K+1..t; they are
    positive and sum to one (geometric series)."""
    powers = beta ** np.arange(K - 1, -1, -1, dtype=float)
    return powers * (1.0 - beta) / (1.0 - beta ** K)


def stationarity_window(log, t: int, beta: float, K: int,
                        inst: Optional[QuadraticBilevel] = None,
                        mc_samples: int = 0, radius: float = 1e-3,
                        rng: Optional[np.random.Generator] = None) -> StationarityWindow:
    """Windowed stationarity estimate at iteration t from a run log.

    By default combines the stored per-perturbation gradients. With
    ``mc_samples > 0`` each window point is re-evaluated as a Monte-Carlo
    average of exact implicit gradients over fresh perturbations (the
    higher-fidelity estimate of the smoothed gradient); each point's first
    solve starts from the previous point's last active set.
    """
    records = log.records
    if t < K:
        raise WindowIncomplete(f"window [t-K+1, t] needs t >= K (got t={t}, K={K})")
    if t > len(records):
        raise WindowIncomplete(f"log has only {len(records)} records (t={t})")
    w = window_weights(beta, K)
    idx = range(t - K + 1, t + 1)
    fallbacks = 0
    if mc_samples > 0:
        if inst is None or rng is None:
            raise ValueError("MC re-evaluation needs the instance and an rng")
        grads, start = [], ()
        for i in idx:
            x_bar = records[i - 1].x_bar
            sols, n_fallback = _mc_solves(inst, x_bar, radius, mc_samples, rng, start)
            start = sols[-1].active_set
            fallbacks += n_fallback
            grads.append(np.mean([implicit_gradient(inst, x_bar, s).grad for s in sols], axis=0))
        combined = np.einsum("i,ij->j", w, np.asarray(grads))
    else:
        # stationarity_profile's product, so the two agree bit for bit
        combined = w @ np.asarray([records[i - 1].grad for i in idx])
    return StationarityWindow(weights=w, combined=combined,
                              norm=float(np.linalg.norm(combined)), mc_fallbacks=fallbacks)


def stationarity_profile(log, beta: float, K: int) -> np.ndarray:
    """Window norms for every valid t; NaN where the window is incomplete."""
    records = log.records
    out = np.full(len(records), np.nan)
    if len(records) <= K:
        return out
    grads = np.asarray([r.grad for r in records])
    # windows[s] holds the K gradients of the window ending at t = K + 1 + s
    windows = sliding_window_view(grads, K, axis=0)[1:].transpose(0, 2, 1)
    combined = window_weights(beta, K) @ windows
    out[K:] = [np.linalg.norm(c) for c in combined]
    return out


def fd_gradient_oracle(evaluator: Callable[[np.ndarray], float], x: np.ndarray,
                       step: float) -> np.ndarray:
    """Central finite differences, one coordinate at a time."""
    if step <= 0:
        raise ValueError("step must be positive")
    x = np.asarray(x, dtype=float)
    grad = np.zeros_like(x)
    for j in range(x.size):
        e = np.zeros_like(x)
        e[j] = step
        grad[j] = (evaluator(x + e) - evaluator(x - e)) / (2.0 * step)
    return grad


def check_windows(log) -> dict:
    """Check the K-window invariants of a dsblo run over its records.

    For every t > K the window's step budget sum_{j=t-K}^{t-1} eta_j ||m_j||
    must stay within K/gamma1, and every sampled point x_bar_i,
    i = t-K+1..t, within delta_bar of the anchor x_{t-K}. Raises
    ``WindowViolation`` otherwise; returns the number of points checked and
    the largest displacement as a fraction of delta_bar. A run without a
    schedule or without a full window checks nothing.
    """
    sched = log.schedule
    n = len(log.records)
    if sched is None or n <= sched.K:
        return {"checked": 0, "violations": 0, "max_ratio": 0.0}
    K, delta_bar = sched.K, sched.delta_bar
    budget = np.array([r.eta * r.m_norm for r in log.records[:-1]])
    worst = float(sliding_window_view(budget, K).sum(axis=1).max())
    if worst > K / sched.gamma1 * (1 + 1e-9):
        raise WindowViolation(
            f"window step budget {worst:.6g} exceeds K/gamma1 = {K / sched.gamma1:.6g}")
    anchors = np.array([r.x for r in log.records[:n - K]])
    x_bar = np.array([r.x_bar for r in log.records])
    dist = np.array([np.linalg.norm(anchors - x_bar[lag:n - K + lag], axis=1)
                     for lag in range(1, K + 1)])
    far = float(dist.max())
    if far > delta_bar * (1 + 1e-9):
        raise WindowViolation(
            f"window displacement {far:.6g} exceeds delta_bar = {delta_bar:.6g}")
    return {"checked": int(dist.size), "violations": 0, "max_ratio": far / delta_bar}


def perturbation_error_check(inst: QuadraticBilevel, x: np.ndarray, radius: float,
                             n_samples: int, rng: np.random.Generator) -> dict:
    """Check |mean_q F_q(x) - F(x)| <= L_hat * radius / mu_g + 3 * stderr,
    the smoothing-error bound. ``Fbar_mc`` and ``stderr`` are the mean and
    standard error of F_q(x) over n_samples >= 2 fresh ball-uniform draws
    (``_mc_solves``); L_hat, standing in for the unobservable supremum of
    ||grad f||, is 1.5 times its largest norm over about 32 of the sampled
    (x, y) pairs. The exact F starts from the first sample's active set;
    ``mc_fallbacks`` counts the samples that fell back to a single solve."""
    if n_samples < 2:
        raise ValueError("n_samples must be at least 2")
    x = np.asarray(x, dtype=float)
    sols, fallbacks = _mc_solves(inst, x, radius, n_samples, rng)
    vals = np.array([eval_f(inst, x, sol.y_hat) for sol in sols])
    mean, stderr = float(vals.mean()), float(vals.std(ddof=1) / np.sqrt(n_samples))
    exact = eval_F_exact(inst, x, sols[0].active_set)
    l_hat = 1.5 * max(float(np.linalg.norm(np.concatenate(inst.grad_f(x, sol.y_hat))))
                      for sol in sols[::max(1, n_samples // 32)])
    bound = l_hat * radius / inst.mu_g + 3.0 * stderr
    gap = abs(mean - exact)
    return {
        "F": exact, "Fbar_mc": mean, "stderr": stderr, "l_hat": l_hat,
        "gap": gap, "bound": bound, "ok": bool(gap <= bound), "mc_fallbacks": fallbacks,
    }


# the report's trailing average covers this last share of the windows
TRAILING_FRACTION = 0.25


def build_report(log) -> dict:
    """Structured per-run diagnostics document.

    Reports both the min-norm window and the trailing average of window
    norms over the last ``TRAILING_FRACTION`` of the windows (no single
    canonical choice exists, so both are labeled), plus the
    window-invariant check the run already made (``RunLog.windows``).
    """
    sched = log.schedule
    doc = {
        "algorithm": log.algorithm,
        "iterations": len(log.records),
        "truncated": log.truncated,
        "displacement": log.windows if log.windows is not None else check_windows(log),
    }
    if sched is not None and len(log.records) > sched.K:
        prof = stationarity_profile(log, sched.beta, sched.K)
        valid = prof[~np.isnan(prof)]
        tail = valid[int(len(valid) * (1 - TRAILING_FRACTION)):]
        best_t = int(np.nanargmin(prof)) + 1
        doc["stationarity"] = {
            "estimator": "stored per-perturbation gradients",
            "min_window_norm": float(np.min(valid)),
            "min_window_t": best_t,
            "trailing_avg": float(tail.mean()),
            "trailing_fraction": TRAILING_FRACTION,
        }
    f_vals = [(r.t, r.F_exact) for r in log.records if r.F_exact is not None]
    if f_vals:
        doc["objective"] = {
            "first": f_vals[0][1], "last": f_vals[-1][1],
            "min": min(v for _, v in f_vals),
        }
    doc["timings"] = log.timings
    return doc
