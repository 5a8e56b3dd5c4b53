"""Run diagnostics: exact objective evaluation, Monte-Carlo evaluation of
the perturbation-smoothed objective, windowed stationarity estimates, and
the finite-difference oracle used to cross-check analytic gradients."""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import WindowIncomplete, WindowViolation
from .implicit_grad import implicit_gradient
from .lower_level import sample_perturbation, solve_ll_quadratic
from .problem import QuadraticBilevel, eval_f


def eval_F_exact(inst: QuadraticBilevel, x: np.ndarray) -> float:
    """Implicit objective f(x, y*(x)) with the unperturbed lower level
    solved exactly; this is the quantity the benchmark plots."""
    sol = solve_ll_quadratic(inst, x, None)
    return eval_f(inst, x, sol.y_hat)


def _mc_solves(inst: QuadraticBilevel, x: np.ndarray, radius: float,
               n_samples: int, rng: np.random.Generator):
    """The Monte-Carlo loop of the perturbation-smoothed objective: yields
    n_samples exact lower-level solves at x, each under a fresh ball-uniform
    perturbation drawn from rng in stream order."""
    for _ in range(n_samples):
        yield solve_ll_quadratic(inst, x, sample_perturbation(radius, rng, inst.d_l))


def _mc_objective(inst: QuadraticBilevel, x: np.ndarray, radius: float,
                  n_samples: int, rng: np.random.Generator):
    """Mean and standard error of F_q(x) over ``_mc_solves``, and the
    lower-level solutions y_q behind them."""
    if n_samples < 2:
        raise ValueError("n_samples must be at least 2")
    ys = [sol.y_hat for sol in _mc_solves(inst, x, radius, n_samples, rng)]
    vals = np.array([eval_f(inst, x, y) for y in ys])
    return float(vals.mean()), float(vals.std(ddof=1) / np.sqrt(n_samples)), ys


def eval_Fbar_mc(inst: QuadraticBilevel, x: np.ndarray, radius: float,
                 n_samples: int, rng: np.random.Generator):
    """Monte-Carlo mean and standard error of the perturbed implicit
    objective over fresh ball-uniform perturbations."""
    mean, stderr, _ = _mc_objective(inst, x, radius, n_samples, rng)
    return mean, stderr


@dataclass(frozen=True)
class StationarityWindow:
    """Geometric convex combination of the last K stored gradients; its norm
    upper-bounds the distance of 0 to the radius-delta_bar Goldstein
    subdifferential at the window anchor x_{t-K}."""

    t: int
    K: int
    weights: np.ndarray
    combined: np.ndarray
    norm: float


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
    higher-fidelity estimate of the smoothed gradient).
    """
    records = log.records
    if t < K:
        raise WindowIncomplete(f"window [t-K+1, t] needs t >= K (got t={t}, K={K})")
    if t > len(records):
        raise WindowIncomplete(f"log has only {len(records)} records (t={t})")
    w = window_weights(beta, K)
    idx = range(t - K + 1, t + 1)
    if mc_samples > 0:
        if inst is None or rng is None:
            raise ValueError("MC re-evaluation needs the instance and an rng")
        grads = []
        for i in idx:
            x_bar = records[i - 1].x_bar
            sols = _mc_solves(inst, x_bar, radius, mc_samples, rng)
            grads.append(np.mean([implicit_gradient(inst, x_bar, s).grad for s in sols], axis=0))
    else:
        grads = [records[i - 1].grad for i in idx]
    combined = np.einsum("i,ij->j", w, np.asarray(grads))
    return StationarityWindow(t=t, K=K, weights=w, combined=combined,
                              norm=float(np.linalg.norm(combined)))


def stationarity_profile(log, beta: float, K: int) -> np.ndarray:
    """Window norms for every valid t; NaN where the window is incomplete."""
    records = log.records
    out = np.full(len(records), np.nan)
    if len(records) <= K:
        return out
    w = window_weights(beta, K)
    grads = np.asarray([r.grad for r in records])
    for t in range(K + 1, len(records) + 1):
        combined = w @ grads[t - K:t]
        out[t - 1] = np.linalg.norm(combined)
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


def estimate_grad_norm_bound(inst: QuadraticBilevel, points: Sequence, safety: float = 1.5) -> float:
    """Upper-level gradient-norm bound estimated by sampling ||grad f|| over
    visited (x, y) pairs, inflated by a safety factor. Stands in for the
    unobservable supremum in the perturbation-error bound."""
    best = 0.0
    for x, y in points:
        gx, gy = inst.grad_f(np.asarray(x), np.asarray(y))
        best = max(best, float(np.linalg.norm(np.concatenate([gx, gy]))))
    return safety * best


def perturbation_error_check(inst: QuadraticBilevel, x: np.ndarray, radius: float,
                             n_samples: int, rng: np.random.Generator) -> dict:
    """Check |mean_q F_q(x) - F(x)| <= L_hat * radius / mu_g + 3 * stderr,
    the smoothing-error bound with a sampled gradient-norm estimate; needs
    n_samples >= 2 for the standard error."""
    x = np.asarray(x, dtype=float)
    mean, stderr, ys = _mc_objective(inst, x, radius, n_samples, rng)
    exact = eval_F_exact(inst, x)
    pairs = [(x, y) for y in ys[::max(1, n_samples // 32)]]
    l_hat = estimate_grad_norm_bound(inst, pairs)
    bound = l_hat * radius / inst.mu_g + 3.0 * stderr
    gap = abs(mean - exact)
    return {
        "F": exact, "Fbar_mc": mean, "stderr": stderr, "l_hat": l_hat,
        "gap": gap, "bound": bound, "ok": bool(gap <= bound),
    }


def build_report(log, trailing_fraction: float = 0.25) -> str:
    """Structured per-run diagnostics document (JSON text).

    Reports both the min-norm window and the trailing average of window
    norms (no single canonical choice exists, so both are labeled), plus the
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
        tail = valid[int(len(valid) * (1 - trailing_fraction)):]
        best_t = int(np.nanargmin(prof)) + 1
        doc["stationarity"] = {
            "estimator": "stored per-perturbation gradients",
            "min_window_norm": float(np.min(valid)),
            "min_window_t": best_t,
            "trailing_avg": float(tail.mean()),
            "trailing_fraction": trailing_fraction,
        }
    f_vals = [(r.t, r.F_exact) for r in log.records if r.F_exact is not None]
    if f_vals:
        doc["objective"] = {
            "first": f_vals[0][1], "last": f_vals[-1][1],
            "min": min(v for _, v in f_vals),
        }
    doc["timings"] = log.timings
    return json.dumps(doc, indent=1)
