"""Run diagnostics: exact objective evaluation, Monte-Carlo evaluation of
the perturbation-smoothed objective, windowed stationarity estimates, and
the finite-difference oracle used to cross-check analytic gradients."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import NonFinite, WindowIncomplete, WindowViolation
from .implicit_grad import _gradient
from .lower_level import TAU_ACT, _ball_draws, _dots, solve_ll_quadratic, solve_qp_batch
from .problem import QuadraticBilevel, eval_f, eval_f_rows


def eval_F_exact(inst: QuadraticBilevel, x: np.ndarray, start=()) -> float:
    """Implicit objective f(x, y*(x)) with the unperturbed lower level
    solved exactly, starting from the rows in ``start`` (without one, from
    the rows the unconstrained minimum violates or binds; see
    ``solve_qp``); this is the quantity the benchmark plots."""
    sol = solve_ll_quadratic(inst, x, None, start)
    return eval_f(inst, x, sol.y_hat)


# rows per block of eval_F_exact_rows, which bounds its temporaries
F_BLOCK = 256


def _mv(M: np.ndarray, V: np.ndarray) -> np.ndarray:
    """M @ v for every row v of V, one matrix-vector product per row, so
    each row equals the 1-D product bit for bit (a single V @ M.T does not)."""
    return (M[None] @ V[:, :, None])[..., 0]


def eval_F_exact_rows(inst: QuadraticBilevel, xs, starts) -> np.ndarray:
    """``eval_F_exact(inst, xs[i], starts[i])`` for every point i, bit for bit.

    In blocks of ``F_BLOCK`` points, y = -H^-1 c is formed for every point
    with the operand layout of ``solve_ll_quadratic`` and ``eval_f``. Where
    every slack there exceeds ``TAU_ACT`` (and y is finite), ``solve_qp``
    returns that y whatever its start, so F = f(x, y) is taken from it.
    Every other point, a NaN, infinite or binding one, goes through
    ``eval_F_exact`` with its own start, and raises what that raises."""
    poly = inst.constraints
    F = np.empty(len(xs))
    for lo in range(0, len(xs), F_BLOCK):
        X = np.array(xs[lo:lo + F_BLOCK], dtype=float)
        try:  # as in solve_qp: only an infinite point warns here
            C = _mv(inst.Q2.T, X) + 0.0  # solve_ll_quadratic adds a zero q
            Y = -(C / inst.hess_yy_diag)
            slack = (poly.b - _mv(poly.B, X)) - _mv(poly.A, Y)
        except RuntimeWarning as exc:
            raise NonFinite(f"non-finite point: {exc}") from exc
        fast = np.isfinite(Y).all(axis=1) & (slack > TAU_ACT).all(axis=1)
        Xf, Yf = X[fast], Y[fast]
        base = _dots(Xf, Xf) + 0.1 * _dots(Xf, _mv(inst.Q1, Yf)) + _dots(Yf, Yf)
        lin = (_dots(np.broadcast_to(inst.cx_mean, Xf.shape), Xf)
               + _dots(np.broadcast_to(inst.cy_mean, Yf.shape), Yf))
        Fb = F[lo:lo + len(X)]
        Fb[fast] = base + lin
        for i in np.flatnonzero(~fast):
            Fb[i] = eval_F_exact(inst, X[i], starts[lo + i])
    return F


def _mc_solves(inst: QuadraticBilevel, X: np.ndarray, Q: np.ndarray, start=None) -> tuple:
    """Exact lower-level solves of the perturbations in the rows of ``Q`` at
    the points in the rows of ``X`` (or at the one point ``X``).

    A given ``start`` first has every draw batched on those rows
    (``solve_qp_batch``). Then, until every draw is solved, the first draw
    left is solved on its own from the last rows tried (at first from none,
    so from the rows its unconstrained minimum violates or binds), and the
    others are batched on its active set. Returns Y and Lam
    (one row of y and of the multipliers per draw), the draws' indices by
    active set, and how many draws fell back to a solve of their own: one
    per batch that rejected a draw."""
    n = Q.shape[0]
    X = np.broadcast_to(X, (n, inst.d_u))
    poly = inst.constraints
    C = X @ inst.Q2 + Q
    U = poly.b - X @ poly.B.T
    Y = np.empty((n, inst.d_l))
    Lam = np.empty((n, poly.k))
    groups: dict = {}
    fallbacks = 0

    def batch(idx: np.ndarray, work: tuple) -> np.ndarray:
        nonlocal fallbacks
        ok, Y[idx], Lam[idx] = solve_qp_batch(inst.active_set_cache, C[idx], U[idx], work)
        groups.setdefault(tuple(sorted(work)), []).extend(idx[ok].tolist())
        fallbacks += not ok.all()
        return idx[~ok]

    pending, rows = np.arange(n), ()
    if start is not None:
        pending, rows = batch(pending, start), start
    while pending.size:
        i = pending[0]
        sol = solve_ll_quadratic(inst, X[i], Q[i], rows)
        Y[i], Lam[i], rows = sol.y_hat, sol.lam, sol.active_set
        groups.setdefault(rows, []).append(int(i))
        pending = batch(pending[1:], rows) if pending.size > 1 else pending[1:]
    return Y, Lam, groups, fallbacks


@dataclass(frozen=True)
class StationarityWindow:
    """Geometric convex combination of Monte-Carlo gradients at the last K
    window points; its norm estimates the distance of 0 to the
    radius-delta_bar Goldstein subdifferential at the window anchor
    x_{t-K}. ``mc_fallbacks`` counts the draws that fell back to a solve of
    their own."""

    combined: np.ndarray
    norm: float
    mc_fallbacks: int


def window_weights(beta: float, K: int) -> np.ndarray:
    """Weights beta^{t-i} (1-beta) / (1-beta^K) for i = t-K+1..t; they are
    positive and sum to one (geometric series)."""
    powers = beta ** np.arange(K - 1, -1, -1, dtype=float)
    return powers * (1.0 - beta) / (1.0 - beta ** K)


def stationarity_window(log, t: int, beta: float, K: int, inst: QuadraticBilevel,
                        mc_samples: int, radius: float,
                        rng: np.random.Generator) -> StationarityWindow:
    """Windowed stationarity estimate at iteration t from a run log: each
    window point is re-evaluated as a Monte-Carlo average of exact implicit
    gradients over ``mc_samples`` fresh perturbations of norm at most
    ``radius`` (the higher-fidelity estimate of the smoothed gradient). The
    K * mc_samples draws are solved together (``_mc_solves``), and the
    draws on one active set are differentiated together by
    ``implicit_grad._gradient``: one adjoint solve for a nonempty set, the
    instance's ``interior_gradient`` for the interior ones.
    ``stationarity_profile`` gives the window norms of the stored
    gradients.
    """
    if mc_samples < 1:
        raise ValueError("mc_samples must be at least 1")
    records = log.records
    if t < K:
        raise WindowIncomplete(f"window [t-K+1, t] needs t >= K (got t={t}, K={K})")
    if t > len(records):
        raise WindowIncomplete(f"log has only {len(records)} records (t={t})")
    X = np.repeat([records[i - 1].x_bar for i in range(t - K + 1, t + 1)], mc_samples, axis=0)
    Q = _ball_draws(radius, rng, inst.d_l, K * mc_samples)[0]
    Y, Lam, groups, fallbacks = _mc_solves(inst, X, Q)
    G = np.empty_like(X)
    for active, rows in groups.items():
        G[rows] = _gradient(inst, X[rows], Y[rows], Lam[rows], active, inst.cx_mean,
                            inst.cy_mean, inst.interior_gradient.g0)
    combined = np.einsum("i,ij->j", window_weights(beta, K),
                         G.reshape(K, mc_samples, -1).mean(axis=1))
    return StationarityWindow(combined=combined, norm=math.sqrt(combined @ combined),
                              mc_fallbacks=fallbacks)


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
    # sqrt(c @ c) is bit for bit the 1-D norm; a norm along axis 1 is not
    out[K:] = np.sqrt(_dots(combined, combined))
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
    ``WindowViolation`` otherwise; returns the number of points checked,
    K (n - K) for n records, and the largest displacement as a fraction of
    delta_bar. The displacements are taken one lag at a time into a running
    maximum per anchor, so memory stays O(n d), where the K x (n - K)
    matrix of them would not. A run without a schedule or without a full
    window checks nothing.
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
    # each anchor's largest squared displacement, one lag at a time, summed
    # as np.linalg.norm sums; sqrt is monotone, so one sqrt of the maximum
    # gives the largest norm bit for bit
    far = np.zeros(n - K)
    diff, sq = np.empty(anchors.shape), np.empty(n - K)
    for lag in range(1, K + 1):
        np.subtract(anchors, x_bar[lag:n - K + lag], out=diff)
        np.multiply(diff, diff, out=diff)
        np.maximum(far, np.add.reduce(diff, axis=1, out=sq), out=far)
    far = math.sqrt(far.max())
    if far > delta_bar * (1 + 1e-9):
        raise WindowViolation(
            f"window displacement {far:.6g} exceeds delta_bar = {delta_bar:.6g}")
    return {"checked": K * (n - K), "violations": 0, "max_ratio": far / delta_bar}


def perturbation_error_check(inst: QuadraticBilevel, x: np.ndarray, radius: float,
                             n_samples: int, rng: np.random.Generator) -> dict:
    """Check |mean_q F_q(x) - F(x)| <= L_hat * radius / mu_g + 3 * stderr,
    the smoothing-error bound. ``Fbar_mc`` and ``stderr`` are the mean and
    standard error of F_q(x) over n_samples >= 2 fresh ball-uniform draws;
    L_hat, standing in for the unobservable supremum of ||grad f||, is 1.5
    times its largest norm over about 32 of the sampled (x, y) pairs. The
    exact F is solved first, without a start (so from the rows the
    unconstrained minimum violates or binds), and the draws are batched on
    its active set (``_mc_solves``); ``mc_fallbacks`` counts the draws that
    fell back to a solve of their own."""
    if n_samples < 2:
        raise ValueError("n_samples must be at least 2")
    x = np.asarray(x, dtype=float)
    Q = _ball_draws(radius, rng, inst.d_l, n_samples)[0]
    sol = solve_ll_quadratic(inst, x, None)
    exact = eval_f(inst, x, sol.y_hat)
    Y, _, _, fallbacks = _mc_solves(inst, x, Q, sol.active_set)
    vals = eval_f_rows(inst, x, Y)
    mean, stderr = float(vals.mean()), float(vals.std(ddof=1) / np.sqrt(n_samples))
    gx, gy = inst._grad_f(x, Y[::max(1, n_samples // 32)], inst.cx_mean, inst.cy_mean)
    l_hat = 1.5 * math.sqrt(float(np.max((gx * gx).sum(axis=1) + (gy * gy).sum(axis=1))))
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
    norms (``RunLog.stationarity``) over the last ``TRAILING_FRACTION`` of
    the windows (no single canonical choice exists, so both are labeled),
    plus the window-invariant check the run made (``RunLog.windows``).
    """
    sched = log.schedule
    doc = {
        "algorithm": log.algorithm,
        "iterations": len(log.records),
        "truncated": log.truncated,
        "displacement": log.windows,
    }
    if sched is not None and len(log.records) > sched.K:
        prof = log.stationarity
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
