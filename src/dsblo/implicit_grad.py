"""Closed-form implicit gradients through the lower-level KKT system.

With H = hess_yy g, M = jac_xy g and (Abar, Bbar) the active constraint
rows, the solution-map Jacobians solve

    H @ jac_y + M + Abar' @ jac_lambda = 0
    Abar @ jac_y + Bbar = 0

giving  jac_lambda = -(Abar H^-1 Abar')^-1 (Abar H^-1 M - Bbar)  and
``jac_y = H^-1 (-M - Abar' jac_lambda)``. The upper-level gradient then
chains through jac_y. Valid where strict complementarity holds and the
active rows are independent; both are checked.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import DegenerateActiveSet, NotSPD
from .lower_level import LLSolution, RANK_TOL, sc_margin
from .problem import Problem


@dataclass(frozen=True)
class ImplicitGradient:
    """Gradient of the perturbed implicit objective at one point, with the
    intermediate solution-map Jacobians kept for diagnostics."""

    grad: np.ndarray
    jac_y: np.ndarray        # (d_l, d_u)
    jac_lambda: np.ndarray   # (n_active, d_u)
    used_approx: bool
    component: Optional[int] = None


def _hessians(problem: Problem, x: np.ndarray, y: np.ndarray):
    H = np.asarray(problem.hess_yy_g(x, y), dtype=float)
    M = np.asarray(problem.jac_xy_g(x, y), dtype=float)
    return H, M


def jacobians(problem: Problem, x: np.ndarray, sol: LLSolution):
    """Solution-map Jacobians (jac_y, jac_lambda) at a certified LL solve.

    Requires a strictly complementary solution with independent active rows;
    raises ``DegenerateActiveSet`` otherwise and ``NotSPD`` if the Hessian
    factorization fails.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(sol.y_hat, dtype=float)
    H, M = _hessians(problem, x, y)
    d_l, d_u = M.shape

    try:
        np.linalg.cholesky(H)
    except np.linalg.LinAlgError as exc:
        raise NotSPD("hess_yy_g is not positive definite") from exc

    active = list(sol.active_set)
    if not active:
        return -np.linalg.solve(H, M), np.zeros((0, d_u))

    margin = sc_margin(sol)
    if not margin > 0.0:
        raise DegenerateActiveSet(
            f"strict complementarity fails (smallest active multiplier {margin:.2e})"
        )
    poly = problem.constraints
    Abar = poly.A[active]
    Bbar = poly.B[active]
    smin = np.linalg.svd(Abar, compute_uv=False)[-1]
    if smin < RANK_TOL:
        raise DegenerateActiveSet(
            f"active rows nearly rank deficient (smallest singular value {smin:.2e})"
        )

    Hinv_M = np.linalg.solve(H, M)
    Hinv_At = np.linalg.solve(H, Abar.T)
    S = Abar @ Hinv_At
    try:
        jac_lambda = -np.linalg.solve(S, Abar @ Hinv_M - Bbar)
    except np.linalg.LinAlgError as exc:
        raise DegenerateActiveSet("singular reduced KKT system") from exc
    jac_y = -Hinv_M - Hinv_At @ jac_lambda
    return jac_y, jac_lambda


def implicit_gradient(problem: Problem, x: np.ndarray, sol: LLSolution) -> ImplicitGradient:
    """Full-batch implicit gradient grad_x f + jac_y' grad_y f at (x, y_hat)."""
    x = np.asarray(x, dtype=float)
    jac_y, jac_lambda = jacobians(problem, x, sol)
    gx, gy = problem.grad_f(x, np.asarray(sol.y_hat))
    return ImplicitGradient(
        grad=np.asarray(gx, dtype=float) + jac_y.T @ np.asarray(gy, dtype=float),
        jac_y=jac_y,
        jac_lambda=jac_lambda,
        used_approx=sol.method != "active_set",
    )


def sampled_implicit_gradient(problem: Problem, x: np.ndarray, sol: LLSolution,
                              xi: int) -> ImplicitGradient:
    """Single-component implicit gradient; averaging over all components
    recovers ``implicit_gradient`` exactly (finite sum)."""
    x = np.asarray(x, dtype=float)
    if problem.sampled_grad_f is None:
        raise ValueError("problem provides no sampled gradient")
    jac_y, jac_lambda = jacobians(problem, x, sol)
    gx, gy = problem.sampled_grad_f(x, np.asarray(sol.y_hat), xi)
    return ImplicitGradient(
        grad=np.asarray(gx, dtype=float) + jac_y.T @ np.asarray(gy, dtype=float),
        jac_y=jac_y,
        jac_lambda=jac_lambda,
        used_approx=sol.method != "active_set",
        component=xi,
    )
