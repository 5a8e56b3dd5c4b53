"""Implicit gradients through the lower-level KKT system.

With H = hess_yy g (the constant diagonal ``hess_yy_diag``), M = jac_xy g
(the constant Q2') and (Abar, Bbar) the active constraint rows, the
solution-map Jacobians solve

    H @ jac_y + M + Abar' @ jac_lambda = 0
    Abar @ jac_y + Bbar = 0.

The outer loop needs only grad_x f + jac_y' grad_y f. The KKT matrix is
symmetric, so one adjoint solve with right-hand side (grad_y f, 0) gives
it without forming jac_y (the QP-layer backward pass of Amos & Kolter,
2017). That solve is the lower level's equality KKT solve
``lower_level.equality_solve`` with c = grad_y f and u = 0, whose point v
and multipliers w give

    grad = grad_x f + M' v + Bbar' w.

``jacobians`` forms jac_y and jac_lambda; it is the reference the tests and
``verify`` check against. Both need strict complementarity and independent
active rows, and check both.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np

from .errors import DegenerateActiveSet
from .lower_level import LLSolution, RANK_TOL, check_rank, diagonal_solver, equality_solve
from .problem import QuadraticBilevel


@dataclass(frozen=True)
class ImplicitGradient:
    """Gradient of the perturbed implicit objective at one point."""

    grad: np.ndarray


def _active_rows(inst: QuadraticBilevel, active: tuple, lam: np.ndarray, smin: Optional[float]):
    """(Abar, Bbar) of a nonempty active set, after checking strict
    complementarity on every row of multipliers in ``lam`` and the rank of
    the active rows (reusing the solver's rank check ``smin`` where it made
    one)."""
    active = list(active)
    margin = float(np.min(lam[..., active]))
    if not margin > 0.0:
        raise DegenerateActiveSet(
            f"strict complementarity fails (smallest active multiplier {margin:.2e})"
        )
    poly = inst.constraints
    Abar = poly.A[active]
    smin = check_rank(Abar) if smin is None else smin
    if smin < RANK_TOL:
        raise DegenerateActiveSet(
            f"active rows nearly rank deficient (smallest singular value {smin:.2e})"
        )
    return Abar, poly.B[active]


def _adjoint(inst: QuadraticBilevel, lam, active: tuple, gx, gy,
             smin: Optional[float] = None) -> np.ndarray:
    """gx + jac_y' gy from one reduced KKT solve (see the module docstring)
    at a lower-level solution with multipliers lam and active rows
    ``active`` (smallest singular value ``smin`` where the solver checked
    it). H is the constant diagonal ``hess_yy_diag`` and M the constant Q2',
    so the solution itself is not needed.

    For n draws that share the active set, lam, gx and gy hold one row per
    draw and the result one gradient row per draw, all from one solve.
    Every row's multipliers are checked."""
    hsolve = diagonal_solver(inst.hess_yy_diag)
    M = inst.Q2.T
    gx = np.asarray(gx, dtype=float)
    gy = np.asarray(gy, dtype=float).T
    if not active:
        return gx - (M.T @ hsolve(gy)).T
    Abar, Bbar = _active_rows(inst, active, np.asarray(lam), smin)
    try:
        _, w, v = equality_solve(hsolve, hsolve(gy), Abar, 0.0)
    except np.linalg.LinAlgError as exc:
        raise DegenerateActiveSet("singular reduced KKT system") from exc
    return gx + (M.T @ v).T + (Bbar.T @ w).T


def jacobians(inst: QuadraticBilevel, x: np.ndarray, sol: LLSolution):
    """Solution-map Jacobians (jac_y, jac_lambda) at a certified LL solve,
    the dense reference for the adjoint gradient; same checks and errors."""
    hsolve = diagonal_solver(inst.hess_yy_diag)
    M = inst.Q2.T
    if not sol.active_set:
        return -hsolve(M), np.zeros((0, M.shape[1]))
    Abar, Bbar = _active_rows(inst, sol.active_set, sol.lam, sol.rank_smin)
    Hinv_M = hsolve(M)
    Hinv_At = hsolve(Abar.T)
    try:
        jac_lambda = -np.linalg.solve(Abar @ Hinv_At, Abar @ Hinv_M - Bbar)
    except np.linalg.LinAlgError as exc:
        raise DegenerateActiveSet("singular reduced KKT system") from exc
    jac_y = -Hinv_M - Hinv_At @ jac_lambda
    return jac_y, jac_lambda


def implicit_gradient(inst: QuadraticBilevel, x: np.ndarray, sol: LLSolution) -> ImplicitGradient:
    """Full-batch implicit gradient grad_x f + jac_y' grad_y f at (x, y_hat)."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(sol.y_hat)
    gx, gy = inst.grad_f(x, y)
    return ImplicitGradient(grad=_adjoint(inst, sol.lam, sol.active_set, gx, gy,
                                          sol.rank_smin))


def sampled_implicit_gradient(inst: QuadraticBilevel, x: np.ndarray, sol: LLSolution,
                              xi: Union[int, Sequence[int]]) -> ImplicitGradient:
    """Implicit gradient of component ``xi``; averaging over all components
    recovers ``implicit_gradient`` exactly (finite sum).

    A sequence ``xi`` gives the mean over its components from one adjoint
    solve: the gradient is linear in (grad_x f, grad_y f), so those are
    averaged first.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(sol.y_hat)
    parts = [inst.sampled_grad_f(x, y, int(i)) for i in np.atleast_1d(xi)]
    gx = np.mean([p[0] for p in parts], axis=0)
    gy = np.mean([p[1] for p in parts], axis=0)
    return ImplicitGradient(grad=_adjoint(inst, sol.lam, sol.active_set, gx, gy,
                                          sol.rank_smin))
