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
``ActiveSetCache.equality_solve`` on the instance's ``active_set_cache``
with c = grad_y f and u = 0, whose point v and multipliers w give

    grad = grad_x f + M' v + Bbar' w.

``jacobians`` forms jac_y and jac_lambda, the same solve with c = M and
u = -Bbar; it is the reference the tests and ``verify`` check against. Both
need strict complementarity and independent active rows, and check both;
the rank check is the cache's.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

from .errors import DegenerateActiveSet
from .lower_level import LLSolution
from .problem import QuadraticBilevel


@dataclass(frozen=True)
class ImplicitGradient:
    """Gradient of the perturbed implicit objective at one point."""

    grad: np.ndarray


def diagonal_solver(H: np.ndarray):
    """Z -> H^-1 Z, Z a vector or a matrix, for a positive Hessian diagonal H."""
    return lambda Z: Z / H if Z.ndim == 1 else Z / H[:, None]


def _active_rows(inst: QuadraticBilevel, active: tuple, lam: np.ndarray) -> np.ndarray:
    """Bbar of a nonempty active set, after checking strict complementarity
    on every row of multipliers in ``lam`` and, through the instance's
    ``active_set_cache``, the rank of the active rows."""
    active = list(active)
    margin = float(np.min(lam[..., active]))
    if not margin > 0.0:
        raise DegenerateActiveSet(
            f"strict complementarity fails (smallest active multiplier {margin:.2e})"
        )
    inst.active_set_cache.check_rank(tuple(active))
    return inst.constraints.B[active]


def _kkt_solve(inst: QuadraticBilevel, active: tuple, Hic: np.ndarray, uw) -> tuple:
    """``ActiveSetCache.equality_solve`` on the active rows, a singular
    system raised as ``DegenerateActiveSet``."""
    try:
        return inst.active_set_cache.equality_solve(tuple(active), Hic, uw)
    except np.linalg.LinAlgError as exc:
        raise DegenerateActiveSet("singular reduced KKT system") from exc


def _adjoint(inst: QuadraticBilevel, lam, active: tuple, gx, gy) -> np.ndarray:
    """gx + jac_y' gy from one reduced KKT solve (see the module docstring)
    at a lower-level solution with multipliers lam and active rows
    ``active``. H and M are constant, so the solution itself is not needed.

    For n draws that share the active set, lam, gx and gy hold one row per
    draw and the result one gradient row per draw, all from one solve.
    Every row's multipliers are checked."""
    M = inst.Q2.T
    gx = np.asarray(gx, dtype=float)
    Higy = diagonal_solver(inst.hess_yy_diag)(np.asarray(gy, dtype=float).T)
    if not active:
        return gx - (M.T @ Higy).T
    Bbar = _active_rows(inst, active, np.asarray(lam))
    w, v = _kkt_solve(inst, active, Higy, 0.0)
    return gx + (M.T @ v).T + (Bbar.T @ w).T


def jacobians(inst: QuadraticBilevel, sol: LLSolution):
    """Solution-map Jacobians (jac_y, jac_lambda) at a certified LL solve,
    the dense reference for the adjoint gradient; same checks and errors."""
    HiM = diagonal_solver(inst.hess_yy_diag)(inst.Q2.T)
    if not sol.active_set:
        return -HiM, np.zeros((0, HiM.shape[1]))
    Bbar = _active_rows(inst, sol.active_set, sol.lam)
    jac_lambda, jac_y = _kkt_solve(inst, sol.active_set, HiM, -Bbar.T)
    return jac_y, jac_lambda


def implicit_gradient(inst: QuadraticBilevel, x: np.ndarray, sol: LLSolution) -> ImplicitGradient:
    """Full-batch implicit gradient grad_x f + jac_y' grad_y f at (x, y_hat)."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(sol.y_hat)
    gx, gy = inst.grad_f(x, y)
    return ImplicitGradient(grad=_adjoint(inst, sol.lam, sol.active_set, gx, gy))


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
    return ImplicitGradient(grad=_adjoint(inst, sol.lam, sol.active_set, gx, gy))
