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

With no active row jac_y = -H^-1 M is constant, and the gradient is the
instance's affine map ``QuadraticBilevel.interior_gradient`` of (x, y);
the adjoint solve is made only on a nonempty active set. ``_gradient``
makes that choice for the full batch, a component batch (through the
means of its linear terms) and the Monte-Carlo window's rows alike.

``jacobians`` forms jac_y and jac_lambda, the same solve with c = M and
u = -Bbar but made with ``np.linalg.solve`` of S, where the adjoint
multiplies by the cached S^-1; it is the reference the tests and
``verify`` check against. Both need strict complementarity and independent
active rows, and check both; the rank check, and the
``DegenerateActiveSet`` a singular solve raises, are the cache's.
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


def _adjoint(inst: QuadraticBilevel, lam, active: tuple, gx, gy) -> np.ndarray:
    """gx + jac_y' gy from one reduced KKT solve (see the module docstring)
    at a lower-level solution with multipliers lam and the nonempty active
    rows ``active``. H and M are constant, so the solution itself is not
    needed.

    For n draws that share the active set, lam, gx and gy hold one row per
    draw and the result one gradient row per draw, all from one solve.
    Every row's multipliers are checked. M' is Q2 itself. lam, gx and gy
    are float arrays, taken as given."""
    Bbar = _active_rows(inst, active, lam)
    w, v = inst.active_set_cache.equality_solve(tuple(active), (gy / inst.hess_yy_diag).T, 0.0)
    return gx + (inst.Q2 @ v).T + (Bbar.T @ w).T


def _gradient(inst: QuadraticBilevel, x, y, lam, active: tuple, cx, cy, g0) -> np.ndarray:
    """grad_x f + jac_y' grad_y f at the lower-level solution y, with
    multipliers lam, on the active rows ``active``, for the upper-level
    linear terms cx, cy and their interior offset g0 = cx - Q2 H^-1 cy:
    the instance's interior map on an empty active set, ``_adjoint`` of
    ``_grad_f`` otherwise. x, y and lam are one solve's float vectors, or
    one row per draw of draws that share the active set; their shapes are
    taken as given."""
    if not active:
        return inst.interior_gradient(x, y, g0)
    gx, gy = inst._grad_f(x, y, cx, cy)
    return _adjoint(inst, lam, active, gx, gy)


def jacobians(inst: QuadraticBilevel, sol: LLSolution):
    """Solution-map Jacobians (jac_y, jac_lambda) at a certified LL solve,
    the dense reference for the adjoint gradient, solved with
    ``np.linalg.solve`` rather than the cached inverse; same checks and
    errors."""
    HiM = inst.Q2.T / inst.hess_yy_diag[:, None]
    if not sol.active_set:
        return -HiM, np.zeros((0, HiM.shape[1]))
    Bbar = _active_rows(inst, sol.active_set, sol.lam)
    jac_lambda, jac_y = inst.active_set_cache.equality_solve(sol.active_set, HiM, -Bbar.T,
                                                             exact=True)
    return jac_y, jac_lambda


def implicit_gradient(inst: QuadraticBilevel, x: np.ndarray, sol: LLSolution) -> ImplicitGradient:
    """Full-batch implicit gradient grad_x f + jac_y' grad_y f at (x, y_hat);
    the shapes of x and y_hat are checked."""
    x = np.asarray(x, dtype=float)
    inst._check_dims(x, sol.y_hat)
    return ImplicitGradient(grad=_gradient(inst, x, sol.y_hat, sol.lam, sol.active_set,
                                           inst.cx_mean, inst.cy_mean,
                                           inst.interior_gradient.g0))


def sampled_implicit_gradient(inst: QuadraticBilevel, x: np.ndarray, sol: LLSolution,
                              xi: Union[int, Sequence[int]]) -> ImplicitGradient:
    """Implicit gradient of component ``xi``; averaging over all components
    recovers ``implicit_gradient`` to round-off (finite sum).

    A nonempty sequence ``xi`` gives the mean over its components from one
    gradient: the gradient is affine in the linear terms (cx_i, cy_i), so
    their means, and the mean of the components' interior offsets g0_i,
    take their place. One component gives its own gradient bit for bit;
    two or more differ from the mean of their gradients by round-off. An
    empty sequence or an index that is not an integer raises
    ``ValueError``, an index out of range ``IndexError``; the shapes of x
    and y_hat are checked.
    """
    xi = np.atleast_1d(xi)
    if xi.size == 0 or xi.ndim != 1 or not np.issubdtype(xi.dtype, np.integer):
        raise ValueError(f"xi must be one or more integer component indices, got {xi!r}")
    bad = xi[(xi < 0) | (xi >= inst.n_components)]
    if bad.size:
        raise IndexError(f"component index {int(bad[0])} out of range")
    x = np.asarray(x, dtype=float)
    inst._check_dims(x, sol.y_hat)
    return ImplicitGradient(grad=_gradient(inst, x, sol.y_hat, sol.lam, sol.active_set,
                                           inst.cx[xi].mean(axis=0), inst.cy[xi].mean(axis=0),
                                           inst.interior_gradient.offsets[xi].mean(axis=0)))
