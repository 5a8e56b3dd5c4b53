"""Lower-level solvers for the perturbed problem

    min_y  g(x, y) + q'y   s.t.  A y + B x <= b.

Three routes are provided:

* ``solve_ll_quadratic`` -- dual active-set method for the strictly convex
  QP; certifies KKT residual <= 1e-10, the exact active set and nonnegative
  multipliers.
* ``solve_ll_bruteforce`` -- exhaustive enumeration of candidate active sets
  (reference oracle; shares no code path with the active-set method).
* ``solve_ll_oracle`` -- projected gradient descent for callback-defined
  lower levels, with a strong-convexity accuracy certificate; each
  projection is itself a QP solved by the active-set route.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional, Union

import numpy as np

from .errors import DegenerateActiveSet, Infeasible, MaxIter, MaxPivots, NotSPD

if TYPE_CHECKING:  # problem.py imports this module
    from .problem import ProblemOracle, QuadraticBilevel

# Constraint i counts as active when its slack b_i - A_i y - B_i x falls to
# this tolerance or below.
TAU_ACT = 1e-7
# Elementwise feasibility tolerance on returned solutions.
TAU_FEAS = 1e-9
# Certified KKT stationarity target on the quadratic path.
KKT_TOL = 1e-10
# Active rows must be this far from rank deficiency (smallest singular value).
RANK_TOL = 1e-8

_VIOL_TOL = 1e-10


@dataclass(frozen=True)
class Perturbation:
    """Linear lower-level perturbation q'y with ||q|| <= radius."""

    q: np.ndarray
    radius: float

    def __post_init__(self):
        q = np.ascontiguousarray(np.asarray(self.q, dtype=float))
        q.flags.writeable = False
        object.__setattr__(self, "q", q)
        if self.radius <= 0:
            raise ValueError("perturbation radius must be positive")
        if np.linalg.norm(q) > self.radius * (1 + 1e-12):
            raise ValueError("||q|| exceeds the stated radius")

    @property
    def norm(self) -> float:
        return float(np.linalg.norm(self.q))


def sample_perturbation(radius: float, rng: np.random.Generator, d_l: int) -> Perturbation:
    """Uniform draw from the closed L2 ball of the given radius."""
    if radius <= 0:
        raise ValueError("perturbation radius must be positive")
    d = int(d_l)
    v = rng.standard_normal(d)
    n = np.linalg.norm(v)
    while n == 0.0:  # pragma: no cover - probability zero
        v = rng.standard_normal(d)
        n = np.linalg.norm(v)
    scale = radius * rng.random() ** (1.0 / d)
    return Perturbation(v * (scale / n), radius)


def _qvec(q, d_l: int) -> np.ndarray:
    if q is None:
        return np.zeros(d_l)
    if isinstance(q, Perturbation):
        return q.q
    return np.asarray(q, dtype=float)


@dataclass(frozen=True)
class LLSolution:
    """Certified lower-level solve result.

    ``lam`` is the full k-vector of multipliers (zeros off the active set);
    ``active_set`` lists the rows whose slack is within ``TAU_ACT``;
    ``delta_cert`` is a certified upper bound on ||y* - y_hat||;
    ``rank_smin`` is the smallest singular value of the active rows as the
    solver checked it (+inf when none is active), or None where the solver
    made no rank check.
    """

    y_hat: np.ndarray
    lam: np.ndarray
    active_set: tuple
    kkt_residual: float
    max_violation: float
    delta_cert: float
    method: str = "active_set"
    stats: dict = field(default_factory=dict)
    rank_smin: Optional[float] = None


def sc_margin(sol: LLSolution) -> float:
    """Smallest multiplier on the active set; +inf when nothing is active.
    A positive value certifies strict complementarity for this solve."""
    if not sol.active_set:
        return float("inf")
    return float(np.min(sol.lam[list(sol.active_set)]))


def certify_active_set(exact: LLSolution, approx: LLSolution) -> bool:
    """True iff both solves identified the same active rows."""
    return tuple(exact.active_set) == tuple(approx.active_set)


def _tight_rows(slacks: np.ndarray) -> tuple:
    return tuple(int(i) for i in np.flatnonzero(slacks <= TAU_ACT))


def check_rank(A_act: np.ndarray) -> float:
    """Smallest singular value of the active rows (+inf when there are none);
    raises ``DegenerateActiveSet`` when they are nearly dependent."""
    if A_act.shape[0] == 0:
        return float("inf")
    if A_act.shape[0] > A_act.shape[1]:
        raise DegenerateActiveSet(
            f"{A_act.shape[0]} active rows in dimension {A_act.shape[1]}"
        )
    smin = np.linalg.svd(A_act, compute_uv=False)[-1]
    if smin < RANK_TOL:
        raise DegenerateActiveSet(
            f"active rows nearly rank deficient (smallest singular value {smin:.2e})"
        )
    return float(smin)


# ---------------------------------------------------------------------------
# dual active-set QP
# ---------------------------------------------------------------------------


def solve_qp(H: np.ndarray, c: np.ndarray, A: np.ndarray, u: np.ndarray) -> LLSolution:
    """Minimize 0.5 y'diag(H)y + c'y subject to A y <= u, where ``H`` is the
    positive diagonal of the Hessian as a 1-D array.

    Dual active-set iteration: starts from the unconstrained minimum and
    incorporates violated constraints one at a time, dropping working rows
    whose multiplier would cross zero. Needs no feasibility phase and
    detects infeasibility when the dual ray is unbounded. The final working
    set is re-solved as an equality KKT system, so the returned stationarity
    residual sits at solver precision.
    """
    H = np.asarray(H, dtype=float)
    if H.ndim != 1:
        raise ValueError("solve_qp takes the Hessian diagonal as a 1-D array")
    if np.any(H <= 0):
        raise NotSPD("nonpositive diagonal Hessian entry")
    c = np.asarray(c, dtype=float)
    A = np.atleast_2d(np.asarray(A, dtype=float))
    u = np.atleast_1d(np.asarray(u, dtype=float))
    d = H.shape[0]
    k = A.shape[0]
    mu = float(np.min(H))

    def hsolve(M):
        return M / H if M.ndim == 1 else M / H[:, None]

    max_pivots = 100 + 50 * (k + d)
    bland_after = 8 + 3 * max(k, 1)

    work: list[int] = []
    lam_w = np.zeros(0)
    y = hsolve(-c)
    pivots = 0
    obj_trace = [float(0.5 * y @ (H * y) + c @ y)]
    repairs = 0

    while True:
        slack = u - A @ y if k else np.zeros(0)
        in_work = np.zeros(k, dtype=bool)
        in_work[work] = True
        viol = np.flatnonzero((-slack > _VIOL_TOL) & ~in_work)
        if viol.size == 0:
            # polish: exact equality solve on the working set
            if work:
                Aw = A[work]
                HiA = hsolve(Aw.T)
                S = Aw @ HiA
                Hic = hsolve(c)
                try:
                    lam_w = np.linalg.solve(S, -(u[work] + Aw @ Hic))
                except np.linalg.LinAlgError as exc:
                    raise DegenerateActiveSet("singular working-set system") from exc
                y = -(Hic + HiA @ lam_w)
            else:
                lam_w = np.zeros(0)
                y = hsolve(-c)
            # the polish may expose a marginal violation or a stray negative
            # multiplier; repair by re-entering the loop
            neg = [j for j, lj in enumerate(lam_w) if lj < -1e-12]
            slack = u - A @ y if k else np.zeros(0)
            dirty = bool(neg) or (k and np.max(-slack) > _VIOL_TOL)
            if dirty:
                if repairs >= 5:
                    raise MaxPivots("post-solve repair loop did not settle")
                repairs += 1
                for j in sorted(neg, reverse=True):
                    work.pop(j)
                lam_w = np.delete(lam_w, neg) if neg else lam_w
                continue
            break

        if pivots <= bland_after:
            p = int(viol[np.argmax(-slack[viol])])
        else:
            p = int(viol.min())
        a_p = A[p]
        if not np.any(a_p):
            raise Infeasible(f"constraint {p} is 0'y <= {u[p]:.3e} with negative rhs")
        s_p = float(a_p @ y - u[p])
        lam_p = 0.0

        while True:
            pivots += 1
            if pivots > max_pivots:
                raise MaxPivots(f"pivot budget {max_pivots} exhausted")
            Hia_p = hsolve(a_p)
            ref_curv = float(a_p @ Hia_p)
            if work:
                Aw = A[work]
                HiA = hsolve(Aw.T)
                S = Aw @ HiA
                try:
                    r = np.linalg.solve(S, Aw @ Hia_p)
                except np.linalg.LinAlgError as exc:
                    raise DegenerateActiveSet("singular working-set system") from exc
                w = a_p - Aw.T @ r
            else:
                r = np.zeros(0)
                w = a_p
            Hiw = hsolve(w)
            curv = float(w @ Hiw)
            dependent = curv <= 1e-14 * ref_curv
            z = np.zeros(d) if dependent else -Hiw

            t_full = np.inf if dependent else s_p / curv
            t_dual = np.inf
            j_drop = -1
            if r.size:
                pos = np.flatnonzero(r > 1e-12)
                if pos.size:
                    ratios = lam_w[pos] / r[pos]
                    t_dual = float(np.min(ratios))
                    j_drop = int(pos[np.flatnonzero(ratios <= t_dual)[0]])
            if not np.isfinite(t_full) and not np.isfinite(t_dual):
                raise Infeasible("dual ray unbounded: constraints are inconsistent")

            t = min(t_full, t_dual)
            if t > 0:
                y = y + t * z
                lam_w = lam_w - t * r
                lam_p += t
                s_p = float(a_p @ y - u[p])
            if t_full <= t_dual:
                work.append(p)
                lam_w = np.append(lam_w, lam_p)
                break
            work.pop(j_drop)
            lam_w = np.delete(lam_w, j_drop)
        obj_trace.append(float(0.5 * y @ (H * y) + c @ y))

    slack = u - A @ y if k else np.zeros(0)
    active = _tight_rows(slack)
    lam = np.zeros(k)
    if work:
        lam[work] = np.maximum(lam_w, 0.0)
    A_act = A[list(active)] if active else np.zeros((0, d))
    smin = check_rank(A_act)
    kkt = float(np.linalg.norm(H * y + c + (A_act.T @ lam[list(active)] if active else 0.0)))
    max_viol = float(np.max(-slack)) if k else float("-inf")
    lam.flags.writeable = False
    yv = y.copy()
    yv.flags.writeable = False
    return LLSolution(
        y_hat=yv,
        lam=lam,
        active_set=active,
        kkt_residual=kkt,
        max_violation=max_viol,
        delta_cert=kkt / mu,
        method="active_set",
        stats={"pivots": pivots, "objective_trace": obj_trace, "repairs": repairs},
        rank_smin=smin,
    )


def solve_ll_quadratic(inst: QuadraticBilevel, x: np.ndarray,
                       q: Union[Perturbation, np.ndarray, None]) -> LLSolution:
    """Exact solve of the perturbed quadratic lower level at x."""
    x = np.asarray(x, dtype=float)
    poly = inst.constraints
    qv = _qvec(q, inst.d_l)
    c = inst.Q2.T @ x + qv
    return solve_qp(inst.hess_yy_diag, c, poly.A, poly.rhs(x))


# ---------------------------------------------------------------------------
# brute-force reference (exhaustive candidate active sets)
# ---------------------------------------------------------------------------


def solve_ll_bruteforce(inst: QuadraticBilevel, x: np.ndarray,
                        q: Union[Perturbation, np.ndarray, None]) -> LLSolution:
    """Enumerate every candidate active set, solve its equality KKT system,
    and keep the primal/dual feasible candidate of least objective.

    Exponential in the row count; intended as the correctness oracle for
    small instances only.
    """
    x = np.asarray(x, dtype=float)
    poly = inst.constraints
    d = inst.d_l
    qv = _qvec(q, d)
    c = inst.Q2.T @ x + qv
    A = poly.A
    u = poly.rhs(x)
    k = poly.k

    best_obj = np.inf
    best = None
    for size in range(0, min(d, k) + 1):
        for subset in itertools.combinations(range(k), size):
            s = list(subset)
            if size == 0:
                y = -0.5 * c
                lam_s = np.zeros(0)
            else:
                As = A[s]
                kkt = np.block([
                    [2.0 * np.eye(d), As.T],
                    [As, np.zeros((size, size))],
                ])
                rhs = np.concatenate([-c, u[s]])
                sol, *_ = np.linalg.lstsq(kkt, rhs, rcond=None)
                if np.linalg.norm(kkt @ sol - rhs) > 1e-9 * (1 + np.linalg.norm(rhs)):
                    continue
                y = sol[:d]
                lam_s = sol[d:]
            if lam_s.size and np.min(lam_s) < -1e-9:
                continue
            if k and np.max(A @ y - u) > 1e-9:
                continue
            obj = float(y @ y + c @ y)
            if obj < best_obj - 1e-12:
                best_obj = obj
                best = (y, s, lam_s)
    if best is None:
        raise Infeasible("no candidate active set is primal/dual feasible")

    y, s, lam_s = best
    slack = u - A @ y if k else np.zeros(0)
    active = _tight_rows(slack)
    lam = np.zeros(k)
    lam[s] = np.maximum(lam_s, 0.0)
    A_act = A[list(active)] if active else np.zeros((0, d))
    kkt_res = float(np.linalg.norm(2.0 * y + c + (A_act.T @ lam[list(active)] if active else 0.0)))
    return LLSolution(
        y_hat=y,
        lam=lam,
        active_set=active,
        kkt_residual=kkt_res,
        max_violation=float(np.max(-slack)) if k else float("-inf"),
        delta_cert=kkt_res / 2.0,
        method="bruteforce",
        stats={},
    )


# ---------------------------------------------------------------------------
# projected gradient (oracle path)
# ---------------------------------------------------------------------------


def project_polyhedron(z: np.ndarray, A: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Euclidean projection onto {y : A y <= u} (a strictly convex QP)."""
    if A.shape[0] == 0:
        return np.asarray(z, dtype=float).copy()
    sol = solve_qp(np.ones(len(z)), -np.asarray(z, dtype=float), A, u)
    return np.asarray(sol.y_hat)


def solve_ll_oracle(oracle: ProblemOracle, x: np.ndarray,
                    q: Union[Perturbation, np.ndarray, None], tol_delta: float,
                    max_iter: int = 200_000) -> LLSolution:
    """Projected gradient descent with step 1/L on the perturbed lower level.

    Terminates once the strong-convexity certificate
    ``||y - proj(y - grad/L)|| * (L/mu)`` drops to ``tol_delta``; the active
    set is read off the final iterate's tight rows and multipliers are
    recovered by a clamped least-squares fit of the stationarity condition.
    """
    if tol_delta <= 0:
        raise ValueError("tol_delta must be positive")
    x = np.asarray(x, dtype=float)
    poly = oracle.constraints
    A, u = poly.A, poly.rhs(x)
    d = poly.d_l
    qv = _qvec(q, d)
    L = float(oracle.lip_grad_y)
    mu = float(oracle.mu_g)
    ratio = L / mu

    y = project_polyhedron(np.zeros(d), A, u)
    hess = np.asarray(oracle.hess_yy_g(x, y), dtype=float)
    lo = np.linalg.eigvalsh(0.5 * (hess + hess.T))[0]
    if lo < mu - 1e-9:
        raise NotSPD(f"Hessian smallest eigenvalue {lo:.3e} < mu_g={mu}")

    cert = np.inf
    it = 0
    for it in range(1, max_iter + 1):
        grad = np.asarray(oracle.grad_y_g(x, y), dtype=float) + qv
        y_next = project_polyhedron(y - grad / L, A, u)
        cert = float(np.linalg.norm(y - y_next)) * ratio
        y = y_next
        if cert <= tol_delta:
            break
    else:
        raise MaxIter(
            f"no certificate <= {tol_delta:.2e} within {max_iter} iterations",
            delta_cert=cert,
        )

    slack = u - A @ y if poly.k else np.zeros(0)
    active = _tight_rows(slack)
    grad = np.asarray(oracle.grad_y_g(x, y), dtype=float) + qv
    lam = np.zeros(poly.k)
    if active:
        A_act = A[list(active)]
        smin = check_rank(A_act)
        fit, *_ = np.linalg.lstsq(A_act.T, -grad, rcond=None)
        lam[list(active)] = np.maximum(fit, 0.0)
        kkt = float(np.linalg.norm(grad + A_act.T @ lam[list(active)]))
    else:
        smin = float("inf")
        kkt = float(np.linalg.norm(grad))
        # interior iterate: the gradient itself need not vanish, only the
        # projected step; keep the certificate as the accuracy statement
    lam.flags.writeable = False
    y = y.copy()
    y.flags.writeable = False
    return LLSolution(
        y_hat=y,
        lam=lam,
        active_set=active,
        kkt_residual=kkt,
        max_violation=float(np.max(-slack)) if poly.k else float("-inf"),
        delta_cert=cert,
        method="projected_gradient",
        stats={"iterations": it},
        rank_smin=smin,
    )
