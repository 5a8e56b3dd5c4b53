"""Lower-level solvers for the perturbed problem

    min_y  g(x, y) + q'y   s.t.  A y + B x <= b.

Two routes are provided:

* ``solve_ll_quadratic`` -- dual active-set method for the strictly convex
  QP; certifies KKT residual <= 1e-10, the exact active set and nonnegative
  multipliers.
* ``solve_ll_bruteforce`` -- exhaustive enumeration of candidate active sets
  (reference oracle; shares no code path with the active-set method).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional, Union

import numpy as np

from .errors import DegenerateActiveSet, Infeasible, MaxPivots, NonFinite, NotSPD, Uncertified

if TYPE_CHECKING:  # problem.py imports this module
    from .problem import QuadraticBilevel

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
# A start is rejected when one of its rows has less than this share of its
# H^-1-norm outside the span of the other start rows.
_START_INDEP = 1e-8


@dataclass(frozen=True)
class Perturbation:
    """Linear lower-level perturbation q'y; ``norm`` is ||q||, computed once."""

    q: np.ndarray
    norm: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        q = np.ascontiguousarray(np.asarray(self.q, dtype=float))
        q.flags.writeable = False
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "norm", float(np.linalg.norm(q)))


def _ball_draw(radius: float, rng: np.random.Generator, d_l: int) -> np.ndarray:
    """Uniform draw from the closed L2 ball of the given radius in R^d_l."""
    if radius <= 0:
        raise ValueError("perturbation radius must be positive")
    d = int(d_l)
    v = rng.standard_normal(d)
    n = np.linalg.norm(v)
    while n == 0.0:  # pragma: no cover - probability zero
        v = rng.standard_normal(d)
        n = np.linalg.norm(v)
    scale = radius * rng.random() ** (1.0 / d)
    try:  # only warnings-as-errors raise, for a radius near the float limit
        return v * (scale / n)
    except RuntimeWarning as exc:
        raise NonFinite(f"perturbation draw overflowed: {exc}") from exc


def sample_perturbation(radius: float, rng: np.random.Generator, d_l: int) -> Perturbation:
    """Uniform draw from the closed L2 ball of the given radius."""
    return Perturbation(_ball_draw(radius, rng, d_l))


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
    ``delta_cert`` is a certified upper bound on ||y* - y_hat||.
    """

    y_hat: np.ndarray
    lam: np.ndarray
    active_set: tuple
    kkt_residual: float
    max_violation: float
    delta_cert: float
    stats: dict = field(default_factory=dict)


def sc_margin(sol: LLSolution) -> float:
    """Smallest multiplier on the active set; +inf when nothing is active.
    A positive value certifies strict complementarity for this solve."""
    if not sol.active_set:
        return float("inf")
    return float(np.min(sol.lam[list(sol.active_set)]))


def _tight_rows(slacks: np.ndarray) -> tuple:
    return tuple(int(i) for i in np.flatnonzero(slacks <= TAU_ACT))


def _certified(y: np.ndarray, lam: np.ndarray, active: tuple, residual: np.ndarray,
               slack: np.ndarray, mu: float, stats: dict) -> LLSolution:
    """The frozen ``solve_qp`` result at y with multipliers lam, certified by
    the stationarity residual H y + c + A' lam and the slacks u - A y, the
    smallest Hessian entry mu turning the residual into a distance bound;
    raises ``NonFinite`` when either certificate is NaN or +inf, and
    ``Uncertified`` when the residual exceeds ``KKT_TOL``."""
    kkt = float(np.linalg.norm(residual))
    max_viol = float(-slack.min()) if slack.size else float("-inf")
    if not (kkt < np.inf and max_viol < np.inf):
        raise NonFinite(f"uncertifiable solve: KKT residual {kkt}, violation {max_viol}")
    if kkt > KKT_TOL:
        raise Uncertified(f"KKT residual {kkt:.2e} exceeds {KKT_TOL:.0e}")
    y.flags.writeable = lam.flags.writeable = False
    return LLSolution(y_hat=y, lam=lam, active_set=active, kkt_residual=kkt,
                      max_violation=max_viol, delta_cert=kkt / mu, stats=stats)


# ---------------------------------------------------------------------------
# dual active-set QP
# ---------------------------------------------------------------------------


# Most row tuples an ActiveSetCache holds; a full cache is emptied before
# the next tuple goes in. At 64 tuples of 100 rows that is 5 MB of S.
ACTIVE_SET_CACHE_SIZE = 64


class ActiveSetCache:
    """What a solve needs of a tuple of rows of A that depends on the rows
    alone, for one positive Hessian diagonal H and one constraint matrix A,
    computed once per tuple: the reduced matrix S = A_W H^-1 A_W' with its
    rows in the tuple's order, the smallest singular value of the rows, and
    whether they are a usable start. A tuple asked for again gets the same
    bits, so a solve gives the same result whatever the cache held before.
    ``equality_solve`` solves the equality KKT system on a tuple with its S;
    the active-set solver and the implicit gradient both solve through it.

    ``QuadraticBilevel.active_set_cache`` keeps one per instance, since H and
    A never change; ``solve_qp`` and ``solve_qp_batch`` on bare arrays use
    one per call. It holds at most ``ACTIVE_SET_CACHE_SIZE`` tuples."""

    def __init__(self, H: np.ndarray, A: np.ndarray):
        self.H = H
        self.A = A
        self._rows: dict = {}

    def __len__(self) -> int:
        return len(self._rows)

    def _entry(self, rows: tuple) -> dict:
        entry = self._rows.get(rows)
        if entry is None:
            if len(self._rows) >= ACTIVE_SET_CACHE_SIZE:
                self._rows.clear()
            entry = self._rows[rows] = {}
        return entry

    def reduced(self, rows: tuple) -> np.ndarray:
        """S = A_W H^-1 A_W' for the rows W in ``rows``, in that order
        (read-only)."""
        entry = self._entry(rows)
        S = entry.get("S")
        if S is None:
            Aw = self.A[list(rows)]
            S = entry["S"] = Aw @ (Aw.T / self.H[:, None])
            S.flags.writeable = False
        return S

    def equality_solve(self, rows: tuple, Hic: np.ndarray, uw) -> tuple:
        """(lam, y) of the equality KKT system H y + c + A_W' lam = 0,
        A_W y = uw on the rows W in ``rows``, from Hic = H^-1 c by one solve
        with S = ``reduced(rows)``. When ``Hic`` is a matrix, lam and y have
        one column per column of it, and ``uw`` is one vector for all of them
        or one row per column. Raises ``np.linalg.LinAlgError`` when S is
        singular."""
        Aw = self.A[list(rows)]
        lam = np.linalg.solve(self.reduced(rows), -(uw + (Aw @ Hic).T).T)
        return lam, -(Hic + (Aw.T / self.H[:, None]) @ lam)

    def check_rank(self, rows: tuple) -> float:
        """Smallest singular value of the rows in ``rows`` (+inf when there
        are none); raises ``DegenerateActiveSet``, on every call, when they
        are more than the dimension or nearly dependent."""
        if not rows:
            return float("inf")
        if len(rows) > self.A.shape[1]:
            raise DegenerateActiveSet(f"{len(rows)} active rows in dimension {self.A.shape[1]}")
        entry = self._entry(rows)
        smin = entry.get("smin")
        if smin is None:
            smin = entry["smin"] = float(np.linalg.svd(self.A[list(rows)], compute_uv=False)[-1])
        if smin < RANK_TOL:
            raise DegenerateActiveSet(
                f"active rows nearly rank deficient (smallest singular value {smin:.2e})"
            )
        return smin

    def start_ok(self, rows: tuple) -> bool:
        """Whether S on ``rows`` passes a Cholesky factorization and no row
        has less than ``_START_INDEP`` of its H^-1-norm outside the span of
        the rows before it (a squared pivot of the factor is that part)."""
        entry = self._entry(rows)
        ok = entry.get("start_ok")
        if ok is None:
            S = self.reduced(rows)
            try:
                L = np.linalg.cholesky(S)
            except np.linalg.LinAlgError:
                ok = False
            else:
                ok = not np.any(np.diag(L) ** 2 <= _START_INDEP * np.diag(S))
            entry["start_ok"] = ok
        return ok


def _start_solve(cache: ActiveSetCache, Hic: np.ndarray, u: np.ndarray,
                 work: list) -> Optional[tuple]:
    """The multipliers and point of ``cache.equality_solve`` on the sorted
    rows in ``work``, or None when those rows are not a usable start: an
    index out of range, more rows than the dimension, or rows that fail
    ``cache.start_ok``. ``u`` is one right-hand side, or one row of them per
    column of ``Hic``."""
    A = cache.A
    if len(work) > A.shape[1] or work[0] < 0 or work[-1] >= A.shape[0]:
        return None
    rows = tuple(work)
    if not cache.start_ok(rows):
        return None
    try:
        return cache.equality_solve(rows, Hic, u[..., work])
    except np.linalg.LinAlgError:
        return None


def _hot_start(cache: ActiveSetCache, Hic: np.ndarray, u: np.ndarray,
               start) -> Optional[tuple]:
    """Dual-feasible starting point from the rows in ``start``: the equality
    KKT solution on those rows, dropping the row with the most negative
    multiplier until none is negative (the hot start of the Goldfarb-Idnani
    dual method). Returns (working rows, their multipliers, y), or None when
    the start is unusable (see ``_start_solve``)."""
    work = sorted({int(i) for i in start})
    while work:
        solved = _start_solve(cache, Hic, u, work)
        if solved is None:
            return None
        lam_w, y = solved
        if lam_w.min() >= 0.0:
            return work, lam_w, y
        work.pop(int(np.argmin(lam_w)))
    return None


def solve_qp(H: np.ndarray, c: np.ndarray, A: np.ndarray, u: np.ndarray,
             start=(), cache: Optional[ActiveSetCache] = None) -> LLSolution:
    """Minimize 0.5 y'diag(H)y + c'y subject to A y <= u, where ``H`` is the
    positive diagonal of the Hessian as a 1-D array.

    Dual active-set iteration: starts from the unconstrained minimum and
    incorporates violated constraints one at a time, dropping working rows
    whose multiplier would cross zero. Needs no feasibility phase and
    detects infeasibility when the dual ray is unbounded. The final working
    set is re-solved as an equality KKT system, so the returned stationarity
    residual sits at solver precision.

    ``start`` optionally names rows to start from instead, typically the
    active set of a nearby solve (see ``_hot_start``); when the start is
    unusable the solve starts cold. The start changes how many pivots the
    solve makes; its result agrees with the cold solve's to round-off.

    Interior solves return at once: with no ``start``, when there are no
    rows or every slack of y = -H^-1 c exceeds ``TAU_ACT``, that y is the
    answer (no pivot, no active row, zero multipliers) and the result
    equals the one the iteration below would return, field for field. A
    NaN or infinite input raises ``NonFinite`` instead of returning an
    uncertified point; so does, where numpy's warnings are raised as
    errors, one large enough to overflow the arithmetic. A finite point
    whose KKT residual exceeds ``KKT_TOL`` raises ``Uncertified``.

    ``cache`` is the ``ActiveSetCache`` of this H and A, such as an
    instance's ``active_set_cache``; by default the call makes its own. It
    changes no bit of the result.
    """
    H = np.asarray(H, dtype=float)
    if H.ndim != 1:
        raise ValueError("solve_qp takes the Hessian diagonal as a 1-D array")
    mu = float(H.min())
    if mu <= 0:
        raise NotSPD("nonpositive diagonal Hessian entry")
    c = np.asarray(c, dtype=float)
    A = np.atleast_2d(np.asarray(A, dtype=float))
    u = np.atleast_1d(np.asarray(u, dtype=float))
    k = A.shape[0]
    # a NaN or infinite input, or one so large that the arithmetic
    # overflows, warns somewhere below; only warnings-as-errors raise
    try:
        Hic = c / H
        y = -Hic
        slack = u - A @ y if k else np.zeros(0)
        if not len(start) and (k == 0 or slack.min() > TAU_ACT):
            return _certified(y, np.zeros(k), (), H * y + c, slack, mu,
                              {"pivots": 0, "repairs": 0})
        if cache is None:
            cache = ActiveSetCache(H, A)
        return _dual_active_set(H, c, A, u, Hic, mu, start, cache)
    except RuntimeWarning as exc:
        raise NonFinite(f"non-finite arithmetic: {exc}") from exc


def _dual_active_set(H: np.ndarray, c: np.ndarray, A: np.ndarray, u: np.ndarray,
                     Hic: np.ndarray, mu: float, start, cache: ActiveSetCache) -> LLSolution:
    """The iteration of ``solve_qp`` from the unconstrained minimum -Hic, or
    from the rows in ``start``, with mu the smallest entry of H."""
    d = H.shape[0]
    k = A.shape[0]
    y = -Hic
    max_pivots = 100 + 50 * (k + d)
    bland_after = 8 + 3 * max(k, 1)
    hot = _hot_start(cache, Hic, u, start) if len(start) else None
    work, lam_w, y = hot if hot is not None else ([], np.zeros(0), y)
    # y is the equality solve on the working set until a pivot moves it
    polished = True
    pivots = 0
    repairs = 0

    while True:
        slack = u - A @ y if k else np.zeros(0)
        in_work = np.zeros(k, dtype=bool)
        in_work[work] = True
        viol = np.flatnonzero((-slack > _VIOL_TOL) & ~in_work)
        if viol.size == 0:
            if not polished:
                # polish: exact equality solve on the working set
                if work:
                    try:
                        lam_w, y = cache.equality_solve(tuple(work), Hic, u[work])
                    except np.linalg.LinAlgError as exc:
                        raise DegenerateActiveSet("singular working-set system") from exc
                else:
                    lam_w = np.zeros(0)
                    y = -Hic
                slack = u - A @ y if k else np.zeros(0)
                polished = True
            # the polish may expose a marginal violation or a stray negative
            # multiplier; repair by re-entering the loop
            neg = [j for j, lj in enumerate(lam_w) if lj < -1e-12]
            dirty = bool(neg) or (k and np.max(-slack) > _VIOL_TOL)
            if dirty:
                if repairs >= 5:
                    raise MaxPivots("post-solve repair loop did not settle")
                repairs += 1
                for j in sorted(neg, reverse=True):
                    work.pop(j)
                if neg:
                    lam_w = np.delete(lam_w, neg)
                    polished = False
                continue
            break

        polished = False
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
            # the equality solve with c = a_p and the working rows held at 0
            # gives the primal step z and the working multipliers' step dlam
            Hia_p = a_p / H
            dlam, z = np.zeros(0), -Hia_p
            if work:
                try:
                    dlam, z = cache.equality_solve(tuple(work), Hia_p, 0.0)
                except np.linalg.LinAlgError as exc:
                    raise DegenerateActiveSet("singular working-set system") from exc
            curv = float(z @ (H * z))
            dependent = curv <= 1e-14 * float(a_p @ Hia_p)
            if dependent:
                z = np.zeros(d)

            t_full = np.inf if dependent else s_p / curv
            t_dual = np.inf
            j_drop = -1
            if dlam.size:
                pos = np.flatnonzero(dlam < -1e-12)
                if pos.size:
                    ratios = lam_w[pos] / -dlam[pos]
                    t_dual = float(np.min(ratios))
                    j_drop = int(pos[np.flatnonzero(ratios <= t_dual)[0]])
            if not np.isfinite(t_full) and not np.isfinite(t_dual):
                raise Infeasible("dual ray unbounded: constraints are inconsistent")

            t = min(t_full, t_dual)
            if t > 0:
                y = y + t * z
                lam_w = lam_w + t * dlam
                lam_p += t
                s_p = float(a_p @ y - u[p])
            if t_full <= t_dual:
                work.append(p)
                lam_w = np.append(lam_w, lam_p)
                break
            work.pop(j_drop)
            lam_w = np.delete(lam_w, j_drop)

    active = _tight_rows(slack)
    lam = np.zeros(k)
    if work:
        lam[work] = np.maximum(lam_w, 0.0)
    cache.check_rank(active)
    residual = H * y + c
    if active:
        residual = residual + A[list(active)].T @ lam[list(active)]
    return _certified(y, lam, active, residual, slack, mu,
                      {"pivots": pivots, "repairs": repairs})


def solve_qp_batch(H: np.ndarray, C: np.ndarray, A: np.ndarray, U: np.ndarray,
                   work, cache: Optional[ActiveSetCache] = None) -> tuple:
    """``solve_qp(H, c, A, u, start=work)`` for every draw, a row c of ``C``
    with its row u of ``U`` (one vector ``U`` serves every draw), where that
    solve makes no pivot and no repair: one equality KKT solve on ``work``
    with one factorization of S for all draws, then one vectorised
    certificate. A draw passes when its multipliers on ``work`` are
    nonnegative, no row is violated by more than ``_VIOL_TOL``, its tight
    rows are exactly ``work`` and its KKT residual is at most ``KKT_TOL``;
    its y and multipliers then equal the single solve's to round-off.
    ``cache`` is as in ``solve_qp``.

    Returns (ok, Y, Lam): the pass mask, and per draw one row of y and one
    of the k multipliers (zero off ``work``), NaN for a draw that fails.
    Every draw fails when ``work`` is not a usable start. A NaN or
    infinite draw fails, or raises ``NonFinite`` where numpy's warnings are
    raised as errors, as the single solve does."""
    C = np.atleast_2d(np.asarray(C, dtype=float))
    n, d = C.shape
    k = A.shape[0]
    U = np.broadcast_to(U, (n, k))
    work = sorted({int(i) for i in work})
    if cache is None:
        cache = ActiveSetCache(H, A)
    Y = np.full((n, d), np.nan)
    Lam = np.full((n, k), np.nan)
    HiC = C.T / H[:, None]
    try:  # only a NaN or infinite draw warns here
        solved = (_start_solve(cache, HiC, U, work) if work
                  else (np.zeros((0, n)), -HiC))
        if solved is None:
            return np.zeros(n, dtype=bool), Y, Lam
        lam_w, Yc = solved
        slack = U.T - A @ Yc
        kkt = np.linalg.norm(H[:, None] * Yc + C.T + A[work].T @ lam_w, axis=0)
    except RuntimeWarning as exc:
        raise NonFinite(f"non-finite draw: {exc}") from exc
    in_work = np.isin(np.arange(k), work)
    ok = ((lam_w >= 0.0).all(axis=0) & (slack >= -_VIOL_TOL).all(axis=0)
          & ((slack <= TAU_ACT) == in_work[:, None]).all(axis=0) & (kkt <= KKT_TOL))
    if ok.any():  # rank-deficient rows raise, as in the single solve
        cache.check_rank(tuple(work))
    Y[ok] = Yc.T[ok]
    Lam[ok] = 0.0
    Lam[np.ix_(ok, work)] = lam_w.T[ok]
    return ok, Y, Lam


def solve_ll_quadratic(inst: QuadraticBilevel, x: np.ndarray,
                       q: Union[Perturbation, np.ndarray, None], start=()) -> LLSolution:
    """Exact solve of the perturbed quadratic lower level at x, optionally
    starting from the rows in ``start`` (see ``solve_qp``)."""
    x = np.asarray(x, dtype=float)
    poly = inst.constraints
    qv = _qvec(q, inst.d_l)
    try:  # as in solve_qp: only an infinite x or q warns here
        c = inst.Q2.T @ x + qv
        u = poly.rhs(x)
    except RuntimeWarning as exc:
        raise NonFinite(f"non-finite input: {exc}") from exc
    return solve_qp(inst.hess_yy_diag, c, poly.A, u, start, cache=inst.active_set_cache)


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
    )
