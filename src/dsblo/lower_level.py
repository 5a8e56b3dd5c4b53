"""Lower-level solvers for the perturbed problem

    min_y  g(x, y) + q'y   s.t.  A y + B x <= b.

Two routes are provided:

* ``solve_ll_quadratic`` -- dual active-set method for the strictly convex
  QP; certifies KKT residual <= 1e-10, the exact active set and nonnegative
  multipliers. It forms c and u at x and calls ``solve_qp(cache, c, u,
  start)`` (or ``solve_qp_batch(cache, C, U, work)`` for many draws), where
  the ``ActiveSetCache`` is the one owner of the Hessian diagonal H, the
  rows A, their equality KKT solve and their independence verdict.
* ``solve_ll_bruteforce`` -- exhaustive enumeration of candidate active sets
  (reference oracle; shares no code path with the active-set method).
"""

from __future__ import annotations

import itertools
import math
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
# Active rows are dependent when one has at most this share of its squared
# H^-1-norm outside the span of the rows before it (``check_rank``).
RANK_TOL = 1e-8

_VIOL_TOL = 1e-10


@dataclass(frozen=True)
class Perturbation:
    """Linear lower-level perturbation q'y; ``norm`` is ||q||, computed once."""

    q: np.ndarray
    norm: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        q = np.ascontiguousarray(np.asarray(self.q, dtype=float))
        q.flags.writeable = False
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "norm", math.sqrt(q @ q))


def _dots(P: np.ndarray, R: np.ndarray) -> np.ndarray:
    """p @ r for every pair of rows, bit for bit the 1-D dot product."""
    return (P[:, None, :] @ R[:, :, None])[:, 0, 0]


def _ball_draws(radius: float, rng: np.random.Generator, d_l: int, n: int) -> tuple:
    """n uniform draws from the closed L2 ball of the given radius in R^d_l,
    one per row of Q, and their norms ||q|| = sqrt(q @ q) (in the ``_dots``
    layout): bit for bit the draws and ``math.sqrt(q @ q)`` of n successive
    ``_ball_draw`` calls, with rng left in the same state.

    Row by row the stream gives the d_l normals of v and then the uniform
    r of the scale radius * r^(1/d_l), as one draw takes them, and a v of
    norm 0 is drawn again before its r (probability zero; v @ v underflows
    to 0 only when |v_0| < 1e-150, so only such a row takes the dot
    product). The norms of the v, the scales and the products
    q = v * (scale / ||v||) are then formed for all rows at once. An
    overflowing scale / ||v|| warns, for a radius near 1e308, and so does
    an overflowing q @ q, for a radius above about 1e154; where numpy's
    warnings are raised as errors that raises ``NonFinite``."""
    if radius <= 0:
        raise ValueError("perturbation radius must be positive")
    d = int(d_l)
    e = 1.0 / d
    Q = np.empty((n, d))
    scale = np.empty(n)
    for i, v in enumerate(Q):
        rng.standard_normal(out=v)
        while -1e-150 < v.item(0) < 1e-150 and v @ v == 0.0:
            rng.standard_normal(out=v)
        scale[i] = radius * rng.random() ** e
    norms = np.sqrt(_dots(Q, Q))
    try:
        Q *= (scale / norms)[:, None]
        return Q, np.sqrt(_dots(Q, Q))
    except RuntimeWarning as exc:
        raise NonFinite(f"perturbation draw overflowed: {exc}") from exc


def _ball_draw(radius: float, rng: np.random.Generator, d_l: int) -> np.ndarray:
    """Uniform draw from the closed L2 ball of the given radius in R^d_l,
    the one-row case of ``_ball_draws``."""
    return _ball_draws(radius, rng, d_l, 1)[0][0]


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
    return tuple(np.flatnonzero(slacks <= TAU_ACT).tolist())


def _certificate(residual: np.ndarray, max_viol: float) -> float:
    """The KKT residual ||residual|| of a solve whose stationarity residual
    is H y + c + A' lam and whose largest violation is max(A y - u) (-inf
    without rows); raises ``NonFinite`` when either is NaN or +inf, and
    ``Uncertified`` when the residual exceeds ``KKT_TOL``."""
    kkt = math.sqrt(residual @ residual)  # bit for bit the 1-D norm
    if not (kkt < np.inf and max_viol < np.inf):
        raise NonFinite(f"uncertifiable solve: KKT residual {kkt}, violation {max_viol}")
    if kkt > KKT_TOL:
        raise Uncertified(f"KKT residual {kkt:.2e} exceeds {KKT_TOL:.0e}")
    return kkt


def _certified(y: np.ndarray, lam: np.ndarray, active: tuple, kkt: float,
               max_viol: float, mu: float, stats: dict) -> LLSolution:
    """The frozen ``solve_qp`` result at y with multipliers lam, its KKT
    residual kkt and largest violation max_viol from ``_certificate``, the
    smallest Hessian entry mu turning the residual into a distance bound."""
    y.flags.writeable = lam.flags.writeable = False
    return LLSolution(y_hat=y, lam=lam, active_set=active, kkt_residual=kkt,
                      max_violation=max_viol, delta_cert=kkt / mu, stats=stats)


def interior_point(cache: ActiveSetCache, c: np.ndarray, u: np.ndarray) -> Optional[tuple]:
    """The solve of ``solve_qp(cache, c, u)`` when it is interior, as (y,
    its KKT residual, its largest violation): y = -H^-1 c when there are no
    rows or every slack u - A y exceeds ``TAU_ACT``, certified on the
    residual H y + c by ``_certificate``. y is formed as c / (-H) with the
    cache's ``neg_H``, which IEEE division makes -(c / H) bit for bit, in one
    operation less. None when some slack is at most ``TAU_ACT`` or NaN, so a
    solve whose start gives no hot start crash-starts. c and u are float
    vectors, taken as given. A NaN or infinite input, or one so large that
    the arithmetic overflows, warns somewhere here; where numpy's warnings
    are raised as errors that raises ``NonFinite``."""
    A = cache.A
    try:
        y = c / cache.neg_H
        smin = float(np.minimum.reduce(u - A @ y)) if A.shape[0] else np.inf
        if not smin > TAU_ACT:
            return None
        return y, _certificate(cache.H * y + c, -smin), -smin
    except RuntimeWarning as exc:
        raise NonFinite(f"non-finite arithmetic: {exc}") from exc


# ---------------------------------------------------------------------------
# dual active-set QP
# ---------------------------------------------------------------------------


# Bytes of operands an ActiveSetCache holds. A tuple of n rows in dimension
# d is charged 8 (2 n d + 2 n^2) bytes when it goes in, for its A_W, A_W'/H,
# S and S^-1, and a tuple that would pass the budget empties the cache
# first. Only the tuples that solves start from, one per block-drop round
# of a hot start, and the sorted tuples they end on go in: a pivot borders
# or downdates the working set's inverse instead (``_border``, ``_drop``).
# A pass of the d=200/k=40 benchmark charges 1.3 MB over 12 tuples, and the
# d=50/k=10 Monte-Carlo benchmark 0.05 MB over 8 in its set-up and first
# pass, so neither empties it.
ACTIVE_SET_CACHE_BYTES = 4 * 2 ** 20


class ActiveSetCache:
    """What a solve needs of a tuple of rows of A that depends on the rows
    alone, for one positive Hessian diagonal H and one constraint matrix A,
    read-only and in the tuple's order. A tuple's rows A_W (``gathered``),
    A_W'/H and reduced matrix S = A_W H^-1 A_W' (``reduced``) are built
    together when it goes in; the inverse of S (``inverse``) and the
    independence verdict (``check_rank``) are computed on first use. A tuple
    asked for again gets the same bits, so a solve gives the same result
    whatever the cache held before. ``equality_solve`` solves the equality
    KKT system on a tuple with its operands; the active-set solver and the
    implicit gradient both solve through it.

    It is the one carrier of H, A and ``mu``: ``solve_qp`` and
    ``solve_qp_batch`` take it in their place.
    ``QuadraticBilevel.active_set_cache`` keeps one per instance, since H and
    A never change. It holds at most ``ACTIVE_SET_CACHE_BYTES`` of operands
    (``nbytes`` is what its tuples are charged), except that a tuple larger
    than that is held alone. It checks H once: a 2-D H raises
    ``ValueError`` and a nonpositive entry ``NotSPD``; ``mu`` is H's
    smallest entry, ``neg_H`` is -H, and ``A`` a 2-D float array."""

    def __init__(self, H: np.ndarray, A: np.ndarray):
        H = np.asarray(H, dtype=float)
        if H.ndim != 1:
            raise ValueError("the Hessian diagonal H must be a 1-D array")
        self.mu = float(H.min())
        if self.mu <= 0:
            raise NotSPD("nonpositive diagonal Hessian entry")
        self.H = H
        self.neg_H = -H
        self.A = np.atleast_2d(np.asarray(A, dtype=float))
        self._rows: dict = {}
        self.nbytes = 0

    def __len__(self) -> int:
        return len(self._rows)

    def _entry(self, rows: tuple) -> dict:
        entry = self._rows.get(rows)
        if entry is None:
            n = len(rows)
            charge = 16 * n * (self.A.shape[1] + n)
            if self.nbytes + charge > ACTIVE_SET_CACHE_BYTES:
                self._rows.clear()
                self.nbytes = 0
            self.nbytes += charge
            Aw = self.A[list(rows)]
            AwHi = Aw.T / self.H[:, None]
            S = Aw @ AwHi
            Aw.flags.writeable = AwHi.flags.writeable = S.flags.writeable = False
            entry = self._rows[rows] = {"kkt": (Aw, AwHi, S)}
        return entry

    def _operands(self, rows: tuple) -> tuple:
        """(A_W, A_W'/H, S) for the rows in ``rows`` (read-only)."""
        return self._entry(rows)["kkt"]

    def gathered(self, rows: tuple) -> np.ndarray:
        """A_W, the rows of A in ``rows``, in that order (read-only)."""
        return self._operands(rows)[0]

    def reduced(self, rows: tuple) -> np.ndarray:
        """S = A_W H^-1 A_W' for the rows W in ``rows``, in that order
        (read-only)."""
        return self._operands(rows)[2]

    def inverse(self, rows: tuple) -> np.ndarray:
        """S^-1, ``np.linalg.inv`` of ``reduced(rows)`` (read-only); raises
        ``DegenerateActiveSet``, on every call, when S is singular."""
        entry = self._entry(rows)
        Si = entry.get("inv")
        if Si is None:
            try:
                Si = np.linalg.inv(entry["kkt"][2])
            except np.linalg.LinAlgError as exc:
                raise DegenerateActiveSet("singular reduced KKT system") from exc
            Si.flags.writeable = False
            entry["inv"] = Si
        return Si

    def equality_solve(self, rows: tuple, Hic: np.ndarray, uw, exact: bool = False) -> tuple:
        """(lam, y) of the equality KKT system H y + c + A_W' lam = 0,
        A_W y = uw on the rows W in ``rows``, from Hic = H^-1 c by one
        product with ``inverse(rows)``, or, when ``exact``, by one
        ``np.linalg.solve`` with S = ``reduced(rows)``. When ``Hic`` is a
        matrix, lam and y have one column per column of it, and ``uw`` is one
        vector for all of them or one row per column. Raises
        ``DegenerateActiveSet`` when S is singular."""
        Aw, AwHi, S = self._operands(rows)
        r = -(uw + (Aw @ Hic).T).T
        if exact:
            try:
                lam = np.linalg.solve(S, r)
            except np.linalg.LinAlgError as exc:
                raise DegenerateActiveSet("singular reduced KKT system") from exc
        else:
            lam = self.inverse(rows) @ r
        return lam, -(Hic + AwHi @ lam)

    def check_rank(self, rows: tuple) -> float:
        """The smallest share of a row's squared H^-1-norm outside the span
        of the rows before it in ``rows``, diag(L)^2 / diag(S) for the
        Cholesky factor L of S (+inf when there are none); raises
        ``DegenerateActiveSet``, on every call, when the rows are more than
        the dimension, S fails the factorization or diag(L)^2 <=
        ``RANK_TOL`` diag(S) in some row."""
        if not rows:
            return float("inf")
        if len(rows) > self.A.shape[1]:
            raise DegenerateActiveSet(f"{len(rows)} active rows in dimension {self.A.shape[1]}")
        entry = self._entry(rows)
        if "rank" not in entry:
            S = entry["kkt"][2]
            try:
                pivots, diag = np.diag(np.linalg.cholesky(S)) ** 2, np.diag(S)
                entry["rank"] = (float(np.min(pivots / diag)), not np.any(pivots <= RANK_TOL * diag))
            except np.linalg.LinAlgError:
                entry["rank"] = (0.0, False)
        share, independent = entry["rank"]
        if not independent:
            raise DegenerateActiveSet(
                f"active rows nearly rank deficient (a row has {share:.2e} of its squared "
                "H^-1-norm outside the span of the rows before it)"
            )
        return share


def _start_solve(cache: ActiveSetCache, Hic: np.ndarray, u: np.ndarray,
                 work: list, exact: bool) -> Optional[tuple]:
    """The multipliers and point of ``cache.equality_solve`` on the sorted
    rows in ``work``, or None when those rows are not a usable start: an
    index out of range, or rows that ``cache.check_rank`` rejects. ``u`` is
    one right-hand side, or one row of them per column of ``Hic``."""
    if work[0] < 0 or work[-1] >= cache.A.shape[0]:
        return None
    rows = tuple(work)
    try:
        cache.check_rank(rows)
        return cache.equality_solve(rows, Hic, u[..., work], exact)
    except DegenerateActiveSet:
        return None


def _hot_start(cache: ActiveSetCache, Hic: np.ndarray, u: np.ndarray,
               start, exact: bool) -> Optional[tuple]:
    """Dual-feasible starting point from the rows in ``start``: the equality
    KKT solution on those rows, dropping every row with a negative
    multiplier at once and solving again until none is negative (the hot
    start of the Goldfarb-Idnani dual method, with block drops). Returns
    (working rows, their multipliers, y), or None when the start is empty,
    every row drops or the start is unusable (see ``_start_solve``)."""
    work = sorted({int(i) for i in start})
    while work:
        solved = _start_solve(cache, Hic, u, work, exact)
        if solved is None:
            return None
        lam_w, y = solved
        keep = lam_w >= 0.0
        if keep.all():
            return work, lam_w, y
        work = [i for i, kept in zip(work, keep.tolist()) if kept]
    return None


def solve_qp(cache: ActiveSetCache, c: np.ndarray, u: np.ndarray, start=()) -> LLSolution:
    """Minimize 0.5 y'diag(H)y + c'y subject to A y <= u, with the positive
    Hessian diagonal H, the rows A and H's smallest entry mu read from
    ``cache``, such as an instance's ``active_set_cache``; a caller with
    bare arrays passes ``ActiveSetCache(H, A)``.

    Dual active-set iteration (Goldfarb & Idnani): from a dual-feasible
    start it incorporates violated constraints one at a time, dropping
    working rows whose multiplier would cross zero. Needs no feasibility
    phase. Without a start it begins from the rows whose slack at the
    unconstrained minimum y0 = -H^-1 c is at most ``TAU_ACT`` (a crash
    start), through the hot start below; when those rows are unusable, or
    the crash-started iteration raises ``Uncertified`` or ``MaxPivots``, it
    repeats from y0 itself, adding one violated row per pivot. When the
    dual ray is unbounded it raises ``Infeasible`` only if the ray r passes
    a Farkas check (r >= 0, ||A'r|| <= ``_RAY_TOL`` ||r|| ||A|| and
    u'r < 0), and ``Uncertified``, naming the failed condition, otherwise.
    The final working set is re-solved as an equality KKT system, so the
    returned stationarity residual sits at solver precision.

    Each equality solve of a tuple of rows is one product with its cached
    inverse (``ActiveSetCache.inverse``), and a pivot borders or downdates
    the working set's inverse in O(n d + n^2) for n working rows. A solve
    that raises ``Uncertified`` this way is repeated once with
    ``np.linalg.solve`` for the hot starts and the polish, which then keeps
    the working rows in pivot order; a result of the repeat carries
    ``"repeats": 1`` in its ``stats``. A polish that leaves a
    violated row or a negative multiplier after five repairs raises
    ``Uncertified`` naming both; ``MaxPivots`` means only that the pivot
    budget ran out.

    ``start`` optionally names rows to start from instead, a sized
    collection such as the active set of a nearby solve. The hot start
    (``_hot_start``) solves the equality KKT system on those rows and drops
    every row with a negative multiplier at once, solving again until none
    is negative. A start that is unusable (an index out of range, or rows
    that ``ActiveSetCache.check_rank`` rejects) or whose rows all drop
    counts as none, so the solve equals the one without a start, field for
    field. The start changes how many pivots the solve makes; its result
    agrees with the solve without one to round-off.

    One start rule: when the start gives no hot start (there is none, it is
    unusable, or its rows all drop), the solve asks ``interior_point`` once,
    before the crash start and outside the repeat with ``np.linalg.solve``
    (without a start, before it forms H^-1 c at all), so an interior point
    whose certificate fails raises ``Uncertified`` at once. If there are no
    rows or every slack of y = -H^-1 c exceeds ``TAU_ACT``, that y is the
    answer (no pivot, no active row, zero multipliers), equal to the
    iteration's result field for field. A start that gives a hot start
    iterates without asking; at an interior y none does, since rows that are
    all slack there always have a negative multiplier, so the block drops
    empty the start. A NaN or infinite input raises ``NonFinite`` instead of
    returning an uncertified point; so does, where numpy's warnings are
    raised as errors, one large enough to overflow the arithmetic. A finite
    point whose KKT residual exceeds ``KKT_TOL`` raises ``Uncertified``.
    What the cache held before changes no bit of the result.
    """
    return _solve_qp(cache, np.asarray(c, dtype=float),
                     np.atleast_1d(np.asarray(u, dtype=float)), start)


def _solve_qp(cache: ActiveSetCache, c: np.ndarray, u: np.ndarray, start) -> LLSolution:
    """``solve_qp`` on a float vector c and a float k-vector u, taken as
    given."""
    # a NaN or infinite input, or one so large that the arithmetic
    # overflows, warns somewhere below; only warnings-as-errors raise
    try:
        # H^-1 c is formed only for a start's hot start or for the iteration
        Hic = hot = None
        if len(start):
            Hic = c / cache.H
            hot = _hot_start(cache, Hic, u, start, False)
        if hot is None:
            inner = interior_point(cache, c, u)
            if inner is not None:
                y, kkt, max_viol = inner
                return _certified(y, np.zeros(cache.A.shape[0]), (), kkt, max_viol,
                                  cache.mu, {"pivots": 0, "repairs": 0})
        if Hic is None:
            Hic = c / cache.H
        try:
            return _dual_active_set(cache, c, u, Hic, hot, False)
        except Uncertified:
            sol = _dual_active_set(cache, c, u, Hic, _hot_start(cache, Hic, u, start, True),
                                   True)
            sol.stats["repeats"] = 1
            return sol
    except RuntimeWarning as exc:
        raise NonFinite(f"non-finite arithmetic: {exc}") from exc


# A dual ray r certifies infeasibility when ||A'r|| is at most this share
# of ||r|| ||A||. An unbounded ray of the iteration meets it with ||A'r||
# about 1e-7 ||A|| at most, the dependence test's bound on the primal step.
_RAY_TOL = 1e-6


def _unbounded_ray(A: np.ndarray, u: np.ndarray, p: int, work: list,
                   dlam: np.ndarray) -> Infeasible | Uncertified:
    """The error for a dual ray that is unbounded on adding row p to the
    rows in ``work``: r is 1 on p and the working multipliers' step dlam
    (clipped at 0) on ``work``. ``Infeasible`` when r passes the Farkas
    check (r >= 0, ||A'r|| <= ``_RAY_TOL`` ||r|| ||A||, u'r < 0), so that
    no y satisfies A y <= u; ``Uncertified``, naming the failed condition,
    otherwise."""
    r = np.zeros(A.shape[0])
    r[work] = np.maximum(dlam, 0.0)
    r[p] = 1.0
    Ar = A.T @ r
    res = math.sqrt(Ar @ Ar)
    bound = _RAY_TOL * math.sqrt(r @ r) * float(np.linalg.norm(A))
    ur = float(u @ r)
    if not np.all(r >= 0.0):
        failed = "the ray r has a NaN entry, so r >= 0 fails"
    elif not res <= bound:
        failed = f"||A'r|| = {res:.2e} exceeds {_RAY_TOL:.0e} ||r|| ||A|| = {bound:.2e}"
    elif not ur < 0.0:
        failed = f"u'r = {ur:.2e} is not negative"
    else:
        return Infeasible(f"dual ray unbounded: rows {sorted(work + [p])} are "
                          f"inconsistent (Farkas ray with u'r = {ur:.2e})")
    return Uncertified(f"dual ray unbounded, but its Farkas certificate fails: {failed}")


def _border(Si: np.ndarray, dlam: np.ndarray, curv: float) -> np.ndarray:
    """The inverse of S bordered by a row p, from Si = S^-1, the step
    dlam = -S^-1 s with s = A_W H^-1 a_p, and curv = a_p'H^-1 a_p - s'S^-1 s,
    the Schur complement of S in the bordered matrix."""
    n = dlam.shape[0]
    v = dlam / curv
    out = np.empty((n + 1, n + 1))
    out[:n, :n] = Si + np.outer(v, dlam)
    out[:n, n] = out[n, :n] = v
    out[n, n] = 1.0 / curv
    return out


def _drop(Si: np.ndarray, j: int) -> np.ndarray:
    """The inverse of S without its row and column j, from Si = S^-1."""
    keep = np.r_[0:j, j + 1:Si.shape[0]]
    return Si[np.ix_(keep, keep)] - np.outer(Si[keep, j], Si[j, keep] / Si[j, j])


def _dual_active_set(cache: ActiveSetCache, c: np.ndarray, u: np.ndarray,
                     Hic: np.ndarray, hot: Optional[tuple], exact: bool) -> LLSolution:
    """The iteration of ``solve_qp`` from the hot start ``hot``
    (``_hot_start``); ``exact`` makes the polish and the crash start solve
    with ``np.linalg.solve``. When ``hot`` is None it begins from the rows
    whose slack at the unconstrained minimum -Hic is at most ``TAU_ACT`` (a
    crash start), and repeats from -Hic itself when those yield no hot start
    either or the crash-started iteration raises ``Uncertified`` or
    ``MaxPivots``."""
    if hot is not None:
        return _iterate(cache, c, u, Hic, hot, exact)
    crash = _hot_start(cache, Hic, u, _tight_rows(u - cache.A @ -Hic), exact)
    if crash is not None:
        try:
            return _iterate(cache, c, u, Hic, crash, exact)
        except (Uncertified, MaxPivots):
            pass
    return _iterate(cache, c, u, Hic, ([], np.zeros(0), -Hic), exact)


def _iterate(cache: ActiveSetCache, c: np.ndarray, u: np.ndarray, Hic: np.ndarray,
             hot: tuple, exact: bool) -> LLSolution:
    """The dual active-set iteration from the hot start ``hot`` = (working
    rows, their multipliers, y); ``exact`` makes the polish solve with
    ``np.linalg.solve``. ``Si`` is the inverse of S on the working rows
    ``work``, in their order."""
    H, A = cache.H, cache.A
    d = H.shape[0]
    k = A.shape[0]
    max_pivots = 100 + 50 * (k + d)
    bland_after = 8 + 3 * max(k, 1)
    work, lam_w, y = hot
    Si = cache.inverse(tuple(work)) if work else np.zeros((0, 0))
    # y is the equality solve on the working set until a pivot moves it
    polished = True
    pivots = 0
    repairs = 0

    while True:
        slack = u - A @ y if k else np.zeros(0)
        bad = slack < -_VIOL_TOL
        bad[work] = False
        viol = np.flatnonzero(bad)
        if viol.size == 0:
            if not polished:
                # polish: exact equality solve on the working set
                if work:
                    if not exact:
                        # in sorted order, the tuple the adjoint and the
                        # next warm start ask for; the exact repeat keeps
                        # pivot order, in which it certifies more of the
                        # s = 1e9 draws of TestUncertified (85 of 200, 73
                        # sorted)
                        work.sort()
                    rows = tuple(work)
                    lam_w, y = cache.equality_solve(rows, Hic, u[work], exact)
                    Si = cache.inverse(rows)
                else:
                    lam_w = np.zeros(0)
                    y = -Hic
                slack = u - A @ y if k else np.zeros(0)
                polished = True
            # the polish may expose a marginal violation or a stray negative
            # multiplier; repair by re-entering the loop
            neg = np.flatnonzero(lam_w < -1e-12)
            if neg.size or (k and np.max(-slack) > _VIOL_TOL):
                if repairs >= 5:
                    raise Uncertified(
                        "post-solve repair loop did not settle: largest violation "
                        f"{np.max(-slack):.2e}, most negative multiplier "
                        f"{lam_w.min() if lam_w.size else 0.0:.2e}")
                repairs += 1
                if neg.size:
                    for j in neg[::-1]:
                        work.pop(j)
                        Si = _drop(Si, j)
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
                Aw = A[work]
                dlam = -(Si @ (Aw @ Hia_p))
                z = -(Hia_p + (dlam @ Aw) / H)
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
                raise _unbounded_ray(A, u, p, work, dlam)

            t = min(t_full, t_dual)
            if t > 0:
                y = y + t * z
                lam_w = lam_w + t * dlam
                lam_p += t
                s_p = float(a_p @ y - u[p])
            if t_full <= t_dual:
                work.append(p)
                Si = _border(Si, dlam, curv)
                lam_w = np.append(lam_w, lam_p)
                break
            work.pop(j_drop)
            Si = _drop(Si, j_drop)
            lam_w = np.delete(lam_w, j_drop)

    active = _tight_rows(slack)
    lam = np.zeros(k)
    if work:
        lam[work] = np.maximum(lam_w, 0.0)
    cache.check_rank(active)
    residual = H * y + c
    if active:
        residual = residual + cache.gathered(active).T @ lam[list(active)]
    max_viol = float(-slack.min()) if k else -np.inf
    return _certified(y, lam, active, _certificate(residual, max_viol), max_viol,
                      cache.mu, {"pivots": pivots, "repairs": repairs})


def solve_qp_batch(cache: ActiveSetCache, C: np.ndarray, U: np.ndarray, work) -> tuple:
    """``solve_qp(cache, c, u, start=work)`` for every draw, a row c of ``C``
    with its row u of ``U`` (one vector ``U`` serves every draw), where that
    solve makes no pivot and no repair: one equality KKT solve on ``work``
    with one product by the cached S^-1 for all draws, then one vectorised
    certificate. A draw passes when its multipliers on ``work`` are
    nonnegative, no row is violated by more than ``_VIOL_TOL``, its tight
    rows are exactly ``work`` and its KKT residual is at most ``KKT_TOL``;
    its y and multipliers then equal the single solve's to round-off.

    Returns (ok, Y, Lam): the pass mask, and per draw one row of y and one
    of the k multipliers (zero off ``work``), NaN for a draw that fails.
    Every draw fails when ``work`` is not a usable start, its rows failing
    ``cache.check_rank`` included (see ``_start_solve``). A NaN or
    infinite draw fails, or raises ``NonFinite`` where numpy's warnings are
    raised as errors, as the single solve does."""
    H, A = cache.H, cache.A
    C = np.atleast_2d(np.asarray(C, dtype=float))
    n, d = C.shape
    k = A.shape[0]
    U = np.broadcast_to(U, (n, k))
    work = sorted({int(i) for i in work})
    Y = np.full((n, d), np.nan)
    Lam = np.full((n, k), np.nan)
    HiC = C.T / H[:, None]
    try:  # only a NaN or infinite draw warns here
        solved = (_start_solve(cache, HiC, U, work, False) if work
                  else (np.zeros((0, n)), -HiC))
        if solved is None:
            return np.zeros(n, dtype=bool), Y, Lam
        lam_w, Yc = solved
        slack = U.T - A @ Yc
        kkt = np.linalg.norm(H[:, None] * Yc + C.T + cache.gathered(tuple(work)).T @ lam_w,
                             axis=0)
    except RuntimeWarning as exc:
        raise NonFinite(f"non-finite draw: {exc}") from exc
    in_work = np.zeros(k, dtype=bool)
    in_work[work] = True
    ok = ((lam_w >= 0.0).all(axis=0) & (slack >= -_VIOL_TOL).all(axis=0)
          & ((slack <= TAU_ACT) == in_work[:, None]).all(axis=0) & (kkt <= KKT_TOL))
    Y[ok] = Yc.T[ok]
    Lam[ok] = 0.0
    Lam[np.ix_(ok, work)] = lam_w.T[ok]
    return ok, Y, Lam


def solve_ll_quadratic(inst: QuadraticBilevel, x: np.ndarray,
                       q: Union[Perturbation, np.ndarray, None], start=()) -> LLSolution:
    """Exact solve of the perturbed quadratic lower level at x, optionally
    starting from the rows in ``start`` (see ``solve_qp``)."""
    c, u = _linear_terms(inst, np.asarray(x, dtype=float), _qvec(q, inst.d_l))
    return _solve_qp(inst.active_set_cache, c, u, start)


def _linear_terms(inst: QuadraticBilevel, x: np.ndarray, q: np.ndarray) -> tuple:
    """(c, u) = (Q2'x + q, b - B x), the linear term and the right-hand side
    of the lower level at the float vector x with the float perturbation q;
    where numpy's warnings are raised as errors, an infinite x or q raises
    ``NonFinite``, as in ``solve_qp``."""
    try:
        return inst.Q2.T @ x + q, inst.constraints.rhs(x)
    except RuntimeWarning as exc:
        raise NonFinite(f"non-finite input: {exc}") from exc


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
