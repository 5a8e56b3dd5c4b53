"""Doubly stochastic outer loop and the plain inexact implicit-gradient
baseline, which share one loop body.

One outer iteration: step x along the momentum direction with the
norm-adaptive step 1/(gamma1*||m|| + gamma2), draw a uniform point on the
traversed segment, re-perturb the lower level with a fresh q, solve it
exactly (KKT residual certified to 1e-10), evaluate the (optionally
sampled) implicit gradient there, and fold it into the momentum average.
The q draws, the segment draws and the component draws each consume an
independent RNG stream, so runs are reproducible and the three
randomizations can be reasoned about separately.
"""

from __future__ import annotations

import math
import numbers
import time
from dataclasses import asdict, dataclass, field
from functools import cached_property
from typing import Callable, List, Optional, Union

import numpy as np

from .diagnostics import check_windows, eval_F_exact_rows, stationarity_profile
from .errors import DegenerateActiveSet, DsbloError, ScheduleInfeasible
from .implicit_grad import implicit_gradient, sampled_implicit_gradient
from .lower_level import _ball_draw
from .problem import QuadraticBilevel, sample_component


@dataclass(frozen=True)
class TheoryMode:
    """Accuracy-driven parameter selection from the (epsilon, delta_bar)
    Goldstein target and the variance / gradient-norm bounds delta_v,
    L_F_bar. ``lf_delta`` optionally caps the lower-level accuracy target by
    the gradient-bias budget; leave None to drop that term from the min."""

    epsilon: float
    delta_bar: float
    delta_v: float
    l_f_bar: float
    lf_delta: Optional[float] = None


@dataclass(frozen=True)
class ManualMode:
    """The outer-loop constants; ``schedule`` resolves a ``TheoryMode`` to
    one of these."""

    beta: float
    gamma1: float
    gamma2: float
    K: int
    delta_y: float

    @property
    def delta_bar(self) -> float:
        """The window radius K/gamma1 that the step budget guarantees."""
        return self.K / self.gamma1


@dataclass(frozen=True)
class DsbloParams:
    T: int
    mode: Union[TheoryMode, ManualMode]
    perturb_radius: float = 1e-3
    option: str = "deterministic"  # "deterministic" (full batch) or "sampled"
    seed: int = 0
    batch_size: int = 1


def schedule(params: DsbloParams) -> ManualMode:
    """The outer-loop constants: a manual mode itself once validated, or a
    theory mode's resolved constants. Also checks T > K, the option and
    batch_size >= 1.

    Theory mode, for target accuracy eps and radius delta_bar:

        beta   = 1 - eps^2 / (960 (dv^2 + 2 Lf^2))
        K      = ceil( ln(32 (dv + 2 Lf) / eps) / ln(1/beta) )
        gamma1 = K / delta_bar
        gamma2 = 4 gamma1 (dv + 2 Lf)
        delta_y = min{ eps^2 / (1280 (dv + 2 Lf)), 2 eps / 3, Lf [, lf_delta] }

    and requires eps <= dv + 2 Lf as well as eps^2 <= 480 (dv^2 + 2 Lf^2)
    (the latter keeps beta >= 1/2).
    """
    if params.option not in ("deterministic", "sampled"):
        raise ValueError(f"unknown option {params.option!r}")
    if params.batch_size < 1:
        raise ValueError(f"batch_size={params.batch_size!r} must be at least 1")
    mode = params.mode
    if isinstance(mode, ManualMode):
        if not 0.0 < mode.beta < 1.0:
            raise ScheduleInfeasible(f"manual beta={mode.beta} outside (0, 1)")
        if mode.gamma1 <= 0 or mode.gamma2 <= 0:
            raise ScheduleInfeasible("manual gamma1 and gamma2 must be positive")
        if not isinstance(mode.K, numbers.Integral) or mode.K < 1:
            raise ScheduleInfeasible(f"manual K={mode.K!r} must be an integer >= 1")
        if mode.delta_y <= 0:
            raise ScheduleInfeasible("manual delta_y must be positive")
        sched = mode
    else:
        eps = mode.epsilon
        if eps <= 0:
            raise ScheduleInfeasible("theory mode needs epsilon > 0")
        if mode.delta_bar <= 0:
            raise ScheduleInfeasible("theory mode needs delta_bar > 0")
        dv, lf = mode.delta_v, mode.l_f_bar
        if dv < 0 or lf <= 0:
            raise ScheduleInfeasible("theory mode needs delta_v >= 0 and L_F_bar > 0")
        spread = dv + 2.0 * lf
        if eps > spread:
            raise ScheduleInfeasible(
                f"epsilon <= delta_v + 2*L_F_bar violated ({eps:.3g} > {spread:.3g})"
            )
        sq = dv * dv + 2.0 * lf * lf
        if eps * eps > 480.0 * sq:
            raise ScheduleInfeasible(
                f"epsilon^2 <= 480*(delta_v^2 + 2*L_F_bar^2) violated "
                f"({eps * eps:.3g} > {480.0 * sq:.3g}); beta would fall below 1/2"
            )
        u = eps * eps / (960.0 * sq)
        # ln(1/beta) = -log1p(-u), accurate for beta close to 1
        big_k = math.ceil(math.log(32.0 * spread / eps) / (-math.log1p(-u)))
        gamma1 = big_k / mode.delta_bar
        terms = [eps * eps / (1280.0 * spread), 2.0 * eps / 3.0, lf]
        if mode.lf_delta is not None:
            terms.append(mode.lf_delta)
        sched = ManualMode(beta=1.0 - u, gamma1=gamma1, gamma2=4.0 * gamma1 * spread,
                           K=big_k, delta_y=min(terms))
    if params.T <= sched.K:
        raise ScheduleInfeasible(f"T={params.T} must exceed K={sched.K}")
    return sched


def step_size(m: np.ndarray, gamma1: float, gamma2: float) -> float:
    """Norm-adaptive step 1/(gamma1 ||m|| + gamma2); always satisfies
    eta * ||m|| <= 1/gamma1 and eta <= 1/gamma2."""
    if gamma1 <= 0 or gamma2 <= 0:
        raise ValueError("gamma1 and gamma2 must be positive")
    return 1.0 / (gamma1 * float(np.linalg.norm(m)) + gamma2)


@dataclass
class IterateRecord:
    t: int
    x: np.ndarray
    x_bar: np.ndarray
    q_norm: float
    eta: float
    m_norm: float
    grad: np.ndarray
    F_exact: Optional[float] = None
    wall_time: float = 0.0


@dataclass
class RunLog:
    algorithm: str
    params: dict
    schedule: Optional[ManualMode]
    records: List[IterateRecord] = field(default_factory=list)
    timings: dict = field(default_factory=dict)
    truncated: bool = False
    windows: Optional[dict] = None  # result of diagnostics.check_windows
    # gradient-sample lower-level solves, with their pivots and repairs
    lower_level: dict = field(default_factory=dict)

    @cached_property
    def stationarity(self) -> np.ndarray:
        """The CSV's stationarity column, computed once, after the run: the
        window norms (``stationarity_profile``, NaN where the window is
        incomplete) of a run with a schedule, the momentum norms otherwise."""
        sched = self.schedule
        if sched is None:
            return np.asarray([r.m_norm for r in self.records])
        return stationarity_profile(self, sched.beta, sched.K)


ProgressFn = Callable[[IterateRecord], None]
CancelFn = Callable[[], bool]


class _Stopwatch:
    """Seconds spent inside the calls made through ``call``."""

    def __init__(self):
        self.total = 0.0

    def call(self, fn, *args):
        t0 = time.monotonic()
        try:
            return fn(*args)
        finally:
            self.total += time.monotonic() - t0


def _outer_loop(problem: QuadraticBilevel, log: RunLog, T: int, seed: int, x0,
                eta_of: Callable[[np.ndarray], float], beta: float, segment: bool,
                radius: float, option: str, batch_size: int,
                progress: Optional[ProgressFn], cancel: Optional[CancelFn],
                eval_every: int) -> RunLog:
    """The loop both runs share. Iteration t logs x_t, steps
    x_{t+1} = x_t - eta_of(m_t) m_t, samples the next gradient at a uniform
    point of the step segment (``segment``) or at x_{t+1}, and folds it into
    the momentum m with weight 1 - beta. The q, segment and component draws
    use the three streams of ``SeedSequence(seed).spawn(3)``. Exact F is
    logged every ``eval_every`` iterations and at T; nothing in the loop
    reads it, so the due records are evaluated together after the loop
    (``eval_F_exact_rows``) and ``progress`` sees F_exact None. Every
    lower-level solve, the exact-F ones included, starts from the active set
    of the latest gradient sample; the solves, pivots and repairs of the
    gradient samples go to ``log.lower_level``. The window check (``check_windows``) goes to
    ``log.windows``; a run without a schedule checks nothing."""
    x = np.zeros(problem.d_u) if x0 is None else np.asarray(x0, dtype=float).copy()
    q_rng, seg_rng, xi_rng = (
        np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(3)
    )
    ll, ig, diag = _Stopwatch(), _Stopwatch(), _Stopwatch()
    log.lower_level = counts = {"solves": 0, "pivots": 0, "repairs": 0}
    t_start = time.monotonic()

    def sample(x_pt, start):
        """One perturbed implicit-gradient evaluation at x_pt, its lower-level
        solve started from the rows in ``start``; a degenerate active set
        triggers a fresh perturbation draw, up to 5 retries. The sampled
        option draws ``batch_size`` components and averages them in one
        gradient call. Returns q, the gradient and the solve."""
        last = None
        for _ in range(5):
            q = _ball_draw(radius, q_rng, problem.d_l)
            try:
                sol = ll.call(problem.solve_ll, x_pt, q, start)
                if option == "sampled":
                    xi = [sample_component(problem, xi_rng) for _ in range(batch_size)]
                    g = ig.call(sampled_implicit_gradient, problem, x_pt, sol, xi).grad
                else:
                    g = ig.call(implicit_gradient, problem, x_pt, sol).grad
            except DegenerateActiveSet as exc:
                last = exc
                continue
            counts["solves"] += 1
            counts["pivots"] += sol.stats["pivots"]
            counts["repairs"] += sol.stats["repairs"]
            return q, g, sol
        raise DsbloError(
            "degenerate active set persisted through 5 perturbation resamples"
        ) from last

    q, g, sol = sample(x, ())
    m = g
    x_bar = x.copy()
    due, starts = [], []  # the records owed an exact F, and their solves' starts
    for t in range(1, T + 1):
        eta = eta_of(m)
        if eval_every and ((t - 1) % eval_every == 0 or t == T):
            due.append(t - 1)
            starts.append(sol.active_set)
        rec = IterateRecord(
            t=t, x=x, x_bar=x_bar, q_norm=float(np.linalg.norm(q)), eta=eta,
            m_norm=float(np.linalg.norm(m)), grad=g, wall_time=time.monotonic() - t_start,
        )
        log.records.append(rec)
        if progress is not None:
            progress(rec)
        if t == T:
            break
        if cancel is not None and cancel():
            log.truncated = True
            break

        x_next = x - eta * m
        x_bar = x + float(seg_rng.random()) * (x_next - x) if segment else x_next
        q, g, sol = sample(x_bar, sol.active_set)
        # beta = 0 keeps g itself: 0 * m would turn an overflowed m into NaN
        m = beta * m + (1.0 - beta) * g if beta else g
        x = x_next

    if due:
        F = diag.call(eval_F_exact_rows, problem, [log.records[i].x for i in due], starts)
        for i, f in zip(due, F.tolist()):
            log.records[i].F_exact = f
    log.windows = check_windows(log)
    total = time.monotonic() - t_start
    log.timings = {"total_s": total, "ll_solve_s": ll.total, "implicit_grad_s": ig.total,
                   "diagnostics_s": diag.total,
                   "outer_s": total - ll.total - ig.total - diag.total}
    return log


def run_dsblo(problem: QuadraticBilevel, params: DsbloParams, x0=None,
              progress: Optional[ProgressFn] = None,
              cancel: Optional[CancelFn] = None,
              eval_every: int = 1) -> RunLog:
    """Run the doubly stochastic loop for T iterations and log every iterate.
    Every lower-level solve is exact, its KKT residual certified to 1e-10,
    so it meets any accuracy ``delta_y`` the schedule asks for.

    After the loop, ``diagnostics.check_windows`` checks over the records
    that every trailing window keeps its step budget
    sum_j eta_j ||m_j|| <= K/gamma1 and the resulting containment
    ||x_{t-K} - x_bar_i|| <= delta_bar = K/gamma1; a violation raises
    ``WindowViolation``, and the result is kept in ``RunLog.windows``.
    """
    sched = schedule(params)
    log = RunLog(
        algorithm="dsblo",
        params={**asdict(params), "mode": asdict(params.mode),
                "mode_kind": type(params.mode).__name__},
        schedule=sched,
    )
    return _outer_loop(problem, log, params.T, params.seed, x0,
                       lambda m: step_size(m, sched.gamma1, sched.gamma2), sched.beta, True,
                       params.perturb_radius, params.option,
                       params.batch_size, progress, cancel, eval_every)


def run_igd_baseline(problem: QuadraticBilevel, step: float, T: int, seed: int = 0,
                     perturb_radius: float = 1e-3, x0=None,
                     progress: Optional[ProgressFn] = None,
                     cancel: Optional[CancelFn] = None,
                     eval_every: int = 1) -> RunLog:
    """Fixed-step implicit gradient descent with a fresh small perturbation
    each iteration; the comparison baseline for the benchmark runs. It is
    the dsblo loop with eta = step, beta = 0 and the next gradient sampled
    at x_{t+1} itself."""
    if step < 0:
        raise ValueError("step must be nonnegative")
    if T < 1:
        raise ValueError("T must be at least 1")
    log = RunLog(
        algorithm="igd",
        params={"step": step, "T": T, "seed": seed, "perturb_radius": perturb_radius},
        schedule=None,
    )
    return _outer_loop(problem, log, T, seed, x0, lambda m: step, 0.0, False,
                       perturb_radius, "deterministic", 1,
                       progress, cancel, eval_every)
