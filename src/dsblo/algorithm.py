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
from .lower_level import _ball_draws, _linear_terms, interior_point, solve_ll_quadratic
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


def step_size(m_norm: float, gamma1: float, gamma2: float) -> float:
    """Norm-adaptive step 1/(gamma1 ||m|| + gamma2) from m_norm = ||m||;
    always satisfies eta * ||m|| <= 1/gamma1 and eta <= 1/gamma2."""
    if gamma1 <= 0 or gamma2 <= 0:
        raise ValueError("gamma1 and gamma2 must be positive")
    return 1.0 / (gamma1 * m_norm + gamma2)


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

# The outer loop draws its perturbations and segment points in blocks of at
# most this many (and never more than the run has samples left), so a q
# block holds at most DRAW_BLOCK * d_l floats: 1 MB at d_l = 500.
DRAW_BLOCK = 256


def _outer_loop(problem: QuadraticBilevel, log: RunLog, T: int, seed: int, x0,
                eta_of: Callable[[float], float], beta: float, segment: bool,
                radius: float, option: str, batch_size: int,
                progress: Optional[ProgressFn], cancel: Optional[CancelFn],
                eval_every: int) -> RunLog:
    """The loop both runs share. Iteration t logs x_t, steps
    x_{t+1} = x_t - eta_of(||m_t||) m_t, samples the next gradient at a uniform
    point of the step segment (``segment``) or at x_{t+1}, and folds it into
    the momentum m with weight 1 - beta. The q, segment and component draws
    use the three streams of ``SeedSequence(seed).spawn(3)``. The q draws
    and their norms come in blocks of ``_ball_draws`` and the segment points
    in blocks of ``seg_rng.random(n)``, each block at most ``DRAW_BLOCK``
    long and no longer than the samples the run has left; a degenerate
    resample takes the next row. Both give the bits of one draw at a time,
    so a run's records do not depend on the block length. x0 (zeros when
    None) must have shape (d_u,), or ``ValueError`` names that shape; the
    samples' gradients do not check shapes again. Exact F is
    logged every ``eval_every`` iterations and at T; nothing in the loop
    reads it, so the due records are evaluated together after the loop
    (``eval_F_exact_rows``) and ``progress`` sees F_exact None. Every
    lower-level solve, the exact-F ones included, starts from the active set
    of the latest gradient sample; the solves, pivots and repairs of the
    gradient samples go to ``log.lower_level``. The window check (``check_windows``) goes to
    ``log.windows``; a run without a schedule checks nothing."""
    d_u = problem.d_u
    x = np.zeros(d_u) if x0 is None else np.asarray(x0, dtype=float).copy()
    if x.shape != (d_u,):
        raise ValueError(f"x0 must have shape ({d_u},), got {x.shape}")
    q_rng, seg_rng, xi_rng = (
        np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(3)
    )
    t = 0  # the loop's iteration; the sample taken at t is the (t+1)-th of T

    def blocks(draw):
        """The items of successive blocks draw(n), n = min(DRAW_BLOCK, T - t):
        from iteration t on, a run that is not cancelled takes at least T - t
        more samples and segment points."""
        while True:
            yield from draw(min(DRAW_BLOCK, T - t))

    def q_block(n):
        Q, norms = _ball_draws(radius, q_rng, problem.d_l, n)
        return zip(Q, norms.tolist())

    q_draws = blocks(q_block)
    seg_draws = blocks(lambda n: seg_rng.random(n).tolist())
    ll_s = ig_s = 0.0  # seconds in the solves and in the gradients
    log.lower_level = counts = {"solves": 0, "pivots": 0, "repairs": 0}
    t_start = time.monotonic()

    cache, interior = problem.active_set_cache, problem.interior_gradient
    sampled = option == "sampled"

    def components():
        return [sample_component(problem, xi_rng) for _ in range(batch_size)]

    def sample(x_pt, start):
        """One perturbed implicit-gradient evaluation at x_pt, its lower-level
        solve started from the rows in ``start``; a degenerate active set
        triggers a fresh perturbation draw, up to 5 retries. The sampled
        option draws ``batch_size`` components from the component stream
        once the solve succeeds and averages them in one gradient. Returns
        ||q||, the gradient and the solve's active set.

        A sample without a start whose solve is interior
        (``interior_point``) takes y and the instance's interior gradient
        map directly, with the full-batch offset g0 or the mean offset of
        the drawn components, so with the bits ``solve_ll_quadratic`` and
        ``implicit_gradient`` (or ``sampled_implicit_gradient``) would give
        and no solve or gradient object; every other sample goes through
        those. The map checks no shapes: x0 is checked above, and every y
        comes from a solve of the instance."""
        nonlocal ll_s, ig_s
        last = None
        for _ in range(5):
            q, q_norm = next(q_draws)
            t0 = time.monotonic()
            if not start:
                inner = interior_point(cache, *_linear_terms(problem, x_pt, q))
                if inner is not None:
                    t1 = time.monotonic()
                    g0 = interior.offsets[components()].mean(axis=0) if sampled else interior.g0
                    g = interior(x_pt, inner[0], g0)
                    ll_s += t1 - t0
                    ig_s += time.monotonic() - t1
                    counts["solves"] += 1
                    return q_norm, g, ()
            try:
                sol = solve_ll_quadratic(problem, x_pt, q, start)
                t1 = time.monotonic()
                if sampled:
                    g = sampled_implicit_gradient(problem, x_pt, sol, components()).grad
                else:
                    g = implicit_gradient(problem, x_pt, sol).grad
            except DegenerateActiveSet as exc:
                # a discarded draw's time counts as lower-level time
                ll_s += time.monotonic() - t0
                last = exc
                continue
            t2 = time.monotonic()
            ll_s += t1 - t0
            ig_s += t2 - t1
            counts["solves"] += 1
            counts["pivots"] += sol.stats["pivots"]
            counts["repairs"] += sol.stats["repairs"]
            return q_norm, g, sol.active_set
        raise DsbloError(
            "degenerate active set persisted through 5 perturbation resamples"
        ) from last

    q_norm, g, active = sample(x, ())
    m = g
    x_bar = x.copy()
    due, starts = [], []  # the records owed an exact F, and their solves' starts
    for t in range(1, T + 1):
        m_norm = math.sqrt(m @ m)
        eta = eta_of(m_norm)
        if eval_every and ((t - 1) % eval_every == 0 or t == T):
            due.append(t - 1)
            starts.append(active)
        rec = IterateRecord(
            t=t, x=x, x_bar=x_bar, q_norm=q_norm, eta=eta,
            m_norm=m_norm, grad=g, wall_time=time.monotonic() - t_start,
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
        x_bar = x + next(seg_draws) * (x_next - x) if segment else x_next
        q_norm, g, active = sample(x_bar, active)
        # beta = 0 keeps g itself: 0 * m would turn an overflowed m into NaN
        m = beta * m + (1.0 - beta) * g if beta else g
        x = x_next

    diag_s = 0.0
    if due:
        t0 = time.monotonic()
        F = eval_F_exact_rows(problem, [log.records[i].x for i in due], starts)
        diag_s = time.monotonic() - t0
        for i, f in zip(due, F.tolist()):
            log.records[i].F_exact = f
    log.windows = check_windows(log)
    total = time.monotonic() - t_start
    log.timings = {"total_s": total, "ll_solve_s": ll_s, "implicit_grad_s": ig_s,
                   "diagnostics_s": diag_s, "outer_s": total - ll_s - ig_s - diag_s}
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
                       lambda m_norm: step_size(m_norm, sched.gamma1, sched.gamma2),
                       sched.beta, True, params.perturb_radius, params.option,
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
    return _outer_loop(problem, log, T, seed, x0, lambda m_norm: step, 0.0, False,
                       perturb_radius, "deterministic", 1,
                       progress, cancel, eval_every)
