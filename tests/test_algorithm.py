import math
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dsblo
import dsblo.algorithm as algo
import dsblo.lower_level as ll
from dsblo.algorithm import (DsbloParams, ManualMode, TheoryMode, run_dsblo,
                             run_igd_baseline, schedule, step_size)
from dsblo.diagnostics import check_windows, eval_F_exact
from dsblo.errors import (DegenerateActiveSet, DsbloError, Infeasible, NonFinite,
                          ScheduleInfeasible)
from dsblo.implicit_grad import implicit_gradient, sampled_implicit_gradient
from dsblo.lower_level import TAU_ACT, _ball_draw, sample_perturbation, solve_ll_quadratic
from dsblo.problem import Polyhedron, generate_instance, sample_component
from dsblo.verify import schedule_recompute_mp

from conftest import make_1d_instance


def shared_min_instance():
    # f = g = x^2 + xy + y^2, unconstrained; both levels share the minimizer 0
    return make_1d_instance(q2=1.0, q1=10.0)


# the paper's d=10 loop constants (the paper-d10 benchmark and the CI pair)
PAPER_MODE = ManualMode(beta=0.9, gamma1=20.0, gamma2=20.0, K=10, delta_y=1e-8)


def reference_dsblo(inst, mode, T, seed, skip=frozenset()):
    """The dsblo loop from x0 = 0 written out one draw at a time: each q by
    ``sample_perturbation`` from stream 0, each segment point by
    ``seg_rng.random()`` from stream 1, every sample solved without a start.
    The q draws whose index is in ``skip`` are discarded, as a degenerate
    resample discards them. One (x, x_bar, q_norm, eta, m_norm, grad) per
    iteration."""
    q_rng, seg_rng, _ = (np.random.default_rng(s)
                         for s in np.random.SeedSequence(seed).spawn(3))
    drawn = 0

    def sample(x):
        nonlocal drawn
        while True:
            q = sample_perturbation(1e-3, q_rng, inst.d_l)
            drawn += 1
            if drawn - 1 not in skip:
                return q.norm, implicit_gradient(inst, x, solve_ll_quadratic(inst, x, q)).grad

    x = x_bar = np.zeros(inst.d_u)
    q_norm, g = sample(x)
    m, rows = g, []
    for t in range(1, T + 1):
        m_norm = float(np.linalg.norm(m))
        eta = step_size(m_norm, mode.gamma1, mode.gamma2)
        rows.append((x, x_bar, q_norm, eta, m_norm, g))
        if t == T:
            return rows
        x_next = x - eta * m
        x_bar = x + seg_rng.random() * (x_next - x)
        q_norm, g = sample(x_bar)
        m = mode.beta * m + (1.0 - mode.beta) * g
        x = x_next


def record_blocks(monkeypatch):
    """The row counts of the loop's q blocks, in the order it draws them."""
    sizes = []
    orig = algo._ball_draws

    def recording(radius, rng, d_l, n):
        sizes.append(n)
        return orig(radius, rng, d_l, n)

    monkeypatch.setattr(algo, "_ball_draws", recording)
    return sizes


def assert_records_equal(log, rows):
    assert len(log.records) == len(rows)
    for t, (rec, (x, x_bar, q_norm, eta, m_norm, g)) in enumerate(zip(log.records, rows), 1):
        assert rec.t == t and rec.q_norm == q_norm and rec.eta == eta and rec.m_norm == m_norm
        assert rec.x.tobytes() == x.tobytes() and rec.x_bar.tobytes() == x_bar.tobytes()
        assert rec.grad.tobytes() == g.tobytes()


class TestSchedule:
    def test_theory_example(self):
        params = DsbloParams(T=10**9, mode=TheoryMode(epsilon=1.0, delta_bar=0.5,
                                                      delta_v=0.0, l_f_bar=5.0))
        got = schedule(params)
        assert type(got) is ManualMode
        assert got.delta_bar == 0.5
        assert got.beta == 1.0 - 1.0 / 48_000.0
        ref = schedule_recompute_mp(1.0, 0.0, 5.0, 0.5)
        assert got.K == ref["K"]
        assert got.K == math.ceil(math.log(320.0) / -math.log1p(-1.0 / 48_000.0))
        assert got.gamma1 == got.K / 0.5
        assert got.gamma2 == pytest.approx(4.0 * got.gamma1 * 10.0, rel=1e-15)
        assert got.delta_y == pytest.approx(1.0 / 12_800.0, rel=1e-15)

    def test_lf_delta_slot(self):
        base = DsbloParams(T=10**9, mode=TheoryMode(1.0, 0.5, 0.0, 5.0))
        capped = DsbloParams(T=10**9, mode=TheoryMode(1.0, 0.5, 0.0, 5.0, lf_delta=1e-6))
        assert schedule(capped).delta_y == 1e-6
        assert schedule(base).delta_y > 1e-6

    def test_manual_passthrough(self):
        mode = ManualMode(beta=0.9, gamma1=2.0, gamma2=4.0, K=10, delta_y=1e-3)
        got = schedule(DsbloParams(T=100, mode=mode))
        assert got is mode
        assert got.delta_bar == mode.K / mode.gamma1 == 5.0

    def test_epsilon_too_large(self):
        params = DsbloParams(T=100, mode=TheoryMode(epsilon=2.0, delta_bar=0.5,
                                                    delta_v=0.0, l_f_bar=0.5))
        with pytest.raises(ScheduleInfeasible, match="delta_v"):
            schedule(params)

    def test_manual_validation(self):
        bad = [
            ManualMode(beta=1.2, gamma1=1.0, gamma2=1.0, K=5, delta_y=1e-3),
            ManualMode(beta=0.9, gamma1=-1.0, gamma2=1.0, K=5, delta_y=1e-3),
            ManualMode(beta=0.9, gamma1=1.0, gamma2=1.0, K=0, delta_y=1e-3),
            ManualMode(beta=0.9, gamma1=1.0, gamma2=1.0, K=5.0, delta_y=1e-3),
            ManualMode(beta=0.9, gamma1=1.0, gamma2=1.0, K=5, delta_y=0.0),
        ]
        for mode in bad:
            with pytest.raises(ScheduleInfeasible):
                schedule(DsbloParams(T=100, mode=mode))

    def test_run_requires_t_beyond_k(self):
        inst = shared_min_instance()
        params = DsbloParams(T=5, mode=ManualMode(0.9, 1.0, 10.0, K=5, delta_y=1e-3))
        with pytest.raises(ScheduleInfeasible, match="T="):
            run_dsblo(inst, params)

    def test_beta_stays_above_half(self):
        # implied by epsilon <= delta_v + 2 L_F_bar, checked explicitly
        s = schedule(DsbloParams(T=10**9, mode=TheoryMode(3.0, 0.1, 1.0, 1.0)))
        assert 0.5 <= s.beta < 1.0


class TestStepSize:
    def test_arithmetic(self):
        assert step_size(3.0, 2.0, 4.0) == pytest.approx(0.1, abs=1e-15)

    def test_zero_momentum(self):
        assert step_size(0.0, 2.0, 4.0) == 0.25

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=6),
           st.floats(1e-3, 1e3), st.floats(1e-3, 1e3))
    def test_bounds(self, m, g1, g2):
        m_norm = float(np.linalg.norm(m))
        eta = step_size(m_norm, g1, g2)
        assert 0.0 < eta <= 1.0 / g2
        assert eta * m_norm <= 1.0 / g1 + 1e-12

    def test_gammas_checked(self):
        for gammas in ((0.0, 1.0), (1.0, -1.0)):
            with pytest.raises(ValueError, match="positive"):
                step_size(1.0, *gammas)


class TestRunDsblo:
    PARAMS = DsbloParams(
        T=500, mode=ManualMode(beta=0.9, gamma1=1.0, gamma2=10.0, K=5, delta_y=1e-3),
        perturb_radius=1e-4, seed=7,
    )

    def test_converges_on_shared_min(self):
        inst = shared_min_instance()
        log = run_dsblo(inst, self.PARAMS, x0=[1.0], eval_every=0)
        assert abs(log.records[-1].x[0]) <= 1e-2
        assert len(log.records) == 500

    def test_deterministic_given_seed(self):
        inst = shared_min_instance()
        a = run_dsblo(inst, self.PARAMS, x0=[1.0], eval_every=0)
        b = run_dsblo(inst, self.PARAMS, x0=[1.0], eval_every=0)
        for ra, rb in zip(a.records, b.records):
            assert np.array_equal(ra.x, rb.x)
            assert np.array_equal(ra.x_bar, rb.x_bar)
            assert np.array_equal(ra.grad, rb.grad)
            assert ra.eta == rb.eta and ra.q_norm == rb.q_norm

    def test_momentum_identity(self):
        inst = generate_instance(4, 4, 3, seed=2)
        params = DsbloParams(
            T=50, mode=ManualMode(beta=0.85, gamma1=5.0, gamma2=20.0, K=5, delta_y=1e-8),
            perturb_radius=1e-3, seed=2,
        )
        log = run_dsblo(inst, params, eval_every=0)
        beta = 0.85
        grads = [r.grad for r in log.records]
        m = grads[0].copy()
        for t, rec in enumerate(log.records, start=1):
            if t > 1:
                m = beta * m + (1 - beta) * grads[t - 1]
            # closed form: beta^{t-1} g_1 + (1-beta) sum beta^{t-i} g_i
            closed = beta ** (t - 1) * grads[0]
            for i in range(2, t + 1):
                closed = closed + (1 - beta) * beta ** (t - i) * grads[i - 1]
            assert np.linalg.norm(m - closed) <= 1e-10
            assert rec.m_norm == pytest.approx(np.linalg.norm(m), abs=1e-12)
            assert rec.eta == 1.0 / (5.0 * rec.m_norm + 20.0)

    def test_sampled_point_on_segment(self):
        inst = generate_instance(4, 4, 3, seed=3)
        params = DsbloParams(
            T=40, mode=ManualMode(beta=0.9, gamma1=5.0, gamma2=20.0, K=5, delta_y=1e-8),
            seed=3,
        )
        log = run_dsblo(inst, params, eval_every=0)
        for prev, cur in zip(log.records, log.records[1:]):
            seg = np.linalg.norm(cur.x - prev.x)
            via = np.linalg.norm(cur.x_bar - prev.x) + np.linalg.norm(cur.x - cur.x_bar)
            assert via <= seg + 1e-9  # collinear and between the endpoints

    def test_window_displacement(self):
        inst = generate_instance(6, 6, 4, seed=4)
        params = DsbloParams(
            T=120, mode=ManualMode(beta=0.9, gamma1=10.0, gamma2=30.0, K=8, delta_y=1e-8),
            seed=4,
        )
        log = run_dsblo(inst, params, eval_every=0)
        disp = log.windows
        assert disp == check_windows(log)
        assert disp["violations"] == 0
        assert disp["checked"] > 0
        assert disp["max_ratio"] <= 1.0 + 1e-9

    def test_option_sampled(self):
        inst = generate_instance(4, 4, 2, seed=5, n_components=8)
        params = DsbloParams(
            T=60, mode=ManualMode(beta=0.9, gamma1=5.0, gamma2=20.0, K=5, delta_y=1e-8),
            option="sampled", seed=5,
        )
        a = run_dsblo(inst, params, eval_every=0)
        b = run_dsblo(inst, params, eval_every=0)
        assert len(a.records) == 60
        assert np.array_equal(a.records[-1].x, b.records[-1].x)

    def test_sampled_batch_one_gradient_call(self, monkeypatch):
        # each gradient sample draws its batch in order from the component
        # stream (the third of the run seed's streams), interior samples
        # and binding ones alike
        inst = generate_instance(4, 4, 2, seed=5, n_components=8)
        draws = []
        real = algo.sample_component

        def recording(problem, rng):
            draws.append(real(problem, rng))
            return draws[-1]

        monkeypatch.setattr(algo, "sample_component", recording)
        params = DsbloParams(
            T=12, mode=ManualMode(beta=0.9, gamma1=5.0, gamma2=20.0, K=5, delta_y=1e-8),
            option="sampled", seed=3, batch_size=5)
        run_dsblo(inst, params, eval_every=0)
        replay = np.random.default_rng(np.random.SeedSequence(3).spawn(3)[2])
        assert draws == [int(replay.integers(8)) for _ in range(5 * 12)]

    def test_nan_start_raises(self):
        # the first sample has no start, so it takes the interior sample's
        # path; with the suite's warnings raised as errors it must raise
        # NonFinite as solve_ll_quadratic does, in both runs
        inst = generate_instance(4, 4, 2, seed=1)
        for x0 in ([np.nan, 0.0, 0.0, 0.0], [np.inf, 0.0, 0.0, 0.0],
                   [0.0, -np.inf, 0.0, 0.0], [np.inf, 0.0, -np.inf, 0.0]):
            with pytest.raises(NonFinite):
                solve_ll_quadratic(inst, np.asarray(x0), None)
            with pytest.raises(NonFinite):
                run_dsblo(inst, self.PARAMS, x0=x0)
            with pytest.raises(NonFinite):
                run_igd_baseline(inst, step=0.05, T=10, x0=x0)

    def test_unknown_option_rejected(self):
        inst = shared_min_instance()
        with pytest.raises(ValueError):
            run_dsblo(inst, DsbloParams(T=10, mode=self.PARAMS.mode, option="bogus"))

    @pytest.mark.parametrize("batch_size", [0, -1])
    def test_batch_size_below_one_rejected(self, batch_size):
        inst = shared_min_instance()
        params = DsbloParams(T=10, mode=self.PARAMS.mode, option="sampled",
                             batch_size=batch_size)
        with pytest.raises(ValueError, match="batch_size"):
            schedule(params)
        with pytest.raises(ValueError, match="batch_size"):
            run_dsblo(inst, params)

    def test_progress_and_cancel(self):
        inst = generate_instance(4, 4, 2, seed=6)
        seen = []
        params = DsbloParams(
            T=100, mode=ManualMode(beta=0.9, gamma1=5.0, gamma2=20.0, K=5, delta_y=1e-8),
            seed=6,
        )
        log = run_dsblo(inst, params, eval_every=0,
                        progress=seen.append, cancel=lambda: len(seen) >= 17)
        assert log.truncated
        assert len(log.records) == len(seen) == 17

    def test_exact_F_filled_in_after_the_loop(self):
        # progress sees every record before its F is evaluated; the due
        # records get theirs from one batched evaluation at the end
        inst = generate_instance(4, 4, 2, seed=6)
        params = DsbloParams(
            T=23, mode=ManualMode(beta=0.9, gamma1=5.0, gamma2=20.0, K=5, delta_y=1e-8),
            seed=6,
        )
        seen = []
        log = run_dsblo(inst, params, eval_every=5,
                        progress=lambda rec: seen.append(rec.F_exact))
        assert seen == [None] * 23
        assert [r.t for r in log.records if r.F_exact is not None] == [1, 6, 11, 16, 21, 23]
        for r in log.records:
            if r.F_exact is not None:
                assert type(r.F_exact) is float and r.F_exact == eval_F_exact(inst, r.x)

    def test_degenerate_resample_then_abort(self, monkeypatch):
        # the loop draws its q in blocks, so count the draws it consumes: each
        # attempt hands its q to solve_ll_quadratic, in stream order
        inst = generate_instance(4, 4, 2, seed=8)
        consumed = []
        orig = algo.solve_ll_quadratic

        def recording_solve(problem, x, q, start=()):
            consumed.append(q)
            return orig(problem, x, q, start)

        def always_degenerate(problem, x, sol):
            raise DegenerateActiveSet("forced")

        monkeypatch.setattr(algo, "solve_ll_quadratic", recording_solve)
        monkeypatch.setattr(algo, "implicit_gradient", always_degenerate)
        # no sample is interior, so each one reaches implicit_gradient
        monkeypatch.setattr(algo, "interior_point", lambda cache, c, u: None)
        params = DsbloParams(
            T=10, mode=ManualMode(beta=0.9, gamma1=5.0, gamma2=20.0, K=2, delta_y=1e-8),
            seed=8,
        )
        with pytest.raises(DsbloError, match="5 perturbation resamples"):
            run_dsblo(inst, params, eval_every=0)
        q_rng = np.random.default_rng(np.random.SeedSequence(8).spawn(3)[0])
        assert len(consumed) == 5
        for q in consumed:
            assert q.tobytes() == _ball_draw(1e-3, q_rng, 4).tobytes()

    def test_matches_reference_loop(self, seed1_instance, monkeypatch):
        # T spans three draw blocks (256, 256 and 88 rows); the reference
        # draws q and the segment point one at a time
        inst, T, seed = seed1_instance, 2 * algo.DRAW_BLOCK + 88, 3
        blocks = record_blocks(monkeypatch)
        log = run_dsblo(inst, DsbloParams(T=T, mode=PAPER_MODE, seed=seed), eval_every=0)
        assert blocks == [256, 256, 88]
        assert_records_equal(log, reference_dsblo(inst, PAPER_MODE, T, seed))
        # a run shorter than the cap draws no more rows than it has samples
        run_dsblo(inst, DsbloParams(T=60, mode=PAPER_MODE, seed=seed), eval_every=0)
        assert blocks[3:] == [60]

    def test_resamples_inside_a_block_match_a_per_draw_replay(self, seed1_instance,
                                                              monkeypatch):
        # every sample here is interior; the draws in ``forced`` are declined
        # and made degenerate, so the loop discards them and takes the next
        # row of its block, or of the next block: 10-11 and 100 sit inside
        # the first block, 255-258 straddle the first two
        inst, T, seed = seed1_instance, 600, 3
        forced = {10, 11, 100, 255, 256, 257, 258, 400}
        calls = []
        orig_interior, orig_gradient = algo.interior_point, algo.implicit_gradient

        def declining(cache, c, u):
            calls.append(len(calls))
            return None if calls[-1] in forced else orig_interior(cache, c, u)

        def degenerate_when_forced(problem, x, sol):
            if calls[-1] in forced:
                raise DegenerateActiveSet("forced")
            return orig_gradient(problem, x, sol)

        monkeypatch.setattr(algo, "interior_point", declining)
        monkeypatch.setattr(algo, "implicit_gradient", degenerate_when_forced)
        blocks = record_blocks(monkeypatch)
        log = run_dsblo(inst, DsbloParams(T=T, mode=PAPER_MODE, seed=seed), eval_every=0)
        assert len(calls) == T + len(forced)
        # all eight discards fall in the first 512 rows, so the third block
        # starts at the 505th sample, with 96 samples left
        assert blocks == [256, 256, 96]
        assert log.lower_level == {"solves": T, "pivots": 0, "repairs": 0}
        assert_records_equal(log, reference_dsblo(inst, PAPER_MODE, T, seed, skip=forced))

    @pytest.mark.parametrize("shape", [(3,), (4, 1), (4, 4)])
    def test_wrong_shaped_x0_names_the_shape(self, shape):
        inst = generate_instance(4, 4, 2, seed=1)
        x0 = np.zeros(shape)
        msg = re.escape(f"x0 must have shape (4,), got {shape}")
        with pytest.raises(ValueError, match=msg):
            run_dsblo(inst, self.PARAMS, x0=x0)
        with pytest.raises(ValueError, match=msg):
            run_igd_baseline(inst, step=0.05, T=10, x0=x0)

    def test_box_does_not_keep_every_x_feasible(self):
        # A and B are nonnegative, so once B x is large a row of A y <= b - B x
        # cannot hold with y >= -0.2: the box bounds y but the run walks x
        # out of the feasible region and the solve raises the typed Infeasible
        inst = generate_instance(6, 6, 12, seed=1, box_radius=0.2)
        assert solve_ll_quadratic(inst, np.zeros(6), None).active_set == ()
        with pytest.raises(Infeasible, match="Farkas ray"):
            run_dsblo(inst, DsbloParams(T=2000, mode=PAPER_MODE, seed=1), eval_every=0)

    def test_library_run_computes_no_fingerprint(self, monkeypatch):
        # provenance belongs to run_experiment; the solver never hashes
        import dsblo.problem as problem_mod
        calls = []
        monkeypatch.setattr(problem_mod, "fingerprint", lambda inst: calls.append(inst))
        inst = generate_instance(4, 4, 2, seed=12)
        params = DsbloParams(
            T=12, mode=ManualMode(beta=0.9, gamma1=5.0, gamma2=20.0, K=5, delta_y=1e-8),
            seed=12,
        )
        run_dsblo(inst, params, eval_every=1)
        run_igd_baseline(inst, step=0.02, T=12, seed=12, eval_every=1)
        assert calls == []

    def test_theory_schedule_sets_ll_tolerance(self, monkeypatch):
        # the theory schedule resolves the lower-level accuracy delta_y; every
        # solve of a run is exact and certified well inside it, and the run's
        # params (the runlog's "params") record it
        inst = generate_instance(4, 4, 2, seed=11)
        certs = []

        def recording(problem, x, q, start=()):
            sol = ll.solve_ll_quadratic(problem, x, q, start)
            certs.append(sol.delta_cert)
            return sol

        def recording_interior(cache, c, u):
            inner = ll.interior_point(cache, c, u)
            if inner is not None:
                certs.append(inner[1] / cache.mu)
            return inner

        monkeypatch.setattr(algo, "solve_ll_quadratic", recording)
        monkeypatch.setattr(algo, "interior_point", recording_interior)
        params = DsbloParams(T=10**9, mode=TheoryMode(epsilon=1.0, delta_bar=0.5,
                                                      delta_v=0.0, l_f_bar=5.0), seed=11)
        sched = schedule(params)
        assert sched.delta_y == pytest.approx(1.0 / 12_800.0)
        for mode in (params.mode, sched):
            seen, certs[:] = [], []
            log = run_dsblo(inst, replace(params, mode=mode), eval_every=0,
                            progress=seen.append, cancel=lambda: len(seen) >= 4)
            assert log.truncated and len(log.records) == 4 and log.schedule == sched
            assert len(certs) == 4 and all(c <= ll.KKT_TOL < sched.delta_y for c in certs)
        assert log.params["mode"]["delta_y"] == sched.delta_y

    def test_timings_split(self):
        inst = generate_instance(4, 4, 2, seed=9)
        params = DsbloParams(
            T=30, mode=ManualMode(beta=0.9, gamma1=5.0, gamma2=20.0, K=5, delta_y=1e-8),
            seed=9,
        )
        for eval_every in (0, 1):
            t = run_dsblo(inst, params, eval_every=eval_every).timings
            assert t["ll_solve_s"] > 0 and t["implicit_grad_s"] > 0 and t["outer_s"] >= 0
            assert (t["diagnostics_s"] > 0) == (eval_every == 1)
            parts = t["ll_solve_s"] + t["implicit_grad_s"] + t["diagnostics_s"] + t["outer_s"]
            assert t["total_s"] == pytest.approx(parts, abs=1e-6)

    def test_invariants_survive_optimize_flag(self):
        # under python -O a nonpositive Hessian diagonal, an oversized step,
        # a NaN point among the exact-F rows and nearly dependent active rows
        # (a cache miss, then a hit) must still raise their typed errors
        script = """
import sys
import numpy as np
import dsblo.algorithm as algo
from dsblo.diagnostics import eval_F_exact_rows
from dsblo.errors import DegenerateActiveSet, NonFinite, NotSPD, WindowViolation
from dsblo.lower_level import ActiveSetCache, solve_ll_quadratic, solve_qp
from dsblo.problem import Polyhedron, QuadraticBilevel, generate_instance

print("optimize", sys.flags.optimize)
try:
    solve_qp(ActiveSetCache(np.array([1.0, 0.0]), np.zeros((0, 2))), np.zeros(2), np.zeros(0))
except NotSPD:
    print("NotSPD")
algo.step_size = lambda m_norm, gamma1, gamma2: 2.0 / (gamma1 * m_norm)
params = algo.DsbloParams(
    T=30, mode=algo.ManualMode(beta=0.9, gamma1=10.0, gamma2=30.0, K=5, delta_y=1e-8))
try:
    algo.run_dsblo(generate_instance(6, 6, 3, seed=1), params, eval_every=0)
except WindowViolation:
    print("WindowViolation")
X = np.zeros((3, 6))
X[1, 0] = np.nan
try:
    eval_F_exact_rows(generate_instance(6, 6, 3, seed=1), X, [(), (), ()])
except NonFinite:
    print("NonFinite")
# rows y1 <= -1 and y1 + 1e-9 y2 <= -1 both bind at the solution (-1, 0)
poly = Polyhedron(np.array([[1.0, 0.0], [1.0, 1e-9]]), np.zeros((2, 2)), np.array([-1.0, -1.0]))
inst = QuadraticBilevel(Q1=np.zeros((2, 2)), Q2=np.zeros((2, 2)), cx=np.ones((1, 2)),
                        cy=np.ones((1, 2)), constraints=poly, box_radius=None)
for _ in range(2):
    try:
        solve_ll_quadratic(inst, np.zeros(2), None)
    except DegenerateActiveSet:
        print("DegenerateActiveSet")
"""
        src = str(Path(dsblo.__file__).resolve().parents[1])
        out = subprocess.run([sys.executable, "-O", "-c", script], capture_output=True,
                             text=True, timeout=120, env={"PYTHONPATH": src})
        assert out.returncode == 0, out.stderr
        assert out.stdout.split("\n")[:6] == ["optimize 1", "NotSPD", "WindowViolation",
                                               "NonFinite", "DegenerateActiveSet",
                                               "DegenerateActiveSet"]


class TestWarmStartedSolves:
    # rows bind along this run: x0 starts far out on an 8-row instance
    PARAMS = DsbloParams(
        T=40, mode=ManualMode(beta=0.9, gamma1=5.0, gamma2=20.0, K=5, delta_y=1e-8), seed=1,
    )

    @staticmethod
    def _recording(monkeypatch, calls, use_start=True):
        """Have the loop's gradient samples recorded in ``calls`` as (start,
        solve), each solved from its start, or without one when
        ``use_start`` is false. A sample that ``interior_point`` answers
        has no start and no solve object; it is recorded as the interior
        solve ``solve_qp`` builds from the same (c, u)."""
        def recording(problem, x, q, start=()):
            sol = ll.solve_ll_quadratic(problem, x, q, start if use_start else ())
            calls.append((tuple(start), sol))
            return sol

        def recording_interior(cache, c, u):
            inner = ll.interior_point(cache, c, u)
            if inner is not None:
                calls.append(((), ll.solve_qp(cache, c, u)))
            return inner

        monkeypatch.setattr(algo, "solve_ll_quadratic", recording)
        monkeypatch.setattr(algo, "interior_point", recording_interior)

    def _setup(self):
        inst = generate_instance(8, 8, 8, seed=1)
        return inst, 3.0 * np.random.default_rng(1).standard_normal(8)

    def test_each_solve_starts_from_previous_sample(self, monkeypatch):
        inst, x0 = self._setup()
        calls, f_starts = [], []
        real_F = algo.eval_F_exact_rows

        def recording_F(problem, xs, starts):
            f_starts.extend(tuple(start) for start in starts)
            return real_F(problem, xs, starts)

        monkeypatch.setattr(algo, "eval_F_exact_rows", recording_F)
        self._recording(monkeypatch, calls)
        log = run_dsblo(inst, self.PARAMS, x0=x0, eval_every=5)
        assert len(calls) == len(log.records) == 40
        assert calls[0][0] == ()
        # both paths are taken: samples after an interior one ask the helper
        assert 0 < sum(not sol.active_set for _, sol in calls) < 40
        assert all(start == prev.active_set for (start, _), (_, prev) in zip(calls[1:], calls))
        assert sum(bool(sol.active_set) for _, sol in calls) >= 20
        # exact F at x_t starts from the sample solved just before record t
        f_ts = [r.t for r in log.records if r.F_exact is not None]
        assert f_ts == [1, 6, 11, 16, 21, 26, 31, 36, 40]
        assert f_starts == [calls[t - 1][1].active_set for t in f_ts]
        assert log.lower_level == {
            "solves": 40, "pivots": sum(sol.stats["pivots"] for _, sol in calls),
            "repairs": sum(sol.stats["repairs"] for _, sol in calls)}

    def test_warm_run_matches_cold_run(self, monkeypatch):
        inst, x0 = self._setup()
        warm_calls, cold_calls = [], []
        self._recording(monkeypatch, warm_calls)
        warm = run_dsblo(inst, self.PARAMS, x0=x0, eval_every=0)
        self._recording(monkeypatch, cold_calls, use_start=False)
        cold = run_dsblo(inst, self.PARAMS, x0=x0, eval_every=0)
        assert [s.active_set for _, s in warm_calls] == [s.active_set for _, s in cold_calls]
        for a, b in zip(warm.records, cold.records):
            assert np.max(np.abs(a.x - b.x)) <= 1e-12
        # the warm run makes at most the 2 pivots it made when a start
        # dropped one row at a time; without a start, each solve starts
        # from the rows its unconstrained minimum violates or binds, which
        # here needs no more pivots than the warm start (1 and 0 pivots
        # over the 40 solves, where starting from that minimum took 35)
        pivots = [sum(s.stats["pivots"] for _, s in calls) for calls in (warm_calls, cold_calls)]
        assert pivots[1] <= pivots[0] <= 2

    def test_identical_runs_are_bit_identical(self):
        inst, x0 = self._setup()
        a = run_dsblo(inst, self.PARAMS, x0=x0, eval_every=5)
        b = run_dsblo(inst, self.PARAMS, x0=x0, eval_every=5)
        assert a.lower_level == b.lower_level and a.lower_level["pivots"] > 0
        for ra, rb in zip(a.records, b.records):
            assert np.array_equal(ra.x, rb.x) and np.array_equal(ra.x_bar, rb.x_bar)
            assert np.array_equal(ra.grad, rb.grad) and ra.F_exact == rb.F_exact


class TestInteriorFastPath:
    def test_runs_byte_identical_on_the_general_path(self, seed1_instance, monkeypatch):
        # the paper's d=10/k=5 setting binds no row; forcing every solve
        # onto the iteration from the unconstrained minimum must not move a
        # single bit of either trajectory
        params = DsbloParams(T=200, mode=ManualMode(beta=0.9, gamma1=20.0, gamma2=20.0, K=10,
                                                    delta_y=1e-8),
                             perturb_radius=1e-3, seed=1)

        def runs():
            return (run_dsblo(seed1_instance, params),
                    run_igd_baseline(seed1_instance, step=0.05, T=200, seed=1,
                                     perturb_radius=1e-3))

        plain = runs()
        real_iteration, begun = ll._iterate, []

        def counting(*args):
            begun.append(tuple(args[4][0]))
            return real_iteration(*args)

        monkeypatch.setattr(ll, "_iterate", counting)
        # with interior_point declining every sample and every solve, each
        # sample goes through solve_ll_quadratic, finds no crash rows and
        # iterates from the unconstrained minimum
        for module in (algo, ll):
            monkeypatch.setattr(module, "interior_point", lambda cache, c, u: None)
        forced = runs()
        # each run makes one gradient-sample solve per record; its exact F
        # rows are all interior, so the batched evaluation solves none
        assert begun == [()] * 400
        for a, b in zip(plain, forced):
            assert len(a.records) == len(b.records) == 200
            assert a.lower_level == b.lower_level
            for ra, rb in zip(a.records, b.records):
                assert np.array_equal(ra.x, rb.x) and np.array_equal(ra.grad, rb.grad)
                assert ra.F_exact == rb.F_exact and ra.q_norm == rb.q_norm


    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 8), st.integers(0, 6), st.integers(0, 2 ** 16),
           st.sampled_from([0.0, 0.05, 0.3, 1.0]), st.integers(0, 2 ** 16),
           st.one_of(st.none(), st.floats(-2 * TAU_ACT, 3 * TAU_ACT)),
           st.sampled_from(["deterministic", "sampled"]), st.integers(1, 5), st.integers(1, 4))
    def test_interior_sample_equals_the_solve_and_gradient(self, d, k, seed, scale, run_seed,
                                                           gap, option, m, batch):
        # the box rows |y_i| <= 0.2 bind at some of these points; with
        # ``gap`` row 0's bound moves so that its slack at the unconstrained
        # minimum y0 is gap, on either side of the interior test's TAU_ACT
        inst = generate_instance(d, d, k, seed=seed, box_radius=0.2, n_components=m)
        x = scale * np.random.default_rng(seed).standard_normal(d)
        q_rng, _, xi_rng = (np.random.default_rng(s)
                            for s in np.random.SeedSequence(run_seed).spawn(3))
        q = _ball_draw(1e-3, q_rng, d)
        if gap is not None:
            poly = inst.constraints
            y0 = -(ll._linear_terms(inst, x, q)[0] / inst.hess_yy_diag)
            b = poly.b.copy()
            b[0] = gap + poly.A[0] @ y0 + poly.B[0] @ x
            inst = replace(inst, constraints=Polyhedron(poly.A, poly.B, b, poly.n_random_rows))
        inner = ll.interior_point(inst.active_set_cache, *ll._linear_terms(inst, x, q))

        def first_sample():
            # the loop's first sample is at x0, with the first draw of
            # stream 0 and, sampled, the first ``batch`` draws of stream 2;
            # the cancel ends the run before it takes a second
            params = DsbloParams(T=2, mode=ManualMode(beta=0.9, gamma1=20.0, gamma2=20.0, K=1,
                                                      delta_y=1e-8),
                                 option=option, seed=run_seed, batch_size=batch)
            log = run_dsblo(inst, params, x0=x, cancel=lambda: True, eval_every=0)
            return log.records[0].grad

        try:
            sol = solve_ll_quadratic(inst, x, q)
            if option == "sampled":
                xi = [sample_component(inst, xi_rng) for _ in range(batch)]
                grad = sampled_implicit_gradient(inst, x, sol, xi).grad
            else:
                grad = implicit_gradient(inst, x, sol).grad
            # started from row 0, the solve iterates whenever y0 binds a
            # row, and finds its active rows from its own solution's slacks
            pivoted = solve_ll_quadratic(inst, x, q, (0,))
        except DsbloError as exc:  # rows that bind degenerately, or no feasible y
            assert inner is None
            if not isinstance(exc, DegenerateActiveSet):  # the loop would redraw q
                with pytest.raises(type(exc)):
                    first_sample()
            return
        if inner is None:
            assert sol.active_set and pivoted.active_set
        else:
            assert sol.active_set == pivoted.active_set == ()
            assert inner[0].tobytes() == sol.y_hat.tobytes()
            assert (inner[1], inner[2]) == (sol.kkt_residual, sol.max_violation)
        assert first_sample().tobytes() == grad.tobytes()


class TestIgdBaseline:
    def test_zero_step_freezes(self):
        inst = generate_instance(4, 4, 2, seed=10)
        log = run_igd_baseline(inst, step=0.0, T=20, seed=10, eval_every=0)
        for rec in log.records:
            assert np.array_equal(rec.x, log.records[0].x)

    def test_converges_1d(self):
        inst = shared_min_instance()
        log = run_igd_baseline(inst, step=0.05, T=500, seed=1, x0=[1.0], eval_every=0)
        assert abs(log.records[-1].x[0]) <= 1e-3

    def test_monotone_descent_small_step(self, seed1_instance):
        log = run_igd_baseline(seed1_instance, step=0.01, T=150, seed=1, eval_every=1)
        fs = [r.F_exact for r in log.records]
        assert all(b <= a + 1e-6 for a, b in zip(fs, fs[1:]))
        assert fs[-1] < fs[0]

    def test_rejects_negative_step(self, seed1_instance):
        with pytest.raises(ValueError):
            run_igd_baseline(seed1_instance, step=-0.1, T=10)

    def test_matches_reference_loop(self, seed1_instance):
        # igd is x_{t+1} = x_t - step g_t with every q drawn from stream 0
        inst, step, seed = seed1_instance, 0.05, 3
        log = run_igd_baseline(inst, step=step, T=50, seed=seed, eval_every=1)
        q_rng = np.random.default_rng(np.random.SeedSequence(seed).spawn(3)[0])
        x = np.zeros(inst.d_u)
        assert len(log.records) == 50
        for t, rec in enumerate(log.records, start=1):
            q = sample_perturbation(1e-3, q_rng, inst.d_l)
            g = implicit_gradient(inst, x, solve_ll_quadratic(inst, x, q)).grad
            assert rec.t == t and rec.eta == step and rec.q_norm == q.norm
            assert np.array_equal(rec.x, x) and np.array_equal(rec.x_bar, x)
            assert np.array_equal(rec.grad, g) and rec.m_norm == float(np.linalg.norm(g))
            assert rec.F_exact == eval_F_exact(inst, x)
            x = x - step * g
