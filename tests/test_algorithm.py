import math
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
from dsblo.errors import DsbloError, NonFinite, ScheduleInfeasible
from dsblo.implicit_grad import implicit_gradient
from dsblo.lower_level import sample_perturbation
from dsblo.problem import generate_instance
from dsblo.verify import schedule_recompute_mp

from conftest import make_1d_instance


def shared_min_instance():
    # f = g = x^2 + xy + y^2, unconstrained; both levels share the minimizer 0
    return make_1d_instance(q2=1.0, q1=10.0)


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
        m = np.array([3.0, 0.0])
        assert step_size(m, 2.0, 4.0) == pytest.approx(0.1, abs=1e-15)

    def test_zero_momentum(self):
        assert step_size(np.zeros(3), 2.0, 4.0) == 0.25

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=6),
           st.floats(1e-3, 1e3), st.floats(1e-3, 1e3))
    def test_bounds(self, m, g1, g2):
        m = np.asarray(m)
        eta = step_size(m, g1, g2)
        assert 0.0 < eta <= 1.0 / g2
        assert eta * np.linalg.norm(m) <= 1.0 / g1 + 1e-12


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
        # stream (the third of the run seed's streams) and makes one
        # gradient call on all of it
        inst = generate_instance(4, 4, 2, seed=5, n_components=8)
        calls = []
        real = algo.sampled_implicit_gradient

        def recording(problem, x, sol, xi):
            calls.append(list(xi))
            return real(problem, x, sol, xi)

        monkeypatch.setattr(algo, "sampled_implicit_gradient", recording)
        params = DsbloParams(
            T=12, mode=ManualMode(beta=0.9, gamma1=5.0, gamma2=20.0, K=5, delta_y=1e-8),
            option="sampled", seed=3, batch_size=5)
        run_dsblo(inst, params, eval_every=0)
        replay = np.random.default_rng(np.random.SeedSequence(3).spawn(3)[2])
        assert calls == [[int(replay.integers(8)) for _ in range(5)] for _ in range(12)]

    def test_nan_start_raises(self):
        inst = generate_instance(4, 4, 2, seed=1)
        with pytest.raises(NonFinite):
            run_dsblo(inst, self.PARAMS, x0=[np.nan, 0.0, 0.0, 0.0])

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
        inst = generate_instance(4, 4, 2, seed=8)
        draws = []
        orig = algo._ball_draw

        def counting_draw(radius, rng, d):
            draws.append(radius)
            return orig(radius, rng, d)

        from dsblo.errors import DegenerateActiveSet

        def always_degenerate(problem, x, sol):
            raise DegenerateActiveSet("forced")

        monkeypatch.setattr(algo, "_ball_draw", counting_draw)
        monkeypatch.setattr(algo, "implicit_gradient", always_degenerate)
        params = DsbloParams(
            T=10, mode=ManualMode(beta=0.9, gamma1=5.0, gamma2=20.0, K=2, delta_y=1e-8),
            seed=8,
        )
        with pytest.raises(DsbloError, match="5 perturbation resamples"):
            run_dsblo(inst, params, eval_every=0)
        assert len(draws) == 5

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

    def test_theory_schedule_sets_ll_tolerance(self):
        # the theory schedule resolves the lower-level accuracy delta_y; every
        # solve of a run is exact and certified well inside it, and the run's
        # params (the runlog's "params") record it
        inst = generate_instance(4, 4, 2, seed=11)
        certs = []

        class Recording:
            def __getattr__(self, name):
                return getattr(inst, name)

            def solve_ll(self, x, q, start=()):
                sol = inst.solve_ll(x, q, start)
                certs.append(sol.delta_cert)
                return sol

        params = DsbloParams(T=10**9, mode=TheoryMode(epsilon=1.0, delta_bar=0.5,
                                                      delta_v=0.0, l_f_bar=5.0), seed=11)
        sched = schedule(params)
        assert sched.delta_y == pytest.approx(1.0 / 12_800.0)
        for mode in (params.mode, sched):
            seen, certs[:] = [], []
            log = run_dsblo(Recording(), replace(params, mode=mode), eval_every=0,
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
from dsblo.lower_level import solve_ll_quadratic, solve_qp
from dsblo.problem import Polyhedron, QuadraticBilevel, generate_instance

print("optimize", sys.flags.optimize)
try:
    solve_qp(np.array([1.0, 0.0]), np.zeros(2), np.zeros((0, 2)), np.zeros(0))
except NotSPD:
    print("NotSPD")
algo.step_size = lambda m, gamma1, gamma2: 2.0 / (gamma1 * np.linalg.norm(m))
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
    def _recording(inst, calls, use_start=True):
        class Recording:
            def __getattr__(self, name):
                return getattr(inst, name)

            def solve_ll(self, x, q, start=()):
                sol = inst.solve_ll(x, q, start if use_start else ())
                calls.append((tuple(start), sol))
                return sol

        return Recording()

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
        log = run_dsblo(self._recording(inst, calls), self.PARAMS, x0=x0, eval_every=5)
        assert len(calls) == len(log.records) == 40
        assert calls[0][0] == ()
        assert all(start == prev.active_set for (start, _), (_, prev) in zip(calls[1:], calls))
        assert sum(bool(sol.active_set) for _, sol in calls) >= 20
        # exact F at x_t starts from the sample solved just before record t
        f_ts = [r.t for r in log.records if r.F_exact is not None]
        assert f_ts == [1, 6, 11, 16, 21, 26, 31, 36, 40]
        assert f_starts == [calls[t - 1][1].active_set for t in f_ts]
        assert log.lower_level == {
            "solves": 40, "pivots": sum(sol.stats["pivots"] for _, sol in calls),
            "repairs": sum(sol.stats["repairs"] for _, sol in calls)}

    def test_warm_run_matches_cold_run(self):
        inst, x0 = self._setup()
        warm_calls, cold_calls = [], []
        warm = run_dsblo(self._recording(inst, warm_calls), self.PARAMS, x0=x0, eval_every=0)
        cold = run_dsblo(self._recording(inst, cold_calls, use_start=False), self.PARAMS,
                         x0=x0, eval_every=0)
        assert [s.active_set for _, s in warm_calls] == [s.active_set for _, s in cold_calls]
        for a, b in zip(warm.records, cold.records):
            assert np.max(np.abs(a.x - b.x)) <= 1e-12
        pivots = [sum(s.stats["pivots"] for _, s in calls) for calls in (warm_calls, cold_calls)]
        assert pivots[0] < pivots[1] / 4

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
        # onto the general path with a start of one slack row (which the
        # hot start drops) must not move a single bit of either trajectory
        params = DsbloParams(T=200, mode=ManualMode(beta=0.9, gamma1=20.0, gamma2=20.0, K=10,
                                                    delta_y=1e-8),
                             perturb_radius=1e-3, seed=1)

        def runs():
            return (run_dsblo(seed1_instance, params),
                    run_igd_baseline(seed1_instance, step=0.05, T=200, seed=1,
                                     perturb_radius=1e-3))

        plain = runs()
        real_solve, real_iteration, counts = ll.solve_qp, ll._dual_active_set, [0, 0]

        def general(H, c, A, u, start=(), cache=None):
            counts[0] += 1
            return real_solve(H, c, A, u, start if len(start) else (0,), cache)

        def counting(*args):
            counts[1] += 1
            return real_iteration(*args)

        monkeypatch.setattr(ll, "solve_qp", general)
        monkeypatch.setattr(ll, "_dual_active_set", counting)
        forced = runs()
        # each run makes one gradient-sample solve per record; its exact F
        # rows are all interior, so the batched evaluation solves none
        assert counts[0] == counts[1] == 400
        for a, b in zip(plain, forced):
            assert len(a.records) == len(b.records) == 200
            assert a.lower_level == b.lower_level
            for ra, rb in zip(a.records, b.records):
                assert np.array_equal(ra.x, rb.x) and np.array_equal(ra.grad, rb.grad)
                assert ra.F_exact == rb.F_exact and ra.q_norm == rb.q_norm


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
            g = implicit_gradient(inst, x, inst.solve_ll(x, q)).grad
            assert rec.t == t and rec.eta == step and rec.q_norm == q.norm
            assert np.array_equal(rec.x, x) and np.array_equal(rec.x_bar, x)
            assert np.array_equal(rec.grad, g) and rec.m_norm == float(np.linalg.norm(g))
            assert rec.F_exact == eval_F_exact(inst, x)
            x = x - step * g
