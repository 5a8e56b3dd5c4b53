import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from dsblo.algorithm import DsbloParams, ManualMode, run_dsblo, run_igd_baseline
from dsblo.diagnostics import (_mc_solves, build_report, eval_F_exact,
                               fd_gradient_oracle, perturbation_error_check,
                               stationarity_profile, stationarity_window,
                               window_weights)
from dsblo.errors import DsbloError, WindowIncomplete
from dsblo.lower_level import sample_perturbation, solve_ll_bruteforce, solve_ll_quadratic
from dsblo.problem import eval_f, generate_instance

from conftest import make_1d_instance


def _constrained_1d():
    # f = x^2 + y^2, g = (y - x)^2, constraint y <= 0
    return make_1d_instance(q2=-2.0, A=[[1.0]], B=[[0.0]], b=[0.0])


class TestEvalF:
    def test_active_branch(self):
        inst = _constrained_1d()
        assert eval_F_exact(inst, np.array([1.0])) == pytest.approx(1.0, abs=1e-12)

    def test_inactive_branch(self):
        inst = _constrained_1d()
        assert eval_F_exact(inst, np.array([-1.0])) == pytest.approx(2.0, abs=1e-12)

    def test_cross_checked_by_enumeration(self):
        inst = generate_instance(4, 4, 5, seed=1)
        for x in (np.zeros(4), np.full(4, 0.3), np.array([0.5, -0.2, 0.1, -0.4])):
            ref = solve_ll_bruteforce(inst, x, None)
            assert eval_F_exact(inst, x) == pytest.approx(
                eval_f(inst, x, ref.y_hat), abs=1e-10)


class TestFbarMC:
    def test_tiny_radius_limit(self, small_instance):
        x = np.full(3, 0.2)
        res = perturbation_error_check(small_instance, x, radius=1e-12, n_samples=100,
                                       rng=np.random.default_rng(0))
        assert res["Fbar_mc"] == pytest.approx(eval_F_exact(small_instance, x), abs=1e-9)

    def test_same_seed_same_output(self, small_instance):
        x = np.full(3, 0.2)
        a = perturbation_error_check(small_instance, x, 1e-3, 50, np.random.default_rng(4))
        b = perturbation_error_check(small_instance, x, 1e-3, 50, np.random.default_rng(4))
        assert (a["Fbar_mc"], a["stderr"]) == (b["Fbar_mc"], b["stderr"])

    def test_needs_two_samples(self, small_instance):
        with pytest.raises(ValueError):
            perturbation_error_check(small_instance, np.zeros(3), 1e-3, 1,
                                     np.random.default_rng(0))

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("n", [0, 1])
    def test_error_check_needs_two_samples(self, small_instance, n):
        # a standard error from fewer than two samples is undefined
        with pytest.raises(ValueError, match="at least 2"):
            perturbation_error_check(small_instance, np.zeros(3), 1e-3, n,
                                     np.random.default_rng(0))

    def test_error_check_reports_the_mc_estimate(self, small_instance):
        x = np.full(3, 0.3)
        res = perturbation_error_check(small_instance, x, 1e-2, 40, np.random.default_rng(6))
        sols, _ = _mc_solves(small_instance, x, 1e-2, 40, np.random.default_rng(6))
        vals = np.array([eval_f(small_instance, x, sol.y_hat) for sol in sols])
        assert (res["Fbar_mc"], res["stderr"]) == (vals.mean(), vals.std(ddof=1) / np.sqrt(40))
        assert res["F"] == eval_F_exact(small_instance, x)
        assert res["ok"]

    @settings(max_examples=60, deadline=None)
    @given(st.integers(2, 8), st.integers(1, 10), st.integers(0, 2 ** 16),
           st.sampled_from([0.5, 1.0, 3.0]), st.sampled_from([1e-6, 1e-3, 0.1, 1.0]),
           st.integers(1, 12), st.booleans())
    def test_batched_mc_solves_match_cold_solves(self, d, k, seed, scale, radius, n, warm):
        # the batch on the first draw's active set, with its fallbacks, gives
        # the per-draw cold solves on the same stream of draws
        inst = generate_instance(d, d, k, seed=seed)
        x = scale * np.random.default_rng(seed).standard_normal(d)
        replay = np.random.default_rng(seed + 1)
        try:
            start = solve_ll_quadratic(inst, 1.1 * x, None).active_set if warm else ()
            colds = [solve_ll_quadratic(inst, x, sample_perturbation(radius, replay, d))
                     for _ in range(n)]
        except DsbloError:  # x far out can leave no feasible y
            assume(False)
        sols, fallbacks = _mc_solves(inst, x, radius, n, np.random.default_rng(seed + 1), start)
        assert len(sols) == n and 0 <= fallbacks <= n - 1
        for sol, cold in zip(sols, colds):
            assert sol.active_set == cold.active_set
            assert np.allclose(sol.y_hat, cold.y_hat, rtol=1e-12, atol=1e-12)
            assert np.allclose(sol.lam, cold.lam, rtol=1e-12, atol=1e-12)

    def test_draw_that_changes_the_active_set_falls_back(self, monkeypatch):
        # at x = 0 the row y <= 0 binds exactly when q < 0, so draws at
        # radius 1 split between two active sets; a draw that falls back
        # starts from the previous sample's active set
        import dsblo.diagnostics as diag
        inst = _constrained_1d()
        x = np.zeros(1)
        starts = []
        real = diag.solve_ll_quadratic

        def recording(inst_, x_, q, start=()):
            starts.append(tuple(start))
            return real(inst_, x_, q, start)

        monkeypatch.setattr(diag, "solve_ll_quadratic", recording)
        sols, fallbacks = _mc_solves(inst, x, 1.0, 40, np.random.default_rng(3))
        replay = np.random.default_rng(3)
        cold = [solve_ll_quadratic(inst, x, sample_perturbation(1.0, replay, 1))
                for _ in range(40)]
        assert fallbacks == sum(c.active_set != cold[0].active_set for c in cold[1:]) > 0
        assert len(starts) == 1 + fallbacks and (0,) in starts[1:]
        prev = [cold[i - 1].active_set for i in range(1, 40)
                if cold[i].active_set != cold[0].active_set]
        assert starts[1:] == prev
        for sol, ref in zip(sols, cold):
            assert sol.active_set == ref.active_set
            assert np.allclose(sol.y_hat, ref.y_hat, rtol=1e-12, atol=1e-12)
            assert np.allclose(sol.lam, ref.lam, rtol=1e-12, atol=1e-12)

    def test_mc_paths_chain_their_starts(self, monkeypatch):
        # each window point's first solve starts from the previous point's
        # last active set (the first cold), and the error check's exact F
        # from its first sample's active set
        import dsblo.diagnostics as diag
        inst = generate_instance(8, 8, 8, seed=1)
        params = DsbloParams(
            T=40, mode=ManualMode(beta=0.9, gamma1=5.0, gamma2=20.0, K=5, delta_y=1e-8), seed=1)
        # two rows bind at the end of this run
        log = run_dsblo(inst, params, x0=3.0 * np.random.default_rng(1).standard_normal(8),
                        eval_every=0)
        points = []
        real_mc = diag._mc_solves

        def recording_mc(inst_, x_, radius, n, rng, start=()):
            sols, fallbacks = real_mc(inst_, x_, radius, n, rng, start)
            points.append((tuple(start), sols[-1].active_set, fallbacks))
            return sols, fallbacks

        monkeypatch.setattr(diag, "_mc_solves", recording_mc)
        win = stationarity_window(log, 40, 0.9, 5, inst=inst, mc_samples=3, radius=1e-3,
                                  rng=np.random.default_rng(0))
        assert len(points) == 5 and points[0][0] == ()
        assert all(p[0] == prev[1] and p[0] for p, prev in zip(points[1:], points))
        assert win.mc_fallbacks == sum(p[2] for p in points)

        solves = []
        real_solve = diag.solve_ll_quadratic

        def recording_solve(inst_, x_, q, start=()):
            sol = real_solve(inst_, x_, q, start)
            solves.append((q is None, tuple(start), sol))
            return sol

        monkeypatch.setattr(diag, "solve_ll_quadratic", recording_solve)
        res = perturbation_error_check(inst, log.records[-1].x, 1e-3, 6, np.random.default_rng(0))
        # one solve for the first sample, the batch for the rest, then F
        assert [s[0] for s in solves] == [False, True] and res["mc_fallbacks"] == 0
        assert solves[1][1] == solves[0][2].active_set and len(solves[1][1]) == 2
        assert solves[1][2].stats["pivots"] == 0

    def test_stderr_scales_as_sqrt_n(self, small_instance):
        x = np.full(3, 0.3)
        rng = np.random.default_rng(11)
        errs = [perturbation_error_check(small_instance, x, 1e-2, n, rng)["stderr"]
                for n in (100, 1_000, 10_000)]
        for a, b in zip(errs, errs[1:]):
            ratio = a / b
            assert abs(ratio - np.sqrt(10)) <= 0.2 * np.sqrt(10)


class TestStationarityWindow:
    def _log_with_grads(self, grads):
        class _Rec:
            def __init__(self, t, g):
                self.t = t
                self.grad = np.asarray(g, dtype=float)
                self.x_bar = np.zeros_like(self.grad)

        class _Log:
            pass

        log = _Log()
        log.records = [_Rec(t + 1, g) for t, g in enumerate(grads)]
        return log

    def test_constant_gradients(self):
        v = np.array([2.0, -1.0])
        log = self._log_with_grads([v] * 6)
        w = stationarity_window(log, t=6, beta=0.9, K=4)
        assert np.allclose(w.combined, v, atol=1e-12)
        assert w.norm == pytest.approx(np.linalg.norm(v), abs=1e-12)

    def test_k_one_returns_last(self):
        log = self._log_with_grads([[1.0], [2.0], [5.0]])
        w = stationarity_window(log, t=3, beta=0.7, K=1)
        assert w.combined[0] == 5.0
        assert w.weights == pytest.approx([1.0])

    def test_weights_formula(self):
        from fractions import Fraction
        log = self._log_with_grads([[1.0], [2.0], [3.0]])
        w = stationarity_window(log, t=3, beta=0.9, K=3)
        beta = Fraction(9, 10)
        scale = (1 - beta) / (1 - beta ** 3)
        expected = [float(beta ** p * scale) for p in (2, 1, 0)]
        assert w.weights == pytest.approx(expected, rel=1e-14)
        assert w.combined[0] == pytest.approx(
            expected[0] * 1 + expected[1] * 2 + expected[2] * 3, rel=1e-12)

    def test_incomplete_window(self):
        log = self._log_with_grads([[1.0]] * 5)
        with pytest.raises(WindowIncomplete):
            stationarity_window(log, t=2, beta=0.9, K=3)
        with pytest.raises(WindowIncomplete):
            stationarity_window(log, t=9, beta=0.9, K=3)

    @settings(max_examples=80, deadline=None)
    @given(st.floats(0.5, 0.9999), st.integers(1, 500))
    def test_weights_sum_to_one(self, beta, K):
        # beta >= 1/2 is what the schedule itself guarantees; far outside it
        # the geometric tail underflows and positivity is lost to rounding
        w = window_weights(beta, K)
        assert abs(w.sum() - 1.0) <= 1e-12
        assert np.all(w > 0)

    def test_mc_variant(self, small_instance):
        params = DsbloParams(
            T=30, mode=ManualMode(beta=0.9, gamma1=5.0, gamma2=20.0, K=5, delta_y=1e-8),
            seed=12,
        )
        log = run_dsblo(small_instance, params, eval_every=0)
        stored = stationarity_window(log, t=20, beta=0.9, K=5)
        mc = stationarity_window(log, t=20, beta=0.9, K=5, inst=small_instance,
                                 mc_samples=8, radius=1e-3,
                                 rng=np.random.default_rng(1))
        assert np.isfinite(mc.norm)
        # tiny perturbation radius: the two estimators agree closely
        assert mc.norm == pytest.approx(stored.norm, rel=0.2, abs=1e-3)


class TestFdOracle:
    def test_quadratic(self):
        f = lambda v: float(v @ v)
        x = np.zeros(4)
        x[0] = 1.0
        g = fd_gradient_oracle(f, x, 1e-5)
        assert np.allclose(g, [2.0, 0, 0, 0], atol=1e-8)

    def test_linear_exact(self):
        c = np.array([1.5, -2.0, 0.25])
        g = fd_gradient_oracle(lambda v: float(c @ v), np.ones(3), 1e-6)
        assert np.allclose(g, c, atol=1e-9)

    def test_rejects_bad_step(self):
        with pytest.raises(ValueError):
            fd_gradient_oracle(lambda v: 0.0, np.zeros(2), 0.0)


class TestReport:
    def test_report_fields(self, small_instance):
        params = DsbloParams(
            T=40, mode=ManualMode(beta=0.9, gamma1=5.0, gamma2=20.0, K=5, delta_y=1e-8),
            seed=3,
        )
        log = run_dsblo(small_instance, params, eval_every=1)
        doc = build_report(log)
        assert doc["algorithm"] == "dsblo"
        assert doc["displacement"]["violations"] == 0
        assert "min_window_norm" in doc["stationarity"]
        assert "trailing_avg" in doc["stationarity"]
        assert doc["objective"]["last"] <= doc["objective"]["first"] + 1e-9

    def test_profile_matches_windows(self, small_instance):
        params = DsbloParams(
            T=25, mode=ManualMode(beta=0.8, gamma1=5.0, gamma2=20.0, K=4, delta_y=1e-8),
            seed=5,
        )
        log = run_dsblo(small_instance, params, eval_every=0)
        prof = stationarity_profile(log, 0.8, 4)
        assert np.all(np.isnan(prof[:4]))
        for t in (5, 12, 25):
            w = stationarity_window(log, t=t, beta=0.8, K=4)
            assert prof[t - 1] == w.norm

    def test_igd_report(self, small_instance):
        log = run_igd_baseline(small_instance, step=0.02, T=15, seed=2, eval_every=1)
        doc = build_report(log)
        assert doc["algorithm"] == "igd"
        assert doc["displacement"]["checked"] == 0
