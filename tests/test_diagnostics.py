import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dsblo.algorithm import DsbloParams, ManualMode, run_dsblo, run_igd_baseline
from dsblo.diagnostics import (build_report, eval_F_exact, eval_Fbar_mc,
                               fd_gradient_oracle, perturbation_error_check,
                               stationarity_profile, stationarity_window,
                               window_weights)
from dsblo.errors import WindowIncomplete
from dsblo.lower_level import solve_ll_bruteforce
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
        mean, _ = eval_Fbar_mc(small_instance, x, radius=1e-12, n_samples=100,
                               rng=np.random.default_rng(0))
        assert mean == pytest.approx(eval_F_exact(small_instance, x), abs=1e-9)

    def test_same_seed_same_output(self, small_instance):
        x = np.full(3, 0.2)
        a = eval_Fbar_mc(small_instance, x, 1e-3, 50, np.random.default_rng(4))
        b = eval_Fbar_mc(small_instance, x, 1e-3, 50, np.random.default_rng(4))
        assert a == b

    def test_needs_two_samples(self, small_instance):
        with pytest.raises(ValueError):
            eval_Fbar_mc(small_instance, np.zeros(3), 1e-3, 1, np.random.default_rng(0))

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
        mean, stderr = eval_Fbar_mc(small_instance, x, 1e-2, 40, np.random.default_rng(6))
        assert (res["Fbar_mc"], res["stderr"]) == (mean, stderr)
        assert res["F"] == eval_F_exact(small_instance, x)
        assert res["ok"]

    def test_stderr_scales_as_sqrt_n(self, small_instance):
        x = np.full(3, 0.3)
        rng = np.random.default_rng(11)
        errs = [eval_Fbar_mc(small_instance, x, 1e-2, n, rng)[1]
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
        doc = json.loads(build_report(log))
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
            assert prof[t - 1] == pytest.approx(w.norm, rel=1e-12)

    def test_igd_report(self, small_instance):
        log = run_igd_baseline(small_instance, step=0.02, T=15, seed=2, eval_every=1)
        doc = json.loads(build_report(log))
        assert doc["algorithm"] == "igd"
        assert doc["displacement"]["checked"] == 0
