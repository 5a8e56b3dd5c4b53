import math
import re
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import dsblo.algorithm as algo_mod
import dsblo.diagnostics as diag_mod
from dsblo.algorithm import DsbloParams, ManualMode, run_dsblo, run_igd_baseline
from dsblo.diagnostics import (_dots, _mc_solves, build_report, check_windows,
                               eval_F_exact, eval_F_exact_rows, fd_gradient_oracle,
                               perturbation_error_check, stationarity_profile,
                               stationarity_window, window_weights)
from dsblo.errors import DsbloError, Infeasible, NonFinite, WindowIncomplete, WindowViolation
from dsblo.experiment import write_csv
from dsblo.lower_level import _ball_draw, _ball_draws, solve_ll_bruteforce, solve_ll_quadratic
from dsblo.problem import empty_polyhedron, eval_f, eval_f_rows, generate_instance
from dsblo.verify import mc_window_logs, mc_window_reference

from conftest import generate, make_1d_instance


def _constrained_1d():
    # f = x^2 + y^2, g = (y - x)^2, constraint y <= 0
    return make_1d_instance(q2=-2.0, A=[[1.0]], B=[[0.0]], b=[0.0])


class _Rec:
    def __init__(self, x_bar):
        self.x_bar = x_bar


class _Log:
    def __init__(self, records):
        self.records = records


def _error_check_reference(inst, x, radius, n, rng):
    """``perturbation_error_check`` one draw at a time, each solved cold."""
    qs = [_ball_draw(radius, rng, inst.d_l) for _ in range(n)]
    ys = [solve_ll_quadratic(inst, x, q).y_hat for q in qs]
    vals = np.array([eval_f(inst, x, y) for y in ys])
    exact = eval_f(inst, x, solve_ll_quadratic(inst, x, None).y_hat)
    mean, stderr = float(vals.mean()), float(vals.std(ddof=1) / np.sqrt(n))
    l_hat = 1.5 * max(float(np.linalg.norm(np.concatenate(inst.grad_f(x, y))))
                      for y in ys[::max(1, n // 32)])
    bound = l_hat * radius / inst.mu_g + 3.0 * stderr
    gap = abs(mean - exact)
    return {"F": exact, "Fbar_mc": mean, "stderr": stderr, "l_hat": l_hat, "gap": gap,
            "bound": bound, "ok": bool(gap <= bound), "mc_fallbacks": 0}


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


def _bits(values) -> np.ndarray:
    return np.asarray(values, dtype=float).view(np.uint64)


def _random_starts(rng, k: int, d: int, n: int) -> list:
    return [tuple(sorted(rng.choice(k, size=rng.integers(0, min(k, d) + 1),
                                    replace=False).tolist())) for _ in range(n)]


class TestEvalFRows:
    @settings(max_examples=60, deadline=None)
    @given(d=st.integers(1, 6), k=st.integers(0, 8), seed=st.integers(0, 10_000),
           no_rows=st.booleans(), n=st.integers(1, 12), blocks=st.booleans(),
           radius=st.sampled_from([0.2, 1.0, 10.0]))
    def test_rows_equal_single_evaluations_bit_for_bit(self, d, k, seed, no_rows, n, blocks,
                                                       radius):
        # interior and binding points, each with a random start; no_rows
        # drops the box rows too, so the instance has no constraint at all;
        # with blocks the box rows are taken by blocks at this size too, and
        # the smaller boxes bind on both sides
        inst = generate(d, d, k, seed, blocks, box_radius=radius)
        if no_rows:
            inst = replace(inst, constraints=empty_polyhedron(d, d))
        rng = np.random.default_rng(seed)
        X = rng.choice([0.0, 0.3, 1.0, 3.0], size=(n, 1)) * rng.standard_normal((n, d))
        starts = _random_starts(rng, inst.constraints.k, d, n)
        expected = []
        for x, start in zip(X, starts):
            try:
                expected.append(eval_F_exact(inst, x, start))
            except DsbloError as exc:  # the routine raises the first row's error
                with pytest.raises(type(exc)):
                    eval_F_exact_rows(inst, X, starts)
                return
        assert np.array_equal(_bits(eval_F_exact_rows(inst, X, starts)), _bits(expected))

    @pytest.mark.parametrize("k", [0, 2])
    def test_box_rows_bind_on_both_sides_with_blocks(self, k):
        # points whose unconstrained minimum leaves the box above and below;
        # with the box taken by blocks the rows still equal eval_F_exact
        inst = generate(4, 4, k, 1, True, box_radius=0.2)
        rng = np.random.default_rng(k)
        X = rng.choice([-1.0, 0.1, 1.0], size=(60, 1)) * rng.uniform(0.0, 1.0, (60, 4))
        sols = {}
        for i, x in enumerate(X):
            try:
                sols[i] = solve_ll_quadratic(inst, x, None)
            except Infeasible:  # B x too large for the random rows
                pass
        X = X[list(sols)]
        rows = {i for sol in sols.values() for i in sol.active_set}
        assert rows & set(range(k, k + 4)) and rows & set(range(k + 4, k + 8))
        assert any(not sol.active_set for sol in sols.values())
        expected = [eval_F_exact(inst, x) for x in X]
        assert np.array_equal(_bits(eval_F_exact_rows(inst, X, [()] * len(X))), _bits(expected))

    def test_fallback_rows_receive_their_own_start(self, monkeypatch):
        # more points than one block, so the start of a fallback row in the
        # second block is looked up at its own index too
        inst = generate_instance(6, 6, 8, seed=3)
        rng = np.random.default_rng(3)
        n = diag_mod.F_BLOCK + 40
        X = rng.choice([0.0, 0.3, 1.0], size=(n, 1)) * rng.standard_normal((n, 6))
        starts = _random_starts(rng, inst.constraints.k, 6, n)
        binding = [i for i, x in enumerate(X) if solve_ll_quadratic(inst, x, None).active_set]
        assert 0 < len(binding) < n and binding[-1] >= diag_mod.F_BLOCK
        expected = [eval_F_exact(inst, x, start) for x, start in zip(X, starts)]
        seen = []
        real = diag_mod.eval_F_exact

        def recording(inst_, x, start=()):
            seen.append((x.tolist(), start))
            return real(inst_, x, start)

        monkeypatch.setattr(diag_mod, "eval_F_exact", recording)
        got = eval_F_exact_rows(inst, list(X), starts)
        assert seen == [(X[i].tolist(), starts[i]) for i in binding]
        assert np.array_equal(_bits(got), _bits(expected))

    def test_nan_row_raises_nonfinite(self):
        for blocks in (False, True):  # with blocks the box is taken by blocks
            inst = generate(4, 4, 3, 1, blocks)
            X = np.zeros((3, 4))
            X[1, 2] = np.nan
            with pytest.raises(NonFinite):
                eval_F_exact_rows(inst, X, [(), (0,), ()])
        inst0 = replace(inst, constraints=empty_polyhedron(4, 4))
        X[1, 2] = np.inf
        with pytest.raises(NonFinite):
            eval_F_exact_rows(inst0, X, [(), (), ()])

    def test_no_rows(self):
        inst = generate_instance(3, 3, 2, seed=1)
        assert eval_F_exact_rows(inst, [], []).shape == (0,)


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
        # the draws are batched on the exact F's active set, and the mean and
        # standard error are taken over eval_f_rows of their solutions
        inst = small_instance
        x = np.full(3, 0.3)
        res = perturbation_error_check(inst, x, 1e-2, 40, np.random.default_rng(6))
        Q = _ball_draws(1e-2, np.random.default_rng(6), 3, 40)[0]
        exact = solve_ll_quadratic(inst, x, None)
        Y, _, groups, fallbacks = _mc_solves(inst, x, Q, exact.active_set)
        vals = eval_f_rows(inst, x, Y)
        assert (res["Fbar_mc"], res["stderr"]) == (vals.mean(), vals.std(ddof=1) / np.sqrt(40))
        assert res["F"] == eval_F_exact(inst, x) == eval_f(inst, x, exact.y_hat)
        assert res["mc_fallbacks"] == fallbacks
        assert res["ok"]

    @settings(max_examples=60, deadline=None)
    @given(st.integers(2, 8), st.integers(0, 10), st.integers(0, 2 ** 16),
           st.sampled_from([0.5, 1.0, 3.0]), st.sampled_from([1e-6, 1e-3, 0.1, 1.0]),
           st.integers(1, 4), st.integers(1, 4), st.booleans(), st.booleans())
    def test_batched_mc_solves_match_cold_solves(self, d, k, seed, scale, radius, n_points,
                                                 per_point, warm, blocks):
        # the batches, with their fallbacks, give the per-draw cold solves on
        # the same stream of draws, at one point or at several; with blocks
        # the box rows are taken by blocks at this size too
        inst = generate(d, d, k, seed, blocks)
        rng = np.random.default_rng(seed)
        X = np.repeat(scale * rng.standard_normal(d)
                      + 0.1 * scale * rng.standard_normal((n_points, d)), per_point, axis=0)
        Q = _ball_draws(radius, np.random.default_rng(seed + 1), d, len(X))[0]
        try:
            start = solve_ll_quadratic(inst, 1.1 * X[0], None).active_set if warm else None
            colds = [solve_ll_quadratic(inst, x, q) for x, q in zip(X, Q)]
        except DsbloError:  # x far out can leave no feasible y
            assume(False)
        Y, Lam, groups, fallbacks = _mc_solves(inst, X, Q, start)
        assert sorted(i for rows in groups.values() for i in rows) == list(range(len(X)))
        assert 0 <= fallbacks <= len(X)
        for active, rows in groups.items():
            for i in rows:
                assert colds[i].active_set == active
                assert np.allclose(Y[i], colds[i].y_hat, rtol=1e-12, atol=1e-12)
                assert np.allclose(Lam[i], colds[i].lam, rtol=1e-12, atol=1e-12)

    def test_draw_that_changes_the_active_set_falls_back(self, monkeypatch):
        # at x = 0 the row y <= 0 binds exactly when q < 0, so draws at
        # radius 1 split between two active sets: the first draw is solved
        # alone, cold, the batch on its set rejects the other set's draws,
        # and the first of those is solved alone from the rows just tried
        import dsblo.diagnostics as diag
        inst = _constrained_1d()
        x = np.zeros(1)
        starts = []
        real = diag.solve_ll_quadratic

        def recording(inst_, x_, q, start=()):
            starts.append(tuple(start))
            return real(inst_, x_, q, start)

        monkeypatch.setattr(diag, "solve_ll_quadratic", recording)
        Q = _ball_draws(1.0, np.random.default_rng(3), 1, 40)[0]
        Y, Lam, groups, fallbacks = _mc_solves(inst, x, Q)
        cold = [solve_ll_quadratic(inst, x, q) for q in Q]
        first = cold[0].active_set
        assert fallbacks == 1 and starts == [(), first]
        assert {s: sorted(r) for s, r in groups.items()} == {
            s: [i for i, c in enumerate(cold) if c.active_set == s] for s in ((), (0,))}
        for y, lam, ref in zip(Y, Lam, cold):
            assert np.allclose(y, ref.y_hat, rtol=1e-12, atol=1e-12)
            assert np.allclose(lam, ref.lam, rtol=1e-12, atol=1e-12)
        # with a start, every draw is first tried on it: here half are
        # rejected, and the first of them is solved from the start's rows
        starts.clear()
        *_, fallbacks = _mc_solves(inst, x, Q, (0,))
        assert fallbacks == 1 and starts == [(0,)]

    def test_mc_paths_chain_their_starts(self, monkeypatch):
        # a Monte-Carlo window solves all its K * mc_samples draws in one
        # call, each window point repeated once per draw; the error check
        # solves the exact F cold and batches its draws on that active set
        import dsblo.diagnostics as diag
        inst = generate_instance(8, 8, 8, seed=1)
        params = DsbloParams(
            T=40, mode=ManualMode(beta=0.9, gamma1=5.0, gamma2=20.0, K=5, delta_y=1e-8), seed=1)
        # two rows bind at the end of this run
        log = run_dsblo(inst, params, x0=3.0 * np.random.default_rng(1).standard_normal(8),
                        eval_every=0)
        calls = []
        real_mc = diag._mc_solves

        def recording_mc(inst_, X, Q, start=None):
            out = real_mc(inst_, X, Q, start)
            calls.append((np.array(X), start, out))
            return out

        monkeypatch.setattr(diag, "_mc_solves", recording_mc)
        win = stationarity_window(log, 40, 0.9, 5, inst=inst, mc_samples=3, radius=1e-3,
                                  rng=np.random.default_rng(0))
        (X, start, (_, _, groups, fallbacks)), = calls
        x_bars = [r.x_bar for r in log.records[35:40]]
        assert start is None and np.array_equal(X, np.repeat(x_bars, 3, axis=0))
        assert win.mc_fallbacks == fallbacks
        assert any(len(active) == 2 for active in groups)

        solves = []
        real_solve = diag.solve_ll_quadratic

        def recording_solve(inst_, x_, q, start=()):
            sol = real_solve(inst_, x_, q, start)
            solves.append((q is None, tuple(start), sol))
            return sol

        monkeypatch.setattr(diag, "solve_ll_quadratic", recording_solve)
        calls.clear()
        res = perturbation_error_check(inst, log.records[-1].x, 1e-3, 6, np.random.default_rng(0))
        # one cold solve for the exact F, then the batch on its active set
        assert [s[:2] for s in solves] == [(True, ())] and res["mc_fallbacks"] == 0
        assert calls[0][1] == solves[0][2].active_set and len(calls[0][1]) == 2

    def test_window_over_two_active_sets_counts_its_fallbacks(self, monkeypatch):
        # the points of this window span three active sets (6, 5 and 4
        # rows); each batch that rejects a draw sends one draw to a solve
        # of its own, and mc_fallbacks counts those
        import dsblo.diagnostics as diag
        inst, (_, log) = mc_window_logs(2)
        batches, singles = [], []
        real_batch, real_solve = diag.solve_qp_batch, diag.solve_ll_quadratic

        def recording_batch(*args):
            out = real_batch(*args)
            batches.append(out[0])
            return out

        def recording_solve(*args):
            sol = real_solve(*args)
            singles.append(sol.active_set)
            return sol

        monkeypatch.setattr(diag, "solve_qp_batch", recording_batch)
        monkeypatch.setattr(diag, "solve_ll_quadratic", recording_solve)
        win = stationarity_window(log, 12, 0.9, 10, inst=inst, mc_samples=2, radius=1e-3,
                                  rng=np.random.default_rng([2, 1, 100]))
        assert len(set(singles)) >= 2
        assert win.mc_fallbacks == sum(not ok.all() for ok in batches) == len(singles) - 1 >= 1

    @settings(max_examples=25, deadline=None)
    @given(st.integers(2, 8), st.integers(1, 10), st.integers(0, 2 ** 16),
           st.sampled_from([0.5, 1.5, 3.0]), st.sampled_from([1e-3, 0.1, 1.0]),
           st.integers(2, 20), st.integers(1, 3))
    def test_estimates_match_per_draw_reference(self, d, k, seed, scale, radius, n, m):
        # the error check and the Monte-Carlo window against draws replayed
        # in stream order, each solved cold, scored by eval_f and
        # differentiated by implicit_gradient (the window's reference is
        # verify's); stderr and gap are differences of F-sized values, so
        # their round-off scales with |F|
        inst = generate_instance(d, d, k, seed=seed)
        rng = np.random.default_rng(seed)
        x = scale * rng.standard_normal(d)
        log = _Log([_Rec(x + 0.05 * scale * rng.standard_normal(d)) for _ in range(4)])
        try:
            ref = _error_check_reference(inst, x, radius, n, np.random.default_rng(seed + 1))
            ref_window, _ = mc_window_reference(log, 4, 0.9, 3, inst, m, radius,
                                                np.random.default_rng(seed + 2))
        except DsbloError:  # no feasible y, or a degenerate draw
            assume(False)
        res = perturbation_error_check(inst, x, radius, n, np.random.default_rng(seed + 1))
        assert res.keys() == ref.keys() and res["ok"] == ref["ok"]
        scale_f = max(1.0, abs(ref["F"]))
        for key in ("F", "Fbar_mc", "stderr", "gap", "bound"):
            assert abs(res[key] - ref[key]) <= 1e-12 * max(abs(ref[key]), scale_f), key
        assert res["l_hat"] == pytest.approx(ref["l_hat"], rel=1e-12)
        win = stationarity_window(log, 4, 0.9, 3, inst=inst, mc_samples=m, radius=radius,
                                  rng=np.random.default_rng(seed + 2))
        assert np.allclose(win.combined, ref_window, rtol=1e-12,
                           atol=1e-12 * max(1.0, np.abs(ref_window).max()))
        # and every draw ends on its cold solve's active set
        Q = _ball_draws(radius, np.random.default_rng(seed + 2), d, 3 * m)[0]
        X = np.repeat([r.x_bar for r in log.records[1:4]], m, axis=0)
        _, _, groups, _ = _mc_solves(inst, X, Q)
        for active, rows in groups.items():
            assert all(solve_ll_quadratic(inst, X[i], Q[i]).active_set == active for i in rows)

    def test_stderr_scales_as_sqrt_n(self, small_instance):
        x = np.full(3, 0.3)
        rng = np.random.default_rng(11)
        errs = [perturbation_error_check(small_instance, x, 1e-2, n, rng)["stderr"]
                for n in (100, 1_000, 10_000)]
        for a, b in zip(errs, errs[1:]):
            ratio = a / b
            assert abs(ratio - np.sqrt(10)) <= 0.2 * np.sqrt(10)


def _scaled(rng, shape, exponent: int, spread: float) -> np.ndarray:
    """Normal draws scaled by 10 ** (exponent +- spread), entry by entry."""
    return rng.standard_normal(shape) * 10.0 ** (exponent + rng.uniform(-spread, spread, shape))


_EXPONENTS = st.sampled_from([-150, -149, -100, -8, 0, 8, 100, 149, 150]) | st.integers(-150, 150)


class TestDotProductNorms:
    # the loop, the certificate and the windows take sqrt(v @ v) for the
    # 1-D norm, and stationarity_profile takes it row by row through _dots;
    # outputs stay byte-identical only while these hold bit for bit

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 600), st.integers(0, 2 ** 32 - 1), _EXPONENTS,
           st.sampled_from([0.0, 0.5, 2.0]))
    def test_sqrt_of_dot_is_the_norm(self, n, seed, exponent, spread):
        v = _scaled(np.random.default_rng(seed), n, exponent, spread)
        norm = float(np.linalg.norm(v))
        assert math.sqrt(v @ v) == norm
        assert float(np.sqrt(v @ v)) == norm

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.floats(-1e150, 1e150), min_size=1, max_size=600))
    def test_sqrt_of_dot_is_the_norm_on_drawn_floats(self, values):
        v = np.array(values)
        assert math.sqrt(v @ v) == float(np.linalg.norm(v))

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 300), st.integers(1, 600), st.integers(0, 2 ** 32 - 1), _EXPONENTS)
    def test_row_norms_through_dots(self, rows, cols, seed, exponent):
        C = _scaled(np.random.default_rng(seed), (rows, cols), exponent, 1.0)
        expected = np.array([math.sqrt(c @ c) for c in C])
        assert np.sqrt(_dots(C, C)).tobytes() == expected.tobytes()


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

    @pytest.mark.parametrize("d", [1, 10, 50, 257])
    def test_profile_equals_every_window_norm(self, d):
        # the profile's row norms (sqrt of _dots) against each window's
        # 1-D norm, bit for bit, at sizes where a pairwise sum would differ
        grads = _scaled(np.random.default_rng(d), (60, d), 0, 3.0)
        log = self._log_with_grads(grads)
        prof = stationarity_profile(log, 0.9, 10)
        windows = [window_weights(0.9, 10) @ grads[t - 10:t] for t in range(11, 61)]
        assert prof[10:].tobytes() == np.array([math.sqrt(c @ c) for c in windows]).tobytes()

    def test_constant_gradients(self):
        v = np.array([2.0, -1.0])
        grads = np.array([v] * 6)
        assert np.allclose(window_weights(0.9, 4) @ grads[2:6], v, atol=1e-12)
        prof = stationarity_profile(self._log_with_grads(grads), 0.9, 4)
        assert prof[5] == pytest.approx(np.linalg.norm(v), abs=1e-12)

    def test_k_one_returns_last(self):
        grads = np.array([[1.0], [2.0], [5.0]])
        assert (window_weights(0.7, 1) @ grads[2:3])[0] == 5.0
        assert stationarity_profile(self._log_with_grads(grads), 0.7, 1)[2] == 5.0
        assert window_weights(0.7, 1) == pytest.approx([1.0])

    def test_weights_formula(self):
        from fractions import Fraction
        combined = window_weights(0.9, 3) @ np.array([[1.0], [2.0], [3.0]])
        beta = Fraction(9, 10)
        scale = (1 - beta) / (1 - beta ** 3)
        expected = [float(beta ** p * scale) for p in (2, 1, 0)]
        assert window_weights(0.9, 3) == pytest.approx(expected, rel=1e-14)
        assert combined[0] == pytest.approx(
            expected[0] * 1 + expected[1] * 2 + expected[2] * 3, rel=1e-12)

    def test_incomplete_window(self, small_instance):
        log = self._log_with_grads([[1.0]] * 5)
        for t in (2, 9):
            with pytest.raises(WindowIncomplete):
                stationarity_window(log, t=t, beta=0.9, K=3, inst=small_instance,
                                    mc_samples=2, radius=1e-3, rng=np.random.default_rng(0))

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
        stored = window_weights(0.9, 5) @ np.array([r.grad for r in log.records[15:20]])
        mc = stationarity_window(log, t=20, beta=0.9, K=5, inst=small_instance,
                                 mc_samples=8, radius=1e-3,
                                 rng=np.random.default_rng(1))
        assert np.isfinite(mc.norm)
        # tiny perturbation radius: the two estimators agree closely
        assert mc.norm == pytest.approx(np.linalg.norm(stored), rel=0.2, abs=1e-3)
        with pytest.raises(ValueError, match="mc_samples must be at least 1"):
            stationarity_window(log, t=20, beta=0.9, K=5, inst=small_instance, mc_samples=0,
                                radius=1e-3, rng=np.random.default_rng(1))


def _stacked_windows(log) -> dict:
    """``check_windows`` with its K x (n - K) displacement matrix stacked
    whole, as it was first written: the reference for the running maximum."""
    sched, n = log.schedule, len(log.records)
    K, delta_bar = sched.K, sched.delta_bar
    budget = np.array([r.eta * r.m_norm for r in log.records[:-1]])
    worst = float(np.lib.stride_tricks.sliding_window_view(budget, K).sum(axis=1).max())
    if worst > K / sched.gamma1 * (1 + 1e-9):
        raise WindowViolation(
            f"window step budget {worst:.6g} exceeds K/gamma1 = {K / sched.gamma1:.6g}")
    anchors = np.array([r.x for r in log.records[:n - K]])
    x_bar = np.array([r.x_bar for r in log.records])
    dist = np.array([np.linalg.norm(anchors - x_bar[lag:n - K + lag], axis=1)
                     for lag in range(1, K + 1)])
    far = float(dist.max())
    if far > delta_bar * (1 + 1e-9):
        raise WindowViolation(
            f"window displacement {far:.6g} exceeds delta_bar = {delta_bar:.6g}")
    return {"checked": int(dist.size), "violations": 0, "max_ratio": far / delta_bar}


class TestCheckWindows:
    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 12), st.integers(1, 40), st.integers(1, 5), st.integers(0, 2 ** 16),
           st.sampled_from([0.5, 1.0, 2.0]), st.booleans())
    def test_running_maximum_equals_the_stacked_matrix(self, K, extra, d, seed, spread,
                                                       nan_x):
        # synthetic logs whose points stray within, or beyond, delta_bar = 1
        # of their anchors, one of them NaN with ``nan_x``; every step is
        # below 1 = K/gamma1 / K, so the budget passes
        rng = np.random.default_rng(seed)
        n = K + extra
        xs = spread / math.sqrt(d) * rng.uniform(-1, 1, (n, d))
        if nan_x:
            xs[rng.integers(n), 0] = np.nan
        records = [SimpleNamespace(x=x, x_bar=x + 0.1 * rng.uniform(-1, 1, d),
                                   eta=float(rng.uniform(0, 1)), m_norm=1.0) for x in xs]
        log = SimpleNamespace(records=records,
                              schedule=SimpleNamespace(K=K, gamma1=1.0, delta_bar=1.0))
        try:
            want = _stacked_windows(log)
        except WindowViolation as exc:
            with pytest.raises(WindowViolation, match=f"^{re.escape(str(exc))}$"):
                check_windows(log)
            return
        got = check_windows(log)
        assert got["checked"] == want["checked"] == K * extra
        assert np.array(got["max_ratio"]).tobytes() == np.array(want["max_ratio"]).tobytes()
        assert got == want or (nan_x and math.isnan(got["max_ratio"]))


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
        grads = np.array([r.grad for r in log.records])
        for t in (5, 12, 25):
            combined = window_weights(0.8, 4) @ grads[t - 4:t]
            assert prof[t - 1] == math.sqrt(combined @ combined)

    def test_run_log_stationarity_computed_once(self, small_instance, monkeypatch, tmp_path):
        calls = []

        def counting(log, beta, K):
            calls.append(log.algorithm)
            return stationarity_profile(log, beta, K)

        monkeypatch.setattr(algo_mod, "stationarity_profile", counting)
        params = DsbloParams(
            T=25, mode=ManualMode(beta=0.8, gamma1=5.0, gamma2=20.0, K=4, delta_y=1e-8),
            seed=5,
        )
        log = run_dsblo(small_instance, params, eval_every=0)
        assert calls == []
        prof = log.stationarity
        build_report(log)
        write_csv(log, tmp_path / "run.csv")
        assert log.stationarity is prof and calls == ["dsblo"]
        ref = stationarity_profile(log, 0.8, 4)
        assert np.all(np.isnan(prof[:4])) and np.all(np.isnan(ref[:4]))
        assert np.all(prof[4:] == ref[4:])
        igd = run_igd_baseline(small_instance, step=0.02, T=15, seed=2, eval_every=0)
        assert np.all(igd.stationarity == [r.m_norm for r in igd.records])
        assert calls == ["dsblo"]

    def test_igd_report(self, small_instance):
        log = run_igd_baseline(small_instance, step=0.02, T=15, seed=2, eval_every=1)
        doc = build_report(log)
        assert doc["algorithm"] == "igd"
        assert doc["displacement"]["checked"] == 0
