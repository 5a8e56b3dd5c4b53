import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dsblo.errors import DegenerateActiveSet, Infeasible
from dsblo.lower_level import (Perturbation, certify_active_set,
                               sample_perturbation, sc_margin,
                               solve_ll_bruteforce, solve_ll_oracle,
                               solve_ll_quadratic, solve_qp)
from dsblo.problem import (Polyhedron, ProblemOracle, empty_polyhedron,
                           generate_instance, oracle_from_quadratic)

from conftest import make_1d_instance


# the reference oracle gets validated on hand-solvable problems before
# anything is compared against it
class TestBruteForceOracle:
    def test_bound_active(self):
        # min y^2 - 2y over y <= 0.5: optimum pinned at the bound, lam = 1
        inst = make_1d_instance(q2=-2.0, A=[[1.0]], B=[[0.0]], b=[0.5])
        sol = solve_ll_bruteforce(inst, np.array([1.0]), None)
        assert sol.y_hat[0] == pytest.approx(0.5, abs=1e-12)
        assert sol.active_set == (0,)
        assert sol.lam[0] == pytest.approx(1.0, abs=1e-10)

    def test_interior(self):
        inst = make_1d_instance(q2=-2.0, A=[[1.0]], B=[[0.0]], b=[2.0])
        sol = solve_ll_bruteforce(inst, np.array([1.0]), None)
        assert sol.y_hat[0] == pytest.approx(1.0, abs=1e-12)
        assert sol.active_set == ()

    def test_infeasible(self):
        inst = make_1d_instance(q2=0.0, A=[[1.0], [-1.0]], B=[[0.0], [0.0]],
                                b=[-1.0, -1.0])
        with pytest.raises(Infeasible):
            solve_ll_bruteforce(inst, np.array([0.0]), None)


class TestActiveSetQP:
    def test_bound_active(self):
        sol = solve_qp(np.array([2.0]), np.array([-2.0]),
                       np.array([[1.0]]), np.array([0.5]))
        assert sol.y_hat[0] == pytest.approx(0.5, abs=1e-12)
        assert sol.active_set == (0,)
        assert sol.lam[0] == pytest.approx(1.0, abs=1e-12)
        assert sol.kkt_residual <= 1e-10

    def test_interior(self):
        sol = solve_qp(np.array([2.0]), np.array([-2.0]),
                       np.array([[1.0]]), np.array([2.0]))
        assert sol.y_hat[0] == pytest.approx(1.0, abs=1e-12)
        assert sol.active_set == ()
        assert sol.lam[0] == 0.0

    def test_via_instance(self):
        # same two cases reached through the instance API
        inst = make_1d_instance(q2=-2.0, A=[[1.0]], B=[[0.0]], b=[0.5])
        sol = solve_ll_quadratic(inst, np.array([1.0]), None)
        assert sol.y_hat[0] == pytest.approx(0.5, abs=1e-12)
        assert sc_margin(sol) == pytest.approx(1.0, abs=1e-12)

    def test_unconstrained(self):
        inst = make_1d_instance(q2=-2.0)
        sol = solve_ll_quadratic(inst, np.array([3.0]), None)
        assert sol.y_hat[0] == pytest.approx(3.0, abs=1e-12)
        assert sol.max_violation == float("-inf")

    def test_infeasible(self):
        with pytest.raises(Infeasible):
            solve_qp(np.ones(1), np.zeros(1), np.array([[1.0], [-1.0]]),
                     np.array([-1.0, -1.0]))

    def test_not_spd_hessian(self):
        from dsblo.errors import NotSPD
        with pytest.raises(NotSPD):
            solve_qp(-np.ones(2), np.zeros(2), np.zeros((0, 2)), np.zeros(0))
        with pytest.raises(NotSPD):
            solve_qp(np.array([1.0, 0.0]), np.zeros(2), np.zeros((0, 2)), np.zeros(0))
        # H is the diagonal only; a matrix, even an SPD one, is rejected
        for H in (2.0 * np.eye(2), np.array([[1.0, 2.0], [2.0, 1.0]])):
            with pytest.raises(ValueError, match="1-D"):
                solve_qp(H, np.zeros(2), np.zeros((0, 2)), np.zeros(0))

    def test_rank_recorded(self):
        inst = generate_instance(6, 6, 4, seed=3)
        rng = np.random.default_rng(3)
        for _ in range(20):
            x = 2.0 * rng.standard_normal(6)
            sol = solve_ll_quadratic(inst, x, None)
            if sol.active_set:
                A_act = inst.constraints.A[list(sol.active_set)]
                smin = np.linalg.svd(A_act, compute_uv=False)[-1]
                assert sol.rank_smin == pytest.approx(smin, rel=1e-12)
            else:
                assert sol.rank_smin == float("inf")
        assert solve_ll_bruteforce(inst, x, None).rank_smin is None

    def test_degenerate_duplicate_rows(self):
        # two copies of y_1 <= 0, objective pushing onto that face
        with pytest.raises(DegenerateActiveSet):
            solve_qp(np.full(2, 2.0), np.array([-2.0, 0.0]),
                     np.array([[1.0, 0.0], [1.0, 0.0]]), np.zeros(2))

    def test_objective_trace_nondecreasing(self, small_instance):
        rng = np.random.default_rng(4)
        seen_pivoting = False
        for _ in range(30):
            x = 1.2 * rng.standard_normal(3)
            try:
                sol = solve_ll_quadratic(small_instance, x, None)
            except Infeasible:
                continue
            trace = sol.stats["objective_trace"]
            if len(trace) > 1:
                seen_pivoting = True
            assert all(b >= a - 1e-9 for a, b in zip(trace, trace[1:]))
        assert seen_pivoting

    def test_matches_bruteforce_batch(self):
        for i in range(30):
            inst = generate_instance(3, 3, k=(i % 6) + 1, seed=9_000 + i)
            rng = np.random.default_rng(i)
            x = 0.6 * rng.standard_normal(3)
            q = sample_perturbation(1e-3, rng, 3)
            fast = solve_ll_quadratic(inst, x, q)
            slow = solve_ll_bruteforce(inst, x, q)
            assert np.linalg.norm(fast.y_hat - slow.y_hat) <= 1e-8
            assert fast.active_set == slow.active_set

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 3), st.integers(0, 5),
           st.integers(min_value=0, max_value=10_000), st.floats(0.1, 2.0))
    def test_matches_bruteforce_property(self, d, k, seed, scale):
        from hypothesis import assume
        inst = generate_instance(d, d, k, seed=seed)
        rng = np.random.default_rng(seed + 1)
        x = scale * rng.standard_normal(d)
        q = sample_perturbation(1e-3, rng, d)
        try:
            fast = solve_ll_quadratic(inst, x, q)
        except Infeasible:
            with pytest.raises(Infeasible):
                solve_ll_bruteforce(inst, x, q)
            return
        except DegenerateActiveSet:
            assume(False)  # measure-zero tie; not this test's subject
        slow = solve_ll_bruteforce(inst, x, q)
        assert np.linalg.norm(fast.y_hat - slow.y_hat) <= 1e-8
        assert fast.active_set == slow.active_set
        assert fast.kkt_residual <= 1e-10
        assert fast.max_violation <= 1e-9


class TestPerturbation:
    def test_support_bound(self):
        rng = np.random.default_rng(0)
        for _ in range(10_000):
            p = sample_perturbation(1e-3, rng, 3)
            assert np.linalg.norm(p.q) <= 1e-3

    def test_mean_near_zero(self):
        rng = np.random.default_rng(1)
        n, r, d = 10_000, 1e-3, 2
        draws = np.array([sample_perturbation(r, rng, d).q for _ in range(n)])
        # per-coordinate variance of the uniform ball is r^2 / (d + 2)
        sigma = r / np.sqrt(d + 2) / np.sqrt(n)
        assert np.all(np.abs(draws.mean(axis=0)) <= 3 * sigma)

    def test_zero_radius_rejected(self):
        with pytest.raises(ValueError):
            sample_perturbation(0.0, np.random.default_rng(0), 3)

    def test_norm_invariant(self):
        with pytest.raises(ValueError):
            Perturbation(np.array([1.0, 0.0]), 0.5)


class TestOraclePath:
    def test_matches_exact_path(self, small_instance):
        oracle = oracle_from_quadratic(small_instance)
        rng = np.random.default_rng(10)
        checked = 0
        for _ in range(20):
            x = 0.8 * rng.standard_normal(3)
            q = sample_perturbation(1e-3, rng, 3)
            try:
                exact = solve_ll_quadratic(small_instance, x, q)
            except Infeasible:
                continue
            approx = solve_ll_oracle(oracle, x, q, tol_delta=1e-8)
            checked += 1
            assert np.linalg.norm(exact.y_hat - approx.y_hat) <= 1e-8
            if sc_margin(exact) > 1e-4:
                assert certify_active_set(exact, approx)
            assert approx.delta_cert <= 1e-8
            assert approx.max_violation <= 1e-9
            assert approx.kkt_residual <= small_instance.mu_g * 1e-8 + 1e-12
        assert checked >= 10

    def test_unconstrained_quadratic(self):
        # g = ||y - c||^2 with no constraints converges to c
        c = np.array([0.3, -1.2, 0.7])
        oracle = ProblemOracle(
            grad_f=lambda x, y: (np.zeros(1), np.zeros(3)),
            grad_y_g=lambda x, y: 2.0 * (y - c),
            hess_yy_g=lambda x, y: 2.0 * np.eye(3),
            jac_xy_g=lambda x, y: np.zeros((3, 1)),
            constraints=empty_polyhedron(3, 1),
            mu_g=2.0,
            lip_grad_y=2.0,
        )
        sol = solve_ll_oracle(oracle, np.zeros(1), None, tol_delta=1e-6)
        assert np.linalg.norm(sol.y_hat - c) <= 1e-6
        assert sol.active_set == ()

    def test_anisotropic_oracle(self):
        # diag(2, 6) curvature exercises genuinely iterative descent
        D = np.diag([2.0, 6.0])
        target = np.array([1.0, -2.0])
        oracle = ProblemOracle(
            grad_f=lambda x, y: (np.zeros(1), np.zeros(2)),
            grad_y_g=lambda x, y: D @ y - target,
            hess_yy_g=lambda x, y: D,
            jac_xy_g=lambda x, y: np.zeros((2, 1)),
            constraints=Polyhedron([[1.0, 0.0]], [[0.0]], [0.2]),
            mu_g=2.0,
            lip_grad_y=6.0,
        )
        sol = solve_ll_oracle(oracle, np.zeros(1), None, tol_delta=1e-9)
        # KKT by hand: unconstrained min (0.5, -1/3) violates y_1 <= 0.2
        assert sol.y_hat[0] == pytest.approx(0.2, abs=1e-7)
        assert sol.y_hat[1] == pytest.approx(-1.0 / 3.0, abs=1e-7)
        assert sol.active_set == (0,)
        assert sol.stats["iterations"] > 1

    def test_tolerance_monotone(self, small_instance):
        oracle = oracle_from_quadratic(small_instance)
        x = np.full(3, 0.4)
        q = sample_perturbation(1e-3, np.random.default_rng(3), 3)
        loose = solve_ll_oracle(oracle, x, q, tol_delta=1e-2)
        tight = solve_ll_oracle(oracle, x, q, tol_delta=1e-8)
        assert loose.max_violation <= 1e-9
        assert tight.max_violation <= 1e-9
        assert tight.delta_cert <= 1e-8
        assert tight.delta_cert <= loose.delta_cert

    def test_rejects_bad_tolerance(self, small_instance):
        oracle = oracle_from_quadratic(small_instance)
        with pytest.raises(ValueError):
            solve_ll_oracle(oracle, np.zeros(3), None, tol_delta=0.0)

    def test_max_iter_carries_best_certificate(self):
        from dsblo.errors import MaxIter
        D = np.diag([2.0, 200.0])
        oracle = ProblemOracle(
            grad_f=lambda x, y: (np.zeros(1), np.zeros(2)),
            grad_y_g=lambda x, y: D @ y - np.array([1.0, 1.0]),
            hess_yy_g=lambda x, y: D,
            jac_xy_g=lambda x, y: np.zeros((2, 1)),
            constraints=empty_polyhedron(2, 1),
            mu_g=2.0,
            lip_grad_y=200.0,
        )
        with pytest.raises(MaxIter) as exc:
            solve_ll_oracle(oracle, np.zeros(1), None, tol_delta=1e-14, max_iter=3)
        assert exc.value.delta_cert is not None and exc.value.delta_cert > 1e-14


class TestCertifyAndMargin:
    def test_identical(self, small_instance):
        sol = solve_ll_quadratic(small_instance, np.zeros(3), None)
        assert certify_active_set(sol, sol)

    def test_mismatch(self, small_instance):
        a = solve_ll_quadratic(small_instance, np.zeros(3), None)
        b = solve_ll_quadratic(small_instance, np.full(3, 1.5), None)
        if a.active_set != b.active_set:
            assert not certify_active_set(a, b)

    def test_margin_empty(self, small_instance):
        sol = solve_ll_quadratic(small_instance, np.zeros(3), None)
        assert sol.active_set == ()
        assert sc_margin(sol) == float("inf")

    def test_identification_sweep(self):
        # at tol 1e-8 the inexact path identifies the exact active set on
        # every instance with a healthy multiplier margin
        agree = total = 0
        for i in range(100):
            inst = generate_instance(3, 3, 3, seed=4_000 + i)
            oracle = oracle_from_quadratic(inst)
            rng = np.random.default_rng(i)
            x = 0.8 * rng.standard_normal(3)
            q = sample_perturbation(1e-3, rng, 3)
            try:
                exact = solve_ll_quadratic(inst, x, q)
                approx = solve_ll_oracle(oracle, x, q, tol_delta=1e-8)
            except Infeasible:
                continue
            if sc_margin(exact) >= 1e-4:
                total += 1
                agree += certify_active_set(exact, approx)
        assert total > 20
        assert agree == total
