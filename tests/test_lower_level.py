import json
import math
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import dsblo.lower_level as ll
from dsblo.errors import (DegenerateActiveSet, DsbloError, Infeasible, MaxPivots,
                          NonFinite, Uncertified)
from dsblo.experiment import config_from_dict, run_experiment
from dsblo.implicit_grad import implicit_gradient, jacobians
from dsblo.lower_level import (KKT_TOL, RANK_TOL, TAU_ACT, ActiveSetCache,
                               LLSolution, Perturbation, sample_perturbation, sc_margin,
                               solve_ll_bruteforce, solve_ll_quadratic, solve_qp,
                               solve_qp_batch)
from dsblo.problem import (Polyhedron, QuadraticBilevel, generate_instance, load_instance,
                           save_instance)

from conftest import generate, make_1d_instance


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


# the reduced KKT solve behind the hot start, the polish, the pivot step,
# the Monte-Carlo batch and the adjoint gradient
class TestEqualitySolve:
    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 7), st.integers(0, 7), st.integers(0, 3), st.booleans(),
           st.booleans(), st.integers(0, 2 ** 16))
    def test_matches_dense_kkt_solve(self, d, m, n_rhs, hit, zero_u, seed):
        # [[H, Aw'], [Aw, 0]] [y; lam] = [-c; uw], with one column per
        # right-hand side when c is a matrix (n_rhs > 0); the rows are taken
        # in any order from a larger A, and S is cached first on a hit
        assume(m <= d)
        rng = np.random.default_rng(seed)
        h = rng.uniform(0.2, 5.0, d)
        A = rng.standard_normal((m + 2, d))
        rows = tuple(int(i) for i in rng.permutation(m + 2)[:m])
        Aw = A[list(rows)]
        assume(m == 0 or np.linalg.svd(Aw, compute_uv=False)[-1] > 0.1)
        c = rng.standard_normal((d, n_rhs) if n_rhs else d)
        uw = 0.0 if zero_u else rng.standard_normal(m)
        Hic = c / h if c.ndim == 1 else c / h[:, None]
        cache = ActiveSetCache(h, A)
        if hit:
            cache.reduced(rows)
        lam, y = cache.equality_solve(rows, Hic, uw)
        kkt = np.block([[np.diag(h), Aw.T], [Aw, np.zeros((m, m))]])
        rhs_u = np.zeros((m,) + c.shape[1:]) + (np.reshape(uw, (-1, 1)) if n_rhs else uw)
        ref = np.linalg.solve(kkt, np.concatenate([-c, rhs_u]))
        assert lam.shape == (m,) + c.shape[1:] and y.shape == c.shape
        tol = 1e-9 * (1.0 + np.abs(ref).max())
        assert np.allclose(y, ref[:d], rtol=0, atol=tol)
        assert np.allclose(lam, ref[d:], rtol=0, atol=tol)
        assert np.allclose(cache.reduced(rows), Aw @ np.linalg.solve(np.diag(h), Aw.T),
                           rtol=1e-12, atol=1e-12)
        # a fresh cache gives the same bits
        lam0, y0 = ActiveSetCache(h, A).equality_solve(rows, Hic, uw)
        assert np.array_equal(lam, lam0) and np.array_equal(y, y0)

    @pytest.mark.parametrize("hit", [False, True])
    @pytest.mark.parametrize("bad_row", ["repeated", "zero"])
    def test_singular_reduced_matrix_raises(self, hit, bad_row):
        rng = np.random.default_rng(3)
        h = rng.uniform(0.2, 5.0, 4)
        Aw = rng.standard_normal((2, 4))
        Aw = np.vstack([Aw, Aw[:1] if bad_row == "repeated" else np.zeros((1, 4))])
        cache = ActiveSetCache(h, Aw)
        if hit:
            cache.reduced((0, 1, 2))
        c = rng.standard_normal(4)
        for _ in range(2):
            with pytest.raises(DegenerateActiveSet, match="singular"):
                cache.equality_solve((0, 1, 2), c / h, rng.standard_normal(3))


class TestActiveSetQP:
    def test_bound_active(self):
        sol = solve_qp(ActiveSetCache(np.array([2.0]), np.array([[1.0]])), np.array([-2.0]),
                       np.array([0.5]))
        assert sol.y_hat[0] == pytest.approx(0.5, abs=1e-12)
        assert sol.active_set == (0,)
        assert sol.lam[0] == pytest.approx(1.0, abs=1e-12)
        assert sol.kkt_residual <= 1e-10

    def test_interior(self):
        sol = solve_qp(ActiveSetCache(np.array([2.0]), np.array([[1.0]])), np.array([-2.0]),
                       np.array([2.0]))
        assert sol.y_hat[0] == pytest.approx(1.0, abs=1e-12)
        assert sol.active_set == ()
        assert sol.lam[0] == 0.0

    def test_via_instance(self):
        # same two cases reached through the instance API
        inst = make_1d_instance(q2=-2.0, A=[[1.0]], B=[[0.0]], b=[0.5])
        sol = solve_ll_quadratic(inst, np.array([1.0]), None)
        assert sol.y_hat[0] == pytest.approx(0.5, abs=1e-12)
        assert sc_margin(sol) == pytest.approx(1.0, abs=1e-12)

    def test_anisotropic_bound_active(self):
        # H = diag(2, 6): the unconstrained minimum (0.5, -1/3) violates
        # y_1 <= 0.2, so KKT by hand gives y = (0.2, -1/3) and lam = 0.6
        sol = solve_qp(ActiveSetCache(np.array([2.0, 6.0]), np.array([[1.0, 0.0]])),
                       np.array([-1.0, 2.0]), np.array([0.2]))
        assert sol.y_hat == pytest.approx(np.array([0.2, -1.0 / 3.0]), abs=1e-12)
        assert sol.active_set == (0,)
        assert sol.lam[0] == pytest.approx(0.6, abs=1e-12)
        assert sol.kkt_residual <= KKT_TOL

    def test_unconstrained(self):
        inst = make_1d_instance(q2=-2.0)
        sol = solve_ll_quadratic(inst, np.array([3.0]), None)
        assert sol.y_hat[0] == pytest.approx(3.0, abs=1e-12)
        assert sol.max_violation == float("-inf")

    def test_infeasible(self):
        with pytest.raises(Infeasible):
            solve_qp(ActiveSetCache(np.ones(1), np.array([[1.0], [-1.0]])), np.zeros(1),
                     np.array([-1.0, -1.0]))

    def test_not_spd_hessian(self):
        from dsblo.errors import NotSPD
        with pytest.raises(NotSPD):
            solve_qp(ActiveSetCache(-np.ones(2), np.zeros((0, 2))), np.zeros(2), np.zeros(0))
        with pytest.raises(NotSPD):
            solve_qp(ActiveSetCache(np.array([1.0, 0.0]), np.zeros((0, 2))), np.zeros(2),
                     np.zeros(0))
        # H is the diagonal only; a matrix, even an SPD one, is rejected
        for H in (2.0 * np.eye(2), np.array([[1.0, 2.0], [2.0, 1.0]])):
            with pytest.raises(ValueError, match="1-D"):
                solve_qp(ActiveSetCache(H, np.zeros((0, 2))), np.zeros(2), np.zeros(0))

    def test_hessian_checked_by_the_cache(self):
        # the cache is the only way H reaches solve_qp and solve_qp_batch,
        # so its check is theirs, whatever the draws or rows
        from dsblo.errors import NotSPD
        A = np.eye(2)
        for H in (-np.ones(2), np.array([1.0, 0.0])):
            with pytest.raises(NotSPD):
                ActiveSetCache(H, A)
        for H in (2.0 * np.eye(2), np.array([[1.0, 2.0], [2.0, 1.0]])):
            with pytest.raises(ValueError, match="1-D"):
                ActiveSetCache(H, A)
        cache = ActiveSetCache([3.0, 0.5], [1.0, 2.0])
        assert cache.mu == 0.5 and cache.A.shape == (1, 2) and cache.A.dtype == float

    def test_rank_recorded(self):
        # the verdict on a solve's active rows is the smallest share of a
        # row's squared H^-1-norm outside the span of the rows before it;
        # these rows are well conditioned, so it is far above RANK_TOL
        inst = generate_instance(6, 6, 4, seed=3)
        H = inst.hess_yy_diag
        rng = np.random.default_rng(3)
        for _ in range(20):
            x = 2.0 * rng.standard_normal(6)
            sol = solve_ll_quadratic(inst, x, None)
            share = inst.active_set_cache.check_rank(sol.active_set)
            if sol.active_set:
                A_act = inst.constraints.A[list(sol.active_set)]
                assert np.linalg.svd(A_act, compute_uv=False)[-1] > 0.1
                S = A_act @ (A_act.T / H[:, None])
                ref = np.min(np.diag(np.linalg.cholesky(S)) ** 2 / np.diag(S))
                assert share == pytest.approx(ref, rel=1e-12) and share > 1e3 * RANK_TOL
            else:
                assert share == float("inf")

    def test_degenerate_duplicate_rows(self):
        # two copies of y_1 <= 0, objective pushing onto that face
        with pytest.raises(DegenerateActiveSet):
            solve_qp(ActiveSetCache(np.full(2, 2.0), np.array([[1.0, 0.0], [1.0, 0.0]])),
                     np.array([-2.0, 0.0]), np.zeros(2))

    def test_nearly_parallel_binding_rows_raise(self):
        # rows y1 <= 0 and y1 + 1e-5 y2 <= 0 both bind at y = 0 with true
        # multipliers (1, 1); the second row has 1e-10 of its squared
        # H^-1-norm outside the first's span, so the multipliers are not
        # determined to working precision (a smallest-singular-value test
        # at 1e-8 certified (0, 2), a zero on an active row)
        eps = 1e-5
        H, c = np.array([2.0, 2.0]), np.array([-2.0, -eps])
        A = np.array([[1.0, 0.0], [1.0, eps]])
        for start in ((), (0,), (0, 1)):
            with pytest.raises(DegenerateActiveSet, match="nearly rank deficient"):
                solve_qp(ActiveSetCache(H, A), c, np.zeros(2), start)
        # the gradient and the Jacobians on the true solve, built by hand
        # (on this instance q = (0, -eps) puts it at (-1, 0))
        sol = LLSolution(y_hat=np.array([-1.0, 0.0]), lam=np.ones(2), active_set=(0, 1),
                         kkt_residual=0.0, max_violation=0.0, delta_cert=0.0)
        inst = _two_row_instance(A)
        for _ in range(2):
            with pytest.raises(DegenerateActiveSet, match="nearly rank deficient"):
                implicit_gradient(inst, np.zeros(2), sol)
            with pytest.raises(DegenerateActiveSet, match="nearly rank deficient"):
                jacobians(inst, sol)
        # as a start the pair is rejected: with row 1 slack the solve takes
        # the cold path, pivot for pivot
        u = np.array([0.0, 1.0])
        cold = solve_qp(ActiveSetCache(H, A), c, u)
        warm = solve_qp(ActiveSetCache(H, A), c, u, (0, 1))
        assert cold.active_set == warm.active_set == (0,)
        assert warm.stats == cold.stats == {"pivots": 1, "repairs": 0}
        assert np.array_equal(warm.y_hat, cold.y_hat) and np.array_equal(warm.lam, cold.lam)

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
           st.integers(min_value=0, max_value=10_000), st.floats(0.1, 2.0), st.booleans())
    def test_matches_bruteforce_property(self, d, k, seed, scale, blocks):
        # with blocks the box rows are taken by blocks at this size too
        inst = generate(d, d, k, seed, blocks)
        assert inst.constraints.box_start == (k if blocks else None)
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


def _random_qp(d: int, k: int, seed: int, pair: str):
    """Diagonal QP with k random rows, feasible unless ``pair`` is
    "opposed"; the other ``pair`` kinds make the last row a multiple of the
    first ("parallel") or the same half-space ("coincident")."""
    rng = np.random.default_rng(seed)
    H = rng.uniform(0.5, 3.0, d)
    c = 2.0 * rng.standard_normal(d)
    A = rng.standard_normal((k, d))
    u = A @ rng.standard_normal(d) + rng.uniform(0.0, 1.0, k)
    if k >= 2 and pair != "none":
        A[-1] = {"parallel": 2.0, "coincident": 2.0, "opposed": -1.0}[pair] * A[0]
        u[-1] = {"parallel": u[-1], "coincident": 2.0 * u[0], "opposed": -u[0] - 0.5}[pair]
    return H, c, A, u


def _solve_or_error(H, c, A, u, start=()):
    """``solve_qp`` on a cache of the bare arrays, or the error that either
    raises."""
    try:
        return solve_qp(ActiveSetCache(H, A), c, u, start)
    except DsbloError as exc:
        return exc


class TestWarmStart:
    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 6), st.integers(0, 10), st.integers(0, 100_000),
           st.sampled_from(["none", "parallel", "coincident", "opposed"]),
           st.sampled_from(["empty", "cold", "subset", "all", "oversized", "out_of_range"]),
           st.lists(st.booleans(), min_size=10, max_size=10))
    def test_warm_matches_cold(self, d, k, seed, pair, kind, mask):
        H, c, A, u = _random_qp(d, k, seed, pair)
        cold = _solve_or_error(H, c, A, u)
        start = {
            "empty": (),
            "cold": getattr(cold, "active_set", ()),
            "subset": tuple(i for i in range(k) if mask[i]),
            "all": tuple(range(k)),
            "oversized": tuple(range(k)) + (0,) * (d + 1 - k) if k else (),
            "out_of_range": (k, -1) + tuple(range(min(k, d))),
        }[kind]
        warm = _solve_or_error(H, c, A, u, start)
        if isinstance(cold, DsbloError):
            assert type(warm) is type(cold)
            return
        assert not isinstance(warm, DsbloError), warm
        assert warm.active_set == cold.active_set
        # both end in an equality solve on the same rows, so they agree to
        # that solve's round-off, which grows with its condition number
        assume(not cold.active_set
               or np.linalg.svd(A[list(cold.active_set)], compute_uv=False)[-1] >= 0.1)
        assert np.max(np.abs(warm.y_hat - cold.y_hat)) <= 1e-12 * (1 + np.max(np.abs(cold.y_hat)))
        assert np.max(np.abs(warm.lam - cold.lam), initial=0.0) <= \
            1e-12 * (1 + np.max(cold.lam, initial=0.0))

    def test_dependent_start_falls_back_to_cold(self):
        # rows 0 and 1 are nearly parallel: a start holding both is ignored,
        # so the solve takes the cold path, pivot for pivot
        H = np.array([2.0, 2.0])
        c = np.array([-2.0, -2.0])
        A = np.array([[1.0, 0.0], [1.0, 1e-6], [0.0, 1.0]])
        u = np.array([0.5, 0.501, 0.5])
        cold = solve_qp(ActiveSetCache(H, A), c, u)
        assert cold.active_set == (0, 2) and cold.stats["pivots"] == 2
        for start in ((0, 1), (0, 1, 2), (1, 1, 0), (0, 1, 2, 0)):
            warm = solve_qp(ActiveSetCache(H, A), c, u, start)
            assert warm.stats["pivots"] == cold.stats["pivots"]
            assert np.array_equal(warm.y_hat, cold.y_hat)
        # an exactly duplicated half-space that binds: same error warm or cold
        A2, u2 = np.array([[1.0, 0.0], [2.0, 0.0]]), np.array([0.5, 1.0])
        for start in ((), (0,), (0, 1)):
            with pytest.raises(DegenerateActiveSet):
                solve_qp(ActiveSetCache(H, A2), c, u2, start)

    def test_start_rows_with_negative_multipliers_dropped(self):
        # min y'y - 2y_1 under y_1 <= 2, y_1 <= 0.5, y_2 <= 1: forcing rows 0
        # and 2 to equality gives them negative multipliers; the hot start
        # drops both before the pivot loop, so no pivot or repair is needed
        H, c = np.array([2.0, 2.0]), np.array([-2.0, 0.0])
        A = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        u = np.array([2.0, 0.5, 1.0])
        sol = solve_qp(ActiveSetCache(H, A[[0, 2]]), c, u[[0, 2]], (0, 1))
        assert sol.active_set == () and sol.stats["pivots"] == sol.stats["repairs"] == 0
        sol = solve_qp(ActiveSetCache(H, A[1:]), c, u[1:], (0, 1))
        assert sol.active_set == (0,) and sol.stats["pivots"] == sol.stats["repairs"] == 0
        assert sol.y_hat.tolist() == [0.5, 0.0] and sol.lam.tolist() == [1.0, 0.0]

    def test_warm_matches_bruteforce_and_kkt(self):
        # criteria 1 and 2 on solves started from a neighbouring point's
        # active set and from every row
        hot = 0
        for i in range(40):
            inst = generate_instance(3, 3, k=(i % 6) + 1, seed=9_500 + i)
            rng = np.random.default_rng(i)
            x = 0.6 * rng.standard_normal(3)
            q = sample_perturbation(1e-3, rng, 3)
            try:
                slow = solve_ll_bruteforce(inst, x, q)
                near = solve_ll_quadratic(inst, x + 0.05 * rng.standard_normal(3), q)
            except Infeasible:
                continue
            for start in (near.active_set, tuple(range(inst.constraints.k))):
                warm = solve_ll_quadratic(inst, x, q, start)
                assert np.linalg.norm(warm.y_hat - slow.y_hat) <= 1e-8
                assert warm.active_set == slow.active_set
                assert warm.kkt_residual <= 1e-10
                assert warm.max_violation <= 1e-9
                assert np.all(warm.lam >= 0.0)
                hot += bool(warm.active_set) and warm.stats["pivots"] == 0
        assert hot >= 10

    def test_own_active_set_needs_no_pivot(self):
        inst = generate_instance(200, 200, 40, seed=1)
        rng = np.random.default_rng(2)
        x = 4.0 * rng.standard_normal(200)
        cold = solve_ll_quadratic(inst, x, None)
        assert len(cold.active_set) >= 5 and cold.stats["pivots"] >= 5
        warm = solve_ll_quadratic(inst, x, None, cold.active_set)
        assert warm.stats["pivots"] == 0 and warm.active_set == cold.active_set
        assert np.max(np.abs(warm.y_hat - cold.y_hat)) <= 1e-12 * np.max(np.abs(cold.y_hat))


# slacks at y = -H^-1 c: at the activity threshold, just either side of it,
# and far inside
_SLACKS = {"at": TAU_ACT, "below": TAU_ACT * (1 - 1e-6), "above": TAU_ACT * (1 + 1e-6),
           "far": 0.5}


class TestInteriorFastPath:
    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 6), st.integers(0, 6), st.integers(0, 2 ** 16), st.booleans(),
           st.lists(st.sampled_from(sorted(_SLACKS)), min_size=6, max_size=6))
    def test_equals_general_path(self, d, k, seed, zero_c, kinds):
        # with c = 0 the point y = -H^-1 c is -0 and every slack is exactly
        # its drawn value; otherwise it is that value up to round-off
        rng = np.random.default_rng(seed)
        H = rng.uniform(0.2, 5.0, d)
        c = np.zeros(d) if zero_c else 2.0 * rng.standard_normal(d)
        A = rng.standard_normal((k, d))
        u = A @ -(c / H) + np.array([_SLACKS[kind] for kind in kinds[:k]])
        interior = k == 0 or (u - A @ -(c / H)).min() > TAU_ACT
        real, begun = ll._iterate, []

        def spy(*args):
            begun.append(args)
            return real(*args)

        ll._iterate = spy
        try:
            fast = _solve_or_error(H, c, A, u)
        finally:
            ll._iterate = real
        assert (not begun) == interior
        # row 0 is slack, so the hot start drops it and the solve takes the
        # path of the one without a start; with no rows the start is out of
        # range and unusable
        general = _solve_or_error(H, c, A, u, (0,))
        if isinstance(fast, DsbloError):  # more rows at the threshold than d
            assert not interior and type(general) is type(fast)
            return
        assert np.array_equal(fast.y_hat, general.y_hat)
        assert np.array_equal(fast.lam, general.lam)
        for name in ("active_set", "kkt_residual", "max_violation", "delta_cert", "stats"):
            assert getattr(fast, name) == getattr(general, name), name
        cache = ActiveSetCache(H, A)
        assert cache.check_rank(fast.active_set) == cache.check_rank(general.active_set)
        if not interior:
            return
        # the iteration from the unconstrained minimum itself, which never
        # asks interior_point, returns every bit of the interior return
        Hic = c / H
        iterated = ll._iterate(cache, c, u, Hic, ([], np.zeros(0), -Hic), False)
        assert np.array_equal(fast.y_hat, iterated.y_hat)
        assert np.array_equal(fast.lam, iterated.lam)
        for name in ("active_set", "kkt_residual", "max_violation", "delta_cert", "stats"):
            assert getattr(fast, name) == getattr(iterated, name), name
        assert fast.active_set == () and cache.check_rank(fast.active_set) == np.inf
        assert fast.stats == {"pivots": 0, "repairs": 0}
        assert not fast.y_hat.flags.writeable and not fast.lam.flags.writeable

    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 6), st.integers(0, 4), st.integers(0, 2 ** 16),
           st.sampled_from([0.0, 0.05, 0.3, 1.0]),
           st.sampled_from(["slack", "binding", "mixed", "every", "out_of_range"]),
           st.lists(st.booleans(), min_size=16, max_size=16))
    def test_start_without_a_hot_start_equals_no_start(self, d, k, seed, scale, kind, mask):
        # the box rows |y_i| <= 0.2 bind for many of these points; the start
        # takes rows that are slack at the unconstrained minimum y0 (their
        # multipliers are negative, so they all drop), rows that y0 binds or
        # violates, both, every row, or an index out of range
        inst = generate_instance(d, d, k, seed=seed, box_radius=0.2)
        rng = np.random.default_rng(seed)
        x = scale * rng.standard_normal(d)
        c, u = ll._linear_terms(inst, x, 1e-3 * rng.standard_normal(d))
        cache = inst.active_set_cache
        slack = u - cache.A @ -(c / cache.H)
        rows = [i for i in range(len(u)) if mask[i % 16]]
        start = {
            "slack": tuple(i for i in rows if slack[i] > TAU_ACT),
            "binding": tuple(i for i in rows if slack[i] <= TAU_ACT),
            "mixed": tuple(rows),
            "every": tuple(range(len(u))),
            "out_of_range": (len(u),) + tuple(rows),
        }[kind]
        interior = slack.min() > TAU_ACT
        no_hot = ll._hot_start(cache, c / cache.H, u, start, False) is None
        # rows that are all slack at y0 always have a negative multiplier,
        # so at an interior y0 every start's rows drop
        assert no_hot or not interior
        real, asked = ll.interior_point, []

        def spy(*args):
            asked.append(args)
            return real(*args)

        ll.interior_point = spy
        try:
            try:
                started = solve_qp(cache, c, u, start)
            except DsbloError as exc:
                started = exc
        finally:
            ll.interior_point = real
        plain = _solve_or_error(cache.H, c, cache.A, u)
        # the start asks interior_point once when it gives no hot start, and
        # not at all when it does; the repeat with np.linalg.solve never asks
        assert len(asked) == no_hot
        if not no_hot:
            return
        if isinstance(plain, DsbloError):
            assert type(started) is type(plain)
            return
        assert started.y_hat.tobytes() == plain.y_hat.tobytes()
        assert started.lam.tobytes() == plain.lam.tobytes()
        for name in ("active_set", "kkt_residual", "max_violation", "delta_cert", "stats"):
            assert getattr(started, name) == getattr(plain, name), name
        if interior:
            assert started.active_set == ()
            assert started.stats == {"pivots": 0, "repairs": 0}

    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 8), st.integers(0, 6), st.integers(0, 2 ** 16),
           st.sampled_from([0.0, 0.1, 1.0, 4.0]), st.booleans())
    def test_bare_arrays_equal_the_instance_cache(self, d, k, seed, scale, tight):
        # a solve reads H, A and mu from its cache: a fresh one built on
        # copies of the arrays gives every field the bits of the solve
        # through the instance's cache, on the interior path and off it
        inst = generate_instance(d, d, k, seed=seed, box_radius=0.2 if tight else 10.0)
        rng = np.random.default_rng(seed)
        x = scale * rng.standard_normal(d)
        q = 1e-3 * rng.standard_normal(d)
        c, u = inst.Q2.T @ x + q, inst.constraints.rhs(x)
        try:
            cached = solve_qp(inst.active_set_cache, c, u)
        except DsbloError as exc:
            cached = exc
        bare = _solve_or_error(inst.hess_yy_diag.copy(), c, inst.constraints.A.copy(), u)
        assert type(bare) is type(cached)
        if isinstance(bare, DsbloError):
            return
        for other in (bare, solve_ll_quadratic(inst, x, q)):
            assert other.y_hat.tobytes() == cached.y_hat.tobytes()
            assert other.lam.tobytes() == cached.lam.tobytes()
            for name in ("active_set", "kkt_residual", "max_violation", "delta_cert", "stats"):
                assert getattr(other, name) == getattr(cached, name), name

    def test_returns_before_the_active_set_machinery(self, monkeypatch):
        def unreachable(*args):
            raise AssertionError("interior solve reached the iteration")

        monkeypatch.setattr(ll, "_iterate", unreachable)
        H, c = np.array([2.0, 4.0]), np.array([-2.0, 4.0])
        row = ActiveSetCache(H, np.array([[1.0, 0.0]]))
        sol = solve_qp(row, c, np.array([2.0]))
        assert sol.y_hat.tolist() == [1.0, -1.0] and sol.active_set == ()
        assert sol.kkt_residual == 0.0 and sol.max_violation == -1.0
        assert solve_qp(ActiveSetCache(H, np.zeros((0, 2))), c,
                        np.zeros(0)).y_hat.tolist() == [1.0, -1.0]
        # a start whose rows all drop counts as none
        assert solve_qp(row, c, np.array([2.0]), (0,)).y_hat.tolist() == [1.0, -1.0]
        # a bound within the threshold, or a start that binds, iterates
        with pytest.raises(AssertionError, match="reached the iteration"):
            solve_qp(row, c, np.array([1.0 + TAU_ACT / 2]))
        with pytest.raises(AssertionError, match="reached the iteration"):
            solve_qp(row, c, np.array([0.5]), (0,))
        # an interior point whose certificate fails raises at once: the
        # repeat with np.linalg.solve does not ask interior_point again
        real, asked = ll.interior_point, []
        monkeypatch.setattr(ll, "interior_point", lambda *args: asked.append(args) or real(*args))
        with pytest.raises(Uncertified, match="KKT residual"):
            solve_qp(ActiveSetCache(np.array([6.1]), np.array([[1.0]])),
                     np.array([64042265.0]), np.array([1e9]))
        assert len(asked) == 1


def _boxed_point(d, k, seed, scale):
    """A boxed instance and a point x at which the lower level's c and u are
    formed; the box rows |y_i| <= 0.2 bind for most x at this scale."""
    inst = generate_instance(d, d, k, seed=seed, box_radius=0.2)
    x = scale * np.random.default_rng(seed + 1).standard_normal(d)
    return inst, x


class TestCrashStart:
    # a solve without a usable start whose unconstrained minimum y0 is not
    # interior begins from the rows whose slack at y0 is at most TAU_ACT

    @settings(max_examples=60, deadline=None)
    @given(st.integers(2, 4), st.integers(0, 3), st.integers(0, 10_000), st.floats(0.5, 3.0))
    def test_matches_bruteforce(self, d, k, seed, scale):
        inst, x = _boxed_point(d, k, seed, scale)
        c, u, A = inst.Q2.T @ x, inst.constraints.rhs(x), inst.constraints.A
        crash = set(np.flatnonzero(u - A @ (-c / inst.hess_yy_diag) <= TAU_ACT).tolist())
        assume(len(crash) >= 2)
        begun, real = [], ll._iterate

        def spy(cache, c, u, Hic, hot, exact):
            begun.append(tuple(hot[0]))
            return real(cache, c, u, Hic, hot, exact)

        ll._iterate = spy
        try:
            fast = solve_ll_quadratic(inst, x, None)
        except Infeasible:
            with pytest.raises(Infeasible):
                solve_ll_bruteforce(inst, x, None)
            return
        except DegenerateActiveSet:
            assume(False)  # measure-zero tie; not this test's subject
        finally:
            ll._iterate = real
        # the first iteration begins from the crash rows that survive the
        # block drops (none when they are unusable)
        assert set(begun[0]) <= crash
        slow = solve_ll_bruteforce(inst, x, None)
        assert fast.active_set == slow.active_set
        assert np.max(np.abs(fast.y_hat - slow.y_hat)) <= 1e-8
        assert np.max(np.abs(fast.lam - slow.lam)) <= 1e-8
        assert fast.kkt_residual <= KKT_TOL and fast.max_violation <= 1e-9

    @settings(max_examples=60, deadline=None)
    @given(st.integers(2, 4), st.integers(0, 3), st.integers(0, 10_000), st.floats(0.5, 3.0),
           st.lists(st.booleans(), min_size=11, max_size=11))
    def test_block_drops_from_extra_rows_match_bruteforce(self, d, k, seed, scale, extra):
        inst, x = _boxed_point(d, k, seed, scale)
        try:
            slow = solve_ll_bruteforce(inst, x, None)
        except Infeasible:
            assume(False)
        start = set(slow.active_set) | {i for i in range(inst.constraints.k) if extra[i]}
        rounds, real_hot, real_solve = [], ll._hot_start, ll._start_solve

        def hot_spy(*args):
            rounds.append([])
            return real_hot(*args)

        def solve_spy(cache, Hic, u, work, exact):
            solved = real_solve(cache, Hic, u, work, exact)
            rounds[-1].append((list(work), None if solved is None else solved[0]))
            return solved

        ll._hot_start, ll._start_solve = hot_spy, solve_spy
        try:
            fast = solve_ll_quadratic(inst, x, None, tuple(start))
        except DegenerateActiveSet:
            assume(False)
        finally:
            ll._hot_start, ll._start_solve = real_hot, real_solve
        # each round drops every row whose multiplier was negative in the
        # round before, and only those
        for hot in rounds:
            for (rows, lam), (kept, _) in zip(hot, hot[1:]):
                assert kept == [i for i, m in zip(rows, lam) if m >= 0.0]
        assert fast.active_set == slow.active_set
        assert np.max(np.abs(fast.y_hat - slow.y_hat)) <= 1e-8
        assert np.max(np.abs(fast.lam - slow.lam)) <= 1e-8
        assert fast.kkt_residual <= KKT_TOL and fast.max_violation <= 1e-9

    @pytest.mark.parametrize("error", [Uncertified, MaxPivots])
    def test_failed_crash_start_repeats_from_the_unconstrained_minimum(self, monkeypatch, error):
        # y0 = 0 violates both rows y1 <= -1 and y2 <= -1, whose equality
        # solve has multipliers (2, 2): the crash start holds both rows
        H, c, A, u = np.array([2.0, 2.0]), np.zeros(2), np.eye(2), np.array([-1.0, -1.0])
        cold = ll._iterate(ActiveSetCache(H, A), c, u, c / H, ([], np.zeros(0), -(c / H)), False)
        begun, real = [], ll._iterate

        def failing_once(cache, c, u, Hic, hot, exact):
            begun.append(tuple(hot[0]))
            if len(begun) == 1:
                raise error("forced")
            return real(cache, c, u, Hic, hot, exact)

        monkeypatch.setattr(ll, "_iterate", failing_once)
        sol = solve_qp(ActiveSetCache(H, A), c, u)
        assert begun == [(0, 1), ()]
        assert sol.stats == cold.stats == {"pivots": 2, "repairs": 0}
        assert np.array_equal(sol.y_hat, cold.y_hat) and np.array_equal(sol.lam, cold.lam)
        for name in ("active_set", "kkt_residual", "max_violation", "delta_cert"):
            assert getattr(sol, name) == getattr(cold, name), name
        assert sol.active_set == (0, 1) and sol.kkt_residual <= KKT_TOL

    def test_enters_one_tuple_per_block_drop_round(self):
        # y0 = (1.5, -1, -1.5) violates rows 2 and 3 and binds row 4. The
        # crash start (2, 3, 4) drops rows 3 and 4 in one round, (2,) keeps
        # its multiplier, and one pivot adds row 4 back. The cache holds the
        # start tuple, the one round's tuple and the final tuple; dropping
        # one row per round would have entered a tuple per dropped row
        H, c = np.full(3, 2.0), np.array([-3.0, 2.0, 3.0])
        A = np.array([[2.0, 3.0, 3.0], [0.0, 3.0, 3.0], [3.0, -3.0, 0.0],
                      [1.0, -2.0, -1.0], [1.0, 2.0, 1.0]])
        u = np.array([-1.0, 0.0, -1.0, 2.0, -2.0])
        cache = ActiveSetCache(H, A)
        sol = solve_qp(cache, c, u)
        assert sol.active_set == (2, 4) and sol.stats == {"pivots": 1, "repairs": 0}
        assert sorted(cache._rows) == [(2,), (2, 3, 4), (2, 4)]
        slow = solve_qp(ActiveSetCache(H, A[[2, 4]]), c, u[[2, 4]], (0, 1))
        assert np.max(np.abs(sol.y_hat - slow.y_hat)) <= 1e-14


class TestUncertified:
    # a finite solve whose KKT residual exceeds KKT_TOL must raise, never
    # return a point the certificate does not cover
    def test_huge_perturbations_raise_or_certify(self):
        inst = generate_instance(4, 4, 3, seed=1)
        for scale in (1e6, 1e12):
            rng = np.random.default_rng(0)
            uncertified = 0
            for _ in range(50):
                try:
                    sol = solve_ll_quadratic(inst, np.zeros(4), scale * rng.standard_normal(4))
                except Uncertified:
                    uncertified += 1
                except DsbloError:
                    continue
                else:
                    assert sol.kkt_residual <= KKT_TOL
            assert uncertified > 0, scale

    def test_feasible_problem_is_never_reported_infeasible(self):
        # box rows keep every lower level of this instance feasible; under
        # huge perturbations the iteration can still find an unbounded dual
        # ray, whose Farkas check then fails (u'r >= 0), so the solve
        # raises Uncertified and names the failed check, never Infeasible
        inst = generate_instance(4, 4, 3, seed=1)
        for scale in (1e50, 1e150):
            rng = np.random.default_rng(0)
            farkas = 0
            for _ in range(200):
                try:
                    solve_ll_quadratic(inst, np.zeros(4), scale * rng.standard_normal(4))
                except Infeasible as exc:
                    pytest.fail(f"feasible lower level reported infeasible: {exc}")
                except Uncertified as exc:
                    farkas += "Farkas certificate fails: u'r" in str(exc)
                except DsbloError:
                    continue
            assert farkas > 0, scale

    @pytest.mark.parametrize("scale, n, warm, floor", [(1e9, 200, False, 81),
                                                       (1e6, 400, True, 319)])
    def test_certifies_as_many_as_direct_solves(self, scale, n, warm, floor):
        # draws q = scale N(0, I) from rng seed 0 at x = 0, each solved cold
        # or from the last certified active set; with an np.linalg.solve of
        # S for every equality solve, 81 and 319 of them certified, the
        # floors here. None is reported infeasible, and none raises
        # MaxPivots, whose budget they do not spend: a repair loop that does
        # not settle raises Uncertified, naming what it left
        inst = generate_instance(4, 4, 3, seed=1)
        rng = np.random.default_rng(0)
        certified, unsettled, start = 0, 0, ()
        for _ in range(n):
            try:
                sol = solve_ll_quadratic(inst, np.zeros(4), scale * rng.standard_normal(4),
                                         start)
            except (Infeasible, MaxPivots) as exc:
                pytest.fail(f"{type(exc).__name__}: {exc}")
            except Uncertified as exc:
                msg = str(exc)
                if "repair loop did not settle" in msg:
                    unsettled += 1
                    assert "largest violation" in msg and "most negative multiplier" in msg
                continue
            certified += 1
            start = sol.active_set if warm else ()
        assert certified >= floor and unsettled > 0

    @pytest.mark.parametrize("dlam, u, failed", [
        ([np.nan], [-1.0, -1.0], "NaN entry"),
        ([0.5], [-1.0, -1.0], "||A'r||"),
        ([1.0], [1.0, 1.0], "u'r = 2.00e+00 is not negative"),
        ([1.0 - 1e-9], [-1.0, -1.0], None),
        ([1.0], [-1.0, 0.5], None),
    ])
    def test_unbounded_ray_checks_its_farkas_certificate(self, dlam, u, failed):
        # y <= u0 and -y <= u1, row 1 added to the working row 0
        err = ll._unbounded_ray(np.array([[1.0], [-1.0]]), np.array(u), 1, [0],
                                np.array(dlam))
        if failed is None:
            assert isinstance(err, Infeasible) and "Farkas ray" in str(err)
        else:
            assert isinstance(err, Uncertified) and failed in str(err)

    def test_run_experiment_records_the_error(self, tmp_path):
        summary = run_experiment(config_from_dict({
            "instance": {"d_u": 4, "d_l": 4, "k": 3, "seed": 1}, "seeds": [1],
            "output_dir": str(tmp_path),
            "algorithms": [{"name": "dsblo", "label": "dsblo", "T": 12, "perturb_radius": 1e12,
                            "beta": 0.9, "gamma1": 20.0, "gamma2": 20.0, "K": 10,
                            "delta_y": 1e-8}]}))
        assert summary["failed"]
        run, = json.loads((tmp_path / "summary.json").read_text())["runs"]
        assert run["status"] == "error" and "dsblo.errors.Uncertified" in run["error"]


class TestNonFinite:
    # a NaN or infinite input must raise, never return an uncertified point
    # (each on the dense products and with the box taken by blocks)
    def test_nan_x(self):
        for blocks in (False, True):
            inst = generate(4, 4, 2, 1, blocks)
            with pytest.raises(NonFinite):
                solve_ll_quadratic(inst, np.array([np.nan, 0.0, 0.0, 0.0]), None)

    def test_nan_q(self):
        for blocks in (False, True):
            inst = generate(4, 4, 2, 1, blocks)
            for start in ((), (0,)):
                with pytest.raises(NonFinite):
                    solve_ll_quadratic(inst, np.zeros(4), np.array([0.0, np.nan, 0.0, 0.0]),
                                       start)

    @pytest.mark.parametrize("blocks", [False, True])
    @pytest.mark.parametrize("k", [0, 3])
    def test_nonfinite_input_without_warnings_as_errors(self, blocks, k):
        # with numpy's warnings off, no warning can raise: a NaN or infinite
        # x or q must still end in NonFinite, on the box's blocks (where no
        # 0 * inf meets the box rows) as in the dense products. A pivot
        # toward a row with an infinite slack used to report an unbounded
        # dual ray whose Farkas check failed (Uncertified)
        inst = generate(4, 4, k, 1, blocks)
        assert inst.constraints.box_start == (k if blocks else None)
        for bad in (np.nan, np.inf, -np.inf):
            for i in range(4):
                v = np.zeros(4)
                v[i] = bad
                for x, q, start in ((v, None, ()), (np.zeros(4), v, ()),
                                    (v, None, tuple(range(k, k + 4)))):
                    with np.errstate(all="ignore"), pytest.raises(NonFinite):
                        solve_ll_quadratic(inst, x, q, start)

    def test_inf_c_without_rows(self):
        with pytest.raises(NonFinite):
            solve_qp(ActiveSetCache(np.ones(2), np.zeros((0, 2))), np.array([np.inf, 0.0]),
                     np.zeros(0))

    def test_nonfinite_under_warnings_as_errors(self):
        # with warnings raised as errors an infinite input, or a perturbation
        # so large that the solve overflows, must still surface as NonFinite,
        # not as a RuntimeWarning from the arithmetic before it; in the dense
        # products the box rows' zero entries meet the infinity, and with
        # blocks (the size rule set to 0) no product meets it there
        script = """
import json, sys, tempfile
from dataclasses import replace
import numpy as np
import dsblo.problem
blocks = sys.argv[1] == "blocks"
if blocks:
    dsblo.problem.BOX_BLOCK_ENTRIES = 0
from dsblo.algorithm import DsbloParams, ManualMode, run_dsblo
from dsblo.diagnostics import eval_F_exact_rows
from dsblo.errors import NonFinite
from dsblo.experiment import config_from_dict, run_experiment
from dsblo.lower_level import (ActiveSetCache, _ball_draw, solve_ll_quadratic, solve_qp,
                               solve_qp_batch)
from dsblo.problem import empty_polyhedron, generate_instance

def expect_nonfinite(fn, *args):
    try:
        fn(*args)
    except NonFinite:
        print("NonFinite")

inf_c = np.array([np.inf, 0.0])
expect_nonfinite(solve_qp, ActiveSetCache(np.ones(2), np.zeros((0, 2))), inf_c, np.zeros(0))
expect_nonfinite(solve_qp, ActiveSetCache(np.ones(2), np.eye(2)), inf_c, np.ones(2))
boxed = generate_instance(4, 4, 3, seed=1)
assert boxed.constraints.box_start == (3 if blocks else None)
X = np.zeros((3, 4))
X[1, 2] = np.inf
for inst in (replace(boxed, constraints=empty_polyhedron(4, 4)), boxed):
    expect_nonfinite(eval_F_exact_rows, inst, X, [(), (), ()])
expect_nonfinite(solve_ll_quadratic, boxed, X[1], None)
expect_nonfinite(solve_ll_quadratic, boxed, X[0], X[1])
expect_nonfinite(solve_qp_batch, boxed.active_set_cache, [[np.inf, 0.0, 0.0, 0.0]],
                 boxed.constraints.b, (0,))
mode = dict(beta=0.9, gamma1=20.0, gamma2=20.0, K=10, delta_y=1e-8)
expect_nonfinite(run_dsblo, boxed, DsbloParams(T=12, mode=ManualMode(**mode),
                                               perturb_radius=1e308, seed=1))
with tempfile.TemporaryDirectory() as out:
    summary = run_experiment(config_from_dict({
        "instance": {"d_u": 4, "d_l": 4, "k": 3, "seed": 1}, "seeds": [1], "output_dir": out,
        "algorithms": [{"name": "dsblo", "label": "dsblo", "T": 12, "perturb_radius": 1e308,
                        **mode}]}))
    run, = json.load(open(out + "/summary.json"))["runs"]
    if run["status"] == "error" and "dsblo.errors.NonFinite" in run["error"]:
        print("NonFinite")
# near the float limit, scale / ||v|| overflows for some draws: each must
# raise, and none may return an infinite q
raised = returned_inf = 0
for s in range(200):
    try:
        v = _ball_draw(1.7e308, np.random.default_rng(s), 1)
    except NonFinite:
        raised += 1
    else:
        returned_inf += not np.isfinite(v).all()
print(f"draws-raised={raised > 0} draws-non-finite={returned_inf}")
"""
        src = str(Path(ll.__file__).resolve().parents[1])
        for mode in ("dense", "blocks"):
            out = subprocess.run([sys.executable, "-W", "error", "-c", script, mode],
                                 capture_output=True, text=True, timeout=120,
                                 env={"PYTHONPATH": src})
            assert out.returncode == 0, out.stderr
            assert out.stdout.split() == ["NonFinite"] * 9 + ["draws-raised=True",
                                                              "draws-non-finite=0"]

    def test_nan_hessian(self):
        with pytest.raises(NonFinite):
            solve_qp(ActiveSetCache(np.array([1.0, np.nan]), np.zeros((0, 2))), np.zeros(2),
                     np.zeros(0))

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 5), st.integers(0, 6), st.integers(0, 2 ** 16),
           st.sampled_from(["H", "c", "A", "u"]), st.sampled_from([np.nan, np.inf, -np.inf]),
           st.booleans())
    def test_never_returns_a_non_finite_solution(self, d, k, seed, where, bad, warm):
        H, c, A, u = _random_qp(d, k, seed, "none")
        target = {"H": H, "c": c, "A": A, "u": u}[where]
        assume(target.size)
        target.reshape(-1)[seed % target.size] = bad
        with np.errstate(all="ignore"):
            out = _solve_or_error(H, c, A, u, tuple(range(k)) if warm else ())
        if isinstance(out, DsbloError):
            return
        assert np.all(np.isfinite(out.y_hat)) and np.all(np.isfinite(out.lam))
        assert np.isfinite(out.kkt_residual) and np.isfinite(out.delta_cert)
        assert out.max_violation <= 1e-9


class TestBatch:
    @staticmethod
    def _draws(inst, x, radius, n, seed):
        rng = np.random.default_rng(seed)
        qs = np.array([sample_perturbation(radius, rng, inst.d_l).q for _ in range(n)])
        return inst.active_set_cache, inst.Q2.T @ x + qs, inst.constraints.rhs(x)

    @pytest.mark.parametrize("radius", [1e-3, 0.3, 3.0])
    def test_accepts_exactly_the_solves_without_pivots(self, radius):
        for blocks in (False, True):
            self._accepts_exactly_the_solves_without_pivots(radius, blocks)

    def _accepts_exactly_the_solves_without_pivots(self, radius, blocks):
        # a draw passes where the hot-started solve keeps W and makes no
        # pivot or repair, and then carries that solve's y and multipliers;
        # a draw that fails holds NaN; with blocks the box rows are taken by
        # blocks at this size too
        inst = generate(50, 50, 10, 1, blocks)
        x = np.random.default_rng(1).standard_normal(50)
        cache, C, u = self._draws(inst, x, radius, 24, 5)
        W = solve_qp(cache, C[0], u).active_set
        assert len(W) >= 3
        ok, Y, Lam = solve_qp_batch(cache, C, u, W)
        assert ok.shape == (24,) and Y.shape == (24, 50) and Lam.shape == (24, cache.A.shape[0])
        for c, passed, y, lam in zip(C, ok, Y, Lam):
            ref = solve_qp(cache, c, u, W)
            hot = (ref.stats == {"pivots": 0, "repairs": 0} and ref.active_set == W
                   and ref.kkt_residual <= KKT_TOL)
            assert passed == hot
            if passed:
                assert np.allclose(y, ref.y_hat, rtol=1e-12, atol=1e-12)
                assert np.allclose(lam, ref.lam, rtol=1e-12, atol=1e-12)
                assert np.all(np.delete(lam, W) == 0.0)
            else:
                assert np.isnan(y).all() and np.isnan(lam).all()
        assert ok.sum() >= 1 if radius < 1 else ok.sum() < 24

    @pytest.mark.parametrize("c, accepted", [(1.0, True), (1e-7, False), (-1e-9, False)])
    def test_one_row(self, c, accepted):
        # y <= 0 with y* = -c/2 and nothing in the working set: slack 0.5
        # passes, slack 5e-8 leaves the row tight outside the working set,
        # and slack -5e-10 is a violation
        cache = ActiveSetCache(np.array([2.0]), np.array([[1.0]]))
        ok, Y, Lam = solve_qp_batch(cache, [[c]], np.zeros(1), ())
        assert ok.tolist() == [accepted]
        if accepted:
            assert Y.tolist() == [[-c / 2]] and Lam.tolist() == [[0.0]]

    def test_kkt_above_tolerance_rejected(self, monkeypatch):
        import dsblo.lower_level as ll
        inst = generate_instance(50, 50, 10, seed=1)
        x = np.random.default_rng(1).standard_normal(50)
        cache, C, u = self._draws(inst, x, 1e-3, 6, 0)
        W = solve_qp(cache, C[0], u).active_set
        assert W and solve_qp_batch(cache, C, u, W)[0].all()
        monkeypatch.setattr(ll, "KKT_TOL", 0.0)
        assert not solve_qp_batch(cache, C, u, W)[0].any()

    def test_unusable_start_rejects_every_row(self):
        inst = generate_instance(4, 4, 8, seed=2)
        cache, C, u = self._draws(inst, np.zeros(4), 1e-3, 3, 0)
        for W in ([8], [-1], range(5)):
            ok, Y, Lam = solve_qp_batch(cache, C, u, W)
            assert not ok.any() and np.isnan(Y).all() and np.isnan(Lam).all()
        # a row repeated up to sign fails the independence test
        A2 = np.vstack([cache.A, -cache.A[:1]])
        u2 = np.append(u, -u[0])
        assert not solve_qp_batch(ActiveSetCache(cache.H, A2), C, u2, [0, 8])[0].any()

    def test_no_rows(self):
        cache = ActiveSetCache(np.full(3, 2.0), np.zeros((0, 3)))
        C = np.arange(6.0).reshape(2, 3)
        ok, Y, Lam = solve_qp_batch(cache, C, np.zeros(0), ())
        assert ok.all() and Lam.shape == (2, 0)
        for c, y in zip(C, Y):
            assert np.array_equal(y, solve_qp(cache, c, np.zeros(0)).y_hat)

    def test_one_rhs_row_per_draw(self):
        for blocks in (False, True):
            self._one_rhs_row_per_draw(blocks)

    def _one_rhs_row_per_draw(self, blocks):
        # draws at different x carry their own u; each passing row equals
        # the single solve at its own (c, u), and one u broadcasts to all;
        # with blocks the box rows are taken by blocks at this size too
        inst = generate(50, 50, 10, 1, blocks)
        poly = inst.constraints
        rng = np.random.default_rng(2)
        x0 = rng.standard_normal(50)
        X = x0 + 1e-3 * rng.standard_normal((8, 50))
        Q = np.array([sample_perturbation(1e-3, rng, 50).q for _ in range(8)])
        C = X @ inst.Q2 + Q
        U = poly.b - X @ poly.B.T
        cache = inst.active_set_cache
        W = solve_qp(cache, C[0], U[0]).active_set
        assert W
        ok, Y, Lam = solve_qp_batch(cache, C, U, W)
        assert ok.all()
        for c, u, y, lam in zip(C, U, Y, Lam):
            ref = solve_qp(cache, c, u)
            assert ref.active_set == W
            assert np.allclose(y, ref.y_hat, rtol=1e-12, atol=1e-12)
            assert np.allclose(lam, ref.lam, rtol=1e-12, atol=1e-12)
        shared = solve_qp_batch(cache, C, U[0], W)
        assert np.array_equal(shared[1][0], Y[0])
        assert not np.array_equal(shared[1][1:], Y[1:])


def one_draw(radius, rng, d):
    """A ball draw taken one call at a time, as ``_ball_draw`` took it before
    the blocks: d normals (again while their norm is 0), then one uniform."""
    v = rng.standard_normal(d)
    n = np.sqrt(v @ v)
    while n == 0.0:
        v = rng.standard_normal(d)
        n = np.sqrt(v @ v)
    return v * (radius * rng.random() ** (1.0 / d) / n)


class ZeroingGenerator:
    """A numpy generator whose standard-normal calls at the indices in
    ``zero_calls`` come out all zero."""

    def __init__(self, seed, zero_calls):
        self._rng, self._zero, self.calls = np.random.default_rng(seed), zero_calls, 0

    def standard_normal(self, size=None, out=None):
        v = self._rng.standard_normal(size, out=out)
        if self.calls in self._zero:
            v[...] = 0.0
        self.calls += 1
        return v

    def random(self):
        return self._rng.random()


class TestPerturbation:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 60), st.integers(1, 600), st.integers(0, 2 ** 32 - 1),
           st.sampled_from([1e-3, 1.0, 3.7e5]))
    def test_block_equals_successive_draws(self, d, n, seed, radius):
        # n spans the outer loop's block cap of 256 rows
        block_rng, single_rng, ref_rng = (np.random.default_rng(seed) for _ in range(3))
        Q, norms = ll._ball_draws(radius, block_rng, d, n)
        singles = np.array([ll._ball_draw(radius, single_rng, d) for _ in range(n)])
        refs = np.array([one_draw(radius, ref_rng, d) for _ in range(n)])
        assert Q.shape == (n, d)
        assert Q.tobytes() == singles.tobytes() == refs.tobytes()
        assert norms.tolist() == [math.sqrt(q @ q) for q in refs]
        assert block_rng.random() == single_rng.random() == ref_rng.random()

    def test_block_redraws_a_zero_row(self):
        # normals that come out all zero are drawn again before their
        # uniform, one row at a time: row 1's first draw, and row 3's first
        # two, of a block of 6 in dimension 4
        zeros = {1, 4, 5}
        block_rng, ref_rng = ZeroingGenerator(3, zeros), ZeroingGenerator(3, zeros)
        Q, norms = ll._ball_draws(1e-3, block_rng, 4, 6)
        refs = np.array([one_draw(1e-3, ref_rng, 4) for _ in range(6)])
        assert Q.tobytes() == refs.tobytes()
        assert norms.tolist() == [math.sqrt(q @ q) for q in refs]
        assert block_rng.calls == ref_rng.calls == 9
        assert block_rng.random() == ref_rng.random()

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

    def test_norm_stored(self):
        p = Perturbation([3e-4, -4e-4])
        assert p.norm == float(np.linalg.norm(p.q)) == 5e-4
        assert "norm" not in repr(p)


class TestCertifyAndMargin:
    def test_margin_empty(self, small_instance):
        sol = solve_ll_quadratic(small_instance, np.zeros(3), None)
        assert sol.active_set == ()
        assert sc_margin(sol) == float("inf")


def _two_row_instance(rows):
    """Rows A y <= -1 in two dimensions with B = 0, Q2 = 0 and c = q."""
    poly = Polyhedron(np.array(rows), np.zeros((2, 2)), np.array([-1.0, -1.0]))
    return QuadraticBilevel(Q1=np.zeros((2, 2)), Q2=np.zeros((2, 2)), cx=np.ones((1, 2)),
                            cy=np.ones((1, 2)), constraints=poly, box_radius=None)


def _held_bytes(cache):
    """Bytes of the distinct arrays the cache holds."""
    arrays = {id(a): a for entry in cache._rows.values()
              for a in (*entry["kkt"], entry.get("inv")) if a is not None}
    return sum(a.nbytes for a in arrays.values())


def _solve_and_grad(inst, x, q, start):
    """(solve, gradient) at x, or the type of the error either raised."""
    try:
        sol = solve_ll_quadratic(inst, x, q, start)
        return sol, implicit_gradient(inst, x, sol).grad
    except DsbloError as exc:
        return type(exc), None


class TestWorkingInverse:
    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 8), st.integers(0, 2 ** 16),
           st.lists(st.booleans(), min_size=1, max_size=30))
    def test_border_and_drop_track_the_fresh_inverse(self, d, seed, adds):
        # adds of a random row, with dlam and curv computed as the pivot
        # loop computes them, and drops of a random working row keep the
        # working inverse within 1e-8 relative of np.linalg.inv of the
        # fresh S; an add that would make S worse conditioned than 1e5 is
        # skipped
        rng = np.random.default_rng(seed)
        H, A = rng.uniform(0.1, 10.0, d), rng.standard_normal((2 * d + 2, d))
        cache = ActiveSetCache(H, A)
        work, Si = [], np.zeros((0, 0))
        for add in adds:
            if add and len(work) < d:
                p = int(rng.choice([i for i in range(len(A)) if i not in work]))
                if np.linalg.cond(cache.reduced(tuple(work + [p]))) > 1e5:
                    continue
                Aw, Hia_p = A[work], A[p] / H
                dlam = -(Si @ (Aw @ Hia_p))
                z = -(Hia_p + (dlam @ Aw) / H)
                Si = ll._border(Si, dlam, float(z @ (H * z)))
                work.append(p)
            elif work:
                j = int(rng.integers(len(work)))
                Si = ll._drop(Si, j)
                work.pop(j)
            if work:
                ref = np.linalg.inv(cache.reduced(tuple(work)))
                assert Si.shape == ref.shape
                assert np.abs(Si - ref).max() <= 1e-8 * np.abs(ref).max()


class TestActiveSetCache:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(2, 6), st.integers(1, 5), st.integers(0, 2 ** 16),
           st.sampled_from([0.2, 0.5]), st.integers(1, 6))
    def test_filled_cache_changes_no_bit(self, d, k, seed, radius, n_other):
        # the same solve and gradient on a fresh instance and on one whose
        # cache other solves have filled; small boxes make rows bind
        rng = np.random.default_rng(seed)
        fresh, filled = (generate_instance(d, d, k, seed=seed, box_radius=radius)
                         for _ in range(2))
        points = [(rng.standard_normal(d), 0.3 * rng.standard_normal(d))
                  for _ in range(n_other + 1)]
        start = ()
        for x, q in points[1:]:
            sol, _ = _solve_and_grad(filled, x, q, start)
            start = sol.active_set if isinstance(sol, ll.LLSolution) else ()
        assume(len(filled.active_set_cache))
        x, q = points[0]
        for first in ((), start):
            a, ga = _solve_and_grad(fresh, x, q, first)
            b, gb = _solve_and_grad(filled, x, q, first)
            if not isinstance(a, ll.LLSolution):
                assert a is b
                continue
            assert np.array_equal(a.y_hat, b.y_hat) and np.array_equal(a.lam, b.lam)
            assert (ga is None) == (gb is None) and (ga is None or np.array_equal(ga, gb))
            assert a.active_set == b.active_set and a.stats == b.stats
            assert (fresh.active_set_cache.check_rank(a.active_set)
                    == filled.active_set_cache.check_rank(b.active_set))

    def test_rank_deficient_rows_raise_on_a_hit_as_on_a_miss(self):
        # rows y1 <= -1 and y1 + 1e-9 y2 <= -1 both bind at the solution
        # (-1, 0); the second has about 1e-18 of its squared H^-1-norm
        # outside the first's span
        inst = _two_row_instance([[1.0, 0.0], [1.0, 1e-9]])
        for _ in range(2):
            with pytest.raises(DegenerateActiveSet, match="rank deficient"):
                solve_ll_quadratic(inst, np.zeros(2), None)
        for _ in range(2):
            with pytest.raises(DegenerateActiveSet, match="rank deficient"):
                inst.active_set_cache.check_rank((0, 1))
        assert len(inst.active_set_cache) == 2  # (0,) from the pivot, (0, 1)
        # the gradient and the Jacobians read the same check, on a solve
        # built by hand with positive multipliers on both rows
        sol = LLSolution(y_hat=np.array([-1.0, 0.0]), lam=np.ones(2), active_set=(0, 1),
                         kkt_residual=0.0, max_violation=0.0, delta_cert=0.0)
        for grad in (lambda i: implicit_gradient(i, np.zeros(2), sol),
                     lambda i: jacobians(i, sol)):
            fresh = _two_row_instance([[1.0, 0.0], [1.0, 1e-9]])
            for _ in range(2):  # a miss, then a hit
                with pytest.raises(DegenerateActiveSet, match="rank deficient"):
                    grad(fresh)
            assert len(fresh.active_set_cache) == 1

    def test_one_cholesky_per_new_row_tuple(self, monkeypatch):
        # rows y1 <= -1 and y2 <= -1: with q = 0 both bind, with q = (0, 10)
        # only row 0 does; each solve is followed by its gradient and
        # Jacobians, and only a row tuple the cache has not seen costs a
        # Cholesky factorization of its S
        inst = _two_row_instance([[1.0, 0.0], [0.0, 1.0]])
        real_cholesky, factored = np.linalg.cholesky, []

        def cholesky(*args, **kwargs):
            factored.append(args[0].shape)
            return real_cholesky(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "cholesky", cholesky)
        for q, active, count in ((None, (0, 1), 1), ([0.0, 10.0], (0,), 2),
                                 (None, (0, 1), 2), ([0.0, 10.0], (0,), 2)):
            sol = solve_ll_quadratic(inst, np.zeros(2), q)
            assert sol.active_set == active
            implicit_gradient(inst, np.zeros(2), sol)
            jacobians(inst, sol)
            assert len(factored) == count
        assert factored == [(2, 2), (1, 1)]

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 5), st.integers(1, 5), st.integers(0, 2 ** 16),
           st.integers(0, 12), st.booleans())
    def test_verdict_is_the_cholesky_share(self, d, k, seed, near, hit):
        # the last row is a combination of rows 0 and 1 plus a perturbation
        # of size 10^-near, so a tuple holding all three straddles RANK_TOL
        # as near grows; the tuple takes any rows in any order, and on a hit
        # its operands are cached before its verdict
        rng = np.random.default_rng(seed)
        H, A = rng.uniform(0.1, 10.0, d), rng.standard_normal((k + 2, d))
        A[-1] = rng.standard_normal(2) @ A[:2] + 10.0 ** -near * rng.standard_normal(d)
        rows = tuple(rng.permutation(k + 2)[:rng.integers(1, k + 3)].tolist())
        Aw = A[list(rows)]
        S = Aw @ (Aw.T / H[:, None])
        share = None  # a raise
        if len(rows) <= d:
            try:
                pivots, diag = np.diag(np.linalg.cholesky(S)) ** 2, np.diag(S)
            except np.linalg.LinAlgError:
                pass
            else:
                if np.min(pivots / diag) > RANK_TOL:
                    share = float(np.min(pivots / diag))
        cache = ActiveSetCache(H, A)
        if hit:
            cache.reduced(rows)
        for _ in range(2):
            if share is None:
                with pytest.raises(DegenerateActiveSet):
                    cache.check_rank(rows)
            else:
                assert cache.check_rank(rows) == share

    def test_rejected_start_falls_back_to_a_cold_solve_on_a_hit(self):
        # S on rows 0 and 1 passes a Cholesky factorization, but row 1 has
        # only 1e-10 of its squared H^-1-norm outside row 0's span; row 0
        # binds. The rejected start counts as none, so both solves start
        # from row 0, the one row the unconstrained minimum violates, and
        # make no pivot
        H, c = np.array([2.0, 2.0]), np.zeros(2)
        A, u = np.array([[1.0, 0.0], [1.0, 1e-5]]), np.array([-1.0, 5.0])
        cache = ActiveSetCache(H, A)
        np.linalg.cholesky(cache.reduced((0, 1)))
        cold = solve_qp(ActiveSetCache(H, A), c, u)
        for _ in range(2):
            hot = solve_qp(cache, c, u, (0, 1))
            with pytest.raises(DegenerateActiveSet, match="nearly rank deficient"):
                cache.check_rank((0, 1))
            assert hot.stats == cold.stats == {"pivots": 0, "repairs": 0}
            assert np.array_equal(hot.y_hat, cold.y_hat) and np.array_equal(hot.lam, cold.lam)
            assert hot.active_set == cold.active_set == (0,)
            for name in ("kkt_residual", "max_violation", "delta_cert"):
                assert getattr(hot, name) == getattr(cold, name), name

    def test_corrupt_inverse_is_repeated_and_counted(self):
        # rows y1 <= -1 and y2 <= -1 both bind at (-1, -1); a warm solve
        # through a cached inverse made 1.5 times too large ends off the
        # rows and fails its certificate, and its repeat with np.linalg.solve
        # certifies the point a fresh cache gives, with "repeats" in stats
        inst = _two_row_instance([[1.0, 0.0], [0.0, 1.0]])
        cache = inst.active_set_cache
        bad = 1.5 * cache.inverse((0, 1))
        bad.flags.writeable = False
        cache._rows[(0, 1)]["inv"] = bad
        u = np.array([-1.0, -1.0])
        with pytest.raises(Uncertified):
            ll._dual_active_set(cache, np.zeros(2), u, np.zeros(2),
                                ll._hot_start(cache, np.zeros(2), u, (0, 1), False), False)
        sol = solve_ll_quadratic(inst, np.zeros(2), None, (0, 1))
        fresh = solve_ll_quadratic(_two_row_instance([[1.0, 0.0], [0.0, 1.0]]),
                                   np.zeros(2), None, (0, 1))
        assert sol.stats == {"pivots": 0, "repairs": 0, "repeats": 1}
        assert fresh.stats == {"pivots": 0, "repairs": 0}
        assert sol.kkt_residual <= KKT_TOL and sol.active_set == fresh.active_set == (0, 1)
        assert np.allclose(sol.y_hat, [-1.0, -1.0], rtol=0, atol=1e-15)
        assert np.allclose(sol.lam, fresh.lam, rtol=0, atol=1e-15)
        assert cache.inverse((0, 1)) is bad  # the repeat reads S, not S^-1

    def test_never_holds_more_than_its_bound(self, monkeypatch):
        # a budget with room for 64 row pairs, each charged 8 (2 n d + 2 n^2)
        # bytes for its A_W, A_W'/H, S and S^-1; 192 pairs asked for twice
        rng = np.random.default_rng(0)
        H, A = rng.uniform(0.5, 2.0, 5), rng.standard_normal((30, 5))
        budget = 64 * 8 * 2 * (2 * 5 + 2 * 2)
        monkeypatch.setattr(ll, "ACTIVE_SET_CACHE_BYTES", budget)
        cache = ActiveSetCache(H, A)
        tuples = [(i, j) for i in range(30) for j in range(30) if i != j][:192]
        first, emptied = {}, 0
        for rows in tuples + tuples:
            held = len(cache)
            S, Si = cache.reduced(rows), cache.inverse(rows)
            emptied += len(cache) < held
            # every tuple holds all four operands, so the charge is exact
            assert cache.nbytes <= budget and _held_bytes(cache) == cache.nbytes
            # an evicted tuple asked for again gets the same bits
            S0, Si0 = first.setdefault(rows, (S, Si))
            assert np.array_equal(S0, S) and np.array_equal(Si0, Si)
            assert not S.flags.writeable and not Si.flags.writeable
        assert emptied == 5 and len(cache) == 64

    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 8), st.integers(0, 12), st.integers(0, 2 ** 16), st.booleans())
    def test_operands_equal_fresh_gathers(self, d, k, seed, cached_first):
        # A_W, A_W'/H, S and S^-1 of any tuple of distinct rows in any order
        # equal a fresh gather and its products bit for bit, stay read-only,
        # and are computed once; the equality solve equals the product with
        # the fresh inverse, and the exact one the solve with the fresh S
        rng = np.random.default_rng(seed)
        H, A = rng.uniform(0.1, 10.0, d), rng.standard_normal((k + 1, d))
        rows = tuple(rng.permutation(k + 1)[:rng.integers(1, min(d, k + 1) + 1)].tolist())
        cache = ActiveSetCache(H, A)
        if cached_first:  # gathers A_W alone first
            try:
                cache.check_rank(rows)
            except DegenerateActiveSet:
                pass
        Aw = A[list(rows)]
        AwHi = Aw.T / H[:, None]
        S = Aw @ AwHi
        got = cache._operands(rows)
        for fresh, op in zip((Aw, AwHi, S), got):
            assert op.shape == fresh.shape and op.tobytes() == fresh.tobytes()
            assert not op.flags.writeable
        assert cache.gathered(rows) is got[0] and cache.reduced(rows) is got[2]
        assert all(a is b for a, b in zip(cache._operands(rows), got))
        Hic, uw = rng.standard_normal((d, 3)), rng.standard_normal(len(rows))
        r = -(uw + (Aw @ Hic).T).T
        try:
            Si = np.linalg.inv(S)
        except np.linalg.LinAlgError:
            for exact in (False, True):
                with pytest.raises(DegenerateActiveSet):
                    cache.equality_solve(rows, Hic, uw, exact)
            return
        got_Si = cache.inverse(rows)
        assert got_Si.tobytes() == Si.tobytes() and not got_Si.flags.writeable
        assert cache.inverse(rows) is got_Si
        for exact, lam in ((False, Si @ r), (True, np.linalg.solve(S, r))):
            y = -(Hic + AwHi @ lam)
            got_lam, got_y = cache.equality_solve(rows, Hic, uw, exact)
            assert got_lam.tobytes() == lam.tobytes() and got_y.tobytes() == y.tobytes()

    @settings(max_examples=60, deadline=None)
    @given(st.integers(2, 8), st.integers(1, 6), st.integers(0, 2 ** 16),
           st.sampled_from([0.2, 0.5]), st.integers(2, 6))
    def test_emptied_at_every_insert_changes_no_bit(self, d, k, seed, radius, n_points):
        # warm-started solves, their gradients and a batch of draws through
        # a cache whose budget empties it at every new tuple equal those
        # through a fresh cache with the default budget, byte for byte
        rng = np.random.default_rng(seed)
        points = [(rng.standard_normal(d), 0.3 * rng.standard_normal(d))
                  for _ in range(n_points)]
        draws = 0.3 * rng.standard_normal((5, d))

        def outcomes(inst):
            out, start = [], ()
            for x, q in points:
                sol, g = _solve_and_grad(inst, x, q, start)
                if not isinstance(sol, ll.LLSolution):
                    out.append((sol, g))
                    continue
                out.append((sol.y_hat.tobytes(), sol.lam.tobytes(), sol.active_set,
                            sol.stats, None if g is None else g.tobytes()))
                start = sol.active_set
            x0 = points[0][0]
            try:
                ok, Y, Lam = solve_qp_batch(inst.active_set_cache, inst.Q2.T @ x0 + draws,
                                            inst.constraints.rhs(x0), start)
            except DsbloError as exc:
                out.append(type(exc))
            else:
                out.append((ok.tobytes(), Y.tobytes(), Lam.tobytes()))
            return out

        fresh = outcomes(generate_instance(d, d, k, seed=seed, box_radius=radius))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(ll, "ACTIVE_SET_CACHE_BYTES", 0)
            starved = generate_instance(d, d, k, seed=seed, box_radius=radius)
            assert outcomes(starved) == fresh
            # at most one tuple of rows, and the empty tuple, which costs 0
            assert len(starved.active_set_cache) <= 2



def _bits(a) -> np.ndarray:
    return np.asarray(a, dtype=float).view(np.uint64)


def _same_solve(a: LLSolution, b: LLSolution) -> bool:
    return (np.array_equal(_bits(a.y_hat), _bits(b.y_hat))
            and np.array_equal(_bits(a.lam), _bits(b.lam)) and a.active_set == b.active_set
            and a.stats == b.stats and a.kkt_residual == b.kkt_residual
            and a.max_violation == b.max_violation)


class TestBoxBlocks:
    # Polyhedron.box_start decides whether the lower level takes the box
    # rows by blocks; ``generate(..., blocks=True)`` sets the size rule to 0

    @pytest.mark.parametrize("d, blocks", [(99, False), (100, True)])
    def test_size_rule(self, d, blocks):
        # 2 d^2 box entries against BOX_BLOCK_ENTRIES = 20,000
        inst = generate_instance(d, d, 3, seed=1)
        assert inst.constraints.box_start == (3 if blocks else None)
        assert inst.active_set_cache.box_start == inst.constraints.box_start

    def test_rows_without_the_box_stay_dense(self):
        # box_radius=None leaves no box; nor do k >= 2 d random rows make one
        inst = generate(3, 3, 8, 1, True)
        poly = inst.constraints
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr("dsblo.problem.BOX_BLOCK_ENTRIES", 0)
            unboxed = replace(inst, constraints=Polyhedron(poly.A[:8], poly.B[:8], poly.b[:8]),
                              box_radius=None)
        assert poly.box_start == 8 and unboxed.constraints.box_start is None
        assert unboxed.active_set_cache.box_start is None
        # a cache of bare arrays stays dense whatever its rows
        assert ActiveSetCache(inst.hess_yy_diag, poly.A).box_start is None

    @pytest.mark.parametrize("change", ["swap_box_rows", "swap_blocks", "scale", "coupled_b",
                                        "box_first", "off_diagonal", "none"])
    def test_permuted_or_scaled_box_rows_stay_dense(self, change):
        inst = generate(3, 3, 2, 1, True)
        A, B, b = (np.array(a) for a in (inst.constraints.A, inst.constraints.B,
                                         inst.constraints.b))
        if change == "swap_box_rows":
            A[[2, 3]] = A[[3, 2]]
        elif change == "swap_blocks":
            A[2:] = np.vstack([A[5:], A[2:5]])
        elif change == "scale":
            A[6] *= 2.0
        elif change == "coupled_b":
            B[4, 1] = 1e-300
        elif change == "box_first":
            A, B, b = np.roll(A, 6, axis=0), np.roll(B, 6, axis=0), np.roll(b, 6)
        elif change == "off_diagonal":
            A[3, 0] = -0.5
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr("dsblo.problem.BOX_BLOCK_ENTRIES", 0)
            poly = Polyhedron(A, B, b)
        assert poly.box_start == (2 if change == "none" else None)

    @pytest.mark.parametrize("d, k, blocks", [(4, 3, True), (4, 0, True), (100, 20, False)])
    def test_saved_instance_keeps_the_decision_and_the_bits(self, tmp_path, d, k, blocks):
        inst = generate(d, d, k, 2, blocks, box_radius=0.3)
        save_instance(inst, tmp_path / "inst.json")
        with pytest.MonkeyPatch.context() as mp:
            if blocks:
                mp.setattr("dsblo.problem.BOX_BLOCK_ENTRIES", 0)
            back = load_instance(tmp_path / "inst.json")
        assert back.constraints.box_start == inst.constraints.box_start == k
        assert back.fingerprint == inst.fingerprint
        rng = np.random.default_rng(3)
        binding = 0
        for scale in (0.0, 0.5, 1.0, 2.0):
            x = scale / math.sqrt(d) * rng.standard_normal(d)
            q = sample_perturbation(1e-3, rng, d)
            sol = solve_ll_quadratic(back, x, q)
            assert _same_solve(sol, solve_ll_quadratic(inst, x, q))
            binding += bool(sol.active_set)
        assert binding

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 12), st.integers(0, 9), st.integers(0, 2 ** 16),
           st.integers(-3, 3), st.sampled_from([0, 1, 3]))
    def test_box_slack_is_the_dense_product_on_the_box(self, d, m, seed, exponent, n):
        # the box rows' slacks u - y and u + y are the dense product's bits;
        # the rows before m are their own product's
        rng = np.random.default_rng(seed)
        A = np.vstack([rng.standard_normal((m, d)), np.eye(d), -np.eye(d)])
        shape = (d,) if n == 0 else (d, n)
        y = 10.0 ** exponent * rng.standard_normal(shape)
        u = rng.standard_normal((m + 2 * d,) + shape[1:])
        got = ll._box_slack(A, m, u, y)
        assert np.array_equal(_bits(got[m:]), _bits((u - A @ y)[m:]))
        assert np.array_equal(_bits(got[:m]), _bits(u[:m] - A[:m] @ y))

    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 8), st.integers(0, 6), st.integers(0, 2 ** 16),
           st.sampled_from([0.2, 1.0, 10.0]), st.sampled_from([0.0, 0.5, 2.0, 5.0]),
           st.sampled_from([1e-3, 0.3]))
    def test_blocks_solve_as_the_dense_products(self, d, k, seed, radius, scale, q_radius):
        # the same instance, one with its box taken by blocks: its solves
        # have the dense solves' active sets, pivots and repairs, and their
        # y and multipliers to round-off (the coupled rows' product alone
        # may round differently), with and without a start; the batch on
        # the solve's active set agrees too
        dense = generate(d, d, k, seed, box_radius=radius)
        blocked = generate(d, d, k, seed, True, box_radius=radius)
        assert dense.constraints.box_start is None and blocked.constraints.box_start == k
        rng = np.random.default_rng(seed)
        x = scale * rng.standard_normal(d)
        qs = np.array([sample_perturbation(q_radius, rng, d).q for _ in range(4)])
        try:
            refs = [solve_ll_quadratic(dense, x, q) for q in qs]
        except DsbloError as exc:
            with pytest.raises(type(exc)):
                solve_ll_quadratic(blocked, x, qs[0])
            return
        for q in qs:
            for start in ((), refs[0].active_set):
                ref = solve_ll_quadratic(dense, x, q, start)
                sol = solve_ll_quadratic(blocked, x, q, start)
                assert sol.active_set == ref.active_set and sol.stats == ref.stats
                assert np.allclose(sol.y_hat, ref.y_hat, rtol=1e-12, atol=1e-12)
                assert np.allclose(sol.lam, ref.lam, rtol=1e-12, atol=1e-12)
                assert sol.kkt_residual <= KKT_TOL and sol.max_violation <= 1e-9
        c, u = ll._linear_terms(blocked, x, qs[0])
        B, b = blocked.constraints.B, blocked.constraints.b
        assert np.array_equal(_bits(u[k:]), _bits(blocked.constraints.rhs(x)[k:]))
        assert np.array_equal(_bits(u[:k]), _bits(b[:k] - B[:k] @ x))
        y = refs[0].y_hat
        assert np.array_equal(_bits(ll._box_slack(blocked.constraints.A, k, u, y)[k:]),
                              _bits((u - blocked.constraints.A @ y)[k:]))
        C = x @ blocked.Q2 + qs
        ok_d, Y_d, Lam_d = solve_qp_batch(dense.active_set_cache, C, u, refs[0].active_set)
        ok_b, Y_b, Lam_b = solve_qp_batch(blocked.active_set_cache, C, u, refs[0].active_set)
        assert np.array_equal(ok_b, ok_d) and ok_b[0]
        assert np.allclose(Y_b[ok_b], Y_d[ok_d], rtol=1e-12, atol=1e-12)
        assert np.allclose(Lam_b[ok_b], Lam_d[ok_d], rtol=1e-12, atol=1e-12)

    def test_box_without_random_rows(self):
        # k = 0: the coupled block is empty, the box is all the rows
        dense = generate(5, 5, 0, 4, box_radius=0.2)
        blocked = generate(5, 5, 0, 4, True, box_radius=0.2)
        assert blocked.constraints.box_start == 0
        rng = np.random.default_rng(4)
        q = sample_perturbation(1e-3, rng, 5)
        assert ll.interior_point(blocked.active_set_cache,
                                 *ll._linear_terms(blocked, np.zeros(5), q.q)) is not None
        binding = 0
        for scale in (0.0, 0.1, 1.0):
            x = scale * rng.standard_normal(5)
            sol = solve_ll_quadratic(blocked, x, q)
            assert _same_solve(sol, solve_ll_quadratic(dense, x, q))
            binding += bool(sol.active_set)
        assert binding
