import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import dsblo.lower_level as ll
from dsblo.errors import (DegenerateActiveSet, DsbloError, Infeasible, NonFinite,
                          Uncertified)
from dsblo.experiment import config_from_dict, run_experiment
from dsblo.implicit_grad import implicit_gradient, jacobians
from dsblo.lower_level import (ACTIVE_SET_CACHE_SIZE, KKT_TOL, TAU_ACT, ActiveSetCache,
                               LLSolution, Perturbation, sample_perturbation, sc_margin,
                               solve_ll_bruteforce, solve_ll_quadratic, solve_qp,
                               solve_qp_batch)
from dsblo.problem import Polyhedron, QuadraticBilevel, generate_instance

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
            with pytest.raises(np.linalg.LinAlgError):
                cache.equality_solve((0, 1, 2), c / h, rng.standard_normal(3))


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

    def test_anisotropic_bound_active(self):
        # H = diag(2, 6): the unconstrained minimum (0.5, -1/3) violates
        # y_1 <= 0.2, so KKT by hand gives y = (0.2, -1/3) and lam = 0.6
        sol = solve_qp(np.array([2.0, 6.0]), np.array([-1.0, 2.0]),
                       np.array([[1.0, 0.0]]), np.array([0.2]))
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
            smin = inst.active_set_cache.check_rank(sol.active_set)
            if sol.active_set:
                A_act = inst.constraints.A[list(sol.active_set)]
                assert smin == pytest.approx(np.linalg.svd(A_act, compute_uv=False)[-1],
                                             rel=1e-12)
            else:
                assert smin == float("inf")

    def test_degenerate_duplicate_rows(self):
        # two copies of y_1 <= 0, objective pushing onto that face
        with pytest.raises(DegenerateActiveSet):
            solve_qp(np.full(2, 2.0), np.array([-2.0, 0.0]),
                     np.array([[1.0, 0.0], [1.0, 0.0]]), np.zeros(2))

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


def _solve_or_error(*args):
    try:
        return solve_qp(*args)
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
        assume(ActiveSetCache(H, A).check_rank(cold.active_set) >= 0.1)
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
        cold = solve_qp(H, c, A, u)
        assert cold.active_set == (0, 2) and cold.stats["pivots"] == 2
        for start in ((0, 1), (0, 1, 2), (1, 1, 0), (0, 1, 2, 0)):
            warm = solve_qp(H, c, A, u, start)
            assert warm.stats["pivots"] == cold.stats["pivots"]
            assert np.array_equal(warm.y_hat, cold.y_hat)
        # an exactly duplicated half-space that binds: same error warm or cold
        A2, u2 = np.array([[1.0, 0.0], [2.0, 0.0]]), np.array([0.5, 1.0])
        for start in ((), (0,), (0, 1)):
            with pytest.raises(DegenerateActiveSet):
                solve_qp(H, c, A2, u2, start)

    def test_start_rows_with_negative_multipliers_dropped(self):
        # min y'y - 2y_1 under y_1 <= 2, y_1 <= 0.5, y_2 <= 1: forcing rows 0
        # and 2 to equality gives them negative multipliers; the hot start
        # drops both before the pivot loop, so no pivot or repair is needed
        H, c = np.array([2.0, 2.0]), np.array([-2.0, 0.0])
        A = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        u = np.array([2.0, 0.5, 1.0])
        sol = solve_qp(H, c, A[[0, 2]], u[[0, 2]], (0, 1))
        assert sol.active_set == () and sol.stats["pivots"] == sol.stats["repairs"] == 0
        sol = solve_qp(H, c, A[1:], u[1:], (0, 1))
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
        real, calls = ll._dual_active_set, []

        def spy(*args):
            calls.append(args)
            return real(*args)

        ll._dual_active_set = spy
        try:
            fast = _solve_or_error(H, c, A, u)
            took_fast_path = not calls
            # row 0 is slack, so the hot start drops it and the solve starts
            # cold; with no rows the start is out of range and unusable
            general = _solve_or_error(H, c, A, u, (0,))
        finally:
            ll._dual_active_set = real
        assert took_fast_path == interior
        assert len(calls) == 1 + (not interior)
        if isinstance(fast, DsbloError):  # more rows at the threshold than d
            assert not interior and type(general) is type(fast)
            return
        assert np.array_equal(fast.y_hat, general.y_hat)
        assert np.array_equal(fast.lam, general.lam)
        for name in ("active_set", "kkt_residual", "max_violation", "delta_cert", "stats"):
            assert getattr(fast, name) == getattr(general, name), name
        cache = ActiveSetCache(H, A)
        assert cache.check_rank(fast.active_set) == cache.check_rank(general.active_set)
        if interior:
            assert fast.active_set == () and cache.check_rank(fast.active_set) == np.inf
            assert fast.stats == {"pivots": 0, "repairs": 0}
            assert not fast.y_hat.flags.writeable and not fast.lam.flags.writeable

    def test_returns_before_the_active_set_machinery(self, monkeypatch):
        def unreachable(*args):
            raise AssertionError("interior solve reached the active-set set-up")

        monkeypatch.setattr(ll, "_dual_active_set", unreachable)
        H, c = np.array([2.0, 4.0]), np.array([-2.0, 4.0])
        sol = solve_qp(H, c, np.array([[1.0, 0.0]]), np.array([2.0]))
        assert sol.y_hat.tolist() == [1.0, -1.0] and sol.active_set == ()
        assert sol.kkt_residual == 0.0 and sol.max_violation == -1.0
        assert solve_qp(H, c, np.zeros((0, 2)), np.zeros(0)).y_hat.tolist() == [1.0, -1.0]
        # a bound within the threshold, or a start, takes the general path
        with pytest.raises(AssertionError, match="active-set set-up"):
            solve_qp(H, c, np.array([[1.0, 0.0]]), np.array([1.0 + TAU_ACT / 2]))
        with pytest.raises(AssertionError, match="active-set set-up"):
            solve_qp(H, c, np.array([[1.0, 0.0]]), np.array([2.0]), (0,))


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
    def test_nan_x(self):
        inst = generate_instance(4, 4, 2, seed=1)
        with pytest.raises(NonFinite):
            solve_ll_quadratic(inst, np.array([np.nan, 0.0, 0.0, 0.0]), None)

    def test_nan_q(self):
        inst = generate_instance(4, 4, 2, seed=1)
        for start in ((), (0,)):
            with pytest.raises(NonFinite):
                solve_ll_quadratic(inst, np.zeros(4), np.array([0.0, np.nan, 0.0, 0.0]), start)

    def test_inf_c_without_rows(self):
        with pytest.raises(NonFinite):
            solve_qp(np.ones(2), np.array([np.inf, 0.0]), np.zeros((0, 2)), np.zeros(0))

    def test_nonfinite_under_warnings_as_errors(self):
        # with warnings raised as errors an infinite input, or a perturbation
        # so large that the solve overflows, must still surface as NonFinite,
        # not as a RuntimeWarning from the arithmetic before it; the box
        # rows' zero entries meet the infinity in products
        script = """
import json, tempfile
from dataclasses import replace
import numpy as np
from dsblo.algorithm import DsbloParams, ManualMode, run_dsblo
from dsblo.diagnostics import eval_F_exact_rows
from dsblo.errors import NonFinite
from dsblo.experiment import config_from_dict, run_experiment
from dsblo.lower_level import solve_ll_quadratic, solve_qp, solve_qp_batch
from dsblo.problem import empty_polyhedron, generate_instance

def expect_nonfinite(fn, *args):
    try:
        fn(*args)
    except NonFinite:
        print("NonFinite")

inf_c = np.array([np.inf, 0.0])
expect_nonfinite(solve_qp, np.ones(2), inf_c, np.zeros((0, 2)), np.zeros(0))
expect_nonfinite(solve_qp, np.ones(2), inf_c, np.eye(2), np.ones(2))
boxed = generate_instance(4, 4, 3, seed=1)
X = np.zeros((3, 4))
X[1, 2] = np.inf
for inst in (replace(boxed, constraints=empty_polyhedron(4, 4)), boxed):
    expect_nonfinite(eval_F_exact_rows, inst, X, [(), (), ()])
expect_nonfinite(solve_ll_quadratic, boxed, X[1], None)
expect_nonfinite(solve_ll_quadratic, boxed, X[0], X[1])
expect_nonfinite(solve_qp_batch, boxed.hess_yy_diag, [[np.inf, 0.0, 0.0, 0.0]],
                 boxed.constraints.A, boxed.constraints.b, (0,))
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
"""
        src = str(Path(ll.__file__).resolve().parents[1])
        out = subprocess.run([sys.executable, "-W", "error", "-c", script], capture_output=True,
                             text=True, timeout=120, env={"PYTHONPATH": src})
        assert out.returncode == 0, out.stderr
        assert out.stdout.split() == ["NonFinite"] * 9

    def test_nan_hessian(self):
        with pytest.raises(NonFinite):
            solve_qp(np.array([1.0, np.nan]), np.zeros(2), np.zeros((0, 2)), np.zeros(0))

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
        poly = inst.constraints
        return inst.hess_yy_diag, inst.Q2.T @ x + qs, poly.A, poly.rhs(x)

    @pytest.mark.parametrize("radius", [1e-3, 0.3, 3.0])
    def test_accepts_exactly_the_solves_without_pivots(self, radius):
        # a draw passes where the hot-started solve keeps W and makes no
        # pivot or repair, and then carries that solve's y and multipliers;
        # a draw that fails holds NaN
        inst = generate_instance(50, 50, 10, seed=1)
        x = np.random.default_rng(1).standard_normal(50)
        H, C, A, u = self._draws(inst, x, radius, 24, 5)
        W = solve_qp(H, C[0], A, u).active_set
        assert len(W) >= 3
        ok, Y, Lam = solve_qp_batch(H, C, A, u, W)
        assert ok.shape == (24,) and Y.shape == (24, 50) and Lam.shape == (24, A.shape[0])
        for c, passed, y, lam in zip(C, ok, Y, Lam):
            ref = solve_qp(H, c, A, u, W)
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
        ok, Y, Lam = solve_qp_batch(np.array([2.0]), [[c]], np.array([[1.0]]), np.zeros(1), ())
        assert ok.tolist() == [accepted]
        if accepted:
            assert Y.tolist() == [[-c / 2]] and Lam.tolist() == [[0.0]]

    def test_kkt_above_tolerance_rejected(self, monkeypatch):
        import dsblo.lower_level as ll
        inst = generate_instance(50, 50, 10, seed=1)
        x = np.random.default_rng(1).standard_normal(50)
        H, C, A, u = self._draws(inst, x, 1e-3, 6, 0)
        W = solve_qp(H, C[0], A, u).active_set
        assert W and solve_qp_batch(H, C, A, u, W)[0].all()
        monkeypatch.setattr(ll, "KKT_TOL", 0.0)
        assert not solve_qp_batch(H, C, A, u, W)[0].any()

    def test_unusable_start_rejects_every_row(self):
        inst = generate_instance(4, 4, 8, seed=2)
        H, C, A, u = self._draws(inst, np.zeros(4), 1e-3, 3, 0)
        for W in ([8], [-1], range(5)):
            ok, Y, Lam = solve_qp_batch(H, C, A, u, W)
            assert not ok.any() and np.isnan(Y).all() and np.isnan(Lam).all()
        # a row repeated up to sign fails the independence test
        A2 = np.vstack([A, -A[:1]])
        u2 = np.append(u, -u[0])
        assert not solve_qp_batch(H, C, A2, u2, [0, 8])[0].any()

    def test_no_rows(self):
        H = np.full(3, 2.0)
        C = np.arange(6.0).reshape(2, 3)
        ok, Y, Lam = solve_qp_batch(H, C, np.zeros((0, 3)), np.zeros(0), ())
        assert ok.all() and Lam.shape == (2, 0)
        for c, y in zip(C, Y):
            assert np.array_equal(y, solve_qp(H, c, np.zeros((0, 3)), np.zeros(0)).y_hat)

    def test_one_rhs_row_per_draw(self):
        # draws at different x carry their own u; each passing row equals
        # the single solve at its own (c, u), and one u broadcasts to all
        inst = generate_instance(50, 50, 10, seed=1)
        poly = inst.constraints
        rng = np.random.default_rng(2)
        x0 = rng.standard_normal(50)
        X = x0 + 1e-3 * rng.standard_normal((8, 50))
        Q = np.array([sample_perturbation(1e-3, rng, 50).q for _ in range(8)])
        C = X @ inst.Q2 + Q
        U = poly.b - X @ poly.B.T
        W = solve_qp(inst.hess_yy_diag, C[0], poly.A, U[0]).active_set
        assert W
        ok, Y, Lam = solve_qp_batch(inst.hess_yy_diag, C, poly.A, U, W)
        assert ok.all()
        for c, u, y, lam in zip(C, U, Y, Lam):
            ref = solve_qp(inst.hess_yy_diag, c, poly.A, u)
            assert ref.active_set == W
            assert np.allclose(y, ref.y_hat, rtol=1e-12, atol=1e-12)
            assert np.allclose(lam, ref.lam, rtol=1e-12, atol=1e-12)
        shared = solve_qp_batch(inst.hess_yy_diag, C, poly.A, U[0], W)
        assert np.array_equal(shared[1][0], Y[0])
        assert not np.array_equal(shared[1][1:], Y[1:])


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


def _solve_and_grad(inst, x, q, start):
    """(solve, gradient) at x, or the type of the error either raised."""
    try:
        sol = solve_ll_quadratic(inst, x, q, start)
        return sol, implicit_gradient(inst, x, sol).grad
    except DsbloError as exc:
        return type(exc), None


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
        # (-1, 0); their smallest singular value is about 7e-10
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

    def test_one_svd_per_new_row_tuple(self, monkeypatch):
        # rows y1 <= -1 and y2 <= -1: with q = 0 both bind, with q = (0, 10)
        # only row 0 does; each solve is followed by its gradient and
        # Jacobians, and only a row tuple the cache has not seen costs an SVD
        inst = _two_row_instance([[1.0, 0.0], [0.0, 1.0]])
        real_svd, svds = np.linalg.svd, []

        def svd(*args, **kwargs):
            svds.append(args[0].shape)
            return real_svd(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", svd)
        for q, active, count in ((None, (0, 1), 1), ([0.0, 10.0], (0,), 2),
                                 (None, (0, 1), 2), ([0.0, 10.0], (0,), 2)):
            sol = solve_ll_quadratic(inst, np.zeros(2), q)
            assert sol.active_set == active
            implicit_gradient(inst, np.zeros(2), sol)
            jacobians(inst, sol)
            assert len(svds) == count
        assert svds == [(2, 2), (1, 2)]

    def test_rejected_start_falls_back_to_a_cold_solve_on_a_hit(self):
        # S on rows 0 and 1 passes a Cholesky factorization, but row 1 has
        # only 1e-10 of its H^-1-norm outside row 0's span; row 0 binds
        H, c = np.array([2.0, 2.0]), np.zeros(2)
        A, u = np.array([[1.0, 0.0], [1.0, 1e-5]]), np.array([-1.0, 5.0])
        cache = ActiveSetCache(H, A)
        np.linalg.cholesky(cache.reduced((0, 1)))
        cold = solve_qp(H, c, A, u)
        for _ in range(2):
            hot = solve_qp(H, c, A, u, (0, 1), cache)
            assert cache.start_ok((0, 1)) is False
            assert hot.stats == cold.stats == {"pivots": 1, "repairs": 0}
            assert np.array_equal(hot.y_hat, cold.y_hat) and np.array_equal(hot.lam, cold.lam)
            assert hot.active_set == cold.active_set == (0,)

    def test_never_holds_more_than_its_bound(self):
        rng = np.random.default_rng(0)
        H, A = rng.uniform(0.5, 2.0, 5), rng.standard_normal((30, 5))
        cache = ActiveSetCache(H, A)
        tuples = [(i, j) for i in range(30) for j in range(30) if i != j][:3 * ACTIVE_SET_CACHE_SIZE]
        first = {}
        for rows in tuples + tuples:
            S = cache.reduced(rows)
            assert len(cache) <= ACTIVE_SET_CACHE_SIZE
            # an evicted tuple asked for again gets the same bits
            assert np.array_equal(first.setdefault(rows, S), S)
            assert not S.flags.writeable

