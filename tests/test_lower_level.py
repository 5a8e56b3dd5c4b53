import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import dsblo.lower_level as ll
from dsblo.errors import DegenerateActiveSet, DsbloError, Infeasible, NonFinite
from dsblo.lower_level import (KKT_TOL, TAU_ACT, Perturbation, diagonal_solver, equality_solve,
                               sample_perturbation, sc_margin, solve_ll_bruteforce,
                               solve_ll_oracle, solve_ll_quadratic, solve_qp,
                               solve_qp_batch)
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


def _hessian(dense: bool, d: int, rng):
    """A dense SPD Hessian with its solver, or a positive diagonal one."""
    if dense:
        R = rng.standard_normal((d, d))
        H = R @ R.T + 0.5 * np.eye(d)
        return H, lambda Z: np.linalg.solve(H, Z)
    h = rng.uniform(0.2, 5.0, d)
    return np.diag(h), diagonal_solver(h)


# the reduced KKT solve behind the hot start, the polish, the pivot step,
# the Monte-Carlo batch and the adjoint gradient
class TestEqualitySolve:
    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 7), st.integers(0, 7), st.integers(0, 3), st.booleans(),
           st.booleans(), st.integers(0, 2 ** 16))
    def test_matches_dense_kkt_solve(self, d, m, n_rhs, dense, zero_u, seed):
        # [[H, Aw'], [Aw, 0]] [y; lam] = [-c; uw], with one column per
        # right-hand side when c is a matrix (n_rhs > 0)
        assume(m <= d)
        rng = np.random.default_rng(seed)
        H, hinv = _hessian(dense, d, rng)
        Aw = rng.standard_normal((m, d))
        assume(m == 0 or np.linalg.svd(Aw, compute_uv=False)[-1] > 0.1)
        c = rng.standard_normal((d, n_rhs) if n_rhs else d)
        uw = 0.0 if zero_u else rng.standard_normal(m)
        S, lam, y = equality_solve(hinv, hinv(c), Aw, uw)
        kkt = np.block([[H, Aw.T], [Aw, np.zeros((m, m))]])
        rhs_u = np.zeros((m,) + c.shape[1:]) + (np.reshape(uw, (-1, 1)) if n_rhs else uw)
        ref = np.linalg.solve(kkt, np.concatenate([-c, rhs_u]))
        assert lam.shape == (m,) + c.shape[1:] and y.shape == c.shape
        tol = 1e-9 * (1.0 + np.abs(ref).max())
        assert np.allclose(y, ref[:d], rtol=0, atol=tol)
        assert np.allclose(lam, ref[d:], rtol=0, atol=tol)
        assert np.allclose(S, Aw @ np.linalg.solve(H, Aw.T), rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("dense", [False, True])
    @pytest.mark.parametrize("bad_row", ["repeated", "zero"])
    def test_singular_reduced_matrix_raises(self, dense, bad_row):
        rng = np.random.default_rng(3)
        _, hinv = _hessian(dense, 4, rng)
        Aw = rng.standard_normal((2, 4))
        Aw = np.vstack([Aw, Aw[:1] if bad_row == "repeated" else np.zeros((1, 4))])
        c = rng.standard_normal(4)
        with pytest.raises(np.linalg.LinAlgError):
            equality_solve(hinv, hinv(c), Aw, rng.standard_normal(3))


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
        assume(cold.rank_smin >= 0.1)
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

    def test_oracle_projections_chain(self, small_instance, monkeypatch):
        import dsblo.lower_level as ll
        starts = []
        real = ll.solve_qp

        def recording(H, c, A, u, start=()):
            sol = real(H, c, A, u, start)
            starts.append((tuple(start), sol.active_set))
            return sol

        monkeypatch.setattr(ll, "solve_qp", recording)
        oracle = oracle_from_quadratic(small_instance)
        solve_ll_oracle(oracle, np.full(3, 1.5), None, tol_delta=1e-8)
        assert len(starts) >= 2 and starts[0][0] == ()
        assert all(s == prev for (s, _), (_, prev) in zip(starts[1:], starts))


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
        real, calls = ll.diagonal_solver, []

        def spy(h):
            calls.append(h)
            return real(h)

        ll.diagonal_solver = spy
        try:
            fast = _solve_or_error(H, c, A, u)
            took_fast_path = not calls
            # row 0 is slack, so the hot start drops it and the solve starts
            # cold; with no rows the start is out of range and unusable
            general = _solve_or_error(H, c, A, u, (0,))
        finally:
            ll.diagonal_solver = real
        assert took_fast_path == interior
        assert len(calls) == 1 + (not interior)
        if isinstance(fast, DsbloError):  # more rows at the threshold than d
            assert not interior and type(general) is type(fast)
            return
        assert np.array_equal(fast.y_hat, general.y_hat)
        assert np.array_equal(fast.lam, general.lam)
        for name in ("active_set", "kkt_residual", "max_violation", "delta_cert", "stats",
                     "rank_smin"):
            assert getattr(fast, name) == getattr(general, name), name
        if interior:
            assert fast.active_set == () and fast.rank_smin == np.inf
            assert fast.stats == {"pivots": 0, "repairs": 0}
            assert not fast.y_hat.flags.writeable and not fast.lam.flags.writeable

    def test_returns_before_the_active_set_machinery(self, monkeypatch):
        def unreachable(H):
            raise AssertionError("interior solve reached the active-set set-up")

        monkeypatch.setattr(ll, "diagonal_solver", unreachable)
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
                assert exact.active_set == approx.active_set
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
                agree += exact.active_set == approx.active_set
        assert total > 20
        assert agree == total
