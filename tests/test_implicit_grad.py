from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from dsblo.diagnostics import fd_gradient_oracle
from dsblo.errors import DegenerateActiveSet, Infeasible
from dsblo.implicit_grad import (_adjoint, _gradient, implicit_gradient, jacobians,
                                 sampled_implicit_gradient)
from dsblo.lower_level import (_linear_terms, interior_point, sample_perturbation,
                               solve_ll_quadratic, solve_qp_batch)
from dsblo.problem import Polyhedron, eval_f, generate_instance
from dsblo.verify import degenerate_instance, margin_point

from conftest import make_1d_instance


def _constrained_1d():
    # g(x, y) = (y - x)^2, constraint y <= 0
    return make_1d_instance(q2=-2.0, A=[[1.0]], B=[[0.0]], b=[0.0])


def _active_margin_point(inst, rng, min_active=1, scale=1.0, tries=200):
    """(x, q, sol) at a margin point (see ``verify.margin_point``) with at
    least ``min_active`` active rows, or None if ``tries`` draws find none."""
    q = sample_perturbation(1e-3, rng, inst.d_l)
    for _ in range(tries):
        try:
            x, sol = margin_point(inst, q, rng, scale=scale, max_tries=1)
        except (RuntimeError, DegenerateActiveSet):
            continue
        if len(sol.active_set) >= min_active:
            return x, q, sol
    return None


class TestJacobiansHandChecked:
    def test_active_branch(self):
        inst = _constrained_1d()
        x = np.array([1.0])
        sol = solve_ll_quadratic(inst, x, None)
        assert sol.active_set == (0,)
        assert sol.lam[0] == pytest.approx(2.0, abs=1e-12)
        jac_y, jac_lam = jacobians(inst, sol)
        # y*(x) = 0 for x > 0: flat primal map, dual slope 2
        assert jac_lam == pytest.approx(np.array([[2.0]]), abs=1e-12)
        assert jac_y == pytest.approx(np.array([[0.0]]), abs=1e-12)

    def test_inactive_branch(self):
        inst = _constrained_1d()
        x = np.array([-1.0])
        sol = solve_ll_quadratic(inst, x, None)
        assert sol.active_set == ()
        jac_y, jac_lam = jacobians(inst, sol)
        assert jac_y == pytest.approx(np.array([[1.0]]), abs=1e-12)  # y*(x) = x
        assert jac_lam.shape == (0, 1)


class TestImplicitGradientHandChecked:
    # f = x^2 + y^2 over g = (y - x)^2 with y <= 0

    def test_flat_branch(self):
        inst = _constrained_1d()
        x = np.array([1.0])
        sol = solve_ll_quadratic(inst, x, None)
        g = implicit_gradient(inst, x, sol)
        # y*(x) = 0, so F(x) = x^2 on this branch
        assert g.grad == pytest.approx(np.array([2.0]), abs=1e-12)

    def test_sloped_branch(self):
        inst = _constrained_1d()
        x = np.array([-1.0])
        sol = solve_ll_quadratic(inst, x, None)
        g = implicit_gradient(inst, x, sol)
        # y*(x) = x, so F(x) = 2x^2 on this branch
        assert g.grad == pytest.approx(np.array([-4.0]), abs=1e-12)


class TestFiniteDifferenceAgreement:
    def test_seeded_instances(self):
        for seed in (1, 2):
            inst = generate_instance(10, 10, 5, seed=seed)
            rng = np.random.default_rng(seed)
            for _ in range(5):
                q = sample_perturbation(1e-3, rng, 10)
                x, sol = margin_point(inst, q, rng)
                ig = implicit_gradient(inst, x, sol)

                def F_q(xp):
                    return eval_f(inst, xp, solve_ll_quadratic(inst, xp, q).y_hat)

                fd = fd_gradient_oracle(F_q, x, 1e-5)
                rel = np.linalg.norm(ig.grad - fd) / max(np.linalg.norm(fd), 1e-9)
                assert rel <= 1e-4

    def test_jac_y_matches_fd(self):
        inst = generate_instance(6, 6, 4, seed=3)
        rng = np.random.default_rng(3)
        q = sample_perturbation(1e-3, rng, 6)
        x, sol = margin_point(inst, q, rng)
        jac_y, _ = jacobians(inst, sol)
        h = 1e-5
        fd = np.zeros_like(jac_y)
        for j in range(inst.d_u):
            e = np.zeros(inst.d_u)
            e[j] = h
            yp = solve_ll_quadratic(inst, x + e, q).y_hat
            ym = solve_ll_quadratic(inst, x - e, q).y_hat
            fd[:, j] = (yp - ym) / (2 * h)
        rel = np.linalg.norm(jac_y - fd) / max(np.linalg.norm(fd), 1e-9)
        assert rel <= 1e-4


class TestAdjointMatchesReference:
    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 12), st.integers(1, 8), st.integers(0, 10_000))
    def test_matches_jacobian_product(self, d, k, seed):
        inst = generate_instance(d, d, k, seed=seed)
        found = _active_margin_point(inst, np.random.default_rng(seed))
        assume(found is not None)
        x, _q, sol = found
        gx, gy = inst.grad_f(x, sol.y_hat)
        ref = gx + jacobians(inst, sol)[0].T @ gy
        g = implicit_gradient(inst, x, sol).grad
        assert np.linalg.norm(g - ref) <= 1e-10 * max(np.linalg.norm(ref), 1e-9)

    def test_directional_fd_with_many_active_rows(self):
        # the benchmark-sized instance at a point where at least 20 rows bind
        inst = generate_instance(200, 200, 40, seed=1)
        rng = np.random.default_rng(200)
        x, q, sol = _active_margin_point(inst, rng, min_active=20, scale=2.0)
        g = implicit_gradient(inst, x, sol).grad
        h = 1e-5
        for _ in range(3):
            u = rng.standard_normal(inst.d_u)
            u /= np.linalg.norm(u)
            sp = solve_ll_quadratic(inst, x + h * u, q)
            sm = solve_ll_quadratic(inst, x - h * u, q)
            assert sp.active_set == sol.active_set == sm.active_set
            fd = (eval_f(inst, x + h * u, sp.y_hat) - eval_f(inst, x - h * u, sm.y_hat)) / (2 * h)
            assert abs(fd - g @ u) <= 1e-6 * np.linalg.norm(g)


class TestStructuralInvariants:
    def test_tangency(self):
        inst = generate_instance(8, 8, 5, seed=5)
        rng = np.random.default_rng(5)
        found = 0
        for _ in range(40):
            x = 1.0 * rng.standard_normal(8)
            q = sample_perturbation(1e-3, rng, 8)
            try:
                sol = solve_ll_quadratic(inst, x, q)
                if not sol.active_set:
                    continue
                jac_y, _ = jacobians(inst, sol)
            except DegenerateActiveSet:
                continue
            act = list(sol.active_set)
            res = inst.constraints.A[act] @ jac_y + inst.constraints.B[act]
            assert np.linalg.norm(res) <= 1e-8
            found += 1
        assert found >= 5

    def test_row_permutation_invariance(self):
        inst = generate_instance(5, 5, 4, seed=8)
        rng = np.random.default_rng(8)
        q = sample_perturbation(1e-3, rng, 5)
        x, sol = margin_point(inst, q, rng, scale=1.0)
        g = implicit_gradient(inst, x, sol).grad

        perm = np.random.default_rng(0).permutation(inst.constraints.k)
        poly = inst.constraints
        shuffled = type(inst)(
            Q1=inst.Q1, Q2=inst.Q2, cx=inst.cx, cy=inst.cy,
            constraints=Polyhedron(poly.A[perm], poly.B[perm], poly.b[perm],
                                   n_random_rows=poly.n_random_rows),
            box_radius=inst.box_radius,
        )
        sol2 = solve_ll_quadratic(shuffled, x, q)
        g2 = implicit_gradient(shuffled, x, sol2).grad
        assert np.linalg.norm(g - g2) <= 1e-12 * max(1.0, np.linalg.norm(g))


class TestSampledGradient:
    def test_single_component_identical(self, seed1_instance):
        rng = np.random.default_rng(2)
        q = sample_perturbation(1e-3, rng, 10)
        x, sol = margin_point(seed1_instance, q, rng)
        full = implicit_gradient(seed1_instance, x, sol).grad
        one = sampled_implicit_gradient(seed1_instance, x, sol, 0)
        assert np.array_equal(one.grad, full)

    def test_mean_over_components(self):
        inst = generate_instance(4, 4, 3, seed=21, n_components=8)
        rng = np.random.default_rng(21)
        q = sample_perturbation(1e-3, rng, 4)
        x, sol = margin_point(inst, q, rng)
        full = implicit_gradient(inst, x, sol).grad
        per = np.array([sampled_implicit_gradient(inst, x, sol, i).grad for i in range(8)])
        assert np.linalg.norm(per.mean(axis=0) - full) <= 1e-12 * max(1.0, np.linalg.norm(full))
        # dispersion across components is finite and reportable
        var = per.var(axis=0).sum()
        assert np.isfinite(var) and var >= 0.0

    def test_batch_is_mean_of_components(self):
        inst = generate_instance(6, 6, 3, seed=21, n_components=8)
        x, _q, sol = _active_margin_point(inst, np.random.default_rng(21))
        xi = [3, 0, 3, 7, 5]
        batch = sampled_implicit_gradient(inst, x, sol, xi)
        per = np.mean([sampled_implicit_gradient(inst, x, sol, i).grad for i in xi], axis=0)
        assert np.linalg.norm(batch.grad - per) <= 1e-12 * np.linalg.norm(per)

    def test_scalar_and_one_element_xi_agree(self):
        inst = generate_instance(6, 6, 3, seed=21, n_components=8)
        x, _q, sol = _active_margin_point(inst, np.random.default_rng(21))
        assert sol.active_set
        assert np.array_equal(sampled_implicit_gradient(inst, x, sol, 3).grad,
                              sampled_implicit_gradient(inst, x, sol, [3]).grad)


def _rows_on_one_active_set(inst, x, n, rng, spread=1e-3):
    """n draws at points near x that certify on the active set of the first
    one: (X, Y, Lam, active) for the draws that do."""
    poly = inst.constraints
    X = x + spread * rng.standard_normal((n, inst.d_u))
    Q = np.array([sample_perturbation(1e-3, rng, inst.d_l).q for _ in range(n)])
    active = solve_ll_quadratic(inst, X[0], Q[0]).active_set
    ok, Y, Lam = solve_qp_batch(inst.active_set_cache, X @ inst.Q2 + Q, poly.b - X @ poly.B.T,
                                active)
    return X[ok], Y[ok], Lam[ok], active


class TestAdjointRows:
    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 12), st.integers(1, 8), st.integers(0, 10_000),
           st.sampled_from([0.5, 2.0]), st.integers(2, 9), st.integers(1, 4),
           st.lists(st.integers(0, 3), min_size=1, max_size=4))
    def test_rows_equal_one_row_calls(self, d, k, seed, scale, n, m, picks):
        # the draws on one active set, differentiated by one call with a
        # row per draw (one adjoint solve, or the interior map), give the
        # one-row gradient of each draw, for the mean linear terms of a
        # component batch
        inst = generate_instance(d, d, k, seed=seed, n_components=m)
        rng = np.random.default_rng(seed)
        try:
            X, Y, Lam, active = _rows_on_one_active_set(inst, scale * rng.standard_normal(d),
                                                        n, rng)
        except (Infeasible, DegenerateActiveSet):
            assume(False)
        assume(len(X) >= 2)
        xi = [p % m for p in picks]
        terms = (inst.cx[xi].mean(axis=0), inst.cy[xi].mean(axis=0),
                 inst.interior_gradient.offsets[xi].mean(axis=0))
        try:
            rows = _gradient(inst, X, Y, Lam, active, *terms)
        except DegenerateActiveSet:
            assume(False)
        ones = [_gradient(inst, X[i], Y[i], Lam[i], active, *terms) for i in range(len(X))]
        assert rows.shape == X.shape
        for row, one in zip(rows, ones):
            assert np.allclose(row, one, rtol=1e-12, atol=1e-12 * np.abs(one).max())

    def test_one_row_is_implicit_gradient(self, seed1_instance):
        inst = seed1_instance
        rng = np.random.default_rng(4)
        found = _active_margin_point(inst, rng)
        x, _q, sol = found
        gx, gy = inst.grad_f(x, sol.y_hat)
        g = _adjoint(inst, sol.lam, sol.active_set, gx, gy)
        assert np.array_equal(g, implicit_gradient(inst, x, sol).grad)

    def test_zero_margin_row_rejected(self):
        # one draw with a zero multiplier on the shared active set fails
        # the whole batch
        inst = generate_instance(50, 50, 10, seed=1)
        rng = np.random.default_rng(1)
        X, Y, Lam, active = _rows_on_one_active_set(inst, rng.standard_normal(50), 6, rng)
        assert len(X) >= 3 and active
        gx, gy = inst._grad_f(X, Y, inst.cx_mean, inst.cy_mean)
        _adjoint(inst, Lam, active, gx, gy)
        Lam = Lam.copy()
        Lam[2, active[-1]] = 0.0
        with pytest.raises(DegenerateActiveSet, match="strict complementarity"):
            _adjoint(inst, Lam, active, gx, gy)
        with pytest.raises(DegenerateActiveSet):
            _adjoint(inst, Lam[2], active, gx[2], gy[2])


def _interior_points(inst, X, rng):
    """(x, q, sol) for the points x in the rows of X whose solve with a fresh
    perturbation ``interior_point`` certifies."""
    found = []
    for x in X:
        q = sample_perturbation(1e-3, rng, inst.d_l)
        if interior_point(inst.active_set_cache, *_linear_terms(inst, x, q.q)) is not None:
            sol = solve_ll_quadratic(inst, x, q)
            assert sol.active_set == ()
            found.append((x, q, sol))
    return found


def _close(g, ref):
    return np.linalg.norm(g - ref) <= 1e-12 * max(np.linalg.norm(ref), 1.0)


class TestInteriorGradient:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 12), st.integers(0, 8), st.integers(1, 8), st.integers(0, 2 ** 16),
           st.sampled_from([0.0, 0.3, 1.0, 3.0]), st.lists(st.integers(0, 7), min_size=1,
                                                            max_size=5))
    def test_map_equals_the_kkt_reference(self, d, k, m, seed, scale, picks):
        inst = generate_instance(d, d, k, seed, n_components=m)
        rng = np.random.default_rng(seed)
        found = _interior_points(inst, scale * rng.standard_normal((4, d)), rng)
        assume(found)
        xi = [p % m for p in picks]
        jac_y = jacobians(inst, found[0][2])[0]
        for x, _q, sol in found:
            # the map against grad_x f + jac_y' grad_y f from the dense reference
            gx, gy = inst.grad_f(x, sol.y_hat)
            assert _close(implicit_gradient(inst, x, sol).grad, gx + jac_y.T @ gy)
            # a component list gives the mean of its components' gradients
            ref = np.mean([gxi + jac_y.T @ gyi
                           for gxi, gyi in (inst._grad_f(x, sol.y_hat, inst.cx[i], inst.cy[i])
                                            for i in xi)],
                          axis=0)
            assert _close(sampled_implicit_gradient(inst, x, sol, xi).grad, ref)
            # one component alone is the full batch, bit for bit
            single = replace(inst, cx=inst.cx[xi[0]], cy=inst.cy[xi[0]])
            assert np.array_equal(sampled_implicit_gradient(single, x, sol, 0).grad,
                                  implicit_gradient(single, x, sol).grad)
        # the rows form equals the one-row form
        X = np.array([x for x, _, _ in found])
        Y = np.array([sol.y_hat for _, _, sol in found])
        rows = inst.interior_gradient(X, Y)
        for row, x, y in zip(rows, X, Y):
            assert _close(row, inst.interior_gradient(x, y))

    def test_map_arrays_are_read_only_and_cached(self, seed1_instance):
        interior = seed1_instance.interior_gradient
        assert interior is seed1_instance.interior_gradient
        assert interior.G.shape == (10, 20) and interior.offsets.shape == (1, 10)
        for a in (interior.G, interior.offsets, interior.g0):
            assert not a.flags.writeable

    def test_sampled_rejects_a_component_out_of_range(self, seed1_instance):
        x = np.zeros(10)
        sol = solve_ll_quadratic(seed1_instance, x, None)
        assert sol.active_set == ()
        for xi in (-1, 1, [0, 1]):
            with pytest.raises(IndexError, match="out of range"):
                sampled_implicit_gradient(seed1_instance, x, sol, xi)

    def test_sampled_rejects_an_empty_or_non_integer_xi(self):
        # an empty batch has no mean and a fractional index names no
        # component, on an interior solve and on a binding one alike
        inst = generate_instance(6, 6, 3, seed=21, n_components=8)
        x, _q, binding = _active_margin_point(inst, np.random.default_rng(21))
        interior = solve_ll_quadratic(inst, np.zeros(6), None)
        assert binding.active_set and not interior.active_set
        for x, sol in ((x, binding), (np.zeros(6), interior)):
            for xi in ([], (), np.array([], dtype=int), 2.7, [0, 1.5], True, [[0, 1]]):
                with pytest.raises(ValueError, match="integer component indices"):
                    sampled_implicit_gradient(inst, x, sol, xi)
            for xi in (8, [0, -1]):
                with pytest.raises(IndexError, match="out of range"):
                    sampled_implicit_gradient(inst, x, sol, xi)


class TestErrors:
    def test_zero_margin_rejected(self):
        inst = degenerate_instance()
        sol = solve_ll_quadratic(inst, np.zeros(2), None)
        assert sol.active_set and sol.lam[0] == 0.0
        with pytest.raises(DegenerateActiveSet):
            jacobians(inst, sol)
        with pytest.raises(DegenerateActiveSet):
            implicit_gradient(inst, np.zeros(2), sol)
