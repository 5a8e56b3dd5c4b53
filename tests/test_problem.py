import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dsblo.errors import GeneratorError
from dsblo.problem import (Polyhedron, eval_f, fingerprint,
                           generate_instance, instance_from_dict,
                           instance_to_dict, load_instance, sample_component,
                           save_instance)


def naive_f(inst, x, y):
    """Independent term-by-term evaluator (loops only); the oracle the fast
    path is checked against."""
    total = 0.0
    for i in range(inst.n_components):
        v = 0.0
        for a in range(inst.d_u):
            v += x[a] * x[a]
        for a in range(inst.d_u):
            for b in range(inst.d_l):
                v += 0.1 * x[a] * inst.Q1[a, b] * y[b]
        for b in range(inst.d_l):
            v += y[b] * y[b]
        for a in range(inst.d_u):
            v += inst.cx[i, a] * x[a]
        for b in range(inst.d_l):
            v += inst.cy[i, b] * y[b]
        total += v
    return total / inst.n_components


class TestGenerator:
    def test_benchmark_dims(self, seed1_instance):
        inst = seed1_instance
        nr = inst.constraints.n_random_rows
        assert nr == 5
        assert inst.constraints.A[:nr].shape == (5, 10)
        assert inst.constraints.B[:nr].shape == (5, 10)
        assert inst.constraints.b[:nr].shape == (5,)
        # box augmentation: two rows per lower-level coordinate
        assert inst.constraints.k == 5 + 2 * 10

    def test_scalar_instance(self):
        inst = generate_instance(1, 1, 1, seed=0)
        assert inst.Q2.shape == (1, 1)
        assert np.array_equal(inst.hess_yy_diag, [2.0])
        assert inst.mu_g == 2.0

    def test_determinism(self):
        a = generate_instance(4, 3, 2, seed=42)
        b = generate_instance(4, 3, 2, seed=42)
        for fld in ("Q1", "Q2", "cx", "cy"):
            assert np.array_equal(getattr(a, fld), getattr(b, fld))
        assert np.array_equal(a.constraints.A, b.constraints.A)
        assert np.array_equal(a.constraints.b, b.constraints.b)

    def test_origin_strictly_feasible(self):
        for seed in range(5):
            inst = generate_instance(6, 6, 4, seed=seed)
            slack = inst.constraints.slacks(np.zeros(6), np.zeros(6))
            assert np.all(slack > 0)

    def test_entries_in_unit_interval(self):
        inst = generate_instance(8, 8, 6, seed=3)
        nr = inst.constraints.n_random_rows
        for m in (inst.Q1, inst.Q2, inst.constraints.A[:nr], inst.constraints.B[:nr]):
            assert m.min() >= 0.0 and m.max() <= 1.0

    def test_rejects_bad_dims(self):
        with pytest.raises(ValueError):
            generate_instance(0, 3, 1, seed=0)
        with pytest.raises(ValueError):
            generate_instance(3, 3, -1, seed=0)

    def test_k_zero_keeps_box_rows(self):
        inst = generate_instance(3, 3, 0, seed=0)
        assert inst.constraints.n_random_rows == 0
        assert inst.constraints.k == 6

    def test_uncertifiable_without_box(self):
        # nonnegative random rows leave the negative orthant unbounded
        with pytest.raises(GeneratorError):
            generate_instance(3, 3, 2, seed=0, box_radius=None)

    def test_polyhedron_shape_mismatch(self):
        with pytest.raises(ValueError):
            Polyhedron(np.ones((2, 3)), np.ones((3, 2)), np.ones(2))


class TestEvalF:
    def test_zero(self, seed1_instance):
        assert eval_f(seed1_instance, np.zeros(10), np.zeros(10)) == 0.0

    def test_unit_x(self, seed1_instance):
        x = np.zeros(10)
        x[0] = 1.0
        # y = 0 kills every coupled term: ||x||^2 + cx'x = 1 + 1
        assert eval_f(seed1_instance, x, np.zeros(10)) == pytest.approx(2.0, abs=1e-12)

    def test_matches_naive(self, seed1_instance):
        rng = np.random.default_rng(0)
        for _ in range(10):
            x = rng.standard_normal(10)
            y = rng.standard_normal(10)
            fast = eval_f(seed1_instance, x, y)
            slow = naive_f(seed1_instance, x, y)
            assert fast == pytest.approx(slow, rel=1e-10)

    def test_matches_naive_multicomponent(self):
        inst = generate_instance(4, 5, 2, seed=9, n_components=8)
        rng = np.random.default_rng(1)
        x, y = rng.standard_normal(4), rng.standard_normal(5)
        assert eval_f(inst, x, y) == pytest.approx(naive_f(inst, x, y), rel=1e-10)

    def test_dimension_mismatch(self, seed1_instance):
        with pytest.raises(ValueError):
            eval_f(seed1_instance, np.zeros(9), np.zeros(10))


class TestGradients:
    def test_grad_f_matches_fd(self, seed1_instance):
        inst = seed1_instance
        rng = np.random.default_rng(2)
        h = 1e-5
        for _ in range(20):
            x = rng.standard_normal(10)
            y = rng.standard_normal(10)
            gx, gy = inst.grad_f(x, y)
            for j in range(10):
                e = np.zeros(10)
                e[j] = h
                fd_x = (eval_f(inst, x + e, y) - eval_f(inst, x - e, y)) / (2 * h)
                fd_y = (eval_f(inst, x, y + e) - eval_f(inst, x, y - e)) / (2 * h)
                assert abs(gx[j] - fd_x) <= 1e-6 * max(1.0, abs(fd_x))
                assert abs(gy[j] - fd_y) <= 1e-6 * max(1.0, abs(fd_y))

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 500), st.integers(1, 500), st.integers(0, 2 ** 16),
           st.integers(1, 6), st.booleans())
    def test_grad_f_vectors_and_rows(self, d_u, d_l, seed, n, one_x):
        # on vectors, y @ Q1' and x @ Q1 keep the bits of Q1 @ y and Q1' @ x;
        # a row of the rows form (X one point for every row, or one per row)
        # is the one-row call to round-off
        inst = generate_instance(d_u, d_l, 0, seed=seed)
        rng = np.random.default_rng(seed)
        X, Y = rng.standard_normal((n, d_u)), rng.standard_normal((n, d_l))
        cx, cy = rng.standard_normal(d_u), rng.standard_normal(d_l)
        for x, y in zip(X, Y):
            gx, gy = inst._grad_f(x, y, cx, cy)
            assert gx.tobytes() == (2.0 * x + 0.1 * (inst.Q1 @ y) + cx).tobytes()
            assert gy.tobytes() == (0.1 * (inst.Q1.T @ x) + 2.0 * y + cy).tobytes()
        if one_x:
            X = X[0]
        rows = inst._grad_f(X, Y, cx, cy)
        for i in range(n):
            for row, one in zip(rows, inst._grad_f(X if one_x else X[i], Y[i], cx, cy)):
                assert np.allclose(row[i], one, rtol=1e-12, atol=1e-12 * np.abs(one).max())

    def test_hessian_constant(self, seed1_instance):
        inst = seed1_instance
        rng = np.random.default_rng(3)
        h = 1e-6
        assert np.array_equal(inst.hess_yy_diag, np.full(10, 2.0))
        for _ in range(10):
            x = rng.standard_normal(10)
            y = rng.standard_normal(10)
            # finite differences of grad_y_g confirm the Hessian diagonal
            # hess_yy_diag and the cross Jacobian Q2', both constant
            j = int(rng.integers(10))
            e = np.zeros(10)
            e[j] = h
            col_y = (inst.grad_y_g(x, y + e) - inst.grad_y_g(x, y - e)) / (2 * h)
            col_x = (inst.grad_y_g(x + e, y) - inst.grad_y_g(x - e, y)) / (2 * h)
            assert np.allclose(col_y, np.diag(inst.hess_yy_diag)[:, j], atol=1e-6)
            assert np.allclose(col_x, inst.Q2.T[:, j], atol=1e-6)


class TestSampling:
    def test_single_component(self, seed1_instance):
        rng = np.random.default_rng(0)
        assert all(sample_component(seed1_instance, rng) == 0 for _ in range(20))

    def test_uniform_frequencies(self):
        inst = generate_instance(2, 2, 1, seed=0, n_components=4)
        rng = np.random.default_rng(123)
        n = 100_000
        draws = np.array([sample_component(inst, rng) for _ in range(n)])
        # binomial 3-sigma band around n/4 per component
        sigma = np.sqrt(n * 0.25 * 0.75)
        for c in range(4):
            assert abs(np.sum(draws == c) - n / 4) <= 3 * sigma

    def test_finite_sum_identity(self):
        inst = generate_instance(3, 4, 2, seed=5, n_components=8)
        rng = np.random.default_rng(8)
        x, y = rng.standard_normal(3), rng.standard_normal(4)
        gx, gy = inst.grad_f(x, y)
        sx = np.mean([inst._grad_f(x, y, inst.cx[i], inst.cy[i])[0] for i in range(8)], axis=0)
        sy = np.mean([inst._grad_f(x, y, inst.cx[i], inst.cy[i])[1] for i in range(8)], axis=0)
        assert np.linalg.norm(sx - gx) <= 1e-12
        assert np.linalg.norm(sy - gy) <= 1e-12


class TestSerialization:
    def test_round_trip_lossless(self, seed1_instance):
        doc = instance_to_dict(seed1_instance)
        back = instance_from_dict(json.loads(json.dumps(doc)))
        assert np.array_equal(back.Q1, seed1_instance.Q1)
        assert np.array_equal(back.Q2, seed1_instance.Q2)
        assert np.array_equal(back.constraints.A, seed1_instance.constraints.A)
        assert np.array_equal(back.constraints.b, seed1_instance.constraints.b)
        assert fingerprint(back) == fingerprint(seed1_instance)

    def test_file_round_trip(self, tmp_path, small_instance):
        p = tmp_path / "inst.json"
        save_instance(small_instance, p)
        back = load_instance(p)
        assert fingerprint(back) == fingerprint(small_instance)
        assert np.array_equal(back.cx, small_instance.cx)

    def test_rejects_foreign_document(self, tmp_path):
        p = tmp_path / "junk.json"
        p.write_text('{"format": "something-else"}')
        with pytest.raises(ValueError):
            load_instance(p)

    @pytest.mark.parametrize("edit", [
        lambda doc: doc.pop("A"),
        lambda doc: doc.update(d_l="two"),
        lambda doc: doc.update(n_random_rows=None),
        lambda doc: doc.update(Q1="abc"),
    ], ids=["missing-key", "d_l-string", "rows-null", "Q1-string"])
    def test_malformed_document_raises_value_error(self, small_instance, edit):
        doc = instance_to_dict(small_instance)
        edit(doc)
        with pytest.raises(ValueError):
            instance_from_dict(doc)

    @pytest.mark.parametrize("mu_g", [1000, 1.0, None, "2.0"],
                             ids=["1000", "1.0", "null", "string"])
    def test_mu_g_other_than_two_rejected(self, small_instance, mu_g):
        # the family's g has Hessian 2I, so a document cannot claim another modulus
        doc = instance_to_dict(small_instance)
        doc["mu_g"] = mu_g
        with pytest.raises(ValueError, match="mu_g must be 2.0"):
            instance_from_dict(doc)

    @pytest.mark.parametrize("d, k, fp", [
        (10, 5, "770dcc9e8789e95f"),
        (50, 10, "815e033767604d72"),
        (200, 40, "7e50f64a9b0e9ad7"),
    ])
    def test_pinned_fingerprints(self, d, k, fp):
        assert generate_instance(d, d, k, seed=1).fingerprint == fp

    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_fingerprint_stable_under_round_trip(self, seed):
        inst = generate_instance(2, 2, 1, seed=seed)
        assert fingerprint(instance_from_dict(instance_to_dict(inst))) == fingerprint(inst)
