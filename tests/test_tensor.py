"""Unit tests for the dense numerical kernel: softmax, top-k selection, the
row scatter-add, Adam, and the finite-difference oracle itself."""

import math

import numpy as np
import pytest

from sain.tensor import (AdamState, adam_step, as_matrix, finite_diff_gradient,
                         relative_error, scatter_add_rows, softmax_row,
                         softmax_rows, top_k_indices, top_k_mask_rows)


class TestSoftmax:
    def test_two_logit_example(self):
        # exp(0) = 1 and exp(ln 3) = 3, so the weights are 1/4 and 3/4.
        out = softmax_row([0.0, math.log(3.0)])
        np.testing.assert_allclose(out, [0.25, 0.75], atol=1e-15)

    def test_equal_logits_are_uniform(self):
        np.testing.assert_allclose(softmax_row([2.0, 2.0, 2.0, 2.0]),
                                   np.full(4, 0.25), atol=1e-15)

    def test_single_element(self):
        np.testing.assert_allclose(softmax_row([7.3]), [1.0], atol=0)

    def test_shift_invariance(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            z = rng.normal(0.0, 3.0, size=6)
            np.testing.assert_allclose(softmax_row(z), softmax_row(z + 123.456),
                                       atol=1e-12)

    def test_large_logits_do_not_overflow(self):
        out = softmax_row([1000.0, 1001.0])
        assert np.all(np.isfinite(out))
        np.testing.assert_allclose(out.sum(), 1.0, atol=1e-15)

    def test_rows_match_single_row(self):
        rng = np.random.default_rng(1)
        z = rng.normal(size=(5, 7))
        rows = softmax_rows(z)
        for i in range(5):
            np.testing.assert_allclose(rows[i], softmax_row(z[i]), atol=1e-15)

    def test_rows_sum_to_one_on_3d_input(self):
        rng = np.random.default_rng(2)
        z = rng.normal(size=(3, 4, 6))
        np.testing.assert_allclose(softmax_rows(z).sum(axis=-1),
                                   np.ones((3, 4)), atol=1e-12)

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            softmax_row([])

    def test_non_finite_raises(self):
        with pytest.raises(ValueError):
            softmax_row([0.0, float("nan")])


class TestTopK:
    def test_basic_selection(self):
        np.testing.assert_array_equal(top_k_indices([1.0, 9.0, 3.0, 7.0], 2), [1, 3])

    def test_ties_go_to_smaller_index(self):
        np.testing.assert_array_equal(top_k_indices([5.0, 1.0, 5.0, 3.0], 2), [0, 2])
        np.testing.assert_array_equal(top_k_indices([2.0, 2.0, 2.0], 2), [0, 1])

    def test_k_larger_than_length_clamps(self):
        np.testing.assert_array_equal(top_k_indices([1.0, 2.0, 3.0], 10), [0, 1, 2])

    def test_matches_reference_selection(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            s = rng.integers(0, 5, size=8).astype(float)  # many ties
            k = int(rng.integers(1, 9))
            want = sorted(sorted(range(8), key=lambda i: (-s[i], i))[:k])
            np.testing.assert_array_equal(top_k_indices(s, k), want)

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            top_k_indices([1.0], 0)
        with pytest.raises(ValueError):
            top_k_indices([], 1)
        with pytest.raises(ValueError):
            top_k_mask_rows(np.ones((2, 3)), 0)

    def test_mask_rows_match_indices(self):
        rng = np.random.default_rng(4)
        for _ in range(30):
            w = rng.integers(0, 4, size=(5, 6)).astype(float)
            k = int(rng.integers(1, 7))
            mask = top_k_mask_rows(w, k)
            assert mask.shape == w.shape
            for i in range(5):
                want = np.zeros(6, dtype=bool)
                want[top_k_indices(w[i], k)] = True
                np.testing.assert_array_equal(mask[i], want)

    def test_mask_works_on_3d_batches(self):
        rng = np.random.default_rng(5)
        w = rng.normal(size=(2, 3, 5))
        mask = top_k_mask_rows(w, 2)
        assert mask.shape == w.shape
        np.testing.assert_array_equal(mask.sum(axis=-1), np.full((2, 3), 2))


class TestScatterAddRows:
    def test_equals_add_at_bit_for_bit(self):
        rng = np.random.default_rng(17)
        # 40 rows, 300 contributions: every row that is hit is hit repeatedly,
        # rows 30..39 are never hit, and the magnitudes span 12 decades so any
        # change in summation order would show in the last bits.
        rows = rng.integers(0, 30, size=300)
        values = rng.normal(size=(300, 5)) * 10.0 ** rng.integers(-6, 6, (300, 1))
        expected = np.zeros((40, 5))
        np.add.at(expected, rows, values)
        got = scatter_add_rows(rows, values, 40)
        assert got.shape == (40, 5)
        assert np.array_equal(got, expected)
        assert got.tobytes() == expected.tobytes()
        assert not got[30:].any()

    def test_zero_contributions_and_empty_input(self):
        np.testing.assert_array_equal(
            scatter_add_rows(np.asarray([1, 1]), np.asarray([[2.0], [-2.0]]), 3),
            [[0.0], [0.0], [0.0]])
        out = scatter_add_rows(np.zeros(0, dtype=np.int64), np.zeros((0, 4)), 2)
        np.testing.assert_array_equal(out, np.zeros((2, 4)))


class TestAdam:
    def test_first_step_moves_by_learning_rate(self):
        # With bias correction the very first step is lr * g / (|g| + eps).
        p = np.asarray([1.0])
        state = AdamState.for_param(p)
        new_p, new_state = adam_step(p, np.asarray([1.0]), state, lr=0.1)
        assert math.isclose(new_p[0], 0.9, abs_tol=1e-7)
        assert new_state.t == 1
        np.testing.assert_allclose(new_state.m, [0.1], atol=1e-15)
        np.testing.assert_allclose(new_state.v, [0.001], atol=1e-15)

    def test_decay_only_step(self):
        # Zero gradient leaves the Adam term at zero; only the decoupled decay
        # moves the parameter: 1 - lr * wd = 0.95.
        p = np.asarray([1.0])
        state = AdamState.for_param(p)
        new_p, _ = adam_step(p, np.zeros(1), state, lr=0.1, weight_decay=0.5)
        assert math.isclose(new_p[0], 0.95, abs_tol=1e-15)

    def test_zero_grad_zero_decay_is_identity(self):
        rng = np.random.default_rng(6)
        p = rng.normal(size=(3, 4))
        new_p, _ = adam_step(p, np.zeros_like(p), AdamState.for_param(p), lr=0.1)
        np.testing.assert_array_equal(new_p, p)

    def test_decay_is_decoupled_from_moments(self):
        # The decay term must not leak into m/v: moments match the no-decay run.
        p = np.asarray([2.0, -1.0])
        g = np.asarray([0.3, 0.7])
        _, s_plain = adam_step(p, g, AdamState.for_param(p), lr=0.01)
        _, s_decay = adam_step(p, g, AdamState.for_param(p), lr=0.01,
                               weight_decay=0.5)
        np.testing.assert_array_equal(s_plain.m, s_decay.m)
        np.testing.assert_array_equal(s_plain.v, s_decay.v)

    def test_steps_descend_a_quadratic(self):
        p = np.asarray([5.0])
        state = AdamState.for_param(p)
        for _ in range(200):
            p, state = adam_step(p, 2.0 * p, state, lr=0.1)
        assert abs(p[0]) < 0.1

    def test_shape_mismatch_raises(self):
        p = np.zeros(3)
        with pytest.raises(ValueError):
            adam_step(p, np.zeros(4), AdamState.for_param(p), lr=0.1)


class TestFiniteDifference:
    def test_quadratic_gradient(self):
        rng = np.random.default_rng(7)
        x = rng.normal(size=5)
        grad = finite_diff_gradient(lambda v: float(np.sum(v * v)), x)
        np.testing.assert_allclose(grad, 2.0 * x, atol=1e-9)

    def test_constant_function(self):
        grad = finite_diff_gradient(lambda v: 4.25, np.ones(4))
        np.testing.assert_allclose(grad, np.zeros(4), atol=1e-12)

    def test_product_function(self):
        x = np.asarray([3.0, -2.0])
        grad = finite_diff_gradient(lambda v: float(v[0] * v[1]), x)
        np.testing.assert_allclose(grad, [-2.0, 3.0], atol=1e-9)

    def test_invalid_eps(self):
        with pytest.raises(ValueError):
            finite_diff_gradient(lambda v: 0.0, np.ones(2), eps=0.0)

    def test_non_finite_evaluation_names_coordinate(self):
        def bad(v):
            return float("nan") if v[1] != 0.5 else 0.0

        with pytest.raises(ValueError, match="coordinate 1"):
            finite_diff_gradient(bad, np.asarray([0.5, 0.5]))


class TestRelativeError:
    def test_small_values_use_absolute_scale(self):
        assert math.isclose(relative_error([0.0], [1e-5]), 1e-5, rel_tol=1e-12)

    def test_large_values_use_relative_scale(self):
        assert math.isclose(relative_error([100.0], [101.0]), 1.0 / 101.0,
                            rel_tol=1e-12)

    def test_exact_match_is_zero(self):
        rng = np.random.default_rng(8)
        a = rng.normal(size=10)
        assert relative_error(a, a.copy()) == 0.0

    def test_empty_is_zero(self):
        assert relative_error([], []) == 0.0

    def test_takes_the_max_over_entries(self):
        err = relative_error([1.0, 0.0], [1.0, 0.5])
        assert math.isclose(err, 0.5, rel_tol=1e-12)


class TestAsMatrix:
    def test_accepts_nested_lists(self):
        m = as_matrix([[1, 2], [3, 4]], rows=2, cols=2)
        assert m.dtype == np.float64

    def test_rejects_wrong_rank_and_shape(self):
        with pytest.raises(ValueError):
            as_matrix([1.0, 2.0])
        with pytest.raises(ValueError):
            as_matrix([[1.0, 2.0]], rows=2)
        with pytest.raises(ValueError):
            as_matrix([[1.0, 2.0]], cols=3)
