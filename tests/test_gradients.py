"""Finite-difference certification of the hand-derived gradients across model
variants, plus structural gradient properties that the oracle cannot see."""

import numpy as np
import pytest

from sain.data import pack_features
from sain.gradcheck import (TOLERANCE, _toy_entities, _toy_vocab, build_sain_fixture,
                            check_biasedmf, check_sain, run_suite)
from sain.model import backward, forward_batch, joint_loss

from oracles import slots_of


def test_toy_entities_keep_the_per_entity_draws():
    """The toy record holds what one draw per entity gave, and leaves the
    generator where those draws left it."""
    for seed in range(5):
        rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        want = []
        for _ in range(6):
            single = [int(ref.integers(0, 3))]
            multi = sorted(ref.choice(3, size=int(ref.integers(1, 3)),
                                      replace=False).tolist())
            want.append([single, multi])
        vocab = _toy_vocab()
        packed = pack_features(*_toy_entities(rng, 6), vocab, "user")
        assert slots_of(packed, vocab, "user") == want
        assert rng.random() == ref.random()


class TestSainGradients:
    def test_eval_mode_cases(self):
        for seed in range(4):
            report = check_sain(seed, top_k=2 + seed % 3)
            assert report.max_rel_err < TOLERANCE, report

    def test_train_mode_batch_statistics(self):
        # Batch-norm backward through batch statistics is the hard path.
        for seed in range(3):
            report = check_sain(seed, mode="train")
            assert report.max_rel_err < TOLERANCE, report

    def test_without_renormalization(self):
        report = check_sain(5, top_k=2, renormalize_topk=False)
        assert report.max_rel_err < TOLERANCE, report

    def test_shared_gate(self):
        report = check_sain(6, gate_shared=True)
        assert report.max_rel_err < TOLERANCE, report

    def test_unequal_loss_weights(self):
        report = check_sain(7, loss_weights=(0.25, 2.0, 1.5))
        assert report.max_rel_err < TOLERANCE, report

    def test_combined_only_loss(self):
        report = check_sain(8, loss_weights=(0.0, 0.0, 1.0))
        assert report.max_rel_err < TOLERANCE, report

    def test_top1_filtering(self):
        report = check_sain(9, top_k=1)
        assert report.max_rel_err < TOLERANCE, report


class TestBiasedMfGradients:
    def test_cases(self):
        for seed in range(6):
            report = check_biasedmf(seed)
            assert report.max_rel_err < TOLERANCE, report


class TestStructuralProperties:
    def test_zero_error_means_zero_gradient(self):
        # With weight only on the combined score and ratings equal to it, the
        # loss sits at an exact minimum of value zero.
        fx = build_sain_fixture(10, loss_weights=(0.0, 0.0, 1.0))
        trace = forward_batch(fx.uids, fx.iids, fx.user_packed, fx.item_packed,
                              fx.params)
        loss, _ = joint_loss(trace, trace.score_combined, fx.params.config.loss_weights)
        assert loss == 0.0
        grads = backward(trace, trace.score_combined, fx.params)
        for name, g in grads.items():
            assert np.max(np.abs(g)) < 1e-12, name

    def test_gate_bias_gradient_is_exactly_zero(self):
        # The same affine bias is added to both gate logits, so it cancels in
        # the difference and can never receive gradient.
        fx = build_sain_fixture(11)
        trace = forward_batch(fx.uids, fx.iids, fx.user_packed, fx.item_packed,
                              fx.params)
        grads = backward(trace, fx.ratings, fx.params)
        np.testing.assert_array_equal(grads["gate_user_b"], [0.0])
        np.testing.assert_array_equal(grads["gate_item_b"], [0.0])

    def test_eval_batch_gradient_is_mean_of_singles(self):
        # Eval-mode rows are independent, so the batch gradient of the mean
        # loss equals the average of per-row gradients.
        fx = build_sain_fixture(12, batch=3)
        whole = forward_batch(fx.uids, fx.iids, fx.user_packed, fx.item_packed,
                              fx.params)
        grads_whole = backward(whole, fx.ratings, fx.params)
        summed = {k: np.zeros_like(v) for k, v in grads_whole.items()}
        for j in range(3):
            one = forward_batch(fx.uids[j:j + 1], fx.iids[j:j + 1], fx.user_packed,
                                fx.item_packed, fx.params)
            g = backward(one, fx.ratings[j:j + 1], fx.params)
            for k in summed:
                summed[k] += g[k] / 3.0
        for k in grads_whole:
            np.testing.assert_allclose(grads_whole[k], summed[k], atol=1e-12)

    def test_fixture_redraw_is_deterministic(self):
        a = build_sain_fixture(13)
        b = build_sain_fixture(13)
        np.testing.assert_array_equal(a.params.flatten(), b.params.flatten())
        np.testing.assert_array_equal(a.ratings, b.ratings)


class TestSuite:
    def test_small_suite_passes(self):
        report = run_suite(num_seeds=3)
        assert len(report.cases) == 6
        assert report.passed
        assert {c.model for c in report.cases} == {"sain", "biasedmf"}
