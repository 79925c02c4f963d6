"""Model tests: configuration validation, embedding lookup, the attention head
oracle against hand-computed values, the interaction block, aggregation,
gating, scoring, and full forward-pass invariants. Every stage is read off
the trace of the batched pass, forward_batch; hand examples set the
parameter tensors that the stage reads."""

import math
import re
from dataclasses import asdict, replace
from types import SimpleNamespace

import numpy as np
import pytest

from sain import model
from sain.data import pack_features
from sain.errors import ShapeError
from sain.model import (FieldLayout, ModelConfig, SainParams, backward,
                        decayed_names, forward_batch, joint_loss)
from sain.seeding import stream_rng
from sain.tensor import scatter_add_rows

from conftest import small_params
from oracles import attention_head, encoded, head_outputs, scores

E = math.e


class TestModelConfig:
    def test_defaults(self):
        cfg = ModelConfig()
        assert cfg.embed_dim == 64 and cfg.num_heads == 2 and cfg.top_k == 8
        assert cfg.dropout_rate == 0.1 and cfg.head_dim == 32
        assert cfg.loss_weights == (1.0, 1.0, 1.0)
        assert cfg.renormalize_topk and not cfg.gate_shared

    def test_head_divisibility(self):
        with pytest.raises(ShapeError):
            ModelConfig(embed_dim=5, num_heads=2)

    @pytest.mark.parametrize("embed_dim, num_heads", [(0, 2), (-4, 2), (8, 0),
                                                      (8, -2), (0, 0)])
    def test_sizes_must_be_positive(self, embed_dim, num_heads):
        with pytest.raises(ValueError, match="must be >= 1"):
            ModelConfig(embed_dim=embed_dim, num_heads=num_heads)

    def test_value_validation(self):
        with pytest.raises(ValueError):
            ModelConfig(top_k=0)
        with pytest.raises(ValueError):
            ModelConfig(dropout_rate=1.0)
        with pytest.raises(ValueError, match="num_attention_layers is fixed at 1"):
            ModelConfig.from_dict({"num_attention_layers": 2})
        with pytest.raises(ValueError):
            ModelConfig(loss_weights=(1.0, 1.0))
        with pytest.raises(ValueError):
            ModelConfig(l2_scope="none")

    @pytest.mark.parametrize("field", ["embed_dim", "num_heads", "top_k",
                                       "num_attention_layers"])
    @pytest.mark.parametrize("value", [8.0, 1.0, True])
    def test_integer_fields_reject_floats_and_bools(self, field, value):
        # num_attention_layers is no longer a field: from_dict, which reads
        # run configs and checkpoint headers, accepts only the integer 1.
        want = ("is fixed at 1" if field == "num_attention_layers"
                else "must be an integer")
        with pytest.raises(ValueError, match=f"{field} {want}"):
            ModelConfig.from_dict({field: value})

    def test_layer_count_1_is_dropped(self):
        cfg = ModelConfig.from_dict({"num_attention_layers": 1, "top_k": 3})
        assert cfg == ModelConfig(top_k=3)
        assert "num_attention_layers" not in asdict(cfg)

    @pytest.mark.parametrize("field, value", [
        ("dropout_rate", "0.1"), ("dropout_rate", True), ("bn_epsilon", None),
        ("gate_shared", 1), ("renormalize_topk", "yes")])
    def test_other_fields_reject_wrong_types(self, field, value):
        with pytest.raises(ValueError, match=field):
            ModelConfig(**{field: value})

    @pytest.mark.parametrize("field, value", [
        ("bn_epsilon", 0.0), ("bn_epsilon", -1.0), ("bn_epsilon", float("nan")),
        ("bn_epsilon", float("inf")), ("bn_momentum", -0.1), ("bn_momentum", 1.5),
        ("bn_momentum", float("nan")), ("loss_weights", (1.0, -1.0, 1.0)),
        ("loss_weights", (float("nan"), 1.0, 1.0)),
        ("loss_weights", (1.0, float("inf"), 1.0)), ("loss_weights", (0.0, 0.0, 0.0)),
        ("loss_weights", (1.0, "a", 1.0)), ("loss_weights", 3.0)])
    def test_batch_norm_and_loss_weight_ranges(self, field, value):
        with pytest.raises(ValueError, match=field):
            ModelConfig(**{field: value})

    def test_accepts_boundary_values(self):
        ModelConfig(bn_epsilon=1e-300, bn_momentum=0.0, loss_weights=(0, 0, 1))
        cfg = ModelConfig(bn_momentum=1.0, loss_weights=[2, 0.0, 0])
        assert cfg.loss_weights == (2.0, 0.0, 0.0)

    def test_dict_round_trip(self):
        cfg = ModelConfig(embed_dim=8, num_heads=4, top_k=2, dropout_rate=0.0,
                          loss_weights=(0.5, 1.0, 2.0), gate_shared=True,
                          renormalize_topk=False, l2_scope="embeddings")
        assert ModelConfig.from_dict(asdict(cfg)) == cfg


class TestFieldLayout:
    def test_from_vocab_and_dict_round_trip(self, prepared):
        layout = FieldLayout.from_vocab(prepared.vocab, prepared.num_users,
                                        prepared.num_items)
        assert layout.m == 2 and layout.n == 2 and layout.seq_len == 4
        assert layout.fields == ["gender", "age", "genre", "tag"]
        vocab = prepared.vocab
        assert layout.total_rows == sum(vocab.field_size(f) for f in vocab.fields)
        # The layout's fields, in order, tile the vocab's embedding rows.
        sizes = [layout.sizes[f] for f in layout.fields]
        offsets = prepared.vocab.offsets()
        assert [offsets[f] for f in layout.fields] == np.cumsum([0] + sizes[:-1]).tolist()
        assert asdict(FieldLayout.from_dict(asdict(layout))) == asdict(layout)


class TestParams:
    def test_shapes_and_registry(self, prepared):
        params, cfg = small_params(prepared, seed=1)
        d, dh = cfg.embed_dim, cfg.head_dim
        t = params.tensors
        assert t["embeddings"].shape == (params.layout.total_rows, d)
        assert t["cf_user"].shape == (prepared.num_users, d)
        assert t["attn0_wq"].shape == (d, dh)
        assert t["agg_user_w"].shape == (params.layout.m * d, d)
        assert t["bn_gamma"].shape == (d,)
        assert t["gate_user_w"].shape == (d,)
        # The registration order drives init draws, Adam and the checkpoint.
        assert list(t) == ["embeddings", "cf_user", "cf_item",
                           "attn0_wq", "attn0_wk", "attn0_wv",
                           "attn1_wq", "attn1_wk", "attn1_wv",
                           "agg_user_w", "agg_user_b", "agg_item_w", "agg_item_b",
                           "bn_gamma", "bn_beta", "gate_user_w", "gate_user_b",
                           "gate_item_w", "gate_item_b"]
        np.testing.assert_array_equal(params.bn_mean, np.zeros(d))
        np.testing.assert_array_equal(params.bn_var, np.ones(d))

    def test_flatten_set_flat_round_trip(self, prepared):
        params, _ = small_params(prepared, seed=2)
        flat = params.flatten()
        probe = params.clone()
        probe.set_flat(flat + 1.0)
        np.testing.assert_allclose(probe.flatten(), flat + 1.0, atol=0)
        with pytest.raises(ShapeError):
            probe.set_flat(flat[:-1])

    def test_clone_is_independent(self, prepared):
        params, _ = small_params(prepared, seed=3)
        other = params.clone()
        other.tensors["bn_gamma"][0] = 99.0
        assert params.tensors["bn_gamma"][0] != 99.0

    def test_gate_registry_names(self, prepared):
        params, _ = small_params(prepared, seed=4)
        assert params.gate_name("user") == "gate_user_w"
        assert params.gate_name("item") == "gate_item_w"
        shared, _ = small_params(prepared, seed=4, gate_shared=True)
        assert shared.gate_name("user") == shared.gate_name("item") == "gate_w"

    @pytest.mark.parametrize("field, value, needs", [
        ("num_heads", 4, "attn0_wq (8, 2)"), ("gate_shared", True, "gate_w (8,)")])
    def test_a_config_that_does_not_fit_the_tensors_is_refused(
            self, prepared, field, value, needs):
        params, cfg = small_params(prepared, seed=4)
        other = replace(cfg, **{field: value})
        want = f"the config does not fit the tensors: it needs {needs}"
        with pytest.raises(ShapeError, match=re.escape(want)):
            SainParams(params.layout, other, params.tensors, params.bn_mean,
                       params.bn_var)
        probe = params.clone()
        with pytest.raises(ShapeError, match=re.escape(want)):
            probe.config = other
        assert probe.config is cfg
        probe.config = replace(cfg, top_k=1, renormalize_topk=False)
        assert probe.config.top_k == 1

    def test_same_seed_same_init(self, prepared):
        a, _ = small_params(prepared, seed=5)
        b, _ = small_params(prepared, seed=5)
        np.testing.assert_array_equal(a.flatten(), b.flatten())

    def test_decay_scopes(self, prepared):
        params, _ = small_params(prepared, seed=6)
        every = decayed_names(params, "all")
        emb = decayed_names(params, "embeddings")
        proj = decayed_names(params, "projections")
        assert every == set(params.tensors)
        assert emb == {"embeddings", "cf_user", "cf_item"}
        assert proj == every - emb


def _one_pair(prepared, user_slots, item_slots):
    """Packed tables holding one user and one item with the given slots."""
    return (pack_features(*encoded([user_slots]), prepared.vocab, "user"),
            pack_features(*encoded([item_slots]), prepared.vocab, "item"))


class TestEmbedPair:
    def test_rows_and_mean_pooling(self, prepared):
        params, cfg = small_params(prepared, seed=7)
        emb = params.tensors["embeddings"]
        offsets = prepared.vocab.offsets()
        users, items = _one_pair(prepared, [[1], [0]], [[0, 2], [1]])
        x = forward_batch([0], [0], users, items, params).x[0]
        assert x.shape == (4, 8)
        np.testing.assert_array_equal(x[0], emb[offsets["gender"] + 1])
        np.testing.assert_allclose(
            x[2], (emb[offsets["genre"]] + emb[offsets["genre"] + 2]) / 2.0,
            atol=1e-15)

    def test_out_of_range_index_rejected(self, prepared):
        with pytest.raises(ShapeError, match="gender"):
            _one_pair(prepared, [[999], [0]], [[0], [0]])


class TestAttentionHead:
    # Two positions, one head dim. q = [1, 0], k = [0, 1], v = [2, 1], so the
    # logit matrix is [[0, 1], [0, 0]] and row 1 is an exact tie.
    X = np.asarray([[1.0, 0.0], [0.0, 1.0]])
    WQ = np.asarray([[1.0], [0.0]])
    WK = np.asarray([[0.0], [1.0]])
    WV = np.asarray([[2.0], [1.0]])

    def test_full_attention_hand_values(self):
        out, alpha, ahat = attention_head(self.X, self.WQ, self.WK, self.WV, k=2)
        np.testing.assert_allclose(alpha[0], [1.0 / (1.0 + E), E / (1.0 + E)],
                                   atol=1e-15)
        np.testing.assert_allclose(alpha[1], [0.5, 0.5], atol=1e-15)
        np.testing.assert_allclose(out[:, 0], [(2.0 + E) / (1.0 + E), 1.5],
                                   atol=1e-15)
        np.testing.assert_allclose(ahat, alpha, atol=1e-15)

    def test_top1_renormalized_keeps_winner_and_breaks_tie_low(self):
        out, _, ahat = attention_head(self.X, self.WQ, self.WK, self.WV, k=1)
        # Row 0 keeps position 1 (weight e/(1+e)); the row-1 tie keeps position 0.
        np.testing.assert_allclose(ahat, [[0.0, 1.0], [1.0, 0.0]], atol=1e-12)
        np.testing.assert_allclose(out[:, 0], [1.0, 2.0], atol=1e-12)

    def test_top1_without_renormalization(self):
        out, _, ahat = attention_head(self.X, self.WQ, self.WK, self.WV, k=1,
                                      renormalize=False)
        np.testing.assert_allclose(ahat[0], [0.0, E / (1.0 + E)], atol=1e-15)
        np.testing.assert_allclose(out[:, 0], [E / (1.0 + E), 1.0], atol=1e-15)

    def test_zero_query_projection_is_uniform(self):
        rng = np.random.default_rng(11)
        x = rng.normal(size=(5, 4))
        wk = rng.normal(size=(4, 2))
        wv = rng.normal(size=(4, 2))
        out, alpha, _ = attention_head(x, np.zeros((4, 2)), wk, wv, k=5)
        np.testing.assert_allclose(alpha, np.full((5, 5), 0.2), atol=1e-15)
        # Uniform rows average the values: every output row is mean(x) @ wv.
        np.testing.assert_allclose(out, np.tile(x.mean(axis=0) @ wv, (5, 1)),
                                   atol=1e-12)

    def test_uniform_rows_top_k_keeps_lowest_indices(self):
        rng = np.random.default_rng(12)
        x = rng.normal(size=(4, 4))
        _, _, ahat = attention_head(x, np.zeros((4, 2)), rng.normal(size=(4, 2)),
                                    rng.normal(size=(4, 2)), k=2)
        np.testing.assert_allclose(ahat, np.tile([0.5, 0.5, 0.0, 0.0], (4, 1)),
                                   atol=1e-12)

    def test_k_at_least_sequence_length_is_identity_filter(self):
        rng = np.random.default_rng(13)
        x = rng.normal(size=(6, 4))
        wq, wk, wv = (rng.normal(size=(4, 2)) for _ in range(3))
        out_s, alpha_s, _ = attention_head(x, wq, wk, wv, k=6)
        out_big, _, _ = attention_head(x, wq, wk, wv, k=60)
        out_raw, alpha_raw, ahat_raw = attention_head(x, wq, wk, wv, k=60,
                                                      renormalize=False)
        np.testing.assert_array_equal(out_s, out_big)
        np.testing.assert_allclose(out_s, out_raw, atol=1e-12)
        np.testing.assert_allclose(alpha_s.sum(axis=1), np.ones(6), atol=1e-12)
        np.testing.assert_array_equal(alpha_raw, ahat_raw)

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(14)
        x = rng.normal(size=(5, 4))
        wq, wk, wv = (rng.normal(size=(4, 2)) for _ in range(3))
        perm = rng.permutation(5)
        out, _, _ = attention_head(x, wq, wk, wv, k=5)
        out_p, _, _ = attention_head(x[perm], wq, wk, wv, k=5)
        np.testing.assert_allclose(out_p, out[perm], atol=1e-12)

    def test_invalid_k(self):
        with pytest.raises(ValueError):
            attention_head(self.X, self.WQ, self.WK, self.WV, k=0)


def _batch(prepared, size, seed):
    rng = np.random.default_rng(seed)
    uids = rng.integers(0, prepared.num_users, size=size)
    iids = rng.integers(0, prepared.num_items, size=size)
    return uids, iids


def _run(prepared, params, uids=(3,), iids=(2,), **kwargs):
    return forward_batch(np.asarray(uids), np.asarray(iids), prepared.user_packed,
                         prepared.item_packed, params, **kwargs)


class TestInteractionBlock:
    """Attention, batch norm, dropout, the residual and ReLU, from x to xbar."""

    def test_zero_value_projection_reduces_to_relu_identity(self, prepared):
        # With W_V = 0 the heads emit zeros; fresh batch-norm state maps zeros
        # to zeros, so the block is ReLU(x).
        params, cfg = small_params(prepared, seed=15)
        for h in range(cfg.num_heads):
            params.tensors[f"attn{h}_wv"][:] = 0.0
        trace = _run(prepared, params, *_batch(prepared, 4, seed=16))
        np.testing.assert_allclose(trace.xbar, np.maximum(trace.x, 0.0), atol=1e-9)

    def test_train_dropout_requires_rng(self, prepared):
        params, cfg = small_params(prepared, seed=17, dropout_rate=0.5)
        with pytest.raises(ValueError, match="rng"):
            _run(prepared, params, mode="train")

    def test_eval_ignores_dropout(self, prepared):
        params, cfg = small_params(prepared, seed=18, dropout_rate=0.5)
        a = _run(prepared, params, *_batch(prepared, 4, seed=18))
        b = _run(prepared, params, *_batch(prepared, 4, seed=18))
        assert a.dropout_mask is None
        np.testing.assert_array_equal(a.xbar, b.xbar)

    def test_train_dropout_zeroes_and_rescales(self, prepared):
        params, cfg = small_params(prepared, seed=19, dropout_rate=0.4)
        pairs = _batch(prepared, 6, seed=19)
        a = _run(prepared, params, *pairs, mode="train",
                 dropout_rng=stream_rng(0, "dropout"))
        b = _run(prepared, params, *pairs, mode="train",
                 dropout_rng=stream_rng(0, "dropout"))
        np.testing.assert_array_equal(a.xbar, b.xbar)
        c = _run(prepared, params, *pairs, mode="train",
                 dropout_rng=stream_rng(1, "dropout"))
        assert not np.array_equal(a.xbar, c.xbar)


def _padded(v, d):
    return np.concatenate([np.asarray(v, dtype=np.float64), np.zeros(d - len(v))])


def _set_vectors(params, cfg, side="user", cf=(), content=(), uid=3, iid=2):
    """Make one side's CF vector (the row of uid or iid) and content vector
    the given ones, zero-padded to d. The content vector is the aggregation
    bias, under zero aggregation weights."""
    d, t = cfg.embed_dim, params.tensors
    t[f"agg_{side}_w"] = np.zeros(t[f"agg_{side}_w"].shape)
    t[f"agg_{side}_b"] = _padded(content, d)
    t[f"cf_{side}"][uid if side == "user" else iid] = _padded(cf, d)


class TestAggregationAndScores:
    def test_affine_aggregation_hand_example(self, prepared):
        params, cfg = small_params(prepared, seed=20)
        d, t = cfg.embed_dim, params.tensors
        for h in range(cfg.num_heads):     # xbar = relu(x), as above
            t[f"attn{h}_wv"][:] = 0.0
        # Channel 0 of the user's gender and age positions: 3 and 4.
        gender_row, age_row = prepared.user_packed.rows[3, :2]
        t["embeddings"][gender_row, 0] = 3.0
        t["embeddings"][age_row, 0] = 4.0
        t["agg_user_w"][:] = 0.0
        # First output channel sums channel 0 of both user positions: 3 + 4.
        t["agg_user_w"][0, 0] = 1.0
        t["agg_user_w"][d, 0] = 1.0
        t["agg_user_b"][:] = 0.0
        t["agg_user_b"][1] = 0.25
        trace = _run(prepared, params)
        assert (trace.xbar[0, 0, 0], trace.xbar[0, 1, 0]) == (3.0, 4.0)
        xu = trace.content["user"][0]
        assert math.isclose(xu[0], 7.0, abs_tol=1e-15)
        assert math.isclose(xu[1], 0.25, abs_tol=1e-15)

    def test_scores_are_dot_products(self, prepared):
        a = [1.0, 2.0, -1.0]
        b = [0.5, 0.25, 2.0]
        params, cfg = small_params(prepared, seed=20)
        _set_vectors(params, cfg, "user", cf=a, content=a)
        _set_vectors(params, cfg, "item", cf=b, content=b)
        trace = _run(prepared, params)
        assert math.isclose(trace.score_content[0], -1.0, abs_tol=1e-15)
        assert math.isclose(trace.score_preference[0], np.dot(a, b), abs_tol=1e-15)


def integration_gate(prepared, x_cf, x_bar, w, b=0.0):
    """The user side's gate on one pair whose CF vector is x_cf and content
    vector x_bar, under gate weight w and bias b. Returns (blend weight,
    combined vector), cut back to the given length."""
    params, cfg = small_params(prepared, seed=21)
    _set_vectors(params, cfg, "user", cf=x_cf, content=x_bar)
    params.tensors["gate_user_w"] = _padded(w, cfg.embed_dim)
    params.tensors["gate_user_b"] = [b]
    trace = _run(prepared, params)
    return trace.gate_alpha["user"][0], trace.combined["user"][0, :len(x_cf)]


class TestIntegrationGate:
    def test_zero_weight_is_even_blend(self, prepared):
        a, combined = integration_gate(prepared, np.asarray([2.0, 0.0]),
                                       np.asarray([0.0, 2.0]), np.zeros(2))
        assert a == 0.5
        np.testing.assert_allclose(combined, [1.0, 1.0], atol=1e-15)

    def test_log3_logit_gives_three_quarters(self, prepared):
        x_cf = np.asarray([1.0, 0.0])
        x_bar = np.asarray([0.0, 0.0])
        a, combined = integration_gate(prepared, x_cf, x_bar,
                                       np.asarray([math.log(3.0), 0.0]))
        assert math.isclose(a, 0.75, abs_tol=1e-15)
        np.testing.assert_allclose(combined, [0.75, 0.0], atol=1e-15)

    def test_bias_cancels_in_the_logit_difference(self, prepared):
        x_cf = np.asarray([1.0, 2.0])
        x_bar = np.asarray([0.5, -1.0])
        w = np.asarray([0.3, -0.7])
        a0, _ = integration_gate(prepared, x_cf, x_bar, w, b=0.0)
        a9, _ = integration_gate(prepared, x_cf, x_bar, w, b=9.0)
        assert a0 == a9

    def test_equal_vectors_blend_to_themselves(self, prepared):
        v = np.asarray([1.5, -0.5])
        a, combined = integration_gate(prepared, v, v.copy(), np.asarray([2.0, 1.0]))
        assert a == 0.5
        np.testing.assert_allclose(combined, v, atol=1e-15)

    def test_extreme_logits_saturate_without_overflow(self, prepared):
        x_cf = np.asarray([1.0])
        x_bar = np.asarray([0.0])
        with np.errstate(over="raise"):
            a_hi, c_hi = integration_gate(prepared, x_cf, x_bar, np.asarray([800.0]))
            a_lo, c_lo = integration_gate(prepared, x_cf, x_bar, np.asarray([-800.0]))
        assert a_hi == 1.0 and a_lo == 0.0
        np.testing.assert_allclose(c_hi, x_cf, atol=1e-15)
        np.testing.assert_allclose(c_lo, x_bar, atol=1e-15)


class TestForward:
    def test_trace_shapes_and_attention_invariants(self, prepared):
        params, cfg = small_params(prepared, seed=21, top_k=2)
        uids, iids = _batch(prepared, 6, seed=22)
        trace = forward_batch(uids, iids, prepared.user_packed,
                              prepared.item_packed, params)
        S = params.layout.seq_len
        assert trace.x.shape == (6, S, cfg.embed_dim)
        assert scores(trace).shape == (6, 3)
        for h in range(cfg.num_heads):
            sums = trace.alpha_full[:, h].sum(axis=-1)
            np.testing.assert_allclose(sums, np.ones((6, S)), atol=1e-9)
            nonzero = (trace.alpha_topk[:, h] > 0).sum(axis=-1)
            assert nonzero.max() <= min(cfg.top_k, S)
            renorm_sums = trace.alpha_topk[:, h].sum(axis=-1)
            np.testing.assert_allclose(renorm_sums, np.ones((6, S)), atol=1e-9)

    @pytest.mark.parametrize("top_k", [2, 4, 6])
    @pytest.mark.parametrize("renormalize", [True, False])
    def test_heads_axis_matches_the_per_head_oracle(self, prepared, top_k,
                                                    renormalize):
        """Every (b, h) slice of the all-heads trace equals attention_head run
        on that sequence with that head's weights. The sequence has S = 4, so
        top_k 2 filters and top_k 4 and 6 keep every entry."""
        params, cfg = small_params(prepared, seed=40, embed_dim=8, num_heads=4,
                                   top_k=top_k, renormalize_topk=renormalize)
        uids, iids = _batch(prepared, 7, seed=41)
        trace = forward_batch(uids, iids, prepared.user_packed,
                              prepared.item_packed, params)
        S, H, dh = params.layout.seq_len, cfg.num_heads, cfg.head_dim
        assert trace.alpha_full.shape == trace.alpha_topk.shape == (7, H, S, S)
        assert trace.topk_mask.shape == (7, H, S, S)
        assert trace.q.shape == trace.k.shape == trace.v.shape == (7, H, S, dh)
        assert trace.sel_sum.shape == (7, H, S, 1)
        t = params.tensors
        for b in range(7):
            for h in range(H):
                wq, wk, wv = (t[f"attn{h}_w{p}"] for p in "qkv")
                out, alpha, ahat = attention_head(trace.x[b], wq, wk, wv, top_k,
                                                  renormalize=renormalize)
                np.testing.assert_allclose(trace.alpha_full[b, h], alpha,
                                           rtol=0, atol=1e-12)
                np.testing.assert_allclose(trace.alpha_topk[b, h], ahat,
                                           rtol=0, atol=1e-12)
                np.testing.assert_array_equal(trace.topk_mask[b, h], ahat > 0)
                np.testing.assert_allclose(trace.q[b, h], trace.x[b] @ wq,
                                           rtol=0, atol=1e-12)
                np.testing.assert_allclose(head_outputs(trace)[b, :, h * dh:(h + 1) * dh],
                                           out, rtol=0, atol=1e-12)

    def test_gates_in_open_interval_and_combined_between_endpoints(self, prepared):
        params, cfg = small_params(prepared, seed=23)
        uids, iids = _batch(prepared, 8, seed=24)
        trace = forward_batch(uids, iids, prepared.user_packed,
                              prepared.item_packed, params)
        for side in ("user", "item"):
            a = trace.gate_alpha[side]
            cf, ct, comb = trace.cf[side], trace.content[side], trace.combined[side]
            assert np.all(a > 0.0) and np.all(a < 1.0)
            lo = np.minimum(cf, ct) - 1e-12
            hi = np.maximum(cf, ct) + 1e-12
            assert np.all(comb >= lo) and np.all(comb <= hi)

    def test_eval_mode_is_deterministic(self, prepared):
        params, cfg = small_params(prepared, seed=25)
        uids, iids = _batch(prepared, 5, seed=26)
        a = forward_batch(uids, iids, prepared.user_packed, prepared.item_packed,
                          params)
        b = forward_batch(uids, iids, prepared.user_packed, prepared.item_packed,
                          params)
        np.testing.assert_array_equal(scores(a), scores(b))

    def test_eval_mode_leaves_running_stats_alone(self, prepared):
        params, cfg = small_params(prepared, seed=27)
        uids, iids = _batch(prepared, 5, seed=28)
        trace = forward_batch(uids, iids, prepared.user_packed,
                              prepared.item_packed, params)
        np.testing.assert_array_equal(trace.bn_new_mean, params.bn_mean)
        np.testing.assert_array_equal(trace.bn_new_var, params.bn_var)

    def test_train_mode_updates_running_stats(self, prepared):
        params, cfg = small_params(prepared, seed=29)
        uids, iids = _batch(prepared, 5, seed=30)
        trace = forward_batch(uids, iids, prepared.user_packed,
                              prepared.item_packed, params, mode="train")
        flat = head_outputs(trace).reshape(-1, cfg.embed_dim)
        np.testing.assert_allclose(
            trace.bn_new_mean, 0.9 * params.bn_mean + 0.1 * flat.mean(axis=0),
            atol=1e-12)
        np.testing.assert_allclose(
            trace.bn_new_var, 0.9 * params.bn_var + 0.1 * flat.var(axis=0),
            atol=1e-12)

    def test_single_pair_matches_batched_path(self, prepared):
        # Pair (3, 2) alone and as row 4 of a batch of 9.
        params, cfg = small_params(prepared, seed=31)
        uids, iids = _batch(prepared, 9, seed=31)
        uids[4], iids[4] = 3, 2
        trace_b = _run(prepared, params, uids, iids)
        trace_1 = _run(prepared, params)
        np.testing.assert_allclose(scores(trace_1), scores(trace_b)[4:5], atol=1e-12)
        assert trace_1.ids["user"][0] == 3 and trace_1.ids["item"][0] == 2

    def test_mode_and_batch_validation(self, prepared):
        params, cfg = small_params(prepared, seed=32)
        with pytest.raises(ValueError, match="mode"):
            forward_batch(np.asarray([0]), np.asarray([0]), prepared.user_packed,
                          prepared.item_packed, params, mode="test")
        with pytest.raises(ValueError, match="empty"):
            forward_batch(np.asarray([], dtype=np.int64),
                          np.asarray([], dtype=np.int64), prepared.user_packed,
                          prepared.item_packed, params)


def _padded_embedding_grad(d_x, rows, weights, bounds, num_rows):
    """The oracle: every (B,T) token column, padding included, multiplied by
    its position's gradient and scattered in row-major order, as the
    embedding gradient was computed before it left the padding out."""
    contrib = np.empty(rows.shape + (d_x.shape[-1],))
    for pos in range(len(bounds) - 1):
        cols = slice(bounds[pos], bounds[pos + 1])
        np.multiply(d_x[:, pos:pos + 1, :], weights[:, cols, None],
                    out=contrib[:, cols, :])
    return scatter_add_rows(rows.reshape(-1), contrib.reshape(-1, d_x.shape[-1]),
                            num_rows)


def _embed_backward(d_x, rows, weights, bounds, num_rows):
    """model._embed_backward's gradient of a num_rows-row table, from a trace
    holding the given packed columns."""
    trace = model.ForwardTrace()
    trace.embed_rows, trace.embed_weights, trace.embed_bounds = rows, weights, bounds
    params = SimpleNamespace(tensors={"embeddings": np.zeros((num_rows, d_x.shape[-1]))})
    grads = {}
    model._embed_backward(trace, d_x, grads, params)
    return grads["embeddings"]


class TestEmbeddingGradient:
    """model._embed_backward scatters only the tokens with a nonzero pooling
    weight; it must give the padded scatter's bits."""

    def test_matches_the_padded_scatter_on_the_fixture(self, prepared, monkeypatch):
        calls = []
        real = model._embed_backward

        def spy(trace, d_x, grads, params):
            real(trace, d_x, grads, params)
            args = (d_x, trace.embed_rows, trace.embed_weights, trace.embed_bounds,
                    len(params.tensors["embeddings"]))
            calls.append((args, grads["embeddings"]))

        monkeypatch.setattr(model, "_embed_backward", spy)
        for dropout, mode in ((0.1, "train"), (0.0, "train"), (0.0, "eval")):
            params, cfg = small_params(prepared, seed=40, dropout_rate=dropout)
            uids, iids = _batch(prepared, 64, seed=41)
            trace = forward_batch(uids, iids, prepared.user_packed,
                                  prepared.item_packed, params, mode=mode,
                                  dropout_rng=np.random.default_rng(42))
            grads = backward(trace, np.full(64, 3.0), params)
            (args, got), = calls
            calls.clear()
            assert got is grads["embeddings"]
            assert (trace.embed_weights == 0.0).any()
            assert got.tobytes() == _padded_embedding_grad(*args).tobytes()

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_the_padded_scatter_on_random_layouts(self, seed):
        rng = np.random.default_rng(seed)
        B, d, num_rows = int(rng.integers(1, 40)), int(rng.integers(1, 9)), 7
        # widths of 1 are single-token fields; a field's extra columns past
        # its longest slot are padding in every row
        widths = rng.integers(1, 5, size=int(rng.integers(1, 6)))
        bounds = [0] + np.cumsum(widths).tolist()
        rows = rng.integers(0, num_rows, size=(B, bounds[-1]))
        weights = np.zeros((B, bounds[-1]))
        for lo, hi in zip(bounds, bounds[1:]):
            counts = rng.integers(1, hi - lo + 1, size=B)
            if hi - lo > 1:
                counts = np.minimum(counts, hi - lo - 1)
            mask = (np.arange(hi - lo) < counts[:, None]).astype(np.float64)
            weights[:, lo:hi] = mask / counts[:, None]
        if seed % 2:
            rows[weights == 0.0] = 0          # as pack_features pads
        d_x = rng.normal(size=(B, len(bounds) - 1, d))
        d_x[rng.random(d_x.shape) < 0.2] = -0.0
        d_x[rng.random(d_x.shape) < 0.1] = 0.0
        got = _embed_backward(d_x, rows, weights, bounds, num_rows)
        want = _padded_embedding_grad(d_x, rows, weights, bounds, num_rows)
        assert got.tobytes() == want.tobytes()
        assert not np.signbit(got[got == 0.0]).any()

    def test_rows_whose_terms_are_all_negative_zero_stay_positive_zero(self):
        d_x = np.full((2, 2, 3), -0.0)
        rows = np.asarray([[1, 0, 2], [1, 2, 0]])
        weights = np.asarray([[1.0, 0.5, 0.5], [1.0, 1.0, 0.0]])
        got = _embed_backward(d_x, rows, weights, [0, 1, 3], 4)
        want = _padded_embedding_grad(d_x, rows, weights, [0, 1, 3], 4)
        assert got.tobytes() == want.tobytes() == np.zeros((4, 3)).tobytes()


class TestJointLoss:
    def test_hand_weighted_example(self, prepared):
        params, cfg = small_params(prepared, seed=34)
        uids, iids = _batch(prepared, 4, seed=35)
        trace = forward_batch(uids, iids, prepared.user_packed,
                              prepared.item_packed, params)
        ratings = trace.score_content + 2.0
        loss, parts = joint_loss(trace, ratings, (1.0, 0.0, 0.0))
        assert math.isclose(parts[0], 4.0, abs_tol=1e-12)
        assert math.isclose(loss, 4.0, abs_tol=1e-12)

    def test_weights_select_terms(self, prepared):
        params, cfg = small_params(prepared, seed=36)
        uids, iids = _batch(prepared, 4, seed=37)
        trace = forward_batch(uids, iids, prepared.user_packed,
                              prepared.item_packed, params)
        ratings = np.full(4, 3.0)
        loss, parts = joint_loss(trace, ratings, (0.25, 0.5, 2.0))
        assert math.isclose(loss, 0.25 * parts[0] + 0.5 * parts[1] + 2.0 * parts[2],
                            rel_tol=1e-12)
        loss_p, _ = joint_loss(trace, ratings, (0.0, 1.0, 0.0))
        assert math.isclose(loss_p, parts[1], rel_tol=1e-12)

    def test_validation(self, prepared):
        params, cfg = small_params(prepared, seed=38)
        uids, iids = _batch(prepared, 4, seed=39)
        trace = forward_batch(uids, iids, prepared.user_packed,
                              prepared.item_packed, params)
        with pytest.raises(ValueError):
            joint_loss(trace, np.asarray([]), cfg.loss_weights)
        with pytest.raises(ShapeError):
            joint_loss(trace, np.ones(3), cfg.loss_weights)
        with pytest.raises(ShapeError):
            backward(trace, np.ones(3), params)
