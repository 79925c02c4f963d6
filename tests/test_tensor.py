"""Unit tests for the dense numerical kernel: softmax, top-k selection, the
row scatter-add, the parameter arena and its in-place Adam step, and the
finite-difference oracle itself. The single-row softmax and top-k index
oracles in oracles.py are pinned here to hand values too."""

import math

import numpy as np
import pytest

from sain import model, tensor
from sain.errors import ShapeError
from sain.model import FieldLayout, ForwardTrace, ModelConfig, SainParams
from sain.tensor import (ADAM_BLOCK, KEYS_FIRST_ROWS, ParamSet, adam_step,
                         empty_rows, finite_diff_gradient, relative_error, row_sums,
                         scatter_add_rows, slab_sum, softmax_rows, sorted_distinct,
                         top_k_mask_rows)
from sain.training import TrainConfig, adam_update

from oracles import softmax_row, top_k_indices


@pytest.fixture(params=["rows-first", "keys-first"])
def row_path(request, monkeypatch):
    """Runs a test once as the kernels run on small inputs and once with
    KEYS_FIRST_ROWS at 0, so that every input takes the keys-first path."""
    if request.param == "keys-first":
        monkeypatch.setattr(tensor, "KEYS_FIRST_ROWS", 0)
    return request.param


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

    @pytest.mark.parametrize("n", [1, 3, 7, 8, 10, 17, 130])
    def test_out_gives_the_same_bits(self, row_path, n):
        rng = np.random.default_rng(3 + n)
        z = rng.normal(0.0, 4.0, size=(6, 4, 10, n)) * 10.0 ** rng.integers(-3, 3, n)
        z[0, 0, 0] = np.resize([-0.0, 0.0, 700.0, -700.0, 1e-300, 5.0, 5.0, 5.0,
                                -1.0, 2.0], n)
        z[0, 0, 1] = np.resize([np.inf, 1.0, -np.inf, np.inf], n)
        z[0, 0, 2] = -np.inf
        z[0, 0, 3] = np.resize([-np.inf, 0.0], n)
        z[0, 1, 0] = np.resize([1.0, np.nan, -np.nan, np.inf], n)
        z[0, 1, 1] = np.resize([-np.nan, 2.0, np.nan], n)
        with np.errstate(invalid="ignore"):
            e = np.exp(z - z.max(axis=-1, keepdims=True))
            want = e / e.sum(axis=-1, keepdims=True)
            assert softmax_rows(z).tobytes() == want.tobytes()
            buf = np.empty_like(z)
            assert softmax_rows(z, out=buf) is buf and buf.tobytes() == want.tobytes()
            view = np.empty((6, 4, 10, n + 2))[..., 1:-1]
            assert softmax_rows(z, out=view) is view
            assert view.tobytes() == want.tobytes()
            # Non-contiguous inputs, each against the sums of its contiguous copy.
            for part in (z[:, ::2], z.transpose(1, 0, 2, 3), z[..., ::-1]):
                e = np.exp(part - part.max(axis=-1, keepdims=True))
                sums = np.ascontiguousarray(e).sum(axis=-1, keepdims=True)
                assert softmax_rows(part).tobytes() == (e / sums).tobytes()
            assert softmax_rows(z, out=z) is z and z.tobytes() == want.tobytes()

    def test_empty_rows_raise_and_no_rows_give_no_rows(self, row_path):
        with pytest.raises(ValueError):
            softmax_rows(np.zeros((3, 0)))
        assert softmax_rows(np.zeros((0, 4))).shape == (0, 4)

    def test_slab_sum_is_numpys_row_sum(self):
        # Every row length up to 300: below 8, 8..128 and the split past 128.
        rng = np.random.default_rng(12)
        for n in range(1, 301):
            x = rng.normal(size=(17, n)) * 10.0 ** rng.integers(-8, 8, (17, n))
            x[0] = -0.0
            x[1, ::3] = -0.0
            keys_first = np.ascontiguousarray(x.T)
            assert slab_sum(keys_first).tobytes() == x.sum(axis=-1).tobytes(), n

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

    def test_the_keys_first_count_falls_back_only_on_nan(self):
        # Without NaN the count is the mask itself, ties, ±0 and ±inf included;
        # only a row holding a NaN leaves the order to the argsort.
        rng = np.random.default_rng(6)
        w = rng.integers(0, 3, size=(40, 6)).astype(float)
        w[0] = [0.0, -0.0, 0.0, -0.0, 1.0, 1.0]
        w[1] = [np.inf, -np.inf, np.inf, 2.0, -np.inf, 2.0]
        for k in range(1, 6):
            np.testing.assert_array_equal(tensor._top_k_keys_first(w, k),
                                          _top_k_mask_put_along_axis(w, k))
        w[7, 2] = np.nan
        assert tensor._top_k_keys_first(w, 2) is None

    def test_mask_works_on_3d_batches(self):
        rng = np.random.default_rng(5)
        w = rng.normal(size=(2, 3, 5))
        mask = top_k_mask_rows(w, 2)
        assert mask.shape == w.shape
        np.testing.assert_array_equal(mask.sum(axis=-1), np.full((2, 3), 2))


def _top_k_mask_put_along_axis(weights, k):
    """The mask as np.put_along_axis wrote it before the flat assignment: the
    oracle for the selection, its tie order and its NaN order."""
    k = min(k, weights.shape[-1])
    order = np.argsort(-weights, axis=-1, kind="stable")
    mask = np.zeros(weights.shape, dtype=bool)
    np.put_along_axis(mask, order[..., :k], True, axis=-1)
    return mask


def _special_rows(rng, shape):
    """Rows of random, tied, all-equal and NaN/±inf values, in that order of
    the leading positions, cycling."""
    w = rng.normal(size=shape)
    rows = w.reshape(math.prod(shape[:-1]), shape[-1])
    for j, row in enumerate(rows):
        kind = j % 4
        if kind == 1:
            row[:] = rng.integers(0, 3, size=row.size)
        elif kind == 2:
            row[:] = 0.25
        elif kind == 3:
            row[rng.random(row.size) < 0.4] = np.nan
            row[rng.random(row.size) < 0.2] = np.inf
            row[rng.random(row.size) < 0.2] = -np.inf
    return w


@pytest.mark.usefixtures("row_path")
class TestTopKMaskMatchesPutAlongAxis:
    @pytest.mark.parametrize("shape", [(1,), (7,), (9, 6), (1, 6), (3, 4, 5, 5),
                                       (2, 3, 10, 10), (0, 4), (3, 0)],
                             ids=["1d-one", "1d", "2d", "2d-one-row", "4d",
                                  "4d-wide", "no-rows", "empty-rows"])
    def test_random_tied_equal_and_non_finite_rows(self, shape):
        rng = np.random.default_rng(sum(shape) + len(shape))
        for _ in range(5):
            w = _special_rows(rng, shape)
            n = shape[-1]
            for k in sorted({1, 2, max(n - 1, 1), max(n, 1), n + 3}):
                got = top_k_mask_rows(w, k)
                assert got.dtype == bool and got.shape == w.shape
                np.testing.assert_array_equal(got, _top_k_mask_put_along_axis(w, k))

    def test_k_at_or_above_the_row_length_keeps_everything(self):
        w = _special_rows(np.random.default_rng(8), (4, 2, 5))
        for k in (5, 6, 100):
            assert top_k_mask_rows(w, k).all()

    def test_nan_rows_keep_the_argsort_order(self):
        # -NaN sorts last, so a NaN is kept only when k reaches it.
        w = np.array([[np.nan, 1.0, np.nan, -np.inf, np.inf]])
        np.testing.assert_array_equal(top_k_mask_rows(w, 2),
                                      [[False, True, False, False, True]])
        np.testing.assert_array_equal(top_k_mask_rows(w, 4),
                                      [[True, True, False, True, True]])

    def test_non_contiguous_input(self):
        w = _special_rows(np.random.default_rng(9), (6, 8, 8))[:, ::2, 1:]
        np.testing.assert_array_equal(top_k_mask_rows(w, 3),
                                      _top_k_mask_put_along_axis(w, 3))


def _stored_keys_first(a):
    """A copy of a stored keys-first: the rows-first view of an (n, rows)
    array, as empty_rows and the keys-first kernels store theirs."""
    view = np.empty((a.shape[-1], math.prod(a.shape[:-1])), a.dtype).T.reshape(a.shape)
    view[...] = a
    return view


def _rows_first_attention(x, d_concat, params):
    """The attention stage's forward and backward as they ran with every
    (B,H,S,S) array in C order: numpy's own row sums, the softmax and the
    top-k mask of their row-at-a-time definitions. Returns what
    test_the_attention_stage_gives_the_rows_first_bits compares."""
    config = params.config
    B, S, d = x.shape
    H, dh = config.num_heads, config.head_dim
    w_qkv = np.concatenate([params.tensors[f"attn{h}_w{p}"] for p in "qkv"
                            for h in range(H)], axis=1)
    q, k, v = (x.reshape(B * S, d) @ w_qkv).reshape(B, S, 3, H, dh).transpose(2, 0, 3, 1, 4)
    logits = q @ k.swapaxes(-1, -2)
    logits *= 1.0 / math.sqrt(dh)
    e = np.exp(logits - logits.max(axis=-1, keepdims=True))
    alpha = e / e.sum(axis=-1, keepdims=True)
    mask = _top_k_mask_put_along_axis(alpha, config.top_k)
    ahat = alpha * mask
    sel_sum = ahat.sum(axis=-1, keepdims=True)
    if config.renormalize_topk:
        ahat /= sel_sum
    out = np.empty((B, S, H, dh))
    np.matmul(ahat, v, out=out.transpose(0, 2, 1, 3))
    d_out = d_concat.reshape(B, S, H, dh).transpose(0, 2, 1, 3)
    d_logits = d_out @ v.swapaxes(-1, -2)
    if config.renormalize_topk:
        d_logits -= (d_logits * ahat).sum(axis=-1, keepdims=True)
        d_logits /= sel_sum
    d_logits *= mask
    d_logits -= (d_logits * alpha).sum(axis=-1, keepdims=True)
    d_logits *= alpha
    d_logits *= 1.0 / math.sqrt(dh)
    d_qkv = np.empty((B, S, 3, H, dh))
    d_q, d_k, d_v = d_qkv.transpose(2, 0, 3, 1, 4)
    np.matmul(d_logits, k, out=d_q)
    np.matmul(d_logits.swapaxes(-1, -2), q, out=d_k)
    np.matmul(ahat.swapaxes(-1, -2), d_out, out=d_v)
    d_qkv = d_qkv.reshape(B * S, 3 * d)
    g_qkv = (x.reshape(B * S, d).T @ d_qkv).reshape(d, 3, H, dh)
    grads = params.zero_grads()
    for j, p in enumerate("qkv"):
        for h in range(H):
            grads[f"attn{h}_w{p}"] += g_qkv[:, j, h]
    return [out.reshape(B, S, d), alpha, mask, ahat, sel_sum,
            (d_qkv @ w_qkv.T).reshape(B, S, d), grads.flat]


class TestLayouts:
    """softmax_rows, top_k_mask_rows and row_sums read rows-first arrays in
    C order or stored keys-first, with the same bits, on both sides of
    KEYS_FIRST_ROWS and with the NaN rows that send the kernels back to
    their rows-first forms; the attention stage, which feeds them each
    other's results, gives the bits of running rows-first throughout."""

    # (B, 4, 10, 10) has 40 rows per pair: 2 pairs are below KEYS_FIRST_ROWS,
    # 16 above.
    @pytest.mark.parametrize("pairs", [2, 16])
    @pytest.mark.parametrize("nan", [False, True], ids=["finite", "nan-rows"])
    def test_the_kernels_give_the_same_bits_in_either_layout(self, pairs, nan):
        assert 2 * 40 < KEYS_FIRST_ROWS <= 16 * 40
        rng = np.random.default_rng(pairs + 2 * nan)
        z = rng.normal(0.0, 3.0, size=(pairs, 4, 10, 10))
        if nan:
            z[0, 1, 2, 3] = np.nan
            z[1, 0, 0, ::4] = np.inf            # exp(inf - inf) is NaN
        kf = _stored_keys_first(z)
        with np.errstate(invalid="ignore"):
            e = np.exp(z - z.max(axis=-1, keepdims=True))
            want = e / e.sum(axis=-1, keepdims=True)
            got = softmax_rows(z)
            assert got.tobytes() == want.tobytes()
            assert softmax_rows(kf).tobytes() == want.tobytes()
            assert kf.tobytes() == z.tobytes()                  # not written
            assert softmax_rows(kf, out=kf) is kf and kf.tobytes() == want.tobytes()
        keys_first = pairs * 40 >= KEYS_FIRST_ROWS and not nan
        assert (tensor._slab_view(got) is not None) == keys_first
        assert (tensor._slab_view(kf) is not None)              # worked in place
        mask = _top_k_mask_put_along_axis(want, 4)
        for w in (want, got, kf):
            got_mask = top_k_mask_rows(w, 4)
            assert got_mask.tobytes() == mask.tobytes()
            assert (tensor._slab_view(got_mask) is not None) == keys_first
        for a in (want * mask, _stored_keys_first(want) * mask, got * got_mask,
                  (want * mask)[:, ::2], np.asfortranarray(want * mask)):
            sums = np.ascontiguousarray(a).sum(axis=-1, keepdims=True)
            assert row_sums(a).tobytes() == sums.tobytes()

    @pytest.mark.parametrize("layout", ["c-order", "strided-view", "keys-first"])
    def test_a_foreign_out_at_keys_first_sizes_gets_the_rows_first_bits(self, layout):
        # Finite logits at 640 rows take the keys-first path, and an `out`
        # that is not the input gets a copy of its result.
        rng = np.random.default_rng(11)
        z = rng.normal(0.0, 3.0, size=(16, 4, 10, 10))
        assert math.prod(z.shape[:-1]) >= KEYS_FIRST_ROWS
        e = np.exp(z - z.max(axis=-1, keepdims=True))
        want = e / e.sum(axis=-1, keepdims=True)
        out = {"c-order": np.empty_like(z),
               "strided-view": np.empty((16, 4, 10, 12))[..., 1:-1],
               "keys-first": _stored_keys_first(np.zeros_like(z))}[layout]
        before = z.tobytes()
        assert softmax_rows(z, out=out) is out
        assert out.tobytes() == want.tobytes()
        assert z.tobytes() == before

    @pytest.mark.parametrize("renormalize", [True, False])
    @pytest.mark.parametrize("nan", [False, True], ids=["finite", "nan-rows"])
    def test_the_attention_stage_gives_the_rows_first_bits(self, monkeypatch,
                                                           renormalize, nan):
        # S = 10, where numpy's pairwise row sum is not the sequential one.
        config = ModelConfig(embed_dim=8, num_heads=2, top_k=4,
                             renormalize_topk=renormalize)
        fields = [f"f{j}" for j in range(10)]
        layout = FieldLayout(fields[:4], fields[4:], dict.fromkeys(fields, 3), 4, 4)
        params = SainParams.init(layout, config, np.random.default_rng(0))
        rng = np.random.default_rng(1)
        x = rng.normal(size=(32, 10, 8))                    # 640 rows
        d_out = rng.normal(size=x.shape)
        if nan:
            x[3, 1] = np.inf

        def run():
            trace = ForwardTrace()
            out = model._attention_forward(trace, x.copy(), params)
            grads = params.zero_grads()
            d_x = model._attention_backward(trace, d_out.copy(), grads, params)
            return trace, [out, trace.alpha_full, trace.topk_mask, trace.alpha_topk,
                           trace.sel_sum, d_x, grads.flat]

        with np.errstate(all="ignore"):
            trace, keys_first = run()
            # The softmax works in the logits' keys-first buffer either way;
            # a NaN row sends the mask back to the argsort, in C order.
            assert tensor._slab_view(trace.alpha_full) is not None
            assert (tensor._slab_view(trace.topk_mask) is not None) != nan
            oracle = _rows_first_attention(x, d_out, params)
            monkeypatch.setattr(tensor, "KEYS_FIRST_ROWS", 10 ** 9)
            trace, rows_first = run()
            assert trace.alpha_full.flags.c_contiguous
        for a, b, c in zip(keys_first, rows_first, oracle):
            assert a.shape == b.shape == c.shape
            assert a.tobytes() == b.tobytes() == c.tobytes()

    def test_empty_rows_is_stored_as_the_kernels_store(self):
        small, large = empty_rows((2, 4, 10, 10)), empty_rows((16, 4, 10, 10))
        assert small.flags.c_contiguous and tensor._slab_view(small) is None
        assert tensor._slab_view(large) is not None
        assert tensor._slab_view(np.zeros((16, 4, 10, 10))) is None


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


def _adam_reference(param, grad, m, v, t, lr, weight_decay=0.0,
                    beta1=0.9, beta2=0.999, eps=1e-8):
    """The out-of-place textbook update, the oracle for the in-place one."""
    m = beta1 * m + (1.0 - beta1) * grad
    v = beta2 * v + (1.0 - beta2) * grad * grad
    m_hat = m / (1.0 - beta1 ** t)
    v_hat = v / (1.0 - beta2 ** t)
    new_param = param - lr * m_hat / (np.sqrt(v_hat) + eps)
    if weight_decay != 0.0:
        new_param = new_param - lr * weight_decay * param
    return new_param, m, v


def _zero_moments(p):
    return np.zeros_like(p), np.zeros_like(p)


class TestAdam:
    def test_first_step_moves_by_learning_rate(self):
        # With bias correction the very first step is lr * g / (|g| + eps).
        ps = ParamSet({"p": np.asarray([1.0])})
        adam_update(ps, {"p": np.asarray([1.0])},
                    TrainConfig(learning_rate=0.1, weight_decay=0.0), set())
        assert math.isclose(ps.tensors["p"][0], 0.9, abs_tol=1e-7)
        assert ps.t == 1
        m, v = ps.moments["p"]
        np.testing.assert_allclose(m, [0.1], atol=1e-15)
        np.testing.assert_allclose(v, [0.001], atol=1e-15)

    def test_decay_only_step(self):
        # Zero gradient leaves the Adam term at zero; only the decoupled decay
        # moves the parameter: 1 - lr * wd = 0.95.
        p = np.asarray([1.0])
        adam_step(p, np.zeros(1), *_zero_moments(p), 1, lr=0.1, weight_decay=0.5)
        assert math.isclose(p[0], 0.95, abs_tol=1e-15)

    def test_zero_grad_zero_decay_is_identity(self):
        rng = np.random.default_rng(6)
        p = rng.normal(size=(3, 4))
        before = p.copy()
        adam_step(p, np.zeros_like(p), *_zero_moments(p), 1, lr=0.1)
        np.testing.assert_array_equal(p, before)

    def test_decay_is_decoupled_from_moments(self):
        # The decay term must not leak into m/v: moments match the no-decay run.
        g = np.asarray([0.3, 0.7])
        p_plain, p_decay = np.asarray([2.0, -1.0]), np.asarray([2.0, -1.0])
        m_plain, v_plain = _zero_moments(p_plain)
        m_decay, v_decay = _zero_moments(p_decay)
        adam_step(p_plain, g, m_plain, v_plain, 1, lr=0.01)
        adam_step(p_decay, g, m_decay, v_decay, 1, lr=0.01, weight_decay=0.5)
        np.testing.assert_array_equal(m_plain, m_decay)
        np.testing.assert_array_equal(v_plain, v_decay)

    def test_steps_descend_a_quadratic(self):
        p = np.asarray([5.0])
        m, v = _zero_moments(p)
        for t in range(1, 201):
            adam_step(p, 2.0 * p, m, v, t, lr=0.1)
        assert abs(p[0]) < 0.1

    def test_shape_mismatch_raises(self):
        p = np.zeros(3)
        with pytest.raises(ValueError):
            adam_step(p, np.zeros(4), *_zero_moments(p), 1, lr=0.1)

    def test_non_contiguous_param_raises(self):
        # A strided view would be updated in a reshaped copy and lost.
        p = np.zeros((4, 4))[:, ::2]
        with pytest.raises(ValueError):
            adam_step(p, np.zeros_like(p), *_zero_moments(p.copy()), 1, lr=0.1)

    @pytest.mark.parametrize("shape", [(ADAM_BLOCK - 1,), (ADAM_BLOCK,),
                                       (ADAM_BLOCK + 1,), (130, 257)])
    @pytest.mark.parametrize("weight_decay", [0.0, 0.01])
    def test_in_place_matches_the_out_of_place_oracle_bit_for_bit(
            self, shape, weight_decay):
        rng = np.random.default_rng(len(shape) * 7 + shape[0])
        p = rng.normal(size=shape)
        m, v = _zero_moments(p)
        ref_p, ref_m, ref_v = p.copy(), m.copy(), v.copy()
        scratch = np.empty((2, ADAM_BLOCK))
        for t in range(1, 21):
            # Every fourth step has a zero gradient; the others have some
            # zero entries, as untouched table rows do.
            g = np.zeros(shape) if t % 4 == 0 else (
                rng.normal(scale=10.0 ** rng.integers(-6, 2), size=shape)
                * (rng.random(shape) > 0.2))
            adam_step(p, g, m, v, t, lr=1e-2, weight_decay=weight_decay,
                      scratch=scratch if t % 2 else None)
            ref_p, ref_m, ref_v = _adam_reference(ref_p, g, ref_m, ref_v, t, 1e-2,
                                                  weight_decay)
            assert p.tobytes() == ref_p.tobytes()
            assert m.tobytes() == ref_m.tobytes()
            assert v.tobytes() == ref_v.tobytes()


def _table(size):
    """A 2-d table of `size` elements, with rows of at least 64."""
    width = next(k for k in range(64, size + 1) if size % k == 0)
    return (size // width, width)


# Tables of ADAM_BLOCK - 1 and ADAM_BLOCK + 1 elements, 1-d and 2-d.
ROW_TABLES = [(ADAM_BLOCK - 1,), (ADAM_BLOCK + 1,), _table(ADAM_BLOCK - 1),
              _table(ADAM_BLOCK + 1)]


class TestAdamRows:
    """adam_step with `rows` against the out-of-place oracle, bit for bit:
    the zero-gradient terms it leaves out outside `rows` change nothing."""

    @staticmethod
    def _moments(shape, rng, start):
        if start == "zero":
            return np.zeros(shape), np.zeros(shape)
        tiny = np.finfo(np.float64).smallest_subnormal
        m = rng.integers(-40, 41, size=shape) * tiny
        return m, np.abs(rng.integers(0, 41, size=shape) * tiny)

    @pytest.mark.parametrize("shape", ROW_TABLES)
    @pytest.mark.parametrize("given", ["all", "none", "superset"])
    @pytest.mark.parametrize("start", ["zero", "subnormal"])
    @pytest.mark.parametrize("weight_decay", [0.0, 0.01])
    def test_rows_match_the_out_of_place_oracle_bit_for_bit(
            self, shape, given, start, weight_decay):
        rng = np.random.default_rng(shape[0] + len(given) + len(start))
        n = shape[0]
        p = rng.normal(size=shape)
        m, v = self._moments(shape, rng, start)
        ref_p, ref_m, ref_v = p.copy(), m.copy(), v.copy()
        scratch = np.empty((2, ADAM_BLOCK))
        for t in range(1, 21):
            # The touched rows have a gradient, with some zero entries; every
            # other row's gradient is exactly zero, as a scatter leaves it.
            touched = sorted_distinct(rng.integers(0, n, size=int(rng.integers(1, 40))))
            g = np.zeros(shape)
            if given != "none":
                g[touched] = (rng.normal(scale=10.0 ** rng.integers(-6, 2),
                                         size=(len(touched),) + shape[1:])
                              * (rng.random((len(touched),) + shape[1:]) > 0.2))
            rows = {"all": np.arange(n), "none": np.zeros(0, dtype=np.int64),
                    "superset": sorted_distinct(np.concatenate(
                        [touched, rng.integers(0, n, size=30)]))}[given]
            adam_step(p, g, m, v, t, lr=1e-2, weight_decay=weight_decay,
                      scratch=scratch if t % 2 else None, rows=rows)
            ref_p, ref_m, ref_v = _adam_reference(ref_p, g, ref_m, ref_v, t, 1e-2,
                                                  weight_decay)
            assert p.tobytes() == ref_p.tobytes()
            assert m.tobytes() == ref_m.tobytes()
            assert v.tobytes() == ref_v.tobytes()

    def test_rows_are_not_read_from_the_gradient_outside_them(self):
        # A gradient that breaks the precondition shows the rows path never
        # reads the rows it was not given.
        p = np.ones((4, 2))
        m, v = _zero_moments(p)
        g = np.full((4, 2), np.nan)
        g[1] = 0.5
        adam_step(p, g, m, v, 1, lr=0.1, rows=np.asarray([1]))
        assert np.isfinite(p).all() and np.isfinite(m).all() and np.isfinite(v).all()
        np.testing.assert_array_equal(p[[0, 2, 3]], np.ones((3, 2)))

    @pytest.mark.parametrize("rows", [[2, 1], [1, 1], [-1, 2], [0, 4], [[0, 1]],
                                      [0.0, 1.0], [True, False, True, False]],
                             ids=["unsorted", "repeated", "negative", "past-the-end",
                                  "2-d", "float", "mask"])
    def test_bad_rows_raise(self, rows):
        p = np.zeros((4, 2))
        with pytest.raises(ValueError, match="rows must"):
            adam_step(p, np.zeros_like(p), *_zero_moments(p), 1, lr=0.1,
                      rows=np.asarray(rows))

    def test_a_scalar_has_no_rows(self):
        p = np.zeros(())
        with pytest.raises(ValueError, match="rows must"):
            adam_step(p, np.zeros(()), *_zero_moments(p), 1, lr=0.1,
                      rows=np.zeros(0, dtype=np.int64))


class TestSortedDistinct:
    @pytest.mark.parametrize("keys", [[], [3], [5, 1, 5, 0, 1, 9], [-2, 7, -2]])
    def test_matches_np_unique(self, keys):
        keys = np.asarray(keys, dtype=np.int64)
        got = sorted_distinct(keys)
        assert got.dtype == np.int64
        np.testing.assert_array_equal(got, np.unique(keys))


class TestParamSet:
    def _set(self):
        rng = np.random.default_rng(9)
        return ParamSet({"w": rng.normal(size=(3, 4)), "b": rng.normal(size=5),
                         "one": np.ones(1)})

    def test_tensors_are_views_of_one_vector_in_order(self):
        ps = self._set()
        assert ps.flat.shape == (18,)
        pos = 0
        for name, t in ps.tensors.items():
            assert np.shares_memory(t, ps.flat)
            np.testing.assert_array_equal(t.reshape(-1), ps.flat[pos:pos + t.size])
            pos += t.size
        ps.flat[12] = 42.0
        assert ps.tensors["b"][0] == 42.0
        assert [t.shape for t in ps.tensors.values()] == [(3, 4), (5,), (1,)]

    def test_assigning_a_name_writes_into_the_arena(self):
        ps = self._set()
        view = ps.tensors["w"]
        ps.tensors["w"] = np.full((3, 4), 2.0)
        assert ps.tensors["w"] is view
        np.testing.assert_array_equal(ps.flat[:12], np.full(12, 2.0))
        with pytest.raises(ShapeError):
            ps.tensors["w"] = np.zeros(12)

    def test_clone_is_independent(self):
        ps = self._set()
        ps.t = 3
        ps.m[:] = 1.0
        other = ps.clone()
        other.tensors["w"][0, 0] = 99.0
        other.moments["b"][0][:] = 5.0
        other.t += 1
        assert ps.tensors["w"][0, 0] != 99.0
        np.testing.assert_array_equal(ps.m, np.ones(18))
        assert ps.t == 3 and other.t == 4
        np.testing.assert_array_equal(other.m[12:17], np.full(5, 5.0))
        assert not np.shares_memory(other.flat, ps.flat)

    def test_flatten_set_flat_round_trip(self):
        ps = self._set()
        flat = ps.flatten()
        flat[0] = 7.0                          # a copy, not the arena
        assert ps.tensors["w"][0, 0] != 7.0
        ps.set_flat(flat * 2.0)
        np.testing.assert_array_equal(ps.flatten(), flat * 2.0)
        np.testing.assert_array_equal(ps.tensors["w"].reshape(-1), flat[:12] * 2.0)
        with pytest.raises(ShapeError):
            ps.set_flat(flat[:-1])

    def test_zero_grads_match_shapes_and_skip(self):
        ps = self._set()
        grads = ps.zero_grads(skip=("b",))
        assert list(grads) == ["w", "one"]
        assert grads["w"].shape == (3, 4) and not grads["w"].any()

    def test_zero_grads_are_views_into_one_vector(self):
        ps = self._set()
        grads = ps.zero_grads(skip=("b",))
        assert grads.flat.shape == (13,) and grads.offsets == {"w": 0, "one": 12}
        w = grads["w"]
        grads["w"] += 1.0                       # in place: the view stays
        grads["one"] = np.asarray([3.0])        # copied into the view
        assert grads["w"] is w
        np.testing.assert_array_equal(grads.flat, [1.0] * 12 + [3.0])
        with pytest.raises(ShapeError):
            grads["w"] = np.zeros(12)
        table = np.ones(5)
        grads["b"] = table                      # not a view: stored as given
        assert grads["b"] is table and grads.flat.shape == (13,)

    def test_adam_states_round_trip_and_must_be_in_step(self):
        ps = self._set()
        rng = np.random.default_rng(10)
        ps.m[:] = rng.normal(size=18)
        ps.v[:] = rng.random(18)
        ps.t = 7
        state = ps.optimizer_state()
        assert state["t"] == {"w": 7, "b": 7, "one": 7}
        assert np.shares_memory(state["m"]["b"], ps.m)
        again = ParamSet(ps.tensors, adam=state)
        np.testing.assert_array_equal(again.m, ps.m)
        np.testing.assert_array_equal(again.v, ps.v)
        assert again.t == 7
        state["t"] = dict(sorted(state["t"].items()))   # a header's key order
        assert ParamSet(ps.tensors, adam=state).t == 7
        state["t"]["one"] = 6
        with pytest.raises(ShapeError):
            ParamSet(ps.tensors, adam=state)


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

