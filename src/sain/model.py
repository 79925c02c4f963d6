"""The hybrid attention recommender as one batched pass, `forward_batch`,
and its exact hand-derived reverse pass, `backward`. Both call six stages,
each a pair of adjacent functions: `_<stage>_forward` records the trace
fields its backward reads and returns its output; `_<stage>_backward` takes
the gradient of that output, adds its tensors' gradients to `grads` and
returns the gradient of its input.

1. embed: mean-pool each side's packed feature tokens per field, giving x;
2. attention: feature-level multi-head self-attention with top-K filtering;
3. batch norm, then dropout in train mode;
4. residual and ReLU: xbar = ReLU(x + the stage 3 output);
5. sides, user then item: aggregate the side's positions into a content
   vector and blend it with the side's CF vector through the side's gate;
6. scores: the three dot products that the jointly weighted MSE loss reads.

Stages 5 and 6 leave their outputs in the trace, whose per-side fields
`content`, `cf`, `gate_alpha` and `combined` are dicts keyed by side.
Training, evaluation, prediction and the attention export all run this one
pass; a single pair is a batch of one. The passes and their stages read the
model's ModelConfig from `params.config`, its only holder.

Shapes: B batch, S = m + n feature positions (m user fields then n item
fields), d embed dim, H heads, dh = d // H. The heads run as one tensor axis:
Q, K and V for every head come from one (B*S,d) @ (d,3d) product, and the
attention arrays are (B,H,S,S) and (B,H,S,dh). Each head's projections stay
registered as their own (d,dh) tensors `attn{h}_w{q,k,v}`, one after another
in the arena, so the (d,3d) product matrix is one transposed copy of their
slice, and their gradients are added into the matching slice of the
gradient vector at once.

From tensor.KEYS_FIRST_ROWS rows (B*H*S) on, the four (B,H,S,S) attention
arrays (the trace's alpha_full, which holds the logits first, topk_mask and
alpha_topk, and the backward's d_logits) are stored keys-first: each is the
rows-first view of an (S, B*H*S) array, as tensor.empty_rows makes it and
the row kernels return it. Numpy's elementwise passes run over that storage
in memory order, tensor.row_sums adds the rows as slab passes, and BLAS
reads and writes the views as transposed matrices; every one of these gives
the bits of C order. Below that row count, as for a single pair, every
array is in C order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import FeatureVocab, PackedFeatures
from .errors import ShapeError, is_json, json_value
from .tensor import (ParamSet, empty_rows, row_sums, scatter_add_rows,
                     softmax_rows, top_k_mask_rows)

L2_SCOPES = ("all", "embeddings", "projections")
SIDES = ("user", "item")


@dataclass
class ModelConfig:
    embed_dim: int = 64
    num_heads: int = 2
    top_k: int = 8
    dropout_rate: float = 0.1
    loss_weights: tuple[float, float, float] = (1.0, 1.0, 1.0)
    gate_shared: bool = False
    renormalize_topk: bool = True
    l2_scope: str = "all"
    bn_epsilon: float = 1e-5
    bn_momentum: float = 0.1

    def __post_init__(self):
        for kind, names in (("integer", ("embed_dim", "num_heads", "top_k")),
                            ("number", ("dropout_rate", "bn_epsilon", "bn_momentum")),
                            ("bool", ("gate_shared", "renormalize_topk"))):
            for name in names:
                json_value(name, getattr(self, name), kind)
        if self.embed_dim < 1 or self.num_heads < 1:
            raise ValueError("embed_dim and num_heads must be >= 1")
        if self.embed_dim % self.num_heads != 0:
            raise ShapeError(f"embed_dim {self.embed_dim} not divisible by "
                             f"num_heads {self.num_heads}")
        if self.top_k < 1:
            raise ValueError("top_k must be >= 1")
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ValueError("dropout_rate must be in [0,1)")
        if not (math.isfinite(self.bn_epsilon) and self.bn_epsilon > 0.0):
            raise ValueError(f"bn_epsilon must be finite and > 0, "
                             f"got {self.bn_epsilon!r}")
        if not 0.0 <= self.bn_momentum <= 1.0:
            raise ValueError(f"bn_momentum must be in [0,1], got {self.bn_momentum!r}")
        if not (isinstance(self.loss_weights, (tuple, list))
                and len(self.loss_weights) == 3):
            raise ValueError(f"loss_weights needs exactly three entries, "
                             f"got {self.loss_weights!r}")
        self.loss_weights = tuple(float(json_value("loss_weights", w, "number"))
                                  for w in self.loss_weights)
        if not all(math.isfinite(w) and w >= 0.0 for w in self.loss_weights) or \
                not any(self.loss_weights):
            raise ValueError(f"loss_weights must be finite and >= 0, and not all "
                             f"zero, got {self.loss_weights!r}")
        if self.l2_scope not in L2_SCOPES:
            raise ValueError(f"l2_scope must be one of {L2_SCOPES}")

    @property
    def head_dim(self) -> int:
        return self.embed_dim // self.num_heads

    @classmethod
    def from_dict(cls, d: dict) -> "ModelConfig":
        """Config from a run config's or a checkpoint header's dict. There is
        one attention layer; configs and checkpoints written while its count
        was a key still carry `num_attention_layers`, which must be the
        integer 1 and is dropped."""
        d = dict(d)
        if "num_attention_layers" in d:
            layers = d.pop("num_attention_layers")
            if not is_json(layers, "integer") or layers != 1:
                raise ValueError("num_attention_layers is fixed at 1")
        return cls(**d)


@dataclass
class FieldLayout:
    """Order-sensitive field manifest: user fields then item fields, embedding
    row counts per field, and the entity table sizes."""

    user_fields: list[str]
    item_fields: list[str]
    sizes: dict[str, int]
    num_users: int
    num_items: int

    @classmethod
    def from_vocab(cls, vocab: FeatureVocab, num_users: int, num_items: int) -> "FieldLayout":
        return cls(user_fields=list(vocab.user_fields),
                   item_fields=list(vocab.item_fields),
                   sizes={f: vocab.field_size(f) for f in vocab.fields},
                   num_users=num_users, num_items=num_items)

    @property
    def fields(self) -> list[str]:
        return self.user_fields + self.item_fields

    @property
    def m(self) -> int:
        return len(self.user_fields)

    @property
    def n(self) -> int:
        return len(self.item_fields)

    @property
    def seq_len(self) -> int:
        return self.m + self.n

    @property
    def total_rows(self) -> int:
        return sum(self.sizes[f] for f in self.fields)

    @classmethod
    def from_dict(cls, d: dict) -> "FieldLayout":
        """Layout from a checkpoint header's dict, taken as stored: field lists
        must be lists of strings, `sizes` an object and every count a JSON
        integer, and no other key is taken, or it is a ValueError or a
        TypeError (nothing is coerced or dropped, so a loaded layout saves
        again to the same bytes)."""
        for key in ("user_fields", "item_fields"):
            json_value(key, d[key], "strings")
        for name, value in [*json_value("sizes", d["sizes"], "object").items(),
                            ("num_users", d["num_users"]), ("num_items", d["num_items"])]:
            json_value(name, value, "integer")
        return cls(**d)


class SainParams(ParamSet):
    """All learnable tensors, packed into one ParamSet arena, plus batch-norm
    running statistics. Every learnable tensor is registered exactly once in
    `tensors`; the registration order drives initialization draws, the
    optimizer loop, and the flat vector used by the finite-difference oracle.
    Running stats are excluded from gradients. EMBEDDINGS are the tables
    indexed by id."""

    EMBEDDINGS = ("embeddings", "cf_user", "cf_item")

    def __init__(self, layout: FieldLayout, config: ModelConfig,
                 tensors: dict[str, np.ndarray], bn_mean: np.ndarray,
                 bn_var: np.ndarray, adam: dict | None = None):
        super().__init__(tensors, adam)
        self.layout = layout
        self.config = config
        self.bn_mean = bn_mean
        self.bn_var = bn_var

    @property
    def config(self) -> ModelConfig:
        return self._config

    @config.setter
    def config(self, config: ModelConfig) -> None:
        """Take a config only if the tensors have the names, order and shapes
        it implies, so that a config with other heads or gates is refused
        here rather than deep in a pass."""
        want = self.shapes(self.layout, config)
        if list(want.items()) != list(self._shapes.items()):
            wrong = next((f"{name} {shape}" for name, shape in want.items()
                          if self._shapes.get(name) != shape),
                         "the tensor names or their order")
            raise ShapeError(f"the config does not fit the tensors: it needs {wrong}")
        self._config = config

    @staticmethod
    def shapes(layout: FieldLayout, config: ModelConfig) -> dict[str, tuple]:
        """Every learnable tensor's shape, in registration order."""
        d, dh = config.embed_dim, config.head_dim
        s: dict[str, tuple] = {"embeddings": (layout.total_rows, d),
                               "cf_user": (layout.num_users, d),
                               "cf_item": (layout.num_items, d)}
        for h in range(config.num_heads):
            for p in "qkv":
                s[f"attn{h}_w{p}"] = (d, dh)
        s.update({"agg_user_w": (layout.m * d, d), "agg_user_b": (d,),
                  "agg_item_w": (layout.n * d, d), "agg_item_b": (d,),
                  "bn_gamma": (d,), "bn_beta": (d,)})
        for side in ("",) if config.gate_shared else ("user_", "item_"):
            s[f"gate_{side}w"] = (d,)
            s[f"gate_{side}b"] = (1,)
        return s

    @classmethod
    def init(cls, layout: FieldLayout, config: ModelConfig,
             rng: np.random.Generator) -> "SainParams":
        """Weights uniform in +-1/sqrt(d), drawn in registration order; biases
        and bn_beta zero; bn_gamma one."""
        if layout.m == 0 or layout.n == 0:
            raise ShapeError("the attention model needs at least one feature "
                             "field on each of the user and item sides")
        d = config.embed_dim
        scale = 1.0 / math.sqrt(d)
        t: dict[str, np.ndarray] = {}
        for name, shape in cls.shapes(layout, config).items():
            if name == "bn_gamma":
                t[name] = np.ones(shape)
            elif name == "bn_beta" or name.endswith("_b"):
                t[name] = np.zeros(shape)
            else:
                t[name] = rng.uniform(-scale, scale, size=shape)
        return cls(layout, config, t, bn_mean=np.zeros(d), bn_var=np.ones(d))

    def gate_name(self, side: str) -> str:
        """Registry name of one side's gate weight, shared or the side's own."""
        return "gate_w" if self.config.gate_shared else f"gate_{side}_w"

    def clone(self) -> "SainParams":
        other = super().clone()
        other.bn_mean = self.bn_mean.copy()
        other.bn_var = self.bn_var.copy()
        return other


def decayed_names(params, scope: str) -> set[str]:
    """Learnable tensor names subject to decoupled weight decay under a scope."""
    names = set(params.tensors)
    if scope == "all":
        return names
    embedding = set(params.EMBEDDINGS)
    return embedding if scope == "embeddings" else names - embedding


def _stable_sigmoid(t: np.ndarray) -> np.ndarray:
    out = np.empty_like(t)
    pos = t >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-t[pos]))
    e = np.exp(t[~pos])
    out[~pos] = e / (1.0 + e)
    return out


class ForwardTrace:
    """What the backward pass needs: the ids, then each stage's fields."""

    ids: dict                          # side -> (B,) int64
    # The user side's packed columns, then the item side's: each token's
    # embedding row and mean-pooling weight, 0 on padding.
    embed_rows: np.ndarray             # (B,T) int64
    embed_weights: np.ndarray          # (B,T) float64
    embed_bounds: list                 # (S+1,) position p pools columns [p]..[p+1]-1
    x: np.ndarray                      # (B,S,d) embedded feature sequence
    w_qkv: np.ndarray                  # (d,3d) every head's Q, then K, then V projection
    q: np.ndarray                      # (B,H,S,dh)
    k: np.ndarray
    v: np.ndarray
    alpha_full: np.ndarray             # (B,H,S,S) pre-top-K softmax
    topk_mask: np.ndarray              # (B,H,S,S) bool
    alpha_topk: np.ndarray             # (B,H,S,S) post-top-K weights
    sel_sum: np.ndarray                # (B,H,S,1) selected-weight row sums
    mode: str
    bn_xhat: np.ndarray                # (B,S,d)
    bn_inv_std: np.ndarray             # (d,)
    bn_new_mean: np.ndarray            # (d,) running stats after this pass
    bn_new_var: np.ndarray
    dropout_mask: np.ndarray | None    # (B,S,d) inverted-scale mask, None in eval
    resid: np.ndarray                  # (B,S,d) pre-ReLU residual sum
    xbar: np.ndarray                   # (B,S,d)
    content: dict                      # side -> (B,d) aggregated content vector
    cf: dict                           # side -> (B,d) CF vector
    gate_alpha: dict                   # side -> (B,) blend weight in (0,1)
    combined: dict                     # side -> (B,d) gated blend
    score_content: np.ndarray          # (B,)
    score_preference: np.ndarray
    score_combined: np.ndarray

    @property
    def batch_size(self) -> int:
        return self.ids["user"].shape[0]


def _embed_forward(trace: ForwardTrace, packed: dict, params: SainParams) -> np.ndarray:
    """(B,S,d) pooled embeddings: the side tables and the tokens' embedding
    rows are gathered once, and each position pools its columns into x."""
    emb = params.tensors["embeddings"]
    rows = np.concatenate([packed[s].rows[trace.ids[s]] for s in SIDES], axis=1)
    weights = np.concatenate([packed[s].weights[trace.ids[s]] for s in SIDES], axis=1)
    tokens = emb[rows]                                       # (B,T,d)
    head = packed["user"].bounds
    bounds = head + [head[-1] + b for b in packed["item"].bounds[1:]]
    x = np.empty((rows.shape[0], len(bounds) - 1, emb.shape[1]))
    for p, (lo, hi) in enumerate(zip(bounds, bounds[1:])):
        np.einsum("bl,bld->bd", weights[:, lo:hi], tokens[:, lo:hi], out=x[:, p])
    trace.embed_rows, trace.embed_weights, trace.embed_bounds = rows, weights, bounds
    return x


def _embed_backward(trace: ForwardTrace, d_x: np.ndarray, grads: dict,
                    params: SainParams) -> None:
    """Every token with a nonzero pooling weight adds weight * d_x of its
    position to its row, in the (B,T) row-major order of the packed columns.
    For a finite d_x, a padding token's term is d_x * 0, a signed zero, which
    changes no scatter sum (scatter_add_rows); so leaving the padding out
    gives the bits of scattering every column."""
    rows, weights, bounds = trace.embed_rows, trace.embed_weights, trace.embed_bounds
    bi, ti = np.nonzero(weights)
    pos_of_col = np.repeat(np.arange(len(bounds) - 1), np.diff(bounds))
    contrib = d_x[bi, pos_of_col[ti]]
    contrib *= weights[bi, ti][:, None]
    grads["embeddings"] = scatter_add_rows(rows[bi, ti], contrib,
                                           len(params.tensors["embeddings"]))


def _qkv_block(vector: np.ndarray, offset: int, heads: int, d: int) -> np.ndarray:
    """The (H,3,d,dh) view of the attn{h}_w{p} tensors, which lie one after
    another from `offset` in an arena-ordered vector, head-major then Q, K,
    V. Its transpose (2,1,0,3) lays them out as w_qkv's columns: every
    head's Q, then K, then V."""
    dh = d // heads
    return vector[offset:offset + 3 * d * d].reshape(heads, 3, d, dh)


def _attention_forward(trace: ForwardTrace, x: np.ndarray,
                       params: SainParams) -> np.ndarray:
    """Scaled dot-product attention with top-K row filtering, all heads at
    once; returns the head outputs concatenated in head order (B,S,d). The
    columns of the one QKV product reshape to (3,H,dh). The logits go into
    an empty_rows buffer, in which softmax_rows works in place; the arrays
    after it keep its layout, and row_sums gives their row sums."""
    config = params.config
    B, S, d = x.shape
    H, dh = config.num_heads, config.head_dim
    trace.x = x
    block = _qkv_block(params.flat, params.offsets["attn0_wq"], H, d)
    trace.w_qkv = block.transpose(2, 1, 0, 3).reshape(d, 3 * d)
    qkv = (x.reshape(B * S, d) @ trace.w_qkv).reshape(B, S, 3, H, dh)
    trace.q, trace.k, trace.v = qkv.transpose(2, 0, 3, 1, 4)
    logits = np.matmul(trace.q, trace.k.swapaxes(-1, -2), out=empty_rows((B, H, S, S)))
    logits *= 1.0 / math.sqrt(dh)
    trace.alpha_full = softmax_rows(logits, out=logits)
    trace.topk_mask = top_k_mask_rows(trace.alpha_full, min(config.top_k, S))
    trace.alpha_topk = trace.alpha_full * trace.topk_mask
    trace.sel_sum = row_sums(trace.alpha_topk)
    if config.renormalize_topk:
        trace.alpha_topk /= trace.sel_sum
    concat = np.empty((B, S, H, dh))
    np.matmul(trace.alpha_topk, trace.v, out=concat.transpose(0, 2, 1, 3))
    return concat.reshape(B, S, d)


def _attention_backward(trace: ForwardTrace, d_concat: np.ndarray, grads: dict,
                        params: SainParams) -> np.ndarray:
    """Returns the gradient of x through the attention alone. d_q, d_k, d_v
    are (B,H,S,dh) views of one (B,S,3,H,dh) buffer, whose rows reshape to
    (B*S,3d) in the column order of w_qkv. The renormalization and softmax
    backward run in d_logits' buffer (empty_rows) with one scratch array of
    its layout for the row products."""
    config = params.config
    B, S, d = trace.x.shape
    H, dh = config.num_heads, config.head_dim
    d_out = d_concat.reshape(B, S, H, dh).transpose(0, 2, 1, 3)
    ahat, alpha = trace.alpha_topk, trace.alpha_full
    d_logits = np.matmul(d_out, trace.v.swapaxes(-1, -2), out=empty_rows((B, H, S, S)))
    scratch = np.empty_like(d_logits)
    if config.renormalize_topk:
        d_logits -= row_sums(np.multiply(d_logits, ahat, out=scratch))
        d_logits /= trace.sel_sum
    d_logits *= trace.topk_mask
    # softmax rows, with the logit scale folded in
    d_logits -= row_sums(np.multiply(d_logits, alpha, out=scratch))
    d_logits *= alpha
    d_logits *= 1.0 / math.sqrt(dh)
    d_qkv = np.empty((B, S, 3, H, dh))
    d_q, d_k, d_v = d_qkv.transpose(2, 0, 3, 1, 4)
    np.matmul(d_logits, trace.k, out=d_q)
    np.matmul(d_logits.swapaxes(-1, -2), trace.q, out=d_k)
    np.matmul(ahat.swapaxes(-1, -2), d_out, out=d_v)
    d_qkv = d_qkv.reshape(B * S, 3 * d)
    g_qkv = (trace.x.reshape(B * S, d).T @ d_qkv).reshape(d, 3, H, dh)
    g_block = _qkv_block(grads.flat, grads.offsets["attn0_wq"], H, d)
    g_block += g_qkv.transpose(2, 1, 0, 3)
    return (d_qkv @ trace.w_qkv.T).reshape(B, S, d)


def _batch_norm_forward(trace: ForwardTrace, z: np.ndarray, params: SainParams,
                        mode: str, dropout_rng: np.random.Generator | None) -> np.ndarray:
    """Channel-wise batch norm over the batch x feature-position axis, then
    dropout. Train mode normalizes with batch statistics (biased variance),
    records updated running stats and, when dropout_rate is positive, draws
    an inverted-scale dropout mask; eval mode uses the stored running stats.
    xhat is computed in z's buffer, so z is consumed."""
    config = params.config
    flat = z.reshape(-1, z.shape[-1])
    trace.mode = mode
    if mode == "train":
        mean = flat.mean(axis=0)
        xhat = np.subtract(flat, mean, out=flat)
        # np.var's own steps: the centered squares summed, over the count
        var = (xhat * xhat).sum(axis=0) / flat.shape[0]
        mom = config.bn_momentum
        trace.bn_new_mean = (1.0 - mom) * params.bn_mean + mom * mean
        trace.bn_new_var = (1.0 - mom) * params.bn_var + mom * var
    else:
        mean, var = params.bn_mean, params.bn_var
        trace.bn_new_mean, trace.bn_new_var = mean.copy(), var.copy()
        xhat = np.subtract(flat, mean, out=flat)
    trace.bn_inv_std = 1.0 / np.sqrt(var + config.bn_epsilon)
    xhat *= trace.bn_inv_std
    trace.bn_xhat = xhat.reshape(z.shape)
    out = params.tensors["bn_gamma"] * trace.bn_xhat
    out += params.tensors["bn_beta"]
    trace.dropout_mask = None
    if mode == "train" and config.dropout_rate > 0.0:
        if dropout_rng is None:
            raise ValueError("train mode with dropout needs a dropout rng")
        keep = 1.0 - config.dropout_rate
        trace.dropout_mask = dropout_rng.random(out.shape)
        np.divide(trace.dropout_mask < keep, keep, out=trace.dropout_mask)
        out *= trace.dropout_mask
    return out


def _batch_norm_backward(trace: ForwardTrace, d_out: np.ndarray, grads: dict,
                         params: SainParams) -> np.ndarray:
    """d_out stays intact, as the residual's backward also returned it as x's
    gradient: z's gradient is computed in the masked copy that dropout makes
    here, or in a fresh array."""
    mask = trace.dropout_mask
    flat_xhat = trace.bn_xhat.reshape(-1, d_out.shape[-1])
    flat_dy = (d_out if mask is None else d_out * mask).reshape(flat_xhat.shape)
    grads["bn_gamma"] += np.einsum("ad,ad->d", flat_dy, flat_xhat)
    grads["bn_beta"] += flat_dy.sum(axis=0)
    d_z = np.multiply(flat_dy, params.tensors["bn_gamma"],
                      out=None if mask is None else flat_dy)
    if trace.mode == "train":
        A = flat_dy.shape[0]
        d_sum = d_z.sum(axis=0)
        d_dot = np.einsum("ad,ad->d", d_z, flat_xhat)
        d_z *= A
        d_z -= d_sum
        d_z -= flat_xhat * d_dot
        d_z *= trace.bn_inv_std / A
    else:
        d_z *= trace.bn_inv_std
    return d_z.reshape(d_out.shape)


def _residual_forward(trace: ForwardTrace, x: np.ndarray, h: np.ndarray) -> np.ndarray:
    """xbar = ReLU(x + h), the sum taken in h's buffer."""
    h += x
    trace.resid = h
    return np.maximum(h, 0.0)


def _residual_backward(trace: ForwardTrace, d_xbar: np.ndarray) -> np.ndarray:
    """The gradient of both x and h, in d_xbar's buffer."""
    return np.multiply(d_xbar, trace.resid > 0.0, out=d_xbar)


def _side_columns(seq: np.ndarray, layout: FieldLayout) -> dict:
    """Each side's positions of a (B,S,d) sequence, as a (B,fields*d) view."""
    flat = seq.reshape(seq.shape[0], -1)
    md = layout.m * seq.shape[2]
    return {"user": flat[:, :md], "item": flat[:, md:]}


def _sides_forward(trace: ForwardTrace, xbar: np.ndarray, params: SainParams) -> None:
    """Fills the per-side dicts, which the scores stage reads."""
    t = params.tensors
    trace.xbar = xbar
    cols = _side_columns(xbar, params.layout)
    trace.content, trace.cf, trace.gate_alpha, trace.combined = {}, {}, {}, {}
    for side in SIDES:
        content = cols[side] @ t[f"agg_{side}_w"]
        content += t[f"agg_{side}_b"]
        cf = t[f"cf_{side}"][trace.ids[side]]
        # Both affine logits carry the same bias, so it cancels exactly in the
        # difference; computing the subtracted form keeps that identity in
        # floating point too.
        a = _stable_sigmoid((cf - content) @ t[params.gate_name(side)])
        trace.content[side], trace.cf[side], trace.gate_alpha[side] = content, cf, a
        trace.combined[side] = a[:, None] * cf + (1.0 - a)[:, None] * content


def _sides_backward(trace: ForwardTrace, d_content: dict, d_cf: dict,
                    d_combined: dict, grads: dict, params: SainParams) -> np.ndarray:
    """Takes the per-side gradients of the content, CF and combined vectors,
    and completes the first two in place. The gate is X = a*cf + (1-a)*content
    with a = sigmoid((cf - content) @ w); its bias cancels in the logit
    difference, so its gradient stays 0."""
    t = params.tensors
    d_xbar = np.empty(trace.xbar.shape)
    cols = _side_columns(trace.xbar, params.layout)
    d_cols = _side_columns(d_xbar, params.layout)
    for side in SIDES:
        a, cf, ct = trace.gate_alpha[side], trace.cf[side], trace.content[side]
        d_comb, d_ct = d_combined[side], d_content[side]
        w_name = params.gate_name(side)
        da = np.einsum("bd,bd->b", d_comb, cf - ct)
        dt = da * a * (1.0 - a)
        d_cf[side] += a[:, None] * d_comb + dt[:, None] * t[w_name][None, :]
        d_ct += (1.0 - a)[:, None] * d_comb - dt[:, None] * t[w_name][None, :]
        grads[w_name] += np.einsum("b,bd->d", dt, cf - ct)
        grads[f"cf_{side}"] = scatter_add_rows(trace.ids[side], d_cf[side],
                                               len(t[f"cf_{side}"]))
        grads[f"agg_{side}_w"] += cols[side].T @ d_ct
        grads[f"agg_{side}_b"] += d_ct.sum(axis=0)
        np.matmul(d_ct, t[f"agg_{side}_w"].T, out=d_cols[side])
    return d_xbar


def _scores_forward(trace: ForwardTrace) -> None:
    """The dot products of the two sides' content, CF and combined vectors."""
    trace.score_content = np.einsum("bd,bd->b", trace.content["user"],
                                    trace.content["item"])
    trace.score_preference = np.einsum("bd,bd->b", trace.cf["user"], trace.cf["item"])
    trace.score_combined = np.einsum("bd,bd->b", trace.combined["user"],
                                     trace.combined["item"])


def _scores_backward(trace: ForwardTrace, ratings: np.ndarray,
                     params: SainParams) -> tuple[dict, dict, dict]:
    """Starts from joint_loss: each side's content, CF and combined vector
    gradients are a score's loss gradient times the other side's vector."""
    w1, w2, w3 = params.config.loss_weights

    def through(weight: float, score: np.ndarray, vectors: dict) -> dict:
        g = (2.0 * weight * (score - ratings) / trace.batch_size)[:, None]
        return {"user": g * vectors["item"], "item": g * vectors["user"]}

    return (through(w1, trace.score_content, trace.content),
            through(w2, trace.score_preference, trace.cf),
            through(w3, trace.score_combined, trace.combined))


def forward_batch(uids: np.ndarray, iids: np.ndarray, user_packed: PackedFeatures,
                  item_packed: PackedFeatures, params: SainParams, *,
                  mode: str = "eval",
                  dropout_rng: np.random.Generator | None = None) -> ForwardTrace:
    """Full batched forward pass of the model that params.config sets up.
    Eval mode is a pure deterministic function of (inputs, params); train mode
    uses batch statistics and, when dropout_rate is positive, a recorded
    inverted-scale dropout mask."""
    if mode not in ("train", "eval"):
        raise ValueError(f"unknown mode {mode!r}")
    trace = ForwardTrace()
    trace.ids = {"user": np.asarray(uids, dtype=np.int64),
                 "item": np.asarray(iids, dtype=np.int64)}
    packed = {"user": user_packed, "item": item_packed}
    if trace.ids["user"].size == 0:
        raise ValueError("empty batch")
    for side in SIDES:
        # An id indexes both the side's packed tables and its CF table.
        ids = trace.ids[side]
        n = min(packed[side].rows.shape[0], params.tensors[f"cf_{side}"].shape[0])
        if ids.min() < 0 or ids.max() >= n:
            raise ShapeError(f"{side} id outside [0, {n}): "
                             f"{int(ids[(ids < 0) | (ids >= n)][0])}")

    x = _embed_forward(trace, packed, params)
    heads = _attention_forward(trace, x, params)
    h = _batch_norm_forward(trace, heads, params, mode, dropout_rng)
    _sides_forward(trace, _residual_forward(trace, x, h), params)
    _scores_forward(trace)
    return trace


def joint_loss(trace: ForwardTrace, ratings: np.ndarray,
               weights: tuple[float, float, float]):
    """Weighted sum of the three per-batch MSE terms. Returns (scalar loss,
    (mse_content, mse_preference, mse_combined))."""
    r = np.asarray(ratings, dtype=np.float64)
    if r.size == 0:
        raise ValueError("empty batch")
    if r.shape[0] != trace.batch_size:
        raise ShapeError("ratings length does not match trace batch size")
    mse_c = float(np.mean((trace.score_content - r) ** 2))
    mse_p = float(np.mean((trace.score_preference - r) ** 2))
    mse_m = float(np.mean((trace.score_combined - r) ** 2))
    w1, w2, w3 = weights
    return w1 * mse_c + w2 * mse_p + w3 * mse_m, (mse_c, mse_p, mse_m)


def backward(trace: ForwardTrace, ratings: np.ndarray,
             params: SainParams) -> dict[str, np.ndarray]:
    """Exact gradients of joint_loss w.r.t. every learnable tensor, following
    the recorded forward pass (including the fixed top-K selection, the
    renormalization, the batch-norm mode used, and the dropout mask)."""
    r = np.asarray(ratings, dtype=np.float64)
    if r.shape[0] != trace.batch_size:
        raise ShapeError("ratings length does not match trace batch size")
    grads = params.zero_grads(skip=params.EMBEDDINGS)
    d_content, d_cf, d_combined = _scores_backward(trace, r, params)
    d_xbar = _sides_backward(trace, d_content, d_cf, d_combined, grads, params)
    d_resid = _residual_backward(trace, d_xbar)
    d_heads = _batch_norm_backward(trace, d_resid, grads, params)
    # x feeds both the attention and the residual sum
    d_x = _attention_backward(trace, d_heads, grads, params)
    d_x += d_resid
    _embed_backward(trace, d_x, grads, params)
    return grads
