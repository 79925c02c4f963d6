"""The hybrid attention recommender as one batched pass, `forward_batch`,
and its exact hand-derived reverse pass, `backward`. For a batch of (user,
item) pairs the forward pass mean-pools each side's packed feature tokens
into one embedding per field, runs feature-level multi-head self-attention
with top-K filtering, then batch norm, dropout, the residual and ReLU,
aggregates each side's positions affinely into a content vector, looks up
the collaborative-filtering vectors, blends both per side through a learned
gate, and scores the three dot products that the jointly weighted MSE loss
reads. Training, evaluation, prediction and the attention export all run
this one pass; a single pair is a batch of one.

Shapes: B batch, S = m + n feature positions (m user fields then n item
fields), d embed dim, H heads, dh = d // H. The heads run as one tensor axis:
Q, K and V for every head come from one (B*S,d) @ (d,3d) product, and the
attention arrays are (B,H,S,S) and (B,H,S,dh). Each head's projections stay
registered as their own (d,dh) tensors `attn{h}_w{q,k,v}`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import FeatureVocab, PackedFeatures
from .errors import ShapeError
from .tensor import ParamSet, scatter_add_rows, softmax_rows, top_k_mask_rows

L2_SCOPES = ("all", "embeddings", "projections")
EMBEDDING_TENSORS = ("embeddings", "cf_user", "cf_item")


def require_int(name: str, value) -> None:
    """ValueError unless value is an integer; a bool or a float is not one."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")


def require_real(name: str, value) -> None:
    """ValueError unless value is an int or a float; a bool is neither."""
    if isinstance(value, bool) or not isinstance(value, (int, float, np.integer,
                                                         np.floating)):
        raise ValueError(f"{name} must be a number, got {value!r}")


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
        for name in ("embed_dim", "num_heads", "top_k"):
            require_int(name, getattr(self, name))
        for name in ("dropout_rate", "bn_epsilon", "bn_momentum"):
            require_real(name, getattr(self, name))
        for name in ("gate_shared", "renormalize_topk"):
            if not isinstance(getattr(self, name), bool):
                raise ValueError(f"{name} must be true or false, "
                                 f"got {getattr(self, name)!r}")
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
            raise ValueError("loss_weights needs exactly three entries")
        for w in self.loss_weights:
            require_real("loss_weights", w)
        self.loss_weights = tuple(float(w) for w in self.loss_weights)
        if not all(math.isfinite(w) and w >= 0.0 for w in self.loss_weights) or \
                not any(self.loss_weights):
            raise ValueError(f"loss_weights must be finite and >= 0, and not all "
                             f"zero, got {self.loss_weights!r}")
        if self.l2_scope not in L2_SCOPES:
            raise ValueError(f"l2_scope must be one of {L2_SCOPES}")

    @property
    def head_dim(self) -> int:
        return self.embed_dim // self.num_heads

    def to_dict(self) -> dict:
        return {"embed_dim": self.embed_dim, "num_heads": self.num_heads,
                "top_k": self.top_k, "dropout_rate": self.dropout_rate,
                "loss_weights": list(self.loss_weights),
                "gate_shared": self.gate_shared,
                "renormalize_topk": self.renormalize_topk,
                "l2_scope": self.l2_scope, "bn_epsilon": self.bn_epsilon,
                "bn_momentum": self.bn_momentum}

    @classmethod
    def from_dict(cls, d: dict) -> "ModelConfig":
        """Config from a run config's or a checkpoint header's dict. There is
        one attention layer; configs and checkpoints written while its count
        was a key still carry `num_attention_layers`, which must be the
        integer 1 and is dropped."""
        d = dict(d)
        if "num_attention_layers" in d:
            layers = d.pop("num_attention_layers")
            if type(layers) is not int or layers != 1:
                raise ValueError("num_attention_layers is fixed at 1")
        if "loss_weights" in d:
            d["loss_weights"] = tuple(d["loss_weights"])
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

    def to_dict(self) -> dict:
        return {"user_fields": list(self.user_fields),
                "item_fields": list(self.item_fields),
                "sizes": dict(self.sizes),
                "num_users": self.num_users, "num_items": self.num_items}

    @classmethod
    def from_dict(cls, d: dict) -> "FieldLayout":
        return cls(user_fields=list(d["user_fields"]), item_fields=list(d["item_fields"]),
                   sizes=dict(d["sizes"]), num_users=int(d["num_users"]),
                   num_items=int(d["num_items"]))


class SainParams(ParamSet):
    """All learnable tensors, packed into one ParamSet arena, plus batch-norm
    running statistics. Every learnable tensor is registered exactly once in
    `tensors`; the registration order drives initialization draws, the
    optimizer loop, and the flat vector used by the finite-difference oracle.
    Running stats are excluded from gradients."""

    def __init__(self, layout: FieldLayout, config: ModelConfig,
                 tensors: dict[str, np.ndarray], bn_mean: np.ndarray,
                 bn_var: np.ndarray, adam: dict | None = None):
        super().__init__(tensors, adam)
        self.layout = layout
        self.config = config
        self.bn_mean = bn_mean
        self.bn_var = bn_var

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

    def gate(self, side: str) -> tuple[np.ndarray, np.ndarray, str, str]:
        """Gate weight/bias for one side and their registry names."""
        if self.config.gate_shared:
            return self.tensors["gate_w"], self.tensors["gate_b"], "gate_w", "gate_b"
        return (self.tensors[f"gate_{side}_w"], self.tensors[f"gate_{side}_b"],
                f"gate_{side}_w", f"gate_{side}_b")

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
    embedding = {n for n in names if n in EMBEDDING_TENSORS or n in ("user_factors",
                 "item_factors", "user_bias", "item_bias")}
    return embedding if scope == "embeddings" else names - embedding


def _stable_sigmoid(t: np.ndarray) -> np.ndarray:
    out = np.empty_like(t)
    pos = t >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-t[pos]))
    e = np.exp(t[~pos])
    out[~pos] = e / (1.0 + e)
    return out


@dataclass
class ForwardTrace:
    """Everything the backward pass needs, for a batch (B may be 1)."""

    uids: np.ndarray
    iids: np.ndarray
    mode: str
    x: np.ndarray                      # (B,S,d) embedded feature sequence
    # The user side's packed columns, then the item side's: each token's
    # embedding row and mean-pooling weight, 0 on padding. The backward
    # scatters only the nonzero weights; a padding token's term is d_x * 0,
    # a signed zero, which adds nothing to a scatter sum (scatter_add_rows).
    embed_rows: np.ndarray             # (B,T) int64
    embed_weights: np.ndarray          # (B,T) float64
    embed_bounds: list                 # (S+1,) position p pools columns [p]..[p+1]-1
    q: np.ndarray                      # (B,H,S,dh)
    k: np.ndarray
    v: np.ndarray
    alpha_full: np.ndarray             # (B,H,S,S) pre-top-K softmax
    topk_mask: np.ndarray              # (B,H,S,S) bool
    alpha_topk: np.ndarray             # (B,H,S,S) post-top-K weights
    sel_sum: np.ndarray                # (B,H,S,1) selected-weight row sums
    bn_xhat: np.ndarray                # (B,S,d)
    bn_inv_std: np.ndarray             # (d,)
    bn_new_mean: np.ndarray            # (d,) running stats after this pass
    bn_new_var: np.ndarray
    dropout_mask: np.ndarray | None    # (B,S,d) inverted-scale mask, None in eval
    resid: np.ndarray                  # (B,S,d) pre-ReLU residual sum
    xbar: np.ndarray                   # (B,S,d)
    content_user: np.ndarray           # (B,d)
    content_item: np.ndarray
    cf_user: np.ndarray                # (B,d)
    cf_item: np.ndarray
    gate_alpha: dict                   # side -> (B,) blend weight in (0,1)
    combined_user: np.ndarray          # (B,d)
    combined_item: np.ndarray
    score_content: np.ndarray          # (B,)
    score_preference: np.ndarray
    score_combined: np.ndarray

    @property
    def batch_size(self) -> int:
        return self.x.shape[0]


def _embed_batch(uids, iids, user_packed: PackedFeatures, item_packed: PackedFeatures,
                 params: SainParams):
    """(B,S,d) pooled embeddings, plus what the backward scatter needs: the
    (B,T) token rows and pooling weights of both sides' packed columns, and
    the column bounds of each position. Each side's tables are gathered once,
    the embedding rows of all tokens once, and each position pools its own
    column slice straight into x."""
    emb = params.tensors["embeddings"]
    rows = np.concatenate([user_packed.rows[uids], item_packed.rows[iids]], axis=1)
    weights = np.concatenate([user_packed.weights[uids], item_packed.weights[iids]],
                             axis=1)
    tokens = emb[rows]                                       # (B,T,d)
    bounds = user_packed.bounds + [user_packed.bounds[-1] + b
                                   for b in item_packed.bounds[1:]]
    x = np.empty((rows.shape[0], len(bounds) - 1, emb.shape[1]))
    for p, (lo, hi) in enumerate(zip(bounds, bounds[1:])):
        np.einsum("bl,bld->bd", weights[:, lo:hi], tokens[:, lo:hi], out=x[:, p])
    return x, rows, weights, bounds


def _qkv_weights(params: SainParams, config: ModelConfig) -> np.ndarray:
    """(d,3d): every head's Q, then K, then V projection side by side, so the
    columns of one product reshape to (3,H,dh)."""
    return np.concatenate([params.tensors[f"attn{h}_w{p}"] for p in "qkv"
                           for h in range(config.num_heads)], axis=1)


def _attention_heads(x: np.ndarray, params: SainParams, config: ModelConfig):
    """Scaled dot-product attention with top-K row filtering, all heads at
    once. Returns q, k, v (B,H,S,dh), the pre-top-K weights, the top-K mask and
    the post-top-K weights (B,H,S,S), the selected row sums (B,H,S,1), and the
    head outputs concatenated in head order (B,S,d)."""
    B, S, d = x.shape
    H, dh = config.num_heads, config.head_dim
    qkv = (x.reshape(B * S, d) @ _qkv_weights(params, config)).reshape(B, S, 3, H, dh)
    q, k, v = qkv.transpose(2, 0, 3, 1, 4)
    logits = q @ k.swapaxes(-1, -2)
    logits *= 1.0 / math.sqrt(dh)
    alpha = softmax_rows(logits, out=logits)
    mask = top_k_mask_rows(alpha, min(config.top_k, S))
    ahat = alpha * mask
    ssum = ahat.sum(axis=-1, keepdims=True)
    if config.renormalize_topk:
        ahat /= ssum
    concat = np.empty((B, S, H, dh))
    np.matmul(ahat, v, out=concat.transpose(0, 2, 1, 3))
    return q, k, v, alpha, mask, ahat, ssum, concat.reshape(B, S, d)


def _batch_norm_forward(z: np.ndarray, params: SainParams, config: ModelConfig,
                        mode: str):
    """Channel-wise batch norm over the batch x feature-position axis. Train
    mode normalizes with batch statistics (biased variance) and returns updated
    running stats; eval mode uses the stored running stats. The normalized
    input xhat is computed in z's buffer, so z is consumed."""
    gamma, beta = params.tensors["bn_gamma"], params.tensors["bn_beta"]
    flat = z.reshape(-1, z.shape[-1])
    if mode == "train":
        mean = flat.mean(axis=0)
        xhat = np.subtract(flat, mean, out=flat)
        # np.var's own steps: the centered squares summed, over the count
        var = (xhat * xhat).sum(axis=0) / flat.shape[0]
        mom = config.bn_momentum
        new_mean = (1.0 - mom) * params.bn_mean + mom * mean
        new_var = (1.0 - mom) * params.bn_var + mom * var
    else:
        mean, var = params.bn_mean, params.bn_var
        new_mean, new_var = params.bn_mean.copy(), params.bn_var.copy()
        xhat = np.subtract(flat, mean, out=flat)
    inv_std = 1.0 / np.sqrt(var + config.bn_epsilon)
    xhat *= inv_std
    out = gamma * xhat
    out += beta
    xhat = xhat.reshape(z.shape)
    return out.reshape(z.shape), xhat, inv_std, new_mean, new_var


def forward_batch(uids: np.ndarray, iids: np.ndarray, user_packed: PackedFeatures,
                  item_packed: PackedFeatures, params: SainParams,
                  config: ModelConfig, mode: str = "eval",
                  dropout_rng: np.random.Generator | None = None) -> ForwardTrace:
    """Full batched forward pass. Eval mode is a pure deterministic function of
    (inputs, params); train mode uses batch statistics and, when dropout_rate
    is positive, a recorded inverted-scale dropout mask."""
    if mode not in ("train", "eval"):
        raise ValueError(f"unknown mode {mode!r}")
    uids = np.asarray(uids, dtype=np.int64)
    iids = np.asarray(iids, dtype=np.int64)
    if uids.size == 0:
        raise ValueError("empty batch")
    for side, ids, packed in (("user", uids, user_packed), ("item", iids, item_packed)):
        # An id indexes both the side's packed tables and its CF table.
        n = min(packed.rows.shape[0], params.tensors[f"cf_{side}"].shape[0])
        if ids.min() < 0 or ids.max() >= n:
            raise ShapeError(f"{side} id outside [0, {n}): "
                             f"{int(ids[(ids < 0) | (ids >= n)][0])}")

    x, embed_rows, embed_weights, embed_bounds = _embed_batch(
        uids, iids, user_packed, item_packed, params)
    q, k, v, alpha_full, mask, alpha_topk, sel_sum, concat = _attention_heads(
        x, params, config)

    # batch norm centers in concat's buffer, which becomes xhat
    bn_out, xhat, inv_std, new_mean, new_var = _batch_norm_forward(
        concat, params, config, mode)

    # dropout and residual, in bn_out's buffer, which becomes resid
    if mode == "train" and config.dropout_rate > 0.0:
        if dropout_rng is None:
            raise ValueError("train mode with dropout needs a dropout rng")
        keep = 1.0 - config.dropout_rate
        dropout_mask = dropout_rng.random(bn_out.shape)
        np.divide(dropout_mask < keep, keep, out=dropout_mask)
        bn_out *= dropout_mask
    else:
        dropout_mask = None
    bn_out += x
    resid = bn_out
    xbar = np.maximum(resid, 0.0)

    md = params.layout.m * config.embed_dim
    flat = xbar.reshape(uids.shape[0], -1)
    content_user = flat[:, :md] @ params.tensors["agg_user_w"]
    content_user += params.tensors["agg_user_b"]
    content_item = flat[:, md:] @ params.tensors["agg_item_w"]
    content_item += params.tensors["agg_item_b"]

    cf_user = params.tensors["cf_user"][uids]
    cf_item = params.tensors["cf_item"][iids]

    gate_alpha = {}
    combined = {}
    for side, cf_vec, ct_vec in (("user", cf_user, content_user),
                                 ("item", cf_item, content_item)):
        w, _, _, _ = params.gate(side)
        # Both affine logits carry the same bias, so it cancels exactly in the
        # difference; computing the subtracted form keeps that identity in
        # floating point too.
        a = _stable_sigmoid((cf_vec - ct_vec) @ w)
        gate_alpha[side] = a
        combined[side] = a[:, None] * cf_vec + (1.0 - a)[:, None] * ct_vec

    score_content = np.einsum("bd,bd->b", content_user, content_item)
    score_preference = np.einsum("bd,bd->b", cf_user, cf_item)
    score_combined = np.einsum("bd,bd->b", combined["user"], combined["item"])

    return ForwardTrace(uids=uids, iids=iids, mode=mode, x=x, embed_rows=embed_rows,
                        embed_weights=embed_weights, embed_bounds=embed_bounds,
                        q=q, k=k, v=v, alpha_full=alpha_full, topk_mask=mask,
                        alpha_topk=alpha_topk, sel_sum=sel_sum,
                        bn_xhat=xhat, bn_inv_std=inv_std,
                        bn_new_mean=new_mean, bn_new_var=new_var,
                        dropout_mask=dropout_mask, resid=resid, xbar=xbar,
                        content_user=content_user, content_item=content_item,
                        cf_user=cf_user, cf_item=cf_item, gate_alpha=gate_alpha,
                        combined_user=combined["user"],
                        combined_item=combined["item"], score_content=score_content,
                        score_preference=score_preference,
                        score_combined=score_combined)


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


def _embedding_grad(d_x: np.ndarray, rows: np.ndarray, weights: np.ndarray,
                    bounds: list, num_rows: int) -> np.ndarray:
    """Gradient of the embedding table from d_x (B,S,d), the gradient of the
    pooled positions: every token with a nonzero pooling weight adds weight *
    d_x of its position to its row, in the (B,T) row-major order of the
    packed columns. For a finite d_x, a padding token's term is d_x * 0, a
    signed zero, which changes no scatter sum (scatter_add_rows); so leaving
    the padding out gives the bits of scattering every column."""
    bi, ti = np.nonzero(weights)
    pos_of_col = np.repeat(np.arange(len(bounds) - 1), np.diff(bounds))
    contrib = d_x[bi, pos_of_col[ti]]
    contrib *= weights[bi, ti][:, None]
    return scatter_add_rows(rows[bi, ti], contrib, num_rows)


def backward(trace: ForwardTrace, ratings: np.ndarray, params: SainParams,
             config: ModelConfig) -> dict[str, np.ndarray]:
    """Exact gradients of joint_loss w.r.t. every learnable tensor, following
    the recorded forward pass (including the fixed top-K selection, the
    renormalization, the batch-norm mode used, and the dropout mask)."""
    r = np.asarray(ratings, dtype=np.float64)
    if r.shape[0] != trace.batch_size:
        raise ShapeError("ratings length does not match trace batch size")
    B = trace.batch_size
    m = params.layout.m
    d = config.embed_dim
    dh = config.head_dim
    w1, w2, w3 = config.loss_weights
    grads = params.zero_grads(skip=EMBEDDING_TENSORS)

    gc = 2.0 * w1 * (trace.score_content - r) / B
    gp = 2.0 * w2 * (trace.score_preference - r) / B
    gm = 2.0 * w3 * (trace.score_combined - r) / B

    # combined score -> gated vectors
    d_comb_u = gm[:, None] * trace.combined_item
    d_comb_v = gm[:, None] * trace.combined_user
    # content / preference scores -> their vectors
    d_content_u = gc[:, None] * trace.content_item
    d_content_v = gc[:, None] * trace.content_user
    d_cf_u = gp[:, None] * trace.cf_item
    d_cf_v = gp[:, None] * trace.cf_user

    # gates: X = a*cf + (1-a)*content, a = sigmoid((cf - content) @ w)
    for side, d_comb, cf_vec, ct_vec, d_cf, d_ct in (
            ("user", d_comb_u, trace.cf_user, trace.content_user, d_cf_u, d_content_u),
            ("item", d_comb_v, trace.cf_item, trace.content_item, d_cf_v, d_content_v)):
        w, _, name_w, _ = params.gate(side)
        a = trace.gate_alpha[side]
        da = np.einsum("bd,bd->b", d_comb, cf_vec - ct_vec)
        dt = da * a * (1.0 - a)
        d_cf += a[:, None] * d_comb + dt[:, None] * w[None, :]
        d_ct += (1.0 - a)[:, None] * d_comb - dt[:, None] * w[None, :]
        grads[name_w] += np.einsum("b,bd->d", dt, cf_vec - ct_vec)
        # the shared-affine bias cancels in the logit difference: gradient 0

    for name, ids, d_cf in (("cf_user", trace.uids, d_cf_u),
                            ("cf_item", trace.iids, d_cf_v)):
        grads[name] = scatter_add_rows(ids, d_cf, len(params.tensors[name]))

    # entity aggregation (affine, no activation), written into d_x's halves
    S = trace.x.shape[1]
    md = m * d
    flat = trace.xbar.reshape(B, -1)
    grads["agg_user_w"] += flat[:, :md].T @ d_content_u
    grads["agg_user_b"] += d_content_u.sum(axis=0)
    grads["agg_item_w"] += flat[:, md:].T @ d_content_v
    grads["agg_item_b"] += d_content_v.sum(axis=0)
    d_x = np.empty((B, S, d))
    rows_x = d_x.reshape(B, -1)
    np.matmul(d_content_u, params.tensors["agg_user_w"].T, out=rows_x[:, :md])
    np.matmul(d_content_v, params.tensors["agg_item_w"].T, out=rows_x[:, md:])

    # ReLU; d_x is then the residual's gradient, to which attention adds below
    np.multiply(d_x, trace.resid > 0.0, out=d_x)

    # dropout
    d_bn_out = d_x if trace.dropout_mask is None else d_x * trace.dropout_mask

    # batch norm, in d_bn_out's buffer when it has its own
    gamma = params.tensors["bn_gamma"]
    flat_dy = d_bn_out.reshape(-1, d)
    flat_xhat = trace.bn_xhat.reshape(-1, d)
    grads["bn_gamma"] += np.einsum("ad,ad->d", flat_dy, flat_xhat)
    grads["bn_beta"] += flat_dy.sum(axis=0)
    d_z = np.multiply(flat_dy, gamma, out=None if d_bn_out is d_x else flat_dy)
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
    d_concat = d_z.reshape(B, -1, d)

    # attention heads, all at once; d_q, d_k, d_v are (B,H,S,dh) views of one
    # (B,S,3,H,dh) buffer, whose rows reshape to (B*S,3d) in the column order
    # of _qkv_weights. The renormalization and softmax backward run in
    # d_logits' buffer with one (B,H,S,S) scratch array for the row products.
    H = config.num_heads
    d_out = d_concat.reshape(B, S, H, dh).transpose(0, 2, 1, 3)
    ahat, alpha, mask = trace.alpha_topk, trace.alpha_full, trace.topk_mask
    d_logits = d_out @ trace.v.swapaxes(-1, -2)
    scratch = np.empty_like(d_logits)
    if config.renormalize_topk:
        rowdot = np.multiply(d_logits, ahat, out=scratch).sum(axis=-1, keepdims=True)
        d_logits -= rowdot
        d_logits /= trace.sel_sum
    d_logits *= mask
    # softmax rows, with the logit scale folded in
    inner = np.multiply(d_logits, alpha, out=scratch).sum(axis=-1, keepdims=True)
    d_logits -= inner
    d_logits *= alpha
    d_logits *= 1.0 / math.sqrt(dh)
    d_qkv = np.empty((B, S, 3, H, dh))
    d_q, d_k, d_v = d_qkv.transpose(2, 0, 3, 1, 4)
    np.matmul(d_logits, trace.k, out=d_q)
    np.matmul(d_logits.swapaxes(-1, -2), trace.q, out=d_k)
    np.matmul(ahat.swapaxes(-1, -2), d_out, out=d_v)
    d_qkv = d_qkv.reshape(B * S, 3 * d)
    g_qkv = trace.x.reshape(B * S, d).T @ d_qkv
    for j, p in enumerate("qkv"):
        for h in range(H):
            col = (j * H + h) * dh
            grads[f"attn{h}_w{p}"] += g_qkv[:, col:col + dh]
    d_x += (d_qkv @ _qkv_weights(params, config).T).reshape(B, S, d)

    grads["embeddings"] = _embedding_grad(d_x, trace.embed_rows, trace.embed_weights,
                                          trace.embed_bounds,
                                          len(params.tensors["embeddings"]))
    return grads
