"""Reference implementations that the tests compare the package against: one
attention head on one sequence, a single-row softmax, and top-k selection by
a stable sort. The package itself runs the batched forms (all heads as one
tensor axis, softmax_rows, top_k_mask_rows)."""

import math

import numpy as np

from sain.tensor import softmax_rows, top_k_mask_rows


def softmax_row(logits) -> np.ndarray:
    """Softmax of a single logit vector, max-subtracted for overflow safety."""
    z = np.asarray(logits, dtype=np.float64)
    if z.size == 0:
        raise ValueError("empty logits")
    if not np.all(np.isfinite(z)):
        raise ValueError("non-finite logit")
    e = np.exp(z - z.max())
    return e / e.sum()


def top_k_indices(scores, k: int) -> np.ndarray:
    """Indices of the k largest scores, ties broken by the smaller index,
    returned in ascending index order. k larger than the length clamps."""
    if k < 1:
        raise ValueError("k must be positive")
    s = np.asarray(scores, dtype=np.float64)
    if s.size == 0:
        raise ValueError("empty scores")
    k = min(k, s.size)
    # Stable sort on negated scores: equal scores keep ascending index order.
    order = np.argsort(-s, kind="stable")[:k]
    return np.sort(order)


def attention_head(x: np.ndarray, wq: np.ndarray, wk: np.ndarray, wv: np.ndarray,
                   k: int, renormalize: bool = True):
    """Single-sequence attention head, the per-head reference for the
    all-heads path. Returns (outputs (S,dh), pre-top-K attention matrix,
    post-top-K weight matrix)."""
    if k < 1:
        raise ValueError("k must be >= 1")
    x = np.asarray(x, dtype=np.float64)
    S = x.shape[0]
    dh = wq.shape[1]
    qh, kh, vh = x @ wq, x @ wk, x @ wv
    logits = (qh @ kh.T) / math.sqrt(dh)
    alpha = softmax_rows(logits)
    mask = top_k_mask_rows(alpha, min(k, S))
    selected = alpha * mask
    ahat = selected / selected.sum(axis=-1, keepdims=True) if renormalize else selected
    return ahat @ vh, alpha, ahat


def head_outputs(trace) -> np.ndarray:
    """The (B,S,d) attention output before batch norm, heads side by side in
    head order, rebuilt from a trace's post-top-K weights and values."""
    out = trace.alpha_topk @ trace.v                 # (B,H,S,dh)
    B, H, S, dh = out.shape
    return out.transpose(0, 2, 1, 3).reshape(B, S, H * dh)
