"""Minimal dense numerical kernel: stable softmax, deterministic top-k selection,
a row scatter-add, Adam with decoupled weight decay, and a central
finite-difference oracle used to certify every analytic gradient in this
package.

All arithmetic is float64; gradient certification at 1e-4 relative tolerance is
not reliable in float32.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


def as_matrix(data, rows: int | None = None, cols: int | None = None) -> np.ndarray:
    """Coerce to a float64 2-D array, optionally checking the shape."""
    a = np.asarray(data, dtype=np.float64)
    if a.ndim != 2:
        raise ValueError(f"expected a matrix, got ndim={a.ndim}")
    if rows is not None and a.shape[0] != rows:
        raise ValueError(f"shape mismatch: expected {rows} rows, got {a.shape[0]}")
    if cols is not None and a.shape[1] != cols:
        raise ValueError(f"shape mismatch: expected {cols} cols, got {a.shape[1]}")
    return a


def softmax_row(logits) -> np.ndarray:
    """Softmax of a single logit vector, max-subtracted for overflow safety."""
    z = np.asarray(logits, dtype=np.float64)
    if z.size == 0:
        raise ValueError("empty logits")
    if not np.all(np.isfinite(z)):
        raise ValueError("non-finite logit")
    e = np.exp(z - z.max())
    return e / e.sum()


def softmax_rows(logits: np.ndarray) -> np.ndarray:
    """Row-wise stable softmax over the last axis of an n-d array."""
    z = np.asarray(logits, dtype=np.float64)
    e = np.exp(z - z.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


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


def top_k_mask_rows(weights: np.ndarray, k: int) -> np.ndarray:
    """Boolean mask over the last axis keeping each row's k largest entries
    (ties by smaller index). Works on any leading batch shape."""
    if k < 1:
        raise ValueError("k must be positive")
    n = weights.shape[-1]
    k = min(k, n)
    order = np.argsort(-weights, axis=-1, kind="stable")
    mask = np.zeros(weights.shape, dtype=bool)
    np.put_along_axis(mask, order[..., :k], True, axis=-1)
    return mask


def scatter_add_rows(rows: np.ndarray, values: np.ndarray, num_rows: int) -> np.ndarray:
    """Dense (num_rows, d) table holding the sum of values[i] (d,) in row
    rows[i], as one flattened bincount. Each element sums its contributions
    in input order starting from zero, as np.add.at into a zero table does,
    so the two agree bit for bit."""
    d = values.shape[1]
    flat = (rows[:, None] * d + np.arange(d)).reshape(-1)
    return np.bincount(flat, weights=values.reshape(-1),
                       minlength=num_rows * d).reshape(num_rows, d)


@dataclass
class AdamState:
    """Per-tensor Adam moments. t counts completed steps."""

    m: np.ndarray
    v: np.ndarray
    t: int = 0
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8

    @classmethod
    def for_param(cls, param: np.ndarray, beta1: float = 0.9, beta2: float = 0.999,
                  eps: float = 1e-8) -> "AdamState":
        return cls(m=np.zeros_like(param), v=np.zeros_like(param),
                   t=0, beta1=beta1, beta2=beta2, eps=eps)


def adam_step(param: np.ndarray, grad: np.ndarray, state: AdamState,
              lr: float, weight_decay: float = 0.0) -> tuple[np.ndarray, AdamState]:
    """One Adam update with bias correction. L2 is decoupled: lr * weight_decay *
    param is subtracted after the Adam step, so the loss gradient stays
    independent of the regularizer. Returns (new param, new state)."""
    if param.shape != grad.shape or param.shape != state.m.shape or param.shape != state.v.shape:
        raise ValueError("shape mismatch")
    t = state.t + 1
    m = state.beta1 * state.m + (1.0 - state.beta1) * grad
    v = state.beta2 * state.v + (1.0 - state.beta2) * grad * grad
    m_hat = m / (1.0 - state.beta1 ** t)
    v_hat = v / (1.0 - state.beta2 ** t)
    new_param = param - lr * m_hat / (np.sqrt(v_hat) + state.eps)
    if weight_decay != 0.0:
        new_param = new_param - lr * weight_decay * param
    return new_param, AdamState(m=m, v=v, t=t, beta1=state.beta1,
                                beta2=state.beta2, eps=state.eps)


def finite_diff_gradient(scalar_fn, point, eps: float = 1e-5) -> np.ndarray:
    """Central-difference gradient estimate of scalar_fn at point:
    (f(x + eps*e_i) - f(x - eps*e_i)) / (2*eps) per coordinate."""
    if eps <= 0:
        raise ValueError("eps must be positive")
    x0 = np.asarray(point, dtype=np.float64).copy()
    grad = np.zeros_like(x0)
    for i in range(x0.size):
        x = x0.copy()
        x[i] = x0[i] + eps
        f_plus = scalar_fn(x)
        x[i] = x0[i] - eps
        f_minus = scalar_fn(x)
        if not (np.isfinite(f_plus) and np.isfinite(f_minus)):
            raise ValueError(f"non-finite evaluation at coordinate {i}")
        grad[i] = (f_plus - f_minus) / (2.0 * eps)
    return grad


def relative_error(analytic: np.ndarray, numeric: np.ndarray) -> float:
    """Max elementwise |a - n| / max(1, |a|, |n|), a scale-safe relative error."""
    a = np.asarray(analytic, dtype=np.float64).ravel()
    n = np.asarray(numeric, dtype=np.float64).ravel()
    denom = np.maximum(1.0, np.maximum(np.abs(a), np.abs(n)))
    return float(np.max(np.abs(a - n) / denom)) if a.size else 0.0
