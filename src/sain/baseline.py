"""Matrix-factorization baseline with user/item biases: the prediction is
global mean + user bias + item bias + factor dot product, trained on MSE with
the same optimizer, schedule, and early stopping as the attention model.

The global mean is frozen at the training-set average and is not a gradient
target.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ShapeError
from .tensor import ParamSet, scatter_add_rows


class MfParams(ParamSet):
    """Learnable tensors for the biased factor model, packed into one
    ParamSet arena, plus the frozen mean. All four are indexed by id; the
    entity counts and the dimension are the factor tables' shapes."""

    EMBEDDINGS = ("user_factors", "item_factors", "user_bias", "item_bias")

    def __init__(self, tensors: dict[str, np.ndarray], mu: float,
                 adam: dict | None = None):
        super().__init__(tensors, adam)
        self.mu = float(mu)
        self.num_users, self.dim = self._shapes["user_factors"]
        self.num_items = self._shapes["item_factors"][0]
        if list(self._shapes.items()) != list(
                self.shapes(self.num_users, self.num_items, self.dim).items()):
            raise ShapeError("factor model tensors do not agree on their sizes")

    @staticmethod
    def shapes(num_users: int, num_items: int, dim: int) -> dict[str, tuple]:
        """Every learnable tensor's shape, in registration order."""
        return {"user_factors": (num_users, dim), "item_factors": (num_items, dim),
                "user_bias": (num_users,), "item_bias": (num_items,)}

    @classmethod
    def init(cls, num_users: int, num_items: int, dim: int, mu: float,
             rng: np.random.Generator) -> "MfParams":
        if num_users < 1 or num_items < 1 or dim < 1:
            raise ShapeError("factor model needs at least one user, one item, "
                             "and a positive dimension")
        scale = 1.0 / math.sqrt(dim)
        t = {name: rng.uniform(-scale, scale, size=shape)
             if name.endswith("_factors") else np.zeros(shape)
             for name, shape in cls.shapes(num_users, num_items, dim).items()}
        return cls(t, mu=mu)


def mf_scores(uids: np.ndarray, iids: np.ndarray, params: MfParams) -> np.ndarray:
    """Raw (unclipped) predictions for a batch of pairs."""
    uids = np.asarray(uids, dtype=np.int64)
    iids = np.asarray(iids, dtype=np.int64)
    if uids.size and (uids.min() < 0 or uids.max() >= params.num_users):
        raise ShapeError("unknown user id")
    if iids.size and (iids.min() < 0 or iids.max() >= params.num_items):
        raise ShapeError("unknown item id")
    p = params.tensors["user_factors"][uids]
    q = params.tensors["item_factors"][iids]
    return (params.mu + params.tensors["user_bias"][uids]
            + params.tensors["item_bias"][iids] + np.einsum("bd,bd->b", p, q))


def mf_loss(scores: np.ndarray, ratings: np.ndarray) -> float:
    r = np.asarray(ratings, dtype=np.float64)
    if r.size == 0:
        raise ValueError("empty batch")
    return float(np.mean((scores - r) ** 2))


def mf_backward(uids: np.ndarray, iids: np.ndarray, scores: np.ndarray,
                ratings: np.ndarray, params: MfParams) -> dict[str, np.ndarray]:
    """Exact MSE gradients for every learnable tensor. Each table is one
    bincount scatter over the batch, so repeated users/items accumulate, in
    batch order from zero, as np.add.at into a zero table would."""
    uids = np.asarray(uids, dtype=np.int64)
    iids = np.asarray(iids, dtype=np.int64)
    r = np.asarray(ratings, dtype=np.float64)
    if r.shape != scores.shape:
        raise ShapeError("ratings length does not match scores")
    g = 2.0 * (scores - r) / r.shape[0]
    p = params.tensors["user_factors"][uids]
    q = params.tensors["item_factors"][iids]
    nu, ni = len(params.tensors["user_bias"]), len(params.tensors["item_bias"])
    return {"user_factors": scatter_add_rows(uids, g[:, None] * q, nu),
            "item_factors": scatter_add_rows(iids, g[:, None] * p, ni),
            "user_bias": np.bincount(uids, weights=g, minlength=nu),
            "item_bias": np.bincount(iids, weights=g, minlength=ni)}
