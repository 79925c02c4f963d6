"""Finite-difference certification of the hand-derived gradients.

Each case builds a tiny synthetic dataset and model (two user fields, two item
fields, d=4, two heads, batch of 3), computes analytic gradients of the joint
loss, and compares every parameter tensor against the central-difference
oracle. Dropout is off and batch norm runs on stored statistics so the loss is
a smooth deterministic function of the parameters. Fixtures are redrawn when a
top-K selection margin or a ReLU pre-activation sits close enough to a
decision boundary for the +/- eps probes to land on different branches.
A SAIN fixture's config is its params' `config`. Both model kinds share one
comparison, which probes clones of the params and names the worst tensor.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .baseline import MfParams, mf_backward, mf_loss, mf_scores
from .data import FeatureVocab, FieldSpec, pack_features
from .model import (FieldLayout, ModelConfig, SainParams, backward,
                    forward_batch, joint_loss)
from .tensor import finite_diff_gradient, relative_error

TOLERANCE = 1e-4
FD_EPS = 1e-5
BOUNDARY_MARGIN = 1e-3
BASE_CONFIG = ModelConfig(embed_dim=4, num_heads=2, top_k=3, dropout_rate=0.0)


@dataclass
class CaseReport:
    model: str
    seed: int
    top_k: int | None
    max_rel_err: float
    worst_tensor: str


@dataclass
class SuiteReport:
    cases: list[CaseReport]

    @property
    def max_rel_err(self) -> float:
        return max(c.max_rel_err for c in self.cases)

    @property
    def passed(self) -> bool:
        return self.max_rel_err < TOLERANCE


def _toy_vocab() -> FeatureVocab:
    specs = [FieldSpec("uf0", "user", ""), FieldSpec("uf1", "user", ""),
             FieldSpec("if0", "item", ""), FieldSpec("if1", "item", "")]
    tokens = {f: {"a": 0, "b": 1} for f in ("uf0", "uf1", "if0", "if1")}
    return FeatureVocab(specs, tokens)


def _toy_entities(rng: np.random.Generator, count: int):
    """pack_features' (num_entities, sizes, indices) for `count` entities of
    the toy vocab: one index in field 0, one or two sorted distinct indices
    in field 1, drawn entity by entity."""
    single, multi = [], []
    for _ in range(count):
        single.append(int(rng.integers(0, 3)))
        multi.append(np.sort(rng.choice(3, size=int(rng.integers(1, 3)), replace=False)))
    return (count,
            [np.ones(count, dtype=np.int64), np.array([m.size for m in multi], dtype=np.int64)],
            [np.array(single, dtype=np.int64), np.concatenate(multi)])


@dataclass
class SainFixture:
    params: SainParams
    user_packed: object
    item_packed: object
    uids: np.ndarray
    iids: np.ndarray
    ratings: np.ndarray
    mode: str


def _boundary_safe(trace, k: int) -> bool:
    """Reject fixtures where an eps-perturbation could flip a top-K selection
    or a ReLU branch."""
    s = trace.x.shape[1]
    if k < s:
        srt = np.sort(trace.alpha_full, axis=-1)[..., ::-1]
        if np.min(srt[..., k - 1] - srt[..., k]) < BOUNDARY_MARGIN:
            return False
    if np.min(np.abs(trace.resid)) < BOUNDARY_MARGIN:
        return False
    return True


def build_sain_fixture(seed: int, mode: str = "eval", batch: int = 3,
                       **config) -> SainFixture:
    """Deterministic random case; `config` replaces fields of BASE_CONFIG.
    Redraws until the boundary-safety check passes (almost always on the
    first attempt)."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, 97]))
    vocab = _toy_vocab()
    num_users = num_items = 4
    layout = FieldLayout.from_vocab(vocab, num_users, num_items)
    config = replace(BASE_CONFIG, **config)
    for _ in range(100):
        params = SainParams.init(layout, config, rng)
        # Wider embeddings than init so attention rows are not near-uniform.
        params.tensors["embeddings"] = rng.normal(0.0, 1.0,
                                                  params.tensors["embeddings"].shape)
        params.bn_mean = rng.normal(0.0, 0.2, config.embed_dim)
        params.bn_var = rng.uniform(0.5, 1.5, config.embed_dim)
        user_packed = pack_features(*_toy_entities(rng, num_users), vocab, "user")
        item_packed = pack_features(*_toy_entities(rng, num_items), vocab, "item")
        uids = rng.integers(0, num_users, size=batch)
        iids = rng.integers(0, num_items, size=batch)
        ratings = rng.uniform(1.0, 5.0, size=batch)
        trace = forward_batch(uids, iids, user_packed, item_packed, params, mode=mode)
        if _boundary_safe(trace, min(config.top_k, layout.seq_len)):
            return SainFixture(params, user_packed, item_packed, uids, iids,
                               ratings, mode)
    raise RuntimeError(f"no boundary-safe fixture found for seed {seed}")


def _compare(model: str, seed: int, top_k: int | None, params,
             grads: dict[str, np.ndarray], loss_of_params, eps: float) -> CaseReport:
    """Compare each tensor's analytic gradient with its slice of the
    central-difference gradient of `loss_of_params` (a loss of a params
    object), taken at params over probes that clone it; the report names the
    tensor with the largest relative error."""

    def loss_at(vec: np.ndarray) -> float:
        probe = params.clone()
        probe.set_flat(vec)
        return loss_of_params(probe)

    numeric = finite_diff_gradient(loss_at, params.flatten(), eps=eps)
    worst, worst_name = 0.0, ""
    pos = 0
    for name, tensor in params.tensors.items():
        err = relative_error(grads[name], numeric[pos:pos + tensor.size])
        if err > worst:
            worst, worst_name = err, name
        pos += tensor.size
    return CaseReport(model=model, seed=seed, top_k=top_k,
                      max_rel_err=worst, worst_tensor=worst_name)


def check_sain(seed: int, mode: str = "eval", eps: float = FD_EPS,
               **config) -> CaseReport:
    """Compare analytic and finite-difference gradients for one random case,
    built by build_sain_fixture with `config`. Returns the worst relative
    error across parameter tensors."""
    fx = build_sain_fixture(seed, mode=mode, **config)

    def forward(params: SainParams):
        return forward_batch(fx.uids, fx.iids, fx.user_packed, fx.item_packed,
                             params, mode=fx.mode)

    grads = backward(forward(fx.params), fx.ratings, fx.params)
    return _compare("sain", seed, fx.params.config.top_k, fx.params, grads,
                    lambda p: joint_loss(forward(p), fx.ratings,
                                         p.config.loss_weights)[0], eps)


def check_biasedmf(seed: int, eps: float = FD_EPS) -> CaseReport:
    rng = np.random.default_rng(np.random.SeedSequence([seed, 131]))
    num_users, num_items, dim, batch = 5, 5, 3, 4
    params = MfParams.init(num_users, num_items, dim, mu=3.5, rng=rng)
    params.tensors["user_bias"] = rng.normal(0.0, 0.3, num_users)
    params.tensors["item_bias"] = rng.normal(0.0, 0.3, num_items)
    uids = rng.integers(0, num_users, size=batch)
    iids = rng.integers(0, num_items, size=batch)
    ratings = rng.uniform(1.0, 5.0, size=batch)
    scores = mf_scores(uids, iids, params)
    grads = mf_backward(uids, iids, scores, ratings, params)
    return _compare("biasedmf", seed, None, params, grads,
                    lambda p: mf_loss(mf_scores(uids, iids, p), ratings), eps)


def run_suite(num_seeds: int = 20, k_values: tuple[int, ...] = (2, 3, 4)) -> SuiteReport:
    """The full certification: num_seeds random cases per model, K cycling
    through k_values on the attention model."""
    cases = []
    for seed in range(num_seeds):
        cases.append(check_sain(seed, top_k=k_values[seed % len(k_values)]))
        cases.append(check_biasedmf(seed))
    return SuiteReport(cases=cases)
