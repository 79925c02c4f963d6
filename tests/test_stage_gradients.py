"""Certification of each stage of the attention model on its own. A stage's
backward must be the vector-Jacobian product of its forward: for a random
cotangent R, central differences of <forward(input), R> over the stage's
input and its own tensors must match the input gradient that the backward
returns and the tensor gradients that it adds to `grads`, and the backward
must leave every other tensor's gradient alone. The scores stage's backward
starts from the loss, so it is checked against joint_loss itself. The whole
model keeps its own check (test_gradients.py and `sain gradcheck`), which
runs without dropout.

The cases have the shape of the wide-topk benchmark workload: S = 10
positions (4 user and 6 item fields of one to three tokens each), H = 4
heads and K = 4, here at d = 16 and B = 8, with dropout on, in train and in
eval mode. A case is redrawn when a top-K margin or a ReLU input lies within
MARGIN of a tie, where the probes could land on different branches, as
gradcheck._boundary_safe does for the whole model.

The last tests check that forward_batch and backward look every stage up as
a global of sain.model, where a spy or the benchmark's tracer can wrap it,
and pin the public signatures of the passes."""

import inspect
from dataclasses import dataclass, replace

import numpy as np
import pytest

from sain import model
from sain.data import FeatureVocab, FieldSpec, pack_features
from sain.model import FieldLayout, ForwardTrace, ModelConfig, SainParams
from sain.tensor import finite_diff_gradient, relative_error

EPS = 1e-6
MARGIN = 1e-4
TOLERANCE = 1e-6
USER_FIELDS, ITEM_FIELDS, ENTITIES, BATCH = 4, 6, 6, 8
STAGES = ("embed", "attention", "batch_norm", "residual", "sides", "scores")
MODES = ("train", "eval")


@dataclass
class Case:
    """A model, a batch, and each stage's input as the stages before it gave
    it. `dropout_seed` seeds the rng of every train-mode batch norm call, so
    every probe draws the same dropout mask."""

    params: SainParams
    mode: str
    packed: dict
    ids: dict
    ratings: np.ndarray
    x: np.ndarray
    heads: np.ndarray
    h: np.ndarray
    xbar: np.ndarray
    vectors: list          # content, cf and combined, user then item each
    dropout_seed: int

    def trace(self) -> ForwardTrace:
        trace = ForwardTrace()
        trace.ids = self.ids
        return trace


def _vocab() -> FeatureVocab:
    specs = ([FieldSpec(f"u{f}", "user", "") for f in range(USER_FIELDS)]
             + [FieldSpec(f"i{f}", "item", "") for f in range(ITEM_FIELDS)])
    return FeatureVocab(specs, {s.name: {"a": 0, "b": 1, "c": 2} for s in specs})


def _entities(rng, vocab: FeatureVocab, owner: str):
    """pack_features' (num_entities, sizes, indices) for ENTITIES entities
    with one to three distinct indices in every field."""
    sizes = [rng.integers(1, 4, size=ENTITIES) for _ in vocab.fields_of(owner)]
    indices = [np.concatenate([np.sort(rng.choice(vocab.field_size(f), size=n,
                                                  replace=False)) for n in counts])
               for f, counts in zip(vocab.fields_of(owner), sizes)]
    return ENTITIES, sizes, indices


def _randomize(params: SainParams, rng) -> None:
    """Weights far enough from init that attention rows and gates are not
    near uniform, and every bias and batch-norm value is generic."""
    for name, t in params.tensors.items():
        scale = 1.0 if name in ("embeddings", "cf_user", "cf_item") else 0.4
        params.tensors[name] = rng.normal(0.0, scale, t.shape)
    params.tensors["bn_gamma"] = 1.0 + rng.normal(0.0, 0.2, params.config.embed_dim)
    params.bn_mean = rng.normal(0.0, 0.2, params.config.embed_dim)
    params.bn_var = rng.uniform(0.5, 1.5, params.config.embed_dim)


def _safe(trace: ForwardTrace, k: int) -> bool:
    srt = np.sort(trace.alpha_full, axis=-1)[..., ::-1]
    return bool(np.min(srt[..., k - 1] - srt[..., k]) >= MARGIN
                and np.min(np.abs(trace.resid)) >= MARGIN)


def build_case(mode: str, seed: int = 0, **config) -> Case:
    rng = np.random.default_rng(np.random.SeedSequence([seed, 2024]))
    vocab = _vocab()
    layout = FieldLayout.from_vocab(vocab, ENTITIES, ENTITIES)
    config = ModelConfig(embed_dim=16, num_heads=4, top_k=4, dropout_rate=0.3,
                         loss_weights=(0.25, 2.0, 1.5), **config)
    for attempt in range(100):
        params = SainParams.init(layout, config, rng)
        _randomize(params, rng)
        packed = {side: pack_features(*_entities(rng, vocab, side), vocab, side)
                  for side in model.SIDES}
        ids = {side: rng.integers(0, ENTITIES, size=BATCH) for side in model.SIDES}
        ratings = rng.uniform(1.0, 5.0, size=BATCH)
        trace = ForwardTrace()
        trace.ids = ids
        x = model._embed_forward(trace, packed, params)
        heads = model._attention_forward(trace, x, params)
        h = model._batch_norm_forward(trace, heads.copy(), params, mode,
                                      np.random.default_rng(attempt))
        xbar = model._residual_forward(trace, x, h.copy())
        model._sides_forward(trace, xbar, params)
        vectors = [d[side] for d in (trace.content, trace.cf, trace.combined)
                   for side in model.SIDES]
        if _safe(trace, config.top_k):
            return Case(params, mode, packed, ids, ratings, x, heads, h, xbar,
                        vectors, dropout_seed=attempt)
    raise RuntimeError(f"no boundary-safe case for seed {seed}")


@pytest.fixture(scope="module", params=MODES)
def case(request) -> Case:
    return build_case(request.param)


@pytest.fixture(scope="module")
def train_case() -> Case:
    """For the stages before batch norm, whose inputs no mode changes."""
    return build_case("train")


def _worst_error(f, inputs: list, d_inputs: list, params: SainParams,
                 grads: dict, own: list) -> float:
    """The largest relative error between the analytic gradients and central
    differences of the scalar f(inputs, params), over every input array and
    every tensor named in `own`."""
    worst = 0.0
    for j, arr in enumerate(inputs):
        def at(vec, j=j):
            probe = list(inputs)
            probe[j] = vec.reshape(arr.shape)
            return f(probe, params)
        numeric = finite_diff_gradient(at, arr.ravel(), eps=EPS)
        worst = max(worst, relative_error(d_inputs[j], numeric))
    for name in own:
        shape = params.tensors[name].shape

        def at(vec, name=name, shape=shape):
            probe = params.clone()
            probe.tensors[name] = vec.reshape(shape)
            return f(inputs, probe)
        numeric = finite_diff_gradient(at, params.tensors[name].ravel(), eps=EPS)
        worst = max(worst, relative_error(grads[name], numeric))
    return worst


def vjp_error(case: Case, forward, backward, inputs: list, own: list) -> float:
    """Checks a stage's backward against central differences of <forward, R>.
    `forward(inputs, params)` returns the trace and the stage's outputs;
    `backward(trace, cotangents, grads)` returns the gradient of each input.
    Tensors outside `own` must get no gradient."""
    trace, outs = forward(inputs, case.params)
    rng = np.random.default_rng(7)
    cotangents = [rng.normal(size=o.shape) for o in outs]
    grads = case.params.zero_grads()
    d_inputs = backward(trace, [c.copy() for c in cotangents], grads)
    assert len(d_inputs) == len(inputs)
    for name in set(grads) - set(own):
        assert not grads[name].any(), name

    def f(probe_inputs, probe_params):
        return sum(float(np.vdot(o, c)) for o, c
                   in zip(forward(probe_inputs, probe_params)[1], cotangents))

    return _worst_error(f, inputs, d_inputs, case.params, grads, own)


def test_embed_stage(train_case):
    case = train_case

    def forward(inputs, params):
        trace = case.trace()
        return trace, [model._embed_forward(trace, case.packed, params)]

    def backward(trace, cotangents, grads):
        # The ids have no gradient.
        assert model._embed_backward(trace, cotangents[0], grads, case.params) is None
        return []

    assert vjp_error(case, forward, backward, [], ["embeddings"]) < TOLERANCE


@pytest.mark.parametrize("renormalize", [True, False])
def test_attention_stage(train_case, renormalize):
    # The same weights, run with or without the renormalization; every probe
    # clones these params, so it keeps their config.
    params = train_case.params.clone()
    params.config = replace(params.config, renormalize_topk=renormalize)
    case = replace(train_case, params=params)

    def forward(inputs, params):
        trace = case.trace()
        return trace, [model._attention_forward(trace, inputs[0], params)]

    def backward(trace, cotangents, grads):
        return [model._attention_backward(trace, cotangents[0], grads, case.params)]

    own = [n for n in case.params.tensors if n.startswith("attn")]
    assert vjp_error(case, forward, backward, [case.x], own) < TOLERANCE


def test_batch_norm_stage(case):
    def forward(inputs, params):
        trace = case.trace()
        out = model._batch_norm_forward(trace, inputs[0].copy(), params, case.mode,
                                        np.random.default_rng(case.dropout_seed))
        return trace, [out]

    def backward(trace, cotangents, grads):
        d_out = cotangents[0].copy()
        d_z = model._batch_norm_backward(trace, cotangents[0], grads, case.params)
        # The residual's backward hands the same array on as x's gradient.
        np.testing.assert_array_equal(cotangents[0], d_out)
        return [d_z]

    err = vjp_error(case, forward, backward, [case.heads], ["bn_gamma", "bn_beta"])
    assert err < TOLERANCE


def test_batch_norm_stage_drops_out_in_train_mode_only(case):
    trace = case.trace()
    model._batch_norm_forward(trace, case.heads.copy(), case.params, case.mode,
                              np.random.default_rng(case.dropout_seed))
    assert (trace.dropout_mask is not None) == (case.mode == "train")
    if case.mode == "train":
        assert (trace.dropout_mask == 0.0).any()


def test_residual_stage(case):
    def forward(inputs, params):
        trace = case.trace()
        return trace, [model._residual_forward(trace, inputs[0], inputs[1].copy())]

    def backward(trace, cotangents, grads):
        d_sum = model._residual_backward(trace, cotangents[0])
        return [d_sum, d_sum]

    assert vjp_error(case, forward, backward, [case.x, case.h], []) < TOLERANCE


@pytest.mark.parametrize("gate_shared", [False, True])
def test_sides_stage(gate_shared):
    case = build_case("train", gate_shared=gate_shared)

    def forward(inputs, params):
        trace = case.trace()
        model._sides_forward(trace, inputs[0], params)
        return trace, [d[side] for d in (trace.content, trace.cf, trace.combined)
                       for side in model.SIDES]

    def backward(trace, cotangents, grads):
        d_content, d_cf, d_combined = (dict(zip(model.SIDES, cotangents[j:j + 2]))
                                       for j in (0, 2, 4))
        return [model._sides_backward(trace, d_content, d_cf, d_combined, grads,
                                      case.params)]

    own = [n for n in case.params.tensors if n.startswith(("agg_", "cf_", "gate_"))]
    assert vjp_error(case, forward, backward, [case.xbar], own) < TOLERANCE


def test_scores_stage_starts_from_the_loss(case):
    def scored(inputs):
        trace = case.trace()
        trace.content, trace.cf, trace.combined = (
            dict(zip(model.SIDES, inputs[j:j + 2])) for j in (0, 2, 4))
        model._scores_forward(trace)
        return trace

    def loss(inputs, params):
        return model.joint_loss(scored(inputs), case.ratings,
                                params.config.loss_weights)[0]

    d_vectors = model._scores_backward(scored(case.vectors), case.ratings, case.params)
    d_inputs = [d[side] for d in d_vectors for side in model.SIDES]
    err = _worst_error(loss, case.vectors, d_inputs, case.params, {}, [])
    assert err < TOLERANCE


def test_the_passes_call_every_stage_as_a_module_global(monkeypatch):
    case = build_case("train")
    calls = []
    for stage in STAGES:
        for direction in ("forward", "backward"):
            name = f"_{stage}_{direction}"

            def spy(*args, _real=getattr(model, name), _name=name):
                calls.append(_name)
                return _real(*args)

            monkeypatch.setattr(model, name, spy)
    args = (case.ids["user"], case.ids["item"], case.packed["user"],
            case.packed["item"], case.params)
    # mode and the dropout rng only by keyword: the benchmark's tracer names a
    # forward span by the mode it finds in the keyword arguments.
    trace = model.forward_batch(*args, mode="train", dropout_rng=np.random.default_rng(0))
    assert calls == [f"_{stage}_forward" for stage in STAGES]
    calls.clear()
    model.backward(trace, case.ratings, case.params)
    assert calls == [f"_{stage}_backward" for stage in reversed(STAGES)]
    calls.clear()
    with pytest.raises(TypeError):
        model.forward_batch(*args, "train")
    assert calls == []


def test_the_pass_signatures_are_pinned():
    def names(fn):
        return list(inspect.signature(fn).parameters)

    assert names(model.forward_batch) == ["uids", "iids", "user_packed", "item_packed",
                                          "params", "mode", "dropout_rng"]
    forward = inspect.signature(model.forward_batch).parameters
    for name in ("mode", "dropout_rng"):
        assert forward[name].kind is inspect.Parameter.KEYWORD_ONLY, name
    assert names(model.backward) == ["trace", "ratings", "params"]
    assert names(model.joint_loss) == ["trace", "ratings", "weights"]
