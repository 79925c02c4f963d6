"""The benchmark's tracer (perfbench/tracing.py) wraps `sain` functions and
methods by name, where their callers look them up. A renamed or deleted
name makes every benchmark run fail at install; this test makes it fail
here first. It installs the tracer on `sain`, checks that set-up calls
`pack_features` through its module global from `encode_entity_features`,
and checks that restoring puts every attribute back.

The tracer also reads Adam's calls. Each entity table gets its own
`adam_step(param view, dense grad, ...)`, with the gradient shaped like the
table so that the tracer can count the rows a batch touched; SAIN's dense
tail (every tensor after `cf_item`) is one more call, on a slice of the
arena that the tracer names no table. The BiasedMF test checks those counts
on a few traced steps, so handing Adam another gradient form fails here
too. The SAIN test runs traced steps at a batch whose attention runs
keys-first and checks the row kernels' spans, which exist only while the
model calls `softmax_rows` and `top_k_mask_rows` through `sain.model`."""

import os
import sys

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
for path in (ROOT, os.path.join(ROOT, "src")):
    if path not in sys.path:
        sys.path.insert(0, path)

import sain  # noqa: E402
import sain.training  # noqa: E402
from perfbench import tracing  # noqa: E402
from sain.baseline import MfParams  # noqa: E402
from sain.data import DatasetManifest  # noqa: E402
from sain.model import FieldLayout, ModelConfig, SainParams  # noqa: E402
from sain.tensor import KEYS_FIRST_ROWS  # noqa: E402
from sain.training import MfEngine, SainEngine, TrainConfig  # noqa: E402

OWNERS = (sain.data, sain.training, sain.model, sain.data.PreparedData,
          sain.training.SainEngine, sain.training.MfEngine)
WRAPS = 33  # install's wraps today; a change to its list changes this


def _attributes():
    return [{name: id(value) for name, value in vars(owner).items()} for owner in OWNERS]


def test_install_wraps_every_name_and_restore_puts_them_back(synthetic_manifest):
    before = _attributes()
    tracer = tracing.Tracer("tier-1")
    try:
        tracing.install(tracer, sain)
        assert len(tracer._patches) == WRAPS
        assert _attributes() != before
        sain.data.build_dataset(DatasetManifest.from_file(synthetic_manifest), seed=0)
    finally:
        tracer.restore()
    assert _attributes() == before
    names = {s.id: s.name for s in tracer.spans}
    packs = [s for s in tracer.spans if s.name == "data.pack_features"]
    assert [names[s.parent] for s in packs] == ["data.encode_entity_features"] * 2


def test_every_entity_table_adam_span_counts_its_touched_rows(synthetic_manifest):
    data = sain.data.build_dataset(DatasetManifest.from_file(synthetic_manifest), seed=0)
    params = MfParams.init(data.num_users, data.num_items, 4, 3.0,
                           np.random.default_rng(0))
    engine = MfEngine(data, params, TrainConfig(batch_size=16))
    batches = [np.arange(start, start + 16) for start in range(0, 48, 16)]
    tracer = tracing.Tracer("tier-1")
    try:
        tracing.install(tracer, sain)
        for idx in batches:
            engine.step(idx)
    finally:
        tracer.restore()
    adam = [s.attrs for s in tracer.spans if s.name == "tensor.adam_step"]
    assert all(0 < a["touched"] <= a["rows"] for a in adam)
    # One span per tensor in arena order (user_factors, item_factors,
    # user_bias, item_bias), each counting the batch's distinct ids.
    expected = []
    for idx in batches:
        users, items = (len(np.unique(ids[idx])) for ids in (engine.users, engine.items))
        expected += [(data.num_users, users), (data.num_items, items)] * 2
    assert [(a["rows"], a["touched"]) for a in adam] == expected


def test_traced_sain_steps_reach_the_row_kernels_and_count_adam(synthetic_manifest):
    data = sain.data.build_dataset(DatasetManifest.from_file(synthetic_manifest), seed=0)
    config = ModelConfig(embed_dim=8, num_heads=2, top_k=2, dropout_rate=0.1)
    layout = FieldLayout.from_vocab(data.vocab, data.num_users, data.num_items)
    params = SainParams.init(layout, config, np.random.default_rng(0))
    engine = SainEngine(data, params, TrainConfig(batch_size=64))
    assert 64 * config.num_heads * layout.seq_len >= KEYS_FIRST_ROWS
    batches = [np.arange(start, start + 64) for start in range(0, 192, 64)]
    tracer = tracing.Tracer("tier-1")
    try:
        tracing.install(tracer, sain)
        for idx in batches:
            engine.step(idx)
    finally:
        tracer.restore()
    step_of = {}
    for s in tracer.spans:
        up = step_of.get(s.parent)
        step_of[s.id] = s.id if s.name == "training.step" else up
    steps = [s.id for s in tracer.spans if s.name == "training.step"]
    assert len(steps) == len(batches)
    tail = sum(t.size for name, t in params.tensors.items()
               if name not in SainParams.EMBEDDINGS)
    for step, idx in zip(steps, batches):
        spans = [s for s in tracer.spans if step_of[s.id] == step]
        topk = [s.attrs for s in spans if s.name == "tensor.top_k_mask_rows"]
        assert [s.name for s in spans if s.name.startswith("tensor.softmax")] == [
            "tensor.softmax_rows"]
        assert len(topk) == 1 and topk[0]["active"] > 0
        assert topk[0]["rows"] == 64 * config.num_heads * layout.seq_len
        adam = [s.attrs for s in spans if s.name == "tensor.adam_step"]
        # embeddings, cf_user, cf_item, then the dense tail in one call
        assert len(adam) == 4
        assert 0 < adam[0]["touched"] <= adam[0]["rows"] == len(params.tensors["embeddings"])
        assert [(a["rows"], a["touched"]) for a in adam[1:3]] == [
            (data.num_users, len(np.unique(engine.users[idx]))),
            (data.num_items, len(np.unique(engine.items[idx])))]
        assert adam[3] == {"bytes": 7 * 8 * tail}
