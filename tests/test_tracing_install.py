"""The benchmark's tracer (perfbench/tracing.py) wraps `sain` functions and
methods by name, where their callers look them up. A renamed or deleted
name makes every benchmark run fail at install; this test makes it fail
here first. It installs the tracer on `sain`, checks that set-up calls
`pack_features` through its module global from `encode_entity_features`,
and checks that restoring puts every attribute back.

The tracer also reads Adam's call: `adam_step(param view, dense grad, ...)`,
with the gradient shaped like the table so that it can count the rows a
batch touched. The last test runs a few traced BiasedMF steps and checks
those counts, so handing Adam another gradient form fails here too."""

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
from sain.training import MfEngine, TrainConfig  # noqa: E402

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
