"""Paths chosen by input size, and the benchmark workloads that gate them.

tensor.empty_rows stores the attention's logits keys-first from
tensor.KEYS_FIRST_ROWS rows on, and softmax_rows and top_k_mask_rows follow
the layout of the buffer they are handed. The benchmark's `wide-topk`
workload gates both sides of that choice: its single-pair predictions must
run rows-first, its train steps and eval blocks keys-first. The data readers
split a file into blocks of data.BLOCK_LINES lines, and both gated
workloads' ratings files must span several blocks, each of which must be
read from its bytes (data._plain_block), not by float() and int(). Their
ratings and feature files must code their ids from the bytes too (the
digit form of data._IdCoder), and a ratings file must make no string per
field. These tests read the workloads from perfbench/synth.py, so that a
retuned threshold, batch, eval block, block size or generator cannot move
a gated workload across a choice unnoticed."""

import os
import sys

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
for path in (ROOT, os.path.join(ROOT, "src")):
    if path not in sys.path:
        sys.path.insert(0, path)

from perfbench.synth import WORKLOADS, generate  # noqa: E402
from sain.data import (BLOCK_LINES, DatasetManifest, _Table, build_dataset,  # noqa: E402
                       interactions_to_arrays, load_ratings, parse_feature_file)
from sain.model import FieldLayout, ModelConfig, SainParams, forward_batch  # noqa: E402
from sain.tensor import KEYS_FIRST_ROWS, _slab_view  # noqa: E402
from sain.training import EVAL_BATCH, TrainConfig  # noqa: E402


def test_wide_topk_runs_each_path():
    w = WORKLOADS["wide-topk"]
    heads, seq_len = w.model_config["num_heads"], len(w.fields)
    assert w.model_config["top_k"] < seq_len  # so the mask drops entries

    def rows(pairs):
        # The attention's (B, H, S, S) arrays have B*H*S rows of S entries.
        return pairs * heads * seq_len

    assert rows(1) < KEYS_FIRST_ROWS
    assert rows(TrainConfig().batch_size) >= KEYS_FIRST_ROWS
    assert rows(EVAL_BATCH) >= KEYS_FIRST_ROWS


def test_wide_topk_attention_arrays_take_each_path(tmp_path):
    # The arrays that forward_batch keeps are stored as empty_rows stored
    # the logits: keys-first for a train step and a full eval block, and
    # for a short last eval block from KEYS_FIRST_ROWS rows on; C order for
    # a single pair and below that row count.
    w = WORKLOADS["wide-topk"]
    data = build_dataset(DatasetManifest.from_file(
        generate(w.scaled(0.02), 0, str(tmp_path / "wide-topk"))), 0)
    layout = FieldLayout.from_vocab(data.vocab, data.num_users, data.num_items)
    params = SainParams.init(layout, ModelConfig(**w.model_config),
                             np.random.default_rng(0))
    assert layout.seq_len == len(w.fields)
    users, items, _ = interactions_to_arrays(data.split.train)
    edge = -(-KEYS_FIRST_ROWS // (params.config.num_heads * layout.seq_len))
    for pairs, mode, keys_first in [(1, "eval", False),
                                    (TrainConfig().batch_size, "train", True),
                                    (EVAL_BATCH, "eval", True),
                                    (edge - 1, "eval", False), (edge, "eval", True)]:
        trace = forward_batch(np.resize(users, pairs), np.resize(items, pairs),
                              data.user_packed, data.item_packed, params, mode=mode,
                              dropout_rng=np.random.default_rng(1))
        for name in ("alpha_full", "topk_mask", "alpha_topk"):
            a = getattr(trace, name)
            assert (_slab_view(a) is not None) == keys_first, (pairs, name)
            assert a.flags.c_contiguous != keys_first, (pairs, name)


def test_the_gated_ratings_files_span_several_blocks():
    # The generator writes each workload's `ratings` lines to within
    # rounding (60,021 and 160,171 at seed 9401), so twice BLOCK_LINES
    # keeps both files on the block path: read, checked and coded across
    # block boundaries.
    for name in ("wide-topk", "mf-large-catalog"):
        assert WORKLOADS[name].ratings > 2 * BLOCK_LINES, name


def test_the_gated_ratings_files_take_the_byte_path(tmp_path, monkeypatch):
    # _rating_block reads a block by float() and int() only through
    # _convert, so with it refused every block must take the byte path.
    def refuse(convert, texts):
        raise AssertionError(f"a block was read by {convert.__name__}()")

    monkeypatch.setattr("sain.data._convert", refuse)
    for name in ("wide-topk", "mf-large-catalog"):
        path = generate(WORKLOADS[name].scaled(0.02), 0, str(tmp_path / name))
        manifest = DatasetManifest.from_file(path)
        interactions, _, _ = load_ratings(manifest.ratings_path, manifest.min_ratings)
        assert len(interactions) > 0, name


def test_the_gated_files_code_their_ids_from_the_bytes(tmp_path, monkeypatch):
    # An id column is coded from its texts only through _codes, and a
    # block's fields are split into strings only through _Table.fields:
    # with both refused, the ratings files must load and the feature files
    # must parse, their tokens coded from the bytes too.
    def refuse(*args):
        raise AssertionError("an id column was coded from its texts")

    def no_split(table):
        raise AssertionError("a block was split into field strings")

    monkeypatch.setattr("sain.data._codes", refuse)
    monkeypatch.setattr(_Table, "fields", property(no_split))
    for name in ("wide-topk", "mf-large-catalog"):
        manifest = DatasetManifest.from_file(
            generate(WORKLOADS[name].scaled(0.02), 0, str(tmp_path / name)))
        interactions, _, _ = load_ratings(manifest.ratings_path, manifest.min_ratings)
        assert len(interactions) > 0, name
        for spec in manifest.features:
            columns = parse_feature_file(spec.path)
            assert len(columns.entities) > 0 and len(columns.names) > 0, spec.path


def test_the_gated_ids_stay_within_the_digit_forms_bound():
    # The generator writes ids 1 to users and 1 to items, in random order
    # in the ratings file and in order, one line each, in a feature file.
    # An id is coded from its bytes while it is at most the number of ids
    # coded so far, its block's included; the first block of a ratings file
    # holds BLOCK_LINES of them (test_the_gated_ratings_files_span_several_blocks).
    for name in ("wide-topk", "mf-large-catalog"):
        w = WORKLOADS[name]
        assert max(w.users, w.items) <= BLOCK_LINES, name
