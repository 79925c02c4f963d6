"""Shared fixtures: synthetic datasets written to disk in the package's input
formats, plus small prepared-data and model builders."""

import json
import os

import numpy as np
import pytest

from sain import data
from sain.data import DatasetManifest, build_dataset
from sain.model import FieldLayout, ModelConfig, SainParams
from sain.seeding import stream_rng


def write_rating_file(path, rows):
    with open(path, "w", encoding="utf-8") as f:
        for row in rows:
            f.write("\t".join(str(x) for x in row) + "\n")


def write_feature_file(path, mapping):
    with open(path, "w", encoding="utf-8") as f:
        for entity, tokens in mapping.items():
            f.write(f"{entity}\t{'|'.join(tokens)}\n")


def write_synthetic_dataset(root, n_users=30, n_items=20, seed=7, min_ratings=5,
                            tag_top_t=8):
    """A small rating matrix with two closed user fields, one closed and one
    open item field. Returns the dataset manifest path."""
    os.makedirs(root, exist_ok=True)
    rng = np.random.default_rng(seed)
    users = [f"u{i}" for i in range(n_users)]
    items = [f"i{j}" for j in range(n_items)]
    rows = []
    for ui, user in enumerate(users):
        picks = rng.choice(n_items, size=int(rng.integers(6, 12)), replace=False)
        for j in picks:
            rows.append((user, items[j], int(rng.integers(1, 6)), 1000 + ui))
    write_rating_file(os.path.join(root, "ratings.tsv"), rows)
    write_feature_file(os.path.join(root, "user_gender.tsv"),
                       {u: [str(rng.choice(["M", "F"]))] for u in users})
    write_feature_file(os.path.join(root, "user_age.tsv"),
                       {u: [str(rng.choice(["10s", "20s", "30s", "40s"]))]
                        for u in users})
    genres = ["action", "comedy", "drama", "horror", "scifi"]
    write_feature_file(os.path.join(root, "item_genre.tsv"),
                       {i: [str(g) for g in
                            rng.choice(genres, size=int(rng.integers(1, 3)),
                                       replace=False)] for i in items})
    tags = [f"t{k}" for k in range(12)]
    write_feature_file(os.path.join(root, "item_tag.tsv"),
                       {i: [str(t) for t in
                            rng.choice(tags, size=int(rng.integers(0, 5)),
                                       replace=False)] for i in items})
    manifest = {
        "ratings": "ratings.tsv", "min_ratings": min_ratings,
        "tag_top_t": tag_top_t,
        "features": [
            {"field": "gender", "owner": "user", "path": "user_gender.tsv"},
            {"field": "age", "owner": "user", "path": "user_age.tsv"},
            {"field": "genre", "owner": "item", "path": "item_genre.tsv"},
            {"field": "tag", "owner": "item", "path": "item_tag.tsv", "open": True},
        ],
    }
    path = os.path.join(root, "dataset.json")
    with open(path, "w", encoding="utf-8") as f:
        json.dump(manifest, f, indent=2)
    return path


def write_memorization_dataset(root, n=100, seed=3):
    """n interactions on n unique user-item pairs with random closed features
    on both sides; min_ratings 1 so nothing is filtered."""
    os.makedirs(root, exist_ok=True)
    rng = np.random.default_rng(seed)
    rows = [(f"u{k}", f"i{k}", float(rng.integers(1, 6))) for k in range(n)]
    write_rating_file(os.path.join(root, "ratings.tsv"), rows)
    cats = ["a", "b", "c", "d"]
    for fname, prefix in (("user_g.tsv", "u"), ("user_h.tsv", "u"),
                          ("item_g.tsv", "i"), ("item_h.tsv", "i")):
        write_feature_file(os.path.join(root, fname),
                           {f"{prefix}{k}": [str(rng.choice(cats))]
                            for k in range(n)})
    manifest = {
        "ratings": "ratings.tsv", "min_ratings": 1, "tag_top_t": 50,
        "features": [
            {"field": "ug", "owner": "user", "path": "user_g.tsv"},
            {"field": "uh", "owner": "user", "path": "user_h.tsv"},
            {"field": "ig", "owner": "item", "path": "item_g.tsv"},
            {"field": "ih", "owner": "item", "path": "item_h.tsv"},
        ],
    }
    path = os.path.join(root, "dataset.json")
    with open(path, "w", encoding="utf-8") as f:
        json.dump(manifest, f, indent=2)
    return path


@pytest.fixture(scope="module", params=[1, 2, 3, data.BLOCK_LINES],
                ids=lambda lines: f"block{lines}")
def block_lines(request):
    """Runs a module's tests with the data files split into blocks of 1, 2
    and 3 lines, and of the default BLOCK_LINES, so that their lines fall on
    every side of a block boundary. Module-scoped, so that hypothesis
    properties can use it."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(data, "BLOCK_LINES", request.param)
        yield request.param


@pytest.fixture(scope="session")
def synthetic_manifest(tmp_path_factory):
    root = tmp_path_factory.mktemp("synth")
    return write_synthetic_dataset(str(root))


@pytest.fixture(scope="session")
def prepared(synthetic_manifest):
    return build_dataset(DatasetManifest.from_file(synthetic_manifest), seed=11)


@pytest.fixture(scope="session")
def memo_manifest(tmp_path_factory):
    root = tmp_path_factory.mktemp("memo")
    return write_memorization_dataset(str(root))


@pytest.fixture(scope="session")
def memo_data(memo_manifest):
    return build_dataset(DatasetManifest.from_file(memo_manifest), seed=5)


def small_params(prepared, seed=0, **config_kwargs):
    defaults = dict(embed_dim=8, num_heads=2, top_k=3, dropout_rate=0.0)
    defaults.update(config_kwargs)
    config = ModelConfig(**defaults)
    layout = FieldLayout.from_vocab(prepared.vocab, prepared.num_users,
                                    prepared.num_items)
    return SainParams.init(layout, config, stream_rng(seed, "init")), config
