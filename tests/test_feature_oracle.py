"""The feature pipeline (parsing, vocabulary, encoding, packing) against the
line by line and entity by entity references in tests/oracles.py, bit for
bit: on the conftest datasets, whose results are also pinned by hash, and on
seeded random feature files, where a bad line gives the same error."""

import hashlib
import json
import os

import numpy as np
import pytest

from oracles import (columns_dict, entity_slots, feature_dict, feature_names,
                     feature_vocab, packed_tables)
from sain.data import (OWNERS, FieldSpec, build_feature_vocab,
                       encode_entity_features, parse_feature_file)
from sain.errors import ParseError


def package_tables(specs, tag_top_t, ids):
    """The package's vocabulary and both sides' packed features for the
    dense ids `ids[owner]`, as build_dataset computes them."""
    population = {owner: set(ids[owner]) for owner in OWNERS}
    vocab = build_feature_vocab(specs, tag_top_t, population)
    packed = {}
    for owner in OWNERS:
        raw = {s.name: parse_feature_file(s.path) for s in specs if s.owner == owner}
        packed[owner] = encode_entity_features(raw, vocab, ids[owner], owner)
    return vocab, packed


def reference_tables(specs, tag_top_t, ids):
    population = {owner: set(ids[owner]) for owner in OWNERS}
    vocab = feature_vocab(specs, tag_top_t, population)
    tables = {}
    for owner in OWNERS:
        raw = {s.name: feature_dict(s.path) for s in specs if s.owner == owner}
        tables[owner] = packed_tables(entity_slots(raw, vocab, ids[owner], owner),
                                      vocab, owner)
    return vocab, tables


def _vocab_json(vocab) -> str:
    return json.dumps(vocab.to_dict())


def assert_matches_reference(vocab, packed, specs, tag_top_t, ids):
    for spec in specs:
        columns = parse_feature_file(spec.path)
        assert columns.lengths.dtype == np.int64
        assert columns.codes.dtype == np.int64
        assert columns.codes.shape == (int(columns.lengths.sum()),)
        assert columns.names == feature_names(spec.path)
        assert list(columns_dict(columns).items()) == list(feature_dict(spec.path).items())
    ref_vocab, ref_tables = reference_tables(specs, tag_top_t, ids)
    assert _vocab_json(vocab) == _vocab_json(ref_vocab)
    for owner in OWNERS:
        rows, weights, bounds = ref_tables[owner]
        got = packed[owner]
        assert len(got.bounds) == len(vocab.fields_of(owner)) + 1
        assert got.bounds == bounds, owner
        assert got.rows.dtype == rows.dtype and got.rows.shape == rows.shape, owner
        assert got.weights.dtype == weights.dtype, owner
        assert got.weights.shape == weights.shape, owner
        assert got.rows.tobytes() == rows.tobytes(), owner
        assert got.weights.tobytes() == weights.tobytes(), owner


def _table_hash(packed) -> str:
    h = hashlib.sha256(json.dumps(packed.bounds).encode())
    h.update(packed.rows.tobytes())
    h.update(packed.weights.tobytes())
    return h.hexdigest()


# sha256 of json.dumps(vocab.to_dict()) and of each side's bounds, rows and
# weights bytes; a change to any token, index, row or weight bit shows here.
PINS = {
    "prepared": ("9c413752819ed709a6ba4ec8cc271239112b0788b5f764eafbe32a65f150f115",
                 "fb22327ed09e0029621d532433303dd8565320e1f7fe6d271e6991ebd1d70cba",
                 "4b32360e459b62ee9e3bb0650920ac7bf76fc5670be2a392282306f0c878f109"),
    "memo_data": ("afb05ce481f6b4a87669c94ac30ccad87ef01cf065b8c4a34e73414b96051f43",
                  "865d81a352f2f3b11f76c7d1654ff70bf7c89237f659216993138c943e0eed6e",
                  "a2f0ebbd7b1f0fa4028da32751b0960866140bf29c04787da43a0125494aec35"),
}


@pytest.mark.parametrize("name", ["prepared", "memo_data"])
class TestConftestDatasets:
    def test_matches_the_reference(self, name, request):
        data = request.getfixturevalue(name)
        ids = {"user": data.user_ids, "item": data.item_ids}
        packed = {"user": data.user_packed, "item": data.item_packed}
        assert_matches_reference(data.vocab, packed, data.manifest.features,
                                 data.manifest.tag_top_t, ids)

    def test_pinned_hashes(self, name, request):
        data = request.getfixturevalue(name)
        got = (hashlib.sha256(_vocab_json(data.vocab).encode()).hexdigest(),
               _table_hash(data.user_packed), _table_hash(data.item_packed))
        assert got == PINS[name]


def write_fields(root, fields):
    """Write one feature file per (name, owner, open, lines) entry, each line
    an (entity, tokens) pair written as entity<TAB>t1|t2|...; returns the
    FieldSpecs."""
    specs = []
    for name, owner, open_vocab, lines in fields:
        path = os.path.join(root, f"{name}.tsv")
        with open(path, "w", encoding="utf-8") as f:
            f.writelines(f"{entity}\t{'|'.join(tokens)}\n" for entity, tokens in lines)
        specs.append(FieldSpec(name, owner, path, open_vocab))
    return specs


def random_fields(rng, n_users, n_items, max_fields=3):
    """Random feature files over the population u0.., i0.. and outsiders
    x0..: some fields open, some entities absent, some on several lines, with
    repeated tokens and empty tokens (a "||" or a bare entity)."""
    alphabet = [f"t{k}" for k in range(int(rng.integers(1, 9)))] + [""]
    fields = []
    for owner, prefix, count in (("user", "u", n_users), ("item", "i", n_items)):
        for k in range(int(rng.integers(0, max_fields + 1))):
            entities = [f"{prefix}{j}" for j in range(count)] + [f"x{j}" for j in range(3)]
            lines = []
            for entity in entities:
                for _ in range(int(rng.choice([0, 1, 1, 2, 3]))):
                    size = int(rng.integers(0, 5))
                    lines.append((entity, [str(t) for t in rng.choice(alphabet, size)]))
            order = rng.permutation(len(lines))
            fields.append((f"{owner[0]}f{k}", owner, bool(rng.integers(0, 2)),
                           [lines[j] for j in order]))
    return fields


def random_ids(rng, prefix, count):
    """Dense ids 0..count-1 given to the entities in a shuffled order."""
    return {f"{prefix}{j}": int(d) for j, d in enumerate(rng.permutation(count))}


@pytest.mark.parametrize("seed", range(40))
def test_random_feature_files_match_the_reference(tmp_path, seed):
    rng = np.random.default_rng([seed, 31])
    n_users, n_items = int(rng.integers(0, 12)), int(rng.integers(0, 12))
    specs = write_fields(str(tmp_path), random_fields(rng, n_users, n_items))
    ids = {"user": random_ids(rng, "u", n_users), "item": random_ids(rng, "i", n_items)}
    tag_top_t = int(rng.integers(0, 6))
    vocab, packed = package_tables(specs, tag_top_t, ids)
    assert_matches_reference(vocab, packed, specs, tag_top_t, ids)


CASES = {
    "entity-on-several-lines": (
        [("g", "user", False, [("u0", ["b"]), ("u1", ["a"]), ("u0", ["a", "c"])])], 5),
    "repeated-tokens": (
        [("g", "user", False, [("u0", ["a", "a", "b", "a"])]),
         ("t", "user", True, [("u0", ["z", "z"]), ("u1", ["y", "z"]), ("u1", ["y"])])], 5),
    "empty-tokens": (
        [("g", "item", False, [("i0", ["", "a", ""]), ("i1", []), ("i2", [""])]),
         ("t", "item", True, [("i0", ["", ""]), ("i1", ["b", ""])])], 5),
    "absent-entities": (
        [("g", "user", False, [("u1", ["a"])]),
         ("t", "item", True, [])], 5),
    "outside-the-population": (
        [("g", "user", False, [("x0", ["a"]), ("u0", ["b"]), ("x1", ["c", "b"])]),
         ("t", "user", True, [("x0", ["p", "q"]), ("x1", ["q"]), ("u1", ["r"])])], 5),
    "ties-at-the-cut": (
        [("t", "item", True, [("i0", ["c", "b"]), ("i1", ["b", "a"]), ("i2", ["a", "c"]),
                              ("i0", ["d"]), ("i1", ["e"])])], 2),
    "top-t-zero": (
        [("t", "item", True, [("i0", ["a"]), ("i1", ["b", "a"])]),
         ("g", "item", False, [("i0", ["a"])])], 0),
    "no-user-fields": (
        [("g", "item", False, [("i0", ["a"]), ("i2", ["b", "a"])])], 5),
    "no-fields": ([], 5),
}


@pytest.mark.parametrize("case", list(CASES))
@pytest.mark.parametrize("n", [3, 0], ids=["3-entities", "zero-entities"])
def test_edge_cases_match_the_reference(tmp_path, case, n):
    fields, tag_top_t = CASES[case]
    specs = write_fields(str(tmp_path), fields)
    ids = {"user": {f"u{j}": j for j in range(n)}, "item": {f"i{j}": j for j in range(n)}}
    vocab, packed = package_tables(specs, tag_top_t, ids)
    assert_matches_reference(vocab, packed, specs, tag_top_t, ids)


def test_ties_at_the_cut_break_by_token(tmp_path):
    specs = write_fields(str(tmp_path), CASES["ties-at-the-cut"][0])
    vocab, _ = package_tables(specs, 2, {"user": {}, "item": {"i0": 0, "i1": 1, "i2": 2}})
    # a, b and c are each used by two items; d and e by one.
    assert vocab.tokens["t"] == {"a": 0, "b": 1}


@pytest.mark.parametrize("seed", range(20))
def test_random_bad_feature_files_give_the_reference_error(tmp_path, seed):
    rng = np.random.default_rng([seed, 53])
    lines = [f"e{rng.integers(0, 4)}\t{'|'.join(rng.choice(['a', 'b', ''], 3))}"
             for _ in range(int(rng.integers(1, 12)))]
    for _ in range(int(rng.integers(1, 3))):
        at = int(rng.integers(0, len(lines)))
        lines[at] = str(rng.choice(["e0", "e1\ta\tb", "\t\t", "e2\ta|\t"]))
    ends = rng.choice(["\n", "\r\n", "\r"], len(lines) + 1)
    path = tmp_path / "f.tsv"
    with open(path, "w", encoding="utf-8", newline="") as f:
        f.write("".join(line + end for line, end in zip(["", *lines], ends)))
    with pytest.raises(ParseError) as want:
        feature_dict(str(path))
    with pytest.raises(ParseError) as got:
        parse_feature_file(str(path))
    assert str(got.value) == str(want.value)
