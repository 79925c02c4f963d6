"""Dataset pipeline tests: rating ingestion and filtering, vocabulary
construction, feature encoding, splitting, and packing. The columnar loader
is checked against the line-by-line loader and split it replaced, kept here
as the oracle."""

import dataclasses
import hashlib
import json
import os
import tempfile
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from sain import data
from sain.data import (DatasetManifest, FeatureColumns, FieldSpec, Interactions,
                       _block_ends, _dense_ids,
                       _plain_block, _read_table, build_dataset, build_feature_vocab,
                       encode_entity_features, interactions_to_arrays,
                       load_ratings, pack_features, parse_feature_file,
                       split_dataset)
from sain.errors import IoError, ParseError, ShapeError
from sain.gradcheck import _toy_vocab
from sain.model import FieldLayout

from conftest import write_feature_file, write_rating_file, write_synthetic_dataset
from oracles import (columns_dict, dense_ids, encoded, feature_columns, feature_dict,
                     feature_names, slots_of)

BOM = "\ufeff".encode()


def _ratings(tmp_path, rows, name="r.tsv"):
    path = str(tmp_path / name)
    write_rating_file(path, rows)
    return path


def _rows(x: Interactions) -> list[tuple]:
    """(user, item, rating, timestamp or None) per event, in order."""
    stamps = [t if has else None
              for t, has in zip(x.timestamps.tolist(), x.has_timestamp.tolist())]
    return list(zip(x.users.tolist(), x.items.tolist(), x.ratings.tolist(), stamps))


def _columns(rows) -> Interactions:
    """An Interactions record holding (user, item, rating, timestamp or None)
    rows."""
    return Interactions(
        users=np.array([r[0] for r in rows], dtype=np.int64),
        items=np.array([r[1] for r in rows], dtype=np.int64),
        ratings=np.array([r[2] for r in rows], dtype=np.float64),
        timestamps=np.array([0 if r[3] is None else r[3] for r in rows], dtype=np.int64),
        has_timestamp=np.array([r[3] is not None for r in rows], dtype=bool))


def _ascii_number(text: str) -> str:
    """`text` if it may be read as a number: ASCII without underscores."""
    if not text.isascii() or "_" in text:
        raise ValueError(text)
    return text


def _row_loader(path, min_ratings=5):
    """The line-by-line loader the columnar one replaced: (rows, user_ids,
    item_ids) with rows as _rows gives them, or the same errors. A leading
    byte-order mark is not part of the first line."""
    if not os.path.exists(path):
        raise IoError(f"file not found: {path}")
    rows = []
    with open(path, encoding="utf-8") as f:
        for lineno, line in enumerate(f, start=1):
            line = line.rstrip("\r\n")
            if lineno == 1:
                line = line.removeprefix("\ufeff")
            if not line:
                continue
            parts = line.split("\t")
            if len(parts) not in (3, 4):
                raise ParseError(f"{path} line {lineno}: expected 3 or 4 tab-separated "
                                 f"fields, got {len(parts)}")
            try:
                rating = float(_ascii_number(parts[2]))
            except ValueError:
                raise ParseError(f"{path} line {lineno}: bad rating {parts[2]!r}") from None
            if not np.isfinite(rating) or not (1.0 <= rating <= 5.0):
                raise ParseError(f"{path} line {lineno}: rating outside [1,5]: {parts[2]}")
            ts = None
            if len(parts) == 4:
                try:
                    ts = int(_ascii_number(parts[3]))
                except ValueError:
                    raise ParseError(f"{path} line {lineno}: bad timestamp "
                                     f"{parts[3]!r}") from None
                if not -2 ** 63 <= ts < 2 ** 63:
                    raise ParseError(f"{path} line {lineno}: timestamp outside the "
                                     f"int64 range: {parts[3]}")
            rows.append((parts[0], parts[1], rating, ts))
    counts = Counter(r[0] for r in rows)
    user_ids, item_ids, out = {}, {}, []
    for user_raw, item_raw, rating, ts in rows:
        if counts[user_raw] < min_ratings:
            continue
        u = user_ids.setdefault(user_raw, len(user_ids))
        i = item_ids.setdefault(item_raw, len(item_ids))
        out.append((u, i, rating, ts))
    return out, user_ids, item_ids


def _row_split(rows, seed, by_time=False):
    """The row split the columnar one replaced: (train, validation, test)."""
    n = len(rows)
    if by_time:
        order = sorted(range(n), key=lambda j: rows[j][3])
    else:
        order = np.random.default_rng(seed).permutation(n).tolist()
    shuffled = [rows[j] for j in order]
    n_train = n - 2 * (n // 10)
    return (shuffled[:n_train], shuffled[n_train:n_train + n // 10],
            shuffled[n_train + n // 10:])


def _write_text(tmp_path, text, name="r.tsv"):
    """Write `text` as UTF-8 with its line ends exactly as given."""
    path = str(tmp_path / name)
    with open(path, "w", encoding="utf-8", newline="") as f:
        f.write(text)
    return path


@pytest.mark.usefixtures("block_lines")
class TestLoadRatings:
    def test_parses_and_indexes_in_first_appearance_order(self, tmp_path):
        rows = [("bob", "x", 4, 10), ("ann", "y", 2, 20), ("bob", "y", 5, 30)]
        path = _ratings(tmp_path, rows)
        inter, users, items = load_ratings(path, min_ratings=1)
        assert users == {"bob": 0, "ann": 1}
        assert items == {"x": 0, "y": 1}
        assert _rows(inter) == [(0, 0, 4.0, 10), (1, 1, 2.0, 20), (0, 1, 5.0, 30)]

    def test_timestamp_is_optional(self, tmp_path):
        path = _ratings(tmp_path, [("a", "x", 3)])
        inter, _, _ = load_ratings(path, min_ratings=1)
        assert _rows(inter)[0][3] is None

    def test_min_ratings_filter_drops_sparse_users(self, tmp_path):
        rows = [("heavy", f"i{j}", 3, j) for j in range(5)]
        rows += [("light", "i0", 4, 1), ("light", "i1", 4, 2)]
        path = _ratings(tmp_path, rows)
        inter, users, items = load_ratings(path, min_ratings=5)
        assert users == {"heavy": 0}
        assert len(inter) == 5
        # Items are re-indexed over surviving interactions only.
        assert set(items) == {f"i{j}" for j in range(5)}

    def test_filter_happens_before_indexing(self, tmp_path):
        # The dropped user appears first; the survivor still gets index 0.
        rows = [("light", "only", 1, 1)]
        rows += [("heavy", f"i{j}", 3, j) for j in range(5)]
        path = _ratings(tmp_path, rows)
        _, users, items = load_ratings(path, min_ratings=5)
        assert users == {"heavy": 0}
        assert "only" not in items

    def test_wrong_column_count_reports_line(self, tmp_path):
        path = str(tmp_path / "bad.tsv")
        with open(path, "w") as f:
            f.write("a\tx\t3\nb\ty\n")
        with pytest.raises(ParseError, match="line 2"):
            load_ratings(path)

    def test_bad_rating_reports_line(self, tmp_path):
        path = str(tmp_path / "bad.tsv")
        with open(path, "w") as f:
            f.write("a\tx\tthree\n")
        with pytest.raises(ParseError, match="line 1"):
            load_ratings(path)

    def test_rating_outside_range_rejected(self, tmp_path):
        with pytest.raises(ParseError, match="outside"):
            load_ratings(_ratings(tmp_path, [("a", "x", 6)]))
        with pytest.raises(ParseError, match="outside"):
            load_ratings(_ratings(tmp_path, [("a", "x", 0.5)], name="r2.tsv"))

    def test_bad_timestamp_rejected(self, tmp_path):
        with pytest.raises(ParseError, match="timestamp"):
            load_ratings(_ratings(tmp_path, [("a", "x", 3, "noon")]))

    def test_missing_file_is_io_error(self, tmp_path):
        with pytest.raises(IoError):
            load_ratings(str(tmp_path / "absent.tsv"))

    def test_items_are_indexed_by_their_first_kept_appearance(self, tmp_path):
        # "b" first appears on the dropped user's line, so "a" comes first.
        rows = [("light", "b", 1, 1)]
        rows += [("heavy", item, 3, j) for j, item in enumerate("abcba")]
        inter, users, items = load_ratings(_ratings(tmp_path, rows), min_ratings=5)
        assert list(items.items()) == [("a", 0), ("b", 1), ("c", 2)]
        assert inter.items.tolist() == [0, 1, 2, 1, 0]


def _assert_same_dense_ids(names, code):
    got_ids, got_codes = _dense_ids(names, code)
    want_ids, want_codes = dense_ids(names, code)
    assert list(got_ids.items()) == list(want_ids.items())
    assert got_codes.dtype == np.int64
    assert got_codes.tolist() == want_codes.tolist()
    return got_ids, got_codes


class TestDenseIds:
    @pytest.mark.parametrize("seed", range(20))
    def test_matches_the_unique_form_on_random_codes(self, seed):
        rng = np.random.default_rng([seed, 47])
        names = [f"n{j}" for j in range(int(rng.integers(1, 40)))]
        # Codes drawn from a random subset of the names, so some are absent.
        pool = rng.choice(len(names), size=int(rng.integers(1, len(names) + 1)),
                          replace=False)
        code = rng.choice(pool, size=int(rng.integers(0, 200))).astype(np.int64)
        _assert_same_dense_ids(names, code)

    def test_absent_codes_get_no_id(self):
        ids, codes = _assert_same_dense_ids(["a", "b", "c", "d"],
                                            np.array([3, 1, 3, 1], dtype=np.int64))
        assert list(ids.items()) == [("d", 0), ("b", 1)]
        assert codes.tolist() == [0, 1, 0, 1]

    def test_empty_input(self):
        for names in ([], ["a", "b"]):
            ids, codes = _assert_same_dense_ids(names, np.zeros(0, dtype=np.int64))
            assert ids == {} and codes.shape == (0,)

    def test_filtered_codes_match_the_unique_form(self):
        # load_ratings renumbers the item codes of the kept rows only.
        rng = np.random.default_rng(5)
        names = [f"i{j}" for j in range(50)]
        code = rng.integers(0, 50, size=400).astype(np.int64)
        keep = rng.random(400) < 0.3
        _assert_same_dense_ids(names, code[keep])


def _interactions(n):
    rng = np.random.default_rng(9)
    return _columns([(int(rng.integers(0, 8)), int(rng.integers(0, 8)),
                      float(rng.integers(1, 6)), i) for i in range(n)])


class TestSplit:
    def test_sizes_are_eight_one_one(self):
        split = split_dataset(_interactions(100), seed=1)
        assert (len(split.train), len(split.validation), len(split.test)) == (80, 10, 10)

    def test_remainder_goes_to_train(self):
        split = split_dataset(_interactions(25), seed=1)
        assert (len(split.train), len(split.validation), len(split.test)) == (21, 2, 2)

    def test_disjoint_and_exhaustive(self):
        inter = _interactions(60)
        split = split_dataset(inter, seed=2)
        merged = _rows(split.train) + _rows(split.validation) + _rows(split.test)
        assert sorted(x[3] for x in merged) == list(range(60))

    def test_same_seed_reproduces(self):
        inter = _interactions(50)
        a = split_dataset(inter, seed=3)
        b = split_dataset(inter, seed=3)
        assert a.train.timestamps.tolist() == b.train.timestamps.tolist()
        assert a.test.timestamps.tolist() == b.test.timestamps.tolist()

    def test_different_seed_differs(self):
        inter = _interactions(50)
        a = split_dataset(inter, seed=3)
        b = split_dataset(inter, seed=4)
        assert a.train.timestamps.tolist() != b.train.timestamps.tolist()

    def test_by_time_orders_chronologically(self):
        inter = _interactions(40)
        rng = np.random.default_rng(10)
        shuffled = inter.take(rng.permutation(40))
        split = split_dataset(shuffled, seed=0, by_time=True)
        times = [x[3] for x in _rows(split.train) + _rows(split.validation)
                 + _rows(split.test)]
        assert times == sorted(times)
        assert split.train.timestamps.max() < split.test.timestamps.min()

    def test_by_time_requires_timestamps(self):
        inter = _columns([(0, 0, 3.0, None)] * 12)
        with pytest.raises(ValueError, match="time"):
            split_dataset(inter, seed=0, by_time=True)

    def test_too_small_to_split(self):
        with pytest.raises(ValueError, match="small"):
            split_dataset(_interactions(9), seed=0)

    def test_select_names_splits(self):
        split = split_dataset(_interactions(30), seed=5)
        assert split.select("train") is split.train
        assert split.select("test") is split.test
        with pytest.raises(ValueError):
            split.select("holdout")


def _assert_columns(columns, want):
    """`columns` holds the entities, lengths and tokens of the dict `want`,
    each token as the code of its text, one code per distinct text."""
    assert columns.entities == list(want)
    assert columns.lengths.dtype == np.int64
    assert columns.lengths.tolist() == [len(t) for t in want.values()]
    assert columns.codes.dtype == np.int64
    assert [columns.names[c] for c in columns.codes.tolist()] == [
        t for tokens in want.values() for t in tokens]
    assert sorted(columns.names) == sorted({t for tokens in want.values() for t in tokens})
    assert list(columns_dict(columns).items()) == list(want.items())


@pytest.mark.usefixtures("block_lines")
class TestFeatureFiles:
    def test_parse_pipe_separated_tokens(self, tmp_path):
        path = str(tmp_path / "f.tsv")
        write_feature_file(path, {"e1": ["a", "b"], "e2": []})
        _assert_columns(parse_feature_file(path), {"e1": ["a", "b"], "e2": []})

    def test_repeated_entity_lines_extend(self, tmp_path):
        path = str(tmp_path / "f.tsv")
        with open(path, "w") as f:
            f.write("e1\ta\ne1\tb|c\n")
        _assert_columns(parse_feature_file(path), {"e1": ["a", "b", "c"]})

    def test_wrong_columns_report_line(self, tmp_path):
        path = str(tmp_path / "f.tsv")
        with open(path, "w") as f:
            f.write("e1\ta\ne2\ta\textra\n")
        with pytest.raises(ParseError, match="line 2"):
            parse_feature_file(path)


@pytest.mark.usefixtures("block_lines")
class TestVocab:
    def test_closed_field_first_appearance_order(self, tmp_path):
        path = str(tmp_path / "g.tsv")
        write_feature_file(path, {"e1": ["M"], "e2": ["F"], "e3": ["M"]})
        vocab = build_feature_vocab([FieldSpec("gender", "user", path)], tag_top_t=50)
        assert vocab.tokens["gender"] == {"M": 0, "F": 1}
        assert vocab.field_size("gender") == 3
        assert vocab.unknown_index("gender") == 2

    def test_closed_field_entity_on_non_adjacent_lines(self, tmp_path):
        path = _write_text(tmp_path, "e1\ta\ne2\tb\ne1\tc\n", name="g.tsv")
        vocab = build_feature_vocab([FieldSpec("g", "user", path)], tag_top_t=50)
        assert list(vocab.tokens["g"].items()) == [("a", 0), ("c", 1), ("b", 2)]

    def test_open_field_keeps_top_t_by_entity_count(self, tmp_path):
        path = str(tmp_path / "t.tsv")
        # "pop" on 3 entities, "mid" on 2, "rare" on 1.
        write_feature_file(path, {"e1": ["pop", "mid"], "e2": ["pop", "mid"],
                                  "e3": ["pop", "rare"]})
        vocab = build_feature_vocab([FieldSpec("tag", "item", path, open_vocab=True)],
                                    tag_top_t=2)
        assert vocab.tokens["tag"] == {"pop": 0, "mid": 1}

    def test_open_field_ties_break_lexicographically(self, tmp_path):
        path = str(tmp_path / "t.tsv")
        write_feature_file(path, {"e1": ["zeta"], "e2": ["beta"], "e3": ["alpha"]})
        vocab = build_feature_vocab([FieldSpec("tag", "item", path, open_vocab=True)],
                                    tag_top_t=2)
        assert vocab.tokens["tag"] == {"alpha": 0, "beta": 1}

    def test_open_field_counts_each_entity_once(self, tmp_path):
        path = str(tmp_path / "t.tsv")
        # "dup" appears twice on one entity, "solo" once each on two entities.
        write_feature_file(path, {"e1": ["dup", "dup", "solo"], "e2": ["solo"]})
        vocab = build_feature_vocab([FieldSpec("tag", "item", path, open_vocab=True)],
                                    tag_top_t=1)
        assert vocab.tokens["tag"] == {"solo": 0}

    def test_open_field_respects_population_filter(self, tmp_path):
        path = str(tmp_path / "t.tsv")
        write_feature_file(path, {"kept": ["a"], "dropped": ["b", "c"]})
        vocab = build_feature_vocab([FieldSpec("tag", "item", path, open_vocab=True)],
                                    tag_top_t=10,
                                    population={"item": {"kept"}, "user": set()})
        assert vocab.tokens["tag"] == {"a": 0}

    def test_truncation_to_top_t_plus_unknown_row(self, tmp_path):
        path = str(tmp_path / "t.tsv")
        write_feature_file(path, {f"e{k}": [f"tag{k:02d}"] for k in range(60)})
        vocab = build_feature_vocab(
            [FieldSpec("tag", "item", path, open_vocab=True)], tag_top_t=50)
        assert len(vocab.tokens["tag"]) == 50
        assert vocab.field_size("tag") == 51
        # 60 equal-count tags tie; the lexicographically first 50 survive.
        assert "tag49" in vocab.tokens["tag"]
        assert "tag50" not in vocab.tokens["tag"]

    def test_offsets_and_total_rows(self, tmp_path):
        g = str(tmp_path / "g.tsv")
        t = str(tmp_path / "t.tsv")
        write_feature_file(g, {"u1": ["M"], "u2": ["F"]})
        write_feature_file(t, {"i1": ["a"], "i2": ["b"]})
        vocab = build_feature_vocab([FieldSpec("gender", "user", g),
                                     FieldSpec("tag", "item", t, open_vocab=True)],
                                    tag_top_t=50)
        assert vocab.offsets() == {"gender": 0, "tag": 3}
        assert FieldLayout.from_vocab(vocab, 0, 0).total_rows == 6


@pytest.mark.usefixtures("block_lines")
class TestEncode:
    def _vocab(self, tmp_path):
        g = str(tmp_path / "genre.tsv")
        write_feature_file(g, {"i1": ["action", "comedy"], "i2": ["drama"]})
        return g, build_feature_vocab([FieldSpec("genre", "item", g)], tag_top_t=50)

    def test_multi_token_slot_is_sorted_dedup(self, tmp_path):
        g, vocab = self._vocab(tmp_path)
        raw = {"genre": parse_feature_file(g)}
        packed = encode_entity_features(raw, vocab, {"i1": 0, "i2": 1}, "item")
        assert packed.rows.shape[0] == 2
        assert packed.rows.dtype == np.int64 and packed.weights.dtype == np.float64
        slots = slots_of(packed, vocab, "item")
        _, sizes, indices = encoded(slots)
        assert sizes[0].tolist() == [2, 1]
        assert indices[0].tolist() == [0, 1, 2]
        assert slots == [[[0, 1]], [[2]]]

    def test_repeated_and_reordered_tokens_are_sorted_dedup(self, tmp_path):
        g, vocab = self._vocab(tmp_path)
        raw = {"genre": feature_columns({"i1": ["comedy", "action", "comedy", "western"],
                                         "i2": ["drama"]})}
        packed = encode_entity_features(raw, vocab, {"i2": 0, "i1": 1}, "item")
        assert slots_of(packed, vocab, "item") == [[[2]], [[0, 1]]]

    def test_unknown_tokens_dropped_and_empty_falls_back(self, tmp_path):
        g, vocab = self._vocab(tmp_path)
        raw = {"genre": feature_columns({"i3": ["western"]})}
        packed = encode_entity_features(raw, vocab, {"i3": 0}, "item")
        assert slots_of(packed, vocab, "item") == [[[vocab.unknown_index("genre")]]]

    def test_entity_on_non_adjacent_lines(self, tmp_path):
        path = _write_text(tmp_path, "e1\ta\ne2\tb\ne1\tc\n", name="g.tsv")
        vocab = build_feature_vocab([FieldSpec("g", "user", path)], tag_top_t=50)
        packed = encode_entity_features({"g": parse_feature_file(path)}, vocab,
                                        {"e2": 0, "e1": 1}, "user")
        slots = slots_of(packed, vocab, "user")
        _, sizes, indices = encoded(slots)
        assert sizes[0].tolist() == [1, 2]
        assert indices[0].tolist() == [2, 0, 1]
        assert slots == [[[2]], [[0, 1]]]

    def test_entity_missing_from_file_gets_unknown(self, tmp_path):
        g, vocab = self._vocab(tmp_path)
        packed = encode_entity_features({"genre": feature_columns({})}, vocab,
                                        {"i9": 0}, "item")
        slots = slots_of(packed, vocab, "item")
        assert slots == [[[3]]]
        _, sizes, indices = encoded(slots)
        assert sizes[0].tolist() == [1] and indices[0].tolist() == [3]


def _field_columns(packed):
    """Per field: its column slices of the side's rows and weights tables."""
    spans = list(zip(packed.bounds, packed.bounds[1:]))
    return ([packed.rows[:, lo:hi] for lo, hi in spans],
            [packed.weights[:, lo:hi] for lo, hi in spans])


class TestPack:
    def test_padding_mask_and_offsets(self, tmp_path):
        g = str(tmp_path / "g.tsv")
        t = str(tmp_path / "t.tsv")
        write_feature_file(g, {"i1": ["a"], "i2": ["b"]})
        write_feature_file(t, {"i1": ["x", "y"], "i2": ["x"]})
        vocab = build_feature_vocab([FieldSpec("genre", "item", g),
                                     FieldSpec("tag", "item", t)], tag_top_t=50)
        packed = pack_features(*encoded([[[0], [0, 1]], [[1], [0]]]), vocab, "item")
        assert vocab.fields_of("item") == ["genre", "tag"]
        assert packed.bounds == [0, 1, 3]
        assert packed.rows.dtype == np.int64 and packed.weights.dtype == np.float64
        index, weights = _field_columns(packed)
        np.testing.assert_array_equal(index[0], [[0], [1]])
        # tag indices are offset by the genre field size (3).
        np.testing.assert_array_equal(index[1], [[3, 4], [3, 0]])
        # Mean-pooling weights: 1/count on each token, 0 on the padding.
        np.testing.assert_array_equal(weights[1], [[0.5, 0.5], [1.0, 0.0]])
        np.testing.assert_array_equal(weights[0], [[1.0], [1.0]])

    def test_weights_are_mask_over_count_bit_for_bit(self, prepared):
        for owner, packed in (("user", prepared.user_packed),
                              ("item", prepared.item_packed)):
            fields = prepared.vocab.fields_of(owner)
            n, sizes, _ = encoded(slots_of(packed, prepared.vocab, owner), len(fields))
            assert packed.weights.dtype == np.float64
            assert packed.rows.shape == packed.weights.shape
            assert packed.weights.shape == (n, packed.bounds[-1])
            _, weights = _field_columns(packed)
            for fi in range(len(fields)):
                lengths = sizes[fi]
                width = weights[fi].shape[1]
                assert width == lengths.max()
                mask = (np.arange(width) < lengths[:, None]).astype(np.float64)
                counts = mask.sum(axis=1)
                want = mask / counts[:, None]
                assert weights[fi].tobytes() == want.tobytes(), (owner, fi)
                # The gathered weights of a batch are what the per-batch
                # division of gathered masks and counts gave.
                ids = np.arange(n)[::-1]
                assert (packed.weights[ids][:, packed.bounds[fi]:packed.bounds[fi + 1]]
                        .tobytes() == (mask[ids] / counts[ids][:, None]).tobytes())

    # The toy vocab has four fields of 3 rows each, 12 rows in all: uf0 and
    # uf1 on the user side (rows 0-5), if0 and if1 on the item side (6-11).
    @pytest.mark.parametrize("owner, slots, field", [
        ("item", [[[999], [0]]], "if0"),           # far past the table's end
        ("item", [[[3], [0]]], "if0"),             # the size: if1's row 0
        ("item", [[[0], [0, 1]], [[1], [2, 3]]], "if1"),  # in a later entity
        ("user", [[[-1], [0]]], "uf0"),            # wraps to the last row
        ("user", [[[0], [1]], [[2], [0, -2]]], "uf1"),
        ("item", [[[0], []]], "if1"),              # empty in every entity
        ("item", [[[0], [1, 2]], [[], [0]]], "if0")],  # empty in one entity
        ids=["999", "size", "size-later-entity", "-1", "negative-later-token",
             "empty-field", "empty-slot"])
    def test_bad_slots_are_rejected_naming_the_field(self, owner, slots, field):
        with pytest.raises(ShapeError, match=f"field '{field}'"):
            pack_features(*encoded(slots), _toy_vocab(), owner)

    def test_records_that_do_not_fit_the_side_are_rejected(self):
        vocab = _toy_vocab()
        n, sizes, indices = encoded([[[0], [0, 1]], [[1], [2]]])
        with pytest.raises(ShapeError, match="hold 1 fields, the item side has 2"):
            pack_features(n, sizes[:1], indices[:1], vocab, "item")
        with pytest.raises(ShapeError, match="field 'if1'"):
            pack_features(n, sizes, [indices[0], indices[1][:2]], vocab, "item")
        with pytest.raises(ShapeError, match="field 'if0'"):
            pack_features(3, sizes, indices, vocab, "item")

    def test_a_side_without_fields_has_empty_tables(self, tmp_path):
        g = str(tmp_path / "g.tsv")
        write_feature_file(g, {"i1": ["a"]})
        vocab = build_feature_vocab([FieldSpec("genre", "item", g)], tag_top_t=50)
        packed = pack_features(*encoded([[] for _ in range(3)]), vocab, "user")
        assert vocab.fields_of("user") == [] and packed.bounds == [0]
        assert packed.rows.shape == packed.weights.shape == (3, 0)
        assert packed.rows.dtype == np.int64 and packed.weights.dtype == np.float64


@pytest.mark.usefixtures("block_lines")
class TestBuildDataset:
    def test_prepared_invariants(self, prepared):
        n = len(prepared.interactions)
        split = prepared.split
        assert len(split.validation) == len(split.test) == n // 10
        assert len(split.train) == n - 2 * (n // 10)
        assert prepared.user_packed.rows.shape[0] == prepared.num_users
        assert prepared.item_packed.rows.shape[0] == prepared.num_items
        for packed, owner in ((prepared.user_packed, "user"),
                              (prepared.item_packed, "item")):
            fields = prepared.vocab.fields_of(owner)
            assert len(packed.bounds) == len(fields) + 1
            n, per_field, indices = encoded(slots_of(packed, prepared.vocab, owner),
                                            len(fields))
            for sizes, index in zip(per_field, indices):
                assert sizes.shape == (n,)
                assert sizes.min() >= 1 and index.shape == (sizes.sum(),)
        users, items, ratings = interactions_to_arrays(prepared.interactions)
        assert users.max() < prepared.num_users
        assert items.max() < prepared.num_items
        assert ratings.min() >= 1.0 and ratings.max() <= 5.0

    def test_every_user_meets_min_ratings(self, prepared):
        counts = np.zeros(prepared.num_users, dtype=int)
        for user, _, _, _ in _rows(prepared.interactions):
            counts[user] += 1
        assert counts.min() >= prepared.manifest.min_ratings

    def test_digest_is_stable_across_rebuilds(self, synthetic_manifest):
        a = build_dataset(DatasetManifest.from_file(synthetic_manifest), seed=11)
        b = build_dataset(DatasetManifest.from_file(synthetic_manifest), seed=11)
        assert a.digest() == b.digest()

    def test_digest_changes_with_seed(self, synthetic_manifest, prepared):
        other = build_dataset(DatasetManifest.from_file(synthetic_manifest), seed=12)
        assert other.digest() != prepared.digest()

    def test_manifest_missing_file_and_bad_json(self, tmp_path):
        with pytest.raises(IoError):
            DatasetManifest.from_file(str(tmp_path / "absent.json"))
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(ParseError):
            DatasetManifest.from_file(str(bad))
        nokey = tmp_path / "nokey.json"
        nokey.write_text("{}")
        with pytest.raises(ParseError):
            DatasetManifest.from_file(str(nokey))

    @pytest.mark.parametrize("key, value", [
        ("min_ratings", "five"), ("min_ratings", 2.7), ("min_ratings", 5.0),
        ("min_ratings", True), ("min_ratings", -1), ("min_ratings", None),
        ("tag_top_t", -3), ("tag_top_t", "50"), ("tag_top_t", False),
        ("tag_top_t", 1e3), ("tag_top_t", [50])],
        ids=["min-text", "min-fraction", "min-whole-float", "min-bool",
             "min-negative", "min-null", "top-negative", "top-text",
             "top-bool", "top-float", "top-list"])
    def test_manifest_counts_must_be_integers_at_least_zero(self, tmp_path, key,
                                                            value):
        path = tmp_path / "dataset.json"
        path.write_text(json.dumps({"ratings": "r.tsv", key: value}))
        with pytest.raises(ParseError) as e:
            DatasetManifest.from_file(str(path))
        assert f"{path}: {key} must be an integer >= 0, got {value!r}" in str(e.value)

    def test_manifest_counts_accept_zero_and_defaults(self, tmp_path):
        path = tmp_path / "dataset.json"
        path.write_text(json.dumps({"ratings": "r.tsv", "min_ratings": 0,
                                    "tag_top_t": 0}))
        manifest = DatasetManifest.from_file(str(path))
        assert (manifest.min_ratings, manifest.tag_top_t) == (0, 0)
        path.write_text(json.dumps({"ratings": "r.tsv"}))
        manifest = DatasetManifest.from_file(str(path))
        assert (manifest.min_ratings, manifest.tag_top_t) == (5, 50)

    @pytest.mark.parametrize("value", ["false", "no", 0, 1, None],
                             ids=["text-false", "text-no", "zero", "one", "null"])
    def test_feature_open_flag_must_be_a_json_bool(self, tmp_path, value):
        path = tmp_path / "dataset.json"
        path.write_text(json.dumps({"ratings": "r.tsv", "features": [
            {"field": "tag", "owner": "item", "path": "t.tsv", "open": value}]}))
        with pytest.raises(ParseError) as e:
            DatasetManifest.from_file(str(path))
        assert (f"dataset manifest {path}: feature 'tag': open must be true or "
                f"false, got {value!r}") in str(e.value)

    def test_feature_open_flag_takes_json_bools_or_nothing(self, tmp_path):
        path = tmp_path / "dataset.json"
        path.write_text(json.dumps({"ratings": "r.tsv", "features": [
            {"field": "a", "owner": "item", "path": "a.tsv", "open": True},
            {"field": "b", "owner": "item", "path": "b.tsv", "open": False},
            {"field": "c", "owner": "item", "path": "c.tsv"}]}))
        manifest = DatasetManifest.from_file(str(path))
        assert [f.open_vocab for f in manifest.features] == [True, False, False]

    def test_manifest_rejects_unknown_owner(self):
        with pytest.raises(ParseError, match="owner"):
            FieldSpec("f", "movie", "x.tsv")


def _same_as_oracle(path, min_ratings):
    """load_ratings gives what the row loader gives: the same rows, ids and
    id order, or the same error type and message."""
    try:
        want = _row_loader(path, min_ratings)
    except (IoError, ParseError) as e:
        with pytest.raises(type(e)) as got:
            load_ratings(path, min_ratings)
        assert str(got.value) == str(e)
        return None
    inter, users, items = load_ratings(path, min_ratings)
    assert _rows(inter) == want[0]
    assert list(users.items()) == list(want[1].items())
    assert list(items.items()) == list(want[2].items())
    return inter, want[0]


def _byte_path(path) -> list[bool]:
    """Per block of a ratings file, whether its numbers are read from its
    bytes (_plain_block) rather than by float() and int()."""
    return [_plain_block(table) is not None for table in _read_table(path)]


# (rating text, timestamp text or None, whether a block holding the line is
# read from its bytes): the limits of whole numbers in plain digits, and the
# texts that float() and int() read, or refuse, beyond them.
NUMBER_TEXTS = [
    ("000000000000003", None, True),       # 15 digits, leading zeros
    ("0000000000000003", "1", True),       # 16 digits, leading zeros
    ("000000000000000003", "1", True),     # 18 digits, leading zeros
    ("0000000000000000003", "1", False),   # 19 digits
    ("123456789012345", "1", False),       # 15 digits, outside [1,5]
    ("1.234567890123456", "1", False),     # 16 digits and a point
    ("0003", "0007", True),
    ("4.75", "0", False),
    ("3.", "1", False),
    (".5", "1", False),
    ("+3", "1", False),
    ("3", "999999999999999999", True),     # 18 digits
    ("3", "1000000000000000000", False),   # 19 digits that fit int64
    ("3", "9999999999999999999", False),   # 19 digits past int64
    ("3", "-0", False),
    (" 3 ", "1", False),
    ("3", " 3 ", False),
    ("\u0663", "1", False),                # an Arabic-Indic three
    ("3", "\u0663", False),
    ("1_0", "1", False),
    ("3", "1_0", False),
    ("", "1", False),
    ("3", "", False),
]


# Line bodies for the random files: ordinary lines, lines that parse but look
# odd, and lines that a loader must reject.
_GOOD = ["u{u}\ti{i}\t{r}", "u{u}\ti{i}\t{r}\t{t}"]
_ODD = ["u{u}\ti{i}\t {r} \t+{t}", "u{u}\ti{i}\t{r}\t-{t}", "u{u}\ti{i}\t{r}\t1_{t}",
        "u{u}\x0b\ti{i}\x0c\t{r}", "u{u}\x1c\x1d\x1e\ti\x85{i}\t{r}\t{t}",
        "u{u} \ti{i} \t{r}", "\t\t{r}"]
_BAD = ["u{u}\ti{i}", "u{u}\ti{i}\t{r}\t{t}\t0", "u{u}\ti{i}\tthree", "u{u}\ti{i}\t",
        "u{u}\ti{i}\t6", "u{u}\ti{i}\t0.5", "u{u}\ti{i}\tnan", "u{u}\ti{i}\t-inf",
        "u{u}\ti{i}\t1_0", "u{u}\ti{i}\t{r}\tnoon", "u{u}\ti{i}\t{r}\t1.5",
        "u{u}\ti{i}\t{r}\t", " ", "u{u}", "u{u}\ti{i}\t\u0663", "u{u}\ti{i}\t{r}\t1_0"]


def _random_ratings_text(rng, lines, bad_share):
    out = []
    for _ in range(lines):
        pick = rng.random()
        if pick < 0.08:
            body = ""
        elif pick < 0.08 + bad_share:
            body = str(rng.choice(_BAD))
        elif pick < 0.2 + bad_share:
            body = str(rng.choice(_ODD))
        else:
            body = str(rng.choice(_GOOD))
        body = body.format(u=rng.integers(0, 6), i=rng.integers(0, 9),
                           r=rng.choice(["1", "2.5", "3.0", "4", "5", "4.75"]),
                           t=rng.integers(0, 5))
        out.append(body + str(rng.choice(["\n", "\r\n", "\r"])))
    return "".join(out)


@pytest.mark.usefixtures("block_lines")
class TestColumnarLoader:
    def test_crlf_and_lone_cr_end_lines(self, tmp_path):
        path = _write_text(tmp_path, "a\tx\t3\t1\r\nb\ty\t4\r\na\ty\t5\t2\rb\tx\t1\t0")
        inter, users, items = load_ratings(path, min_ratings=1)
        assert _rows(inter) == [(0, 0, 3.0, 1), (1, 1, 4.0, None), (0, 1, 5.0, 2),
                                (1, 0, 1.0, 0)]
        assert _same_as_oracle(path, 1) is not None

    def test_only_newlines_end_lines(self, tmp_path):
        # str.splitlines would split at each of these; a file iterator does not.
        seps = "\x0b\x0c\x1c\x1d\x1e\x85  "
        path = _write_text(tmp_path, f"a{seps}\tx\t3\nb\ty{seps}\t4\t7\n")
        inter, users, items = load_ratings(path, min_ratings=1)
        assert list(users) == [f"a{seps}", "b"]
        assert list(items) == ["x", f"y{seps}"]
        assert len(inter) == 2

    def test_blank_lines_keep_their_line_numbers(self, tmp_path):
        path = _write_text(tmp_path, "\na\tx\t3\n\n\r\n\rb\ty\tbad\n")
        with pytest.raises(ParseError, match=r"line 6: bad rating 'bad'$"):
            load_ratings(path, min_ratings=1)
        path = _write_text(tmp_path, "\n\na\tx\t3\t1\n\nb\ty\n", name="w.tsv")
        with pytest.raises(ParseError, match="line 5: expected 3 or 4"):
            load_ratings(path, min_ratings=1)
        _same_as_oracle(path, 1)

    def test_mixed_three_and_four_columns(self, tmp_path):
        path = _write_text(tmp_path, "a\tx\t3\t10\na\ty\t4\nb\tx\t5\t-3\nb\ty\t1\n")
        inter, _, _ = load_ratings(path, min_ratings=1)
        assert _rows(inter) == [(0, 0, 3.0, 10), (0, 1, 4.0, None), (1, 0, 5.0, -3),
                                (1, 1, 1.0, None)]
        assert inter.has_timestamp.tolist() == [True, False, True, False]
        assert inter.timestamps.tolist() == [10, 0, -3, 0]

    def test_min_ratings_filter_keeps_first_appearance_ids(self, tmp_path):
        # "p" is dropped; "q" first appears on p's row, so it is numbered
        # where it first appears among the kept rows.
        rows = [("p", "q", 3, 1), ("k", "r", 3, 2), ("m", "s", 3, 3),
                ("m", "q", 3, 4), ("k", "q", 3, 5), ("m", "r", 3, 6), ("k", "s", 3, 7)]
        path = _ratings(tmp_path, rows)
        inter, users, items = load_ratings(path, min_ratings=2)
        assert list(users.items()) == [("k", 0), ("m", 1)]
        assert list(items.items()) == [("r", 0), ("s", 1), ("q", 2)]
        assert _rows(inter) == [(0, 0, 3.0, 2), (1, 1, 3.0, 3), (1, 2, 3.0, 4),
                                (0, 2, 3.0, 5), (1, 0, 3.0, 6), (0, 1, 3.0, 7)]
        _same_as_oracle(path, 2)

    def test_by_time_keeps_file_order_among_tied_timestamps(self, tmp_path):
        rng = np.random.default_rng(4)
        rows = [(f"u{j % 3}", f"i{j}", 3, int(rng.integers(0, 4))) for j in range(40)]
        inter, want = _same_as_oracle(_ratings(tmp_path, rows), 1)
        split = split_dataset(inter, seed=0, by_time=True)
        parts = (_rows(split.train), _rows(split.validation), _rows(split.test))
        assert parts == _row_split(want, 0, by_time=True)
        assert [x[1] for x in parts[0][:3]] == [j for j in range(40)
                                                if rows[j][3] == 0][:3]

    def test_first_bad_line_wins_whatever_the_check(self, tmp_path):
        # Each later line breaks a check that runs before the earlier line's.
        path = _write_text(tmp_path, "a\tx\t3\tnoon\nb\ty\t9\nc\tz\tx\nd\tw\n")
        with pytest.raises(ParseError, match=r"line 1: bad timestamp 'noon'"):
            load_ratings(path, min_ratings=1)
        path = _write_text(tmp_path, "a\tx\t3\nb\ty\t9\nc\tz\tx\nd\tw\n", name="b.tsv")
        with pytest.raises(ParseError, match=r"line 2: rating outside \[1,5\]: 9$"):
            load_ratings(path, min_ratings=1)

    def test_timestamp_outside_int64_is_a_parse_error(self, tmp_path):
        path = _write_text(tmp_path, "a\tx\t3\t1\nb\ty\t4\t9223372036854775808\n"
                                     "c\tz\t2\tnoon\n")
        with pytest.raises(ParseError, match="line 2: timestamp outside the int64 range"):
            load_ratings(path, min_ratings=1)
        path = _write_text(tmp_path, "a\tx\t3\t-9223372036854775808\n"
                                     "b\ty\t4\t9223372036854775807\n", name="edge.tsv")
        inter, _, _ = load_ratings(path, min_ratings=1)
        assert inter.timestamps.tolist() == [-2 ** 63, 2 ** 63 - 1]

    def test_random_files_match_the_row_loader(self, tmp_path):
        rng = np.random.default_rng(2024)
        outcomes = Counter()
        for case in range(150):
            text = _random_ratings_text(rng, int(rng.integers(0, 60)),
                                        bad_share=float(rng.choice([0.0, 0.01, 0.05])))
            path = _write_text(tmp_path, text, name=f"r{case}.tsv")
            min_ratings = int(rng.integers(1, 5))
            result = _same_as_oracle(path, min_ratings)
            outcomes["error" if result is None else "parsed"] += 1
            if result is None or len(result[1]) < 10:
                continue
            inter, want = result
            for by_time in (False, True):
                if by_time and any(x[3] is None for x in want):
                    continue
                split = split_dataset(inter, seed=case, by_time=by_time)
                assert (_rows(split.train), _rows(split.validation),
                        _rows(split.test)) == _row_split(want, case, by_time)
        assert outcomes["error"] >= 20 and outcomes["parsed"] >= 20

    @pytest.mark.parametrize("rating, stamp, plain", NUMBER_TEXTS,
                             ids=[repr(case[:2]) for case in NUMBER_TEXTS])
    def test_number_texts_at_the_edge_of_the_byte_path(self, tmp_path, block_lines,
                                                        rating, stamp, plain):
        # Line 2 of 3 (index 1); only its block may leave the byte path.
        case = f"b\ty\t{rating}" + ("" if stamp is None else f"\t{stamp}")
        path = _write_text(tmp_path, "\n".join(["a\tx\t3\t1", case, "c\tz\t5"]))
        _same_as_oracle(path, 1)
        assert _byte_path(path) == [plain or not top <= 1 < top + block_lines
                                    for top in range(0, 3, block_lines)]

    def test_columns_are_shared_read_only_arrays(self, tmp_path):
        inter, _, _ = load_ratings(_ratings(tmp_path, [("a", "x", 3, 1)] * 3), 1)
        users, items, ratings = interactions_to_arrays(inter)
        assert users is inter.users and items is inter.items
        assert ratings is inter.ratings
        assert (users.dtype, items.dtype, ratings.dtype) == (np.int64, np.int64,
                                                             np.float64)
        for column in inter.columns():
            with pytest.raises(ValueError):
                column[0] = column[0]


@pytest.mark.usefixtures("block_lines")
class TestReadErrors:
    def test_directory_is_an_io_error_naming_it(self, tmp_path):
        with pytest.raises(IoError, match=f"cannot read {tmp_path}"):
            load_ratings(str(tmp_path))
        with pytest.raises(IoError, match=f"cannot read {tmp_path}"):
            parse_feature_file(str(tmp_path))

    def test_non_utf8_is_a_parse_error_naming_the_file(self, tmp_path):
        path = tmp_path / "latin1.tsv"
        path.write_bytes("a\tx\t3\nbé\ty\t4\n".encode("latin-1"))
        with pytest.raises(ParseError, match=f"{path}: not UTF-8 text .* at byte 7"):
            load_ratings(str(path))
        with pytest.raises(ParseError, match="not UTF-8"):
            parse_feature_file(str(path))

    def test_feature_file_line_numbers_count_blank_lines(self, tmp_path):
        path = _write_text(tmp_path, "\r\ne1\ta\n\ne2\ta\tb\n", name="f.tsv")
        with pytest.raises(ParseError, match="line 4: expected 2 tab-separated "
                                             "fields, got 3"):
            parse_feature_file(path)

    def test_feature_file_line_ends_and_empty_token_lists(self, tmp_path):
        path = _write_text(tmp_path, "e1\ta|b\r\ne2\t\re1\t|c|\n", name="f.tsv")
        _assert_columns(parse_feature_file(path), {"e1": ["a", "b", "c"], "e2": []})

    def test_manifest_directory_and_non_object(self, tmp_path):
        (tmp_path / "dir.json").mkdir()
        with pytest.raises(IoError, match="cannot read"):
            DatasetManifest.from_file(str(tmp_path / "dir.json"))
        listed = tmp_path / "list.json"
        listed.write_text("[1, 2]")
        with pytest.raises(ParseError, match="JSON object"):
            DatasetManifest.from_file(str(listed))


class TestBlocks:
    """Cases placed at the block boundaries of each BLOCK_LINES that
    `block_lines` sets."""

    def test_the_first_bad_line_may_open_a_later_block(self, tmp_path, block_lines):
        # The first block ends with a blank line; the next opens with a bad
        # timestamp, followed by a line that fails an earlier check.
        good = [f"u{j % 3}\ti{j % 4}\t3\t{j}" for j in range(block_lines - 1)]
        path = _write_text(tmp_path, "\n".join(good + ["", "u0\ti0\t3\tnoon", "u1\ti1"]))
        with pytest.raises(ParseError, match=rf"line {block_lines + 1}: "
                                             r"bad timestamp 'noon'$"):
            load_ratings(path, min_ratings=1)
        _same_as_oracle(path, 1)
        good = [f"e{j % 3}\ta|b" for j in range(block_lines)]
        path = _write_text(tmp_path, "\n".join(good + ["e0\ta\tb", "e1"]), name="f.tsv")
        with pytest.raises(ParseError, match=rf"line {block_lines + 1}: expected 2 "):
            parse_feature_file(path)

    def test_an_id_may_first_appear_in_a_later_block(self, tmp_path, block_lines):
        rows = [("a", "x", 3, j) for j in range(block_lines)]
        rows += [("b", "y", 4, 0), ("a", "y", 5, 1), ("b", "x", 2, 2), ("c", "z", 1, 3)]
        path = _ratings(tmp_path, rows)
        inter, users, items = load_ratings(path, min_ratings=1)
        assert list(users.items()) == [("a", 0), ("b", 1), ("c", 2)]
        assert list(items.items()) == [("x", 0), ("y", 1), ("z", 2)]
        assert inter.users[-4:].tolist() == [1, 0, 1, 2]
        assert inter.items[-4:].tolist() == [1, 1, 0, 2]
        for min_ratings in (1, 2):
            _same_as_oracle(path, min_ratings)
        lines = [f"e{j % 2}\tt{j}" for j in range(block_lines)] + ["e2\tu|v", "e0\tw"]
        path = _write_text(tmp_path, "\n".join(lines) + "\n", name="f.tsv")
        _assert_columns(parse_feature_file(path), feature_dict(path))

    @pytest.mark.parametrize("end", ["", "\n"], ids=["no-final-newline", "final-newline"])
    def test_a_file_of_exactly_one_block(self, tmp_path, block_lines, end):
        lines = [f"u{j % 2}\ti{j % 3}\t{1 + j % 5}" for j in range(block_lines)]
        path = _write_text(tmp_path, "\n".join(lines) + end)
        inter, _ = _same_as_oracle(path, 1)
        assert len(inter) == block_lines
        lines[-1] = "u0\ti0\tbad"
        path = _write_text(tmp_path, "\n".join(lines) + end, name="bad.tsv")
        with pytest.raises(ParseError, match=rf"line {block_lines}: bad rating"):
            load_ratings(path, min_ratings=1)
        path = _write_text(tmp_path, "\n".join(f"e{j}\tt" for j in range(block_lines))
                           + end, name="f.tsv")
        assert len(parse_feature_file(path).entities) == block_lines

    @pytest.mark.parametrize("chunk", [1, 2, 3, 7, 64, data.NEWLINE_CHUNK])
    def test_blocks_end_where_locating_every_newline_puts_them(self, monkeypatch,
                                                               block_lines, chunk):
        # _block_ends counts newlines a chunk at a time and locates only
        # the block ends; at every chunk size they must fall where the
        # positions of all the newlines put them.
        monkeypatch.setattr(data, "NEWLINE_CHUNK", chunk)
        for text in ["", "\n", "a", "a\n", "\n\n\n\n", "u\ti\t3\n\nv\tj\t4\n" * 7,
                     "x" * 50 + "\n" + "y\n" * 9, "é\t\n" * 11 + "z"]:
            whole = np.frombuffer(text.encode("utf-8"), np.uint8)
            line_ends = np.append(np.flatnonzero(whole == 10), whole.size)
            want = [int(line_ends[min(top + block_lines, line_ends.size) - 1])
                    for top in range(0, line_ends.size, block_lines)]
            assert _block_ends(whole) == want, text

    def test_a_plain_block_whose_only_fault_is_a_rating_of_6(self, tmp_path,
                                                             block_lines):
        # Every text is plain digits, so only the range check can send the
        # block, the last line of the first one, to the text path.
        lines = [f"u{j % 3}\ti{j % 4}\t{1 + j % 5}\t{j}" for j in range(2 * block_lines)]
        lines[block_lines - 1] = f"u0\ti0\t6\t{block_lines - 1}"
        path = _write_text(tmp_path, "\n".join(lines))
        with pytest.raises(ParseError, match=rf"line {block_lines}: rating outside "
                                             r"\[1,5\]: 6$"):
            load_ratings(path, min_ratings=1)
        _same_as_oracle(path, 1)
        assert _byte_path(path) == [False, True]

    @pytest.mark.parametrize("first", [0, 1], ids=["text-then-bytes", "bytes-then-text"])
    def test_text_path_and_byte_path_blocks_in_either_order(self, tmp_path, block_lines,
                                                            first):
        # One block holds a rating written "+3", which float() reads.
        lines = [f"u{j % 3}\ti{j % 4}\t{1 + j % 5}\t{j}" for j in range(2 * block_lines)]
        lines[first * block_lines] = f"u1\ti2\t+3\t{first * block_lines}"
        path = _write_text(tmp_path, "\n".join(lines))
        inter, _ = _same_as_oracle(path, 1)
        assert inter.ratings[first * block_lines] == 3.0
        assert _byte_path(path) == [first == 1, first == 0]


def _outcome(load, *args) -> tuple:
    """What `load` gives, with id dicts as ordered pairs and interactions as
    rows, or the type and text of its error."""
    try:
        got = load(*args)
    except (IoError, ParseError) as e:
        return type(e), str(e)
    if isinstance(got, FeatureColumns):
        return got.entities, got.lengths.tolist(), got.codes.tolist(), got.names
    inter, users, items = got
    return _rows(inter), list(users.items()), list(items.items())


def _same_as_text_path(monkeypatch, load, *args) -> tuple:
    """`load` gives what it gives with every id column coded from its texts
    (the digit form refused): the same codes, ids in order, or error."""
    got = _outcome(load, *args)
    with monkeypatch.context() as patch:
        patch.setattr(data, "_digit_ids", lambda *a: None)
        assert got == _outcome(load, *args)
    return got


def _tops(path) -> list[int]:
    """The 0-based index of the first line of each block of a file."""
    return [block * data.BLOCK_LINES for block, _ in enumerate(_read_table(path))]


def _digit_form(path, k) -> list[bool]:
    """Per block of a file, whether field k's ids are coded in the digit
    form (data._IdCoder) rather than by their texts."""
    coder, forms = data._IdCoder(), []
    for table in _read_table(path):
        coder.code(table, k)
        forms.append(coder.index is None)
    return forms


# (id text, whether a block holding it may be coded in the digit form): the
# canonical decimal integers, and the texts beside them.
ID_TEXTS = [
    ("0", True),
    ("00", False),                      # a leading zero
    ("012", False),
    ("1" * 18, False),                  # canonical, past the table bound
    ("1" * 19, False),                  # too long for _plain_numbers
    ("", False),
    ("+5", False),
    (" 5", False),
    ("5 ", False),
    ("\u0665", False),                  # an Arabic-Indic five
    ("\uff15", False),                  # a full-width five
    ("-1", False),
    ("u7", False),
]


@pytest.mark.usefixtures("block_lines")
class TestIdCoder:
    """Ids coded from the bytes (the digit form) number as their texts do,
    as _same_as_text_path and the line-by-line oracles check."""

    @pytest.mark.parametrize("text, digit", ID_TEXTS, ids=[repr(c[0]) for c in ID_TEXTS])
    def test_id_texts_at_the_edge_of_the_digit_form(self, tmp_path, monkeypatch,
                                                    block_lines, text, digit):
        # Line 3 of 5 (index 2) holds the case as a user, an item and an
        # entity; every other id is at most its line number, so within the
        # table bound at every block size, and they first appear out of
        # their order as numbers (j ^ 1 swaps 0 and 1, 2 and 3, ...).
        lines = [f"{j ^ 1}\t{(j ^ 1) % 2}\t{1 + j}" for j in range(5)]
        lines[2] = f"{text}\t{text}\t3"
        path = _write_text(tmp_path, "\n".join(lines) + "\n")
        _same_as_text_path(monkeypatch, load_ratings, path, 1)
        _same_as_oracle(path, 1)
        want = [digit or top + block_lines <= 2 for top in _tops(path)]
        assert _digit_form(path, 0) == _digit_form(path, 1) == want
        features = _write_text(tmp_path, "\n".join(f"{line.split(chr(9))[0]}\tt{j}|s"
                                                   for j, line in enumerate(lines)),
                               name="f.tsv")
        got = _same_as_text_path(monkeypatch, parse_feature_file, features)
        assert got[0] == list(feature_dict(features))
        assert _digit_form(features, 0) == [digit or top + block_lines <= 2
                                            for top in _tops(features)]

    def test_a_leading_zero_makes_another_id(self, tmp_path, monkeypatch):
        path = _ratings(tmp_path, [(0, 1, 3, 0), (12, 1, 4, 1), ("012", "01", 5, 2),
                                   (12, "01", 1, 3), ("00", 0, 2, 4), (0, 1, 3, 5)])
        _, users, items = _same_as_text_path(monkeypatch, load_ratings, path, 1)
        assert users == [("0", 0), ("12", 1), ("012", 2), ("00", 3)]
        assert items == [("1", 0), ("01", 1), ("0", 2)]
        _same_as_oracle(path, 1)

    @pytest.mark.parametrize("past", [0, 1], ids=["at-the-bound", "past-the-bound"])
    def test_ids_at_and_past_the_table_bound(self, tmp_path, monkeypatch, block_lines,
                                             past):
        # Line j holds user j + 1, within the bound: the number of ids coded
        # up to the end of its block. Line 4 (index 3) holds its block's
        # bound, or one past it.
        users = [j + 1 for j in range(7)]
        users[3] = min(-(-4 // block_lines) * block_lines, len(users)) + past
        path = _ratings(tmp_path, [(u, 1, 3, j) for j, u in enumerate(users)])
        _same_as_text_path(monkeypatch, load_ratings, path, 1)
        _same_as_oracle(path, 1)
        assert _digit_form(path, 0) == [not past or top + block_lines <= 3
                                        for top in _tops(path)]
        assert all(_digit_form(path, 1))
        features = _write_text(tmp_path, "".join(f"{u}\ta\n" for u in users),
                               name="f.tsv")
        _same_as_text_path(monkeypatch, parse_feature_file, features)
        assert _digit_form(features, 0) == _digit_form(path, 0)

    def test_a_text_id_between_plain_blocks(self, tmp_path, monkeypatch, block_lines):
        # Blocks of ids in the digit form, one holding u7, then blocks where
        # ids coded before the switch reappear among new ones.
        n = 3 * block_lines
        rows = [((j ^ 1) % 5, (j ^ 1) % 4, 1 + j % 5, j) for j in range(n)]
        rows[block_lines] = ("u7", "u7", 3, block_lines)
        rows += [(4 - j % 5, j % 6, 2, n + j) for j in range(8)] + [("u7", 9, 4, 0)]
        path = _ratings(tmp_path, rows)
        for min_ratings in (1, 2):
            got = _same_as_text_path(monkeypatch, load_ratings, path, min_ratings)
            assert _same_as_oracle(path, min_ratings)[1] == got[0]
            users = [name for name, _ in got[1]]
            assert users[0] == "1" and "u7" in users
        assert _digit_form(path, 0) == [True] + [False] * (len(_tops(path)) - 1)

    def test_a_feature_file_entity_on_lines_in_different_blocks(self, tmp_path,
                                                                monkeypatch, block_lines):
        lines = [f"{(j ^ 1) % 4}\tt{j}|x" for j in range(2 * block_lines + 3)]
        lines.insert(block_lines + 1, "u7\ty")
        lines += ["", "2\tz", "u7\t", "4\tw|"]
        for text in ("\n".join(lines), "\n".join(line for line in lines if "u7" not in line)):
            path = _write_text(tmp_path, text, name="f.tsv")
            got = _same_as_text_path(monkeypatch, parse_feature_file, path)
            _assert_columns(FeatureColumns(got[0], np.array(got[1]), np.array(got[2]),
                                           got[3]), feature_dict(path))
            assert got[3] == feature_names(path)
            assert _digit_form(path, 0)[0]
            assert all(_digit_form(path, 0)) == ("u7" not in text)

    def test_errors_name_the_same_line(self, tmp_path, monkeypatch, block_lines):
        rows = [f"{j}\t{j}\t3" for j in range(block_lines + 2)]
        for bad in ("1\t1\tnine", "1\t1", "u7\t1\t6"):
            path = _write_text(tmp_path, "\n".join(rows + [bad]))
            got = _same_as_text_path(monkeypatch, load_ratings, path, 1)
            assert got[0] is ParseError and f"line {block_lines + 3}:" in got[1]
        path = _write_text(tmp_path, "1\ta\n2\tb\tc\n", name="f.tsv")
        assert _same_as_text_path(monkeypatch, parse_feature_file, path) == (
            ParseError, f"{path} line 2: expected 2 tab-separated fields, got 3")


def test_set_up_memory_is_bounded_by_the_block(tmp_path, monkeypatch):
    """load_ratings holds the field strings of at most two blocks at a
    time, so its traced peak grows by the file's bytes and columns, not by a
    string per field. On this file (32 blocks of 1024 lines, 3,000 users,
    2,500 items) the peak read 128 B per line in blocks, and 363 B per line
    when the whole file was split into one table at once."""
    monkeypatch.setattr("sain.data.BLOCK_LINES", 1024)
    lines = 32 * 1024
    path = _ratings(tmp_path, [(j * 7919 % 3000 + 1, j * 104729 % 2500 + 1, 1 + j % 5,
                                874000000 + 37 * j) for j in range(lines)])
    tracemalloc.start()
    try:
        inter, _, _ = load_ratings(path, min_ratings=5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(inter) == lines
    assert peak / lines < 200


@pytest.mark.usefixtures("block_lines")
class TestByteOrderMark:
    """A leading U+FEFF is dropped by every reader: a file saved as "UTF-8
    with BOM" reads as the same file without it."""

    @pytest.mark.parametrize("name", ["ratings.tsv", "user_gender.tsv", "item_genre.tsv"])
    def test_a_bom_changes_no_id_feature_or_digest(self, tmp_path, name):
        # Kept, it would make the ratings file's first user another user,
        # and lose the first entity's token in a feature file.
        plain = DatasetManifest.from_file(write_synthetic_dataset(str(tmp_path / "plain")))
        marked = DatasetManifest.from_file(write_synthetic_dataset(str(tmp_path / "bom")))
        path = tmp_path / "bom" / name
        path.write_bytes(BOM + path.read_bytes())
        a, b = build_dataset(plain, seed=11), build_dataset(marked, seed=11)
        assert list(b.user_ids.items()) == list(a.user_ids.items())
        assert list(b.item_ids.items()) == list(a.item_ids.items())
        for x, y in ((a.user_packed, b.user_packed), (a.item_packed, b.item_packed)):
            assert y.rows.tobytes() == x.rows.tobytes()
            assert y.weights.tobytes() == x.weights.tobytes() and y.bounds == x.bounds
        assert b.digest() == a.digest()

    def test_only_a_leading_bom_is_dropped(self, tmp_path):
        path = tmp_path / "r.tsv"
        path.write_bytes(BOM + b"a\tx\t3\n" + BOM + b"a\tx\t4\n")
        _, users, _ = load_ratings(str(path), min_ratings=1)
        assert list(users) == ["a", "\ufeffa"]

    def test_a_bad_byte_after_a_bom_keeps_its_file_offset(self, tmp_path):
        path = tmp_path / "r.tsv"
        path.write_bytes(BOM + b"a\tx\t3\n\xff\ty\t4\n")
        with pytest.raises(ParseError, match=f"{path}: not UTF-8 text .* at byte 9"):
            load_ratings(str(path))

    def test_a_json_manifest_with_a_bom_loads(self, tmp_path):
        path = tmp_path / "dataset.json"
        path.write_bytes(BOM + json.dumps({"ratings": "r.tsv", "min_ratings": 2}).encode())
        assert DatasetManifest.from_file(str(path)).min_ratings == 2


def _row_digest(data, rows) -> str:
    """PreparedData.digest as the row pipeline computed it."""
    h = hashlib.sha256()
    h.update(json.dumps(data.vocab.to_dict(), sort_keys=True,
                        separators=(",", ":")).encode())
    h.update(json.dumps({"users": data.num_users, "items": data.num_items,
                         "seed": data.split.seed},
                        sort_keys=True, separators=(",", ":")).encode())
    for user, item, rating, timestamp in rows:
        h.update(f"{user},{item},{rating!r},{timestamp}\n".encode())
    return h.hexdigest()


@pytest.mark.usefixtures("block_lines")
class TestDigest:
    # The hex of the conftest datasets before ratings became columns: a
    # checkpoint written then must still pass the CLI's drift check.
    SYNTHETIC_SEED_11 = "1bdab330eb007b800095cdb0d6a443033e98a9822b890d22070604342a83c808"
    MEMO_SEED_5 = "730648517271b8ea64c2137ea5a255ae14d4af1a4fd450c18c39ad144569e532"

    def test_golden_hex_of_the_fixture(self, prepared, memo_data):
        assert prepared.digest() == self.SYNTHETIC_SEED_11
        assert memo_data.digest() == self.MEMO_SEED_5

    def test_split_by_time_keeps_the_hex(self, synthetic_manifest):
        data = build_dataset(DatasetManifest.from_file(synthetic_manifest), seed=11,
                             by_time=True)
        assert data.digest() == self.SYNTHETIC_SEED_11

    def test_mixed_columns_match_the_row_digest(self, tmp_path):
        manifest = tmp_path / "dataset.json"
        write_feature_file(str(tmp_path / "g.tsv"), {"u0": ["a"], "u1": ["b"]})
        lines = [f"u{j % 2}\ti{j % 5}\t{1 + j % 5}" + ("" if j % 3 else f"\t{j}")
                 for j in range(30)]
        _write_text(tmp_path, "\n".join(lines) + "\n", name="ratings.tsv")
        manifest.write_text(json.dumps({"ratings": "ratings.tsv", "min_ratings": 1,
                                        "features": [{"field": "g", "owner": "user",
                                                      "path": "g.tsv"}]}))
        data = build_dataset(DatasetManifest.from_file(str(manifest)), seed=3)
        rows, _, _ = _row_loader(str(tmp_path / "ratings.tsv"), 1)
        assert data.digest() == _row_digest(data, rows)

    def test_any_columns_hash_as_their_rows(self, prepared):
        # Extreme and negative timestamps, missing ones, and ratings whose
        # text is long or whose values compare equal with different text.
        rng = np.random.default_rng(8)
        n = 300
        stamps = rng.integers(-2 ** 63, 2 ** 63 - 1, n, endpoint=True, dtype=np.int64)
        stamps[:2] = [-2 ** 63, 2 ** 63 - 1]
        ratings = rng.choice([1.0, 1.0000000000000002, 4.75, 5.0, 0.0, -0.0, 2.5e-7,
                              1e22, 3.0], n)
        columns = Interactions(users=rng.integers(0, prepared.num_users, n),
                               items=rng.integers(0, prepared.num_items, n),
                               ratings=ratings, timestamps=stamps,
                               has_timestamp=rng.random(n) < 0.7)
        data = dataclasses.replace(prepared, interactions=columns)
        assert data.digest() == _row_digest(data, _rows(columns))


try:
    import hypothesis
    import hypothesis.strategies as st
except ImportError:  # the digest property needs hypothesis
    hypothesis = None

if hypothesis is not None:
    # Entity counts on both sides of 10, 100 and 1000, so that one example's
    # id texts differ in width; rating values whose texts differ although
    # some compare equal; timestamps at the int64 bounds and around 0.
    COUNTS = st.sampled_from([1, 9, 10, 11, 99, 100, 101, 999, 1000, 1001, 1500])
    RATINGS = st.sampled_from([-0.0, 0.0, 5e-324, 1.0000000000000002, 4.75, 1e22])
    STAMPS = st.one_of(st.integers(-2 ** 63, 2 ** 63 - 1),
                       st.sampled_from([-2 ** 63, -2 ** 63 + 1, 2 ** 63 - 1, 0, -1,
                                        9, 10, -10, 999_999_999, 1_000_000_000]))

    @st.composite
    def interaction_columns(draw):
        """(num_users, num_items, Interactions) with ids below the counts."""
        counts = draw(COUNTS), draw(COUNTS)
        n = draw(st.integers(0, 30))
        ids = [draw(st.lists(st.one_of(st.integers(0, c - 1),
                                       st.sampled_from([9, 10, 99, 100, 999, 1000, c - 1])
                                       .filter(lambda j, c=c: j < c)),
                             min_size=n, max_size=n)) for c in counts]
        stamped = draw(st.sampled_from(["all", "none", "mixed"]))
        has = {"all": st.just(True), "none": st.just(False),
               "mixed": st.booleans()}[stamped]
        def column(values, dtype):
            return np.array(draw(st.lists(values, min_size=n, max_size=n)), dtype=dtype)

        columns = Interactions(
            users=np.array(ids[0], dtype=np.int64), items=np.array(ids[1], dtype=np.int64),
            ratings=column(RATINGS, np.float64), timestamps=column(STAMPS, np.int64),
            has_timestamp=column(has, bool))
        return *counts, columns

    # Number texts from digits and the characters that float() or int()
    # read beyond plain digits, or refuse.
    NUMBER_TEXT = st.lists(st.sampled_from([*"0123456789", ".", "+", "-", " ", "e", "_",
                                            "\u0663", "nan", "inf"]),
                           max_size=20).map("".join)

    @hypothesis.settings(max_examples=300, deadline=None)
    @hypothesis.given(rating=NUMBER_TEXT, stamp=st.none() | NUMBER_TEXT)
    @hypothesis.example(rating="1.000000000000003", stamp=None).via("16 digits")
    @hypothesis.example(rating="0000000000000000003", stamp=None).via("19 digits")
    @hypothesis.example(rating="3", stamp="9999999999999999999").via("19 digits")
    def test_any_one_line_ratings_file_loads_as_the_row_loader_does(rating, stamp):
        line = f"u\ti\t{rating}" + ("" if stamp is None else f"\t{stamp}")
        with tempfile.TemporaryDirectory() as root:
            path = os.path.join(root, "r.tsv")
            with open(path, "w", encoding="utf-8", newline="") as f:
                f.write(line + "\n")
            _same_as_oracle(path, 1)

    @hypothesis.settings(max_examples=200, deadline=None)
    @hypothesis.given(drawn=interaction_columns())
    @hypothesis.example(drawn=(1, 1, Interactions(*(np.zeros(0, dtype) for dtype in (
        np.int64, np.int64, np.float64, np.int64, bool))))).via("n = 0")
    @hypothesis.example(drawn=(1001, 1, Interactions(
        np.array([1000]), np.array([0]), np.array([-0.0]), np.array([-2 ** 63]),
        np.array([True])))).via("n = 1")
    def test_digest_equals_the_row_digest_on_any_columns(prepared, drawn):
        num_users, num_items, columns = drawn
        data = dataclasses.replace(
            prepared, interactions=columns,
            user_ids={f"u{j}": j for j in range(num_users)},
            item_ids={f"i{j}": j for j in range(num_items)})
        assert data.digest() == _row_digest(data, _rows(columns))
