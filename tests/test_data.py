"""Dataset pipeline tests: rating ingestion and filtering, vocabulary
construction, feature encoding, splitting, and packing. The columnar loader
is checked against the line-by-line loader and split it replaced, kept here
as the oracle."""

import dataclasses
import hashlib
import json
import os
from collections import Counter

import numpy as np
import pytest

from sain.data import (DatasetManifest, EntityFeatures, FieldSpec, Interactions,
                       build_dataset, build_feature_vocab,
                       encode_entity_features, interactions_to_arrays,
                       load_ratings, pack_features, parse_feature_file,
                       split_dataset)
from sain.errors import IoError, ParseError

from conftest import write_feature_file, write_rating_file


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


def _row_loader(path, min_ratings=5):
    """The line-by-line loader the columnar one replaced: (rows, user_ids,
    item_ids) with rows as _rows gives them, or the same errors."""
    if not os.path.exists(path):
        raise IoError(f"file not found: {path}")
    rows = []
    with open(path, encoding="utf-8") as f:
        for lineno, line in enumerate(f, start=1):
            line = line.rstrip("\r\n")
            if not line:
                continue
            parts = line.split("\t")
            if len(parts) not in (3, 4):
                raise ParseError(f"{path} line {lineno}: expected 3 or 4 tab-separated "
                                 f"fields, got {len(parts)}")
            try:
                rating = float(parts[2])
            except ValueError:
                raise ParseError(f"{path} line {lineno}: bad rating {parts[2]!r}") from None
            if not np.isfinite(rating) or not (1.0 <= rating <= 5.0):
                raise ParseError(f"{path} line {lineno}: rating outside [1,5]: {parts[2]}")
            ts = None
            if len(parts) == 4:
                try:
                    ts = int(parts[3])
                except ValueError:
                    raise ParseError(f"{path} line {lineno}: bad timestamp "
                                     f"{parts[3]!r}") from None
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


class TestFeatureFiles:
    def test_parse_pipe_separated_tokens(self, tmp_path):
        path = str(tmp_path / "f.tsv")
        write_feature_file(path, {"e1": ["a", "b"], "e2": []})
        assert parse_feature_file(path) == {"e1": ["a", "b"], "e2": []}

    def test_repeated_entity_lines_extend(self, tmp_path):
        path = str(tmp_path / "f.tsv")
        with open(path, "w") as f:
            f.write("e1\ta\ne1\tb|c\n")
        assert parse_feature_file(path) == {"e1": ["a", "b", "c"]}

    def test_wrong_columns_report_line(self, tmp_path):
        path = str(tmp_path / "f.tsv")
        with open(path, "w") as f:
            f.write("e1\ta\ne2\ta\textra\n")
        with pytest.raises(ParseError, match="line 2"):
            parse_feature_file(path)


class TestVocab:
    def test_closed_field_first_appearance_order(self, tmp_path):
        path = str(tmp_path / "g.tsv")
        write_feature_file(path, {"e1": ["M"], "e2": ["F"], "e3": ["M"]})
        vocab = build_feature_vocab([FieldSpec("gender", "user", path)], tag_top_t=50)
        assert vocab.tokens["gender"] == {"M": 0, "F": 1}
        assert vocab.field_size("gender") == 3
        assert vocab.unknown_index("gender") == 2

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
        assert vocab.total_rows == 6


class TestEncode:
    def _vocab(self, tmp_path):
        g = str(tmp_path / "genre.tsv")
        write_feature_file(g, {"i1": ["action", "comedy"], "i2": ["drama"]})
        return g, build_feature_vocab([FieldSpec("genre", "item", g)], tag_top_t=50)

    def test_multi_token_slot_is_sorted_dedup(self, tmp_path):
        g, vocab = self._vocab(tmp_path)
        raw = {"genre": parse_feature_file(g)}
        feats = encode_entity_features(raw, vocab, {"i1": 0, "i2": 1}, "item")
        assert feats[0].slots == [[0, 1]]
        assert feats[1].slots == [[2]]

    def test_unknown_tokens_dropped_and_empty_falls_back(self, tmp_path):
        g, vocab = self._vocab(tmp_path)
        raw = {"genre": {"i3": ["western"]}}
        feats = encode_entity_features(raw, vocab, {"i3": 0}, "item")
        assert feats[0].slots == [[vocab.unknown_index("genre")]]

    def test_entity_missing_from_file_gets_unknown(self, tmp_path):
        g, vocab = self._vocab(tmp_path)
        feats = encode_entity_features({"genre": {}}, vocab, {"i9": 0}, "item")
        assert feats[0].slots == [[3]]


class TestPack:
    def test_padding_mask_and_offsets(self, tmp_path):
        g = str(tmp_path / "g.tsv")
        t = str(tmp_path / "t.tsv")
        write_feature_file(g, {"i1": ["a"], "i2": ["b"]})
        write_feature_file(t, {"i1": ["x", "y"], "i2": ["x"]})
        vocab = build_feature_vocab([FieldSpec("genre", "item", g),
                                     FieldSpec("tag", "item", t)], tag_top_t=50)
        entities = [EntityFeatures(0, [[0], [0, 1]]), EntityFeatures(1, [[1], [0]])]
        packed = pack_features(entities, vocab, "item")
        assert packed.fields == ["genre", "tag"]
        np.testing.assert_array_equal(packed.index[0], [[0], [1]])
        # tag indices are offset by the genre field size (3).
        np.testing.assert_array_equal(packed.index[1], [[3, 4], [3, 0]])
        np.testing.assert_array_equal(packed.mask[1], [[1.0, 1.0], [1.0, 0.0]])
        np.testing.assert_array_equal(packed.counts[1], [2.0, 1.0])


class TestBuildDataset:
    def test_prepared_invariants(self, prepared):
        n = len(prepared.interactions)
        split = prepared.split
        assert len(split.validation) == len(split.test) == n // 10
        assert len(split.train) == n - 2 * (n // 10)
        assert len(prepared.user_features) == prepared.num_users
        assert len(prepared.item_features) == prepared.num_items
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


# Line bodies for the random files: ordinary lines, lines that parse but look
# odd, and lines that a loader must reject.
_GOOD = ["u{u}\ti{i}\t{r}", "u{u}\ti{i}\t{r}\t{t}"]
_ODD = ["u{u}\ti{i}\t {r} \t+{t}", "u{u}\ti{i}\t{r}\t-{t}", "u{u}\ti{i}\t{r}\t1_{t}",
        "u{u}\x0b\ti{i}\x0c\t{r}", "u{u}\x1c\x1d\x1e\ti\x85{i}\t{r}\t{t}",
        "u{u} \ti{i} \t{r}", "\t\t{r}"]
_BAD = ["u{u}\ti{i}", "u{u}\ti{i}\t{r}\t{t}\t0", "u{u}\ti{i}\tthree", "u{u}\ti{i}\t",
        "u{u}\ti{i}\t6", "u{u}\ti{i}\t0.5", "u{u}\ti{i}\tnan", "u{u}\ti{i}\t-inf",
        "u{u}\ti{i}\t1_0", "u{u}\ti{i}\t{r}\tnoon", "u{u}\ti{i}\t{r}\t1.5",
        "u{u}\ti{i}\t{r}\t", " ", "u{u}"]


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
        assert parse_feature_file(path) == {"e1": ["a", "b", "c"], "e2": []}

    def test_manifest_directory_and_non_object(self, tmp_path):
        (tmp_path / "dir.json").mkdir()
        with pytest.raises(IoError, match="cannot read"):
            DatasetManifest.from_file(str(tmp_path / "dir.json"))
        listed = tmp_path / "list.json"
        listed.write_text("[1, 2]")
        with pytest.raises(ParseError, match="JSON object"):
            DatasetManifest.from_file(str(listed))


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
