"""Metamorphic properties of `build_dataset`, with no training: edits of the
input files that must not change the prepared data. Each edited data set
must give the same digest(), both sides' packed rows/weights/bounds and the
split's columns, byte for byte. Skipped when hypothesis is not installed.

(a) An injective renaming of every raw user id and every raw item id, in the
    ratings file and in every feature file. Dense ids, vocabularies and
    pooling depend on the order in which ids first appear, never on their
    text.
(b) Ratings appended for a new user whom `min_ratings` drops, some of items
    that no kept user rated: the drop comes before any id is numbered.
(c) Feature lines appended, after every other line, for new users and items
    that have no ratings, with closed-field tokens that the field already
    names and any open-field tokens: a closed field indexes its tokens in
    order of first appearance, which such lines cannot change, and an open
    field counts tokens over the rated entities only."""

import os
import tempfile

import pytest

from sain.data import DatasetManifest, build_dataset

from conftest import write_synthetic_dataset

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

# Every test runs with the data files read in blocks of 1, 2, 3 and the
# default number of lines (conftest.block_lines).
pytestmark = pytest.mark.usefixtures("block_lines")

FEATURE_FILES = {"user_gender.tsv": "user", "user_age.tsv": "user",
                 "item_genre.tsv": "item", "item_tag.tsv": "item"}
# Any text the readers take as one id: no tab, and no "\n" or "\r", which
# read as line ends; the encoder cannot write lone surrogates. An id may
# open a file, so it does not start with U+FEFF, which the readers drop
# there as a byte-order mark.
ID_TEXT = st.text(st.characters(blacklist_categories=("Cs",),
                                blacklist_characters="\t\n\r"), max_size=6).filter(
    lambda text: not text.startswith("\ufeff"))
BASES = {}


def _base(seed: int, min_ratings: int) -> tuple[dict[str, list[list[str]]], str]:
    """A synthetic data set's files as rows of tab-separated fields, and its
    manifest. With min_ratings 8 some users are dropped."""
    key = (seed, min_ratings)
    if key not in BASES:
        with tempfile.TemporaryDirectory() as root:
            write_synthetic_dataset(root, n_users=12, n_items=14, seed=seed,
                                    min_ratings=min_ratings, tag_top_t=3)
            files = {}
            for name in ["ratings.tsv", *FEATURE_FILES]:
                with open(os.path.join(root, name), encoding="utf-8") as f:
                    files[name] = [line.split("\t") for line in f.read().splitlines()]
            with open(os.path.join(root, "dataset.json"), encoding="utf-8") as f:
                BASES[key] = (files, f.read())
    return BASES[key]


def _prepared(files: dict[str, list[list[str]]], manifest: str):
    with tempfile.TemporaryDirectory() as root:
        for name, rows in files.items():
            with open(os.path.join(root, name), "w", encoding="utf-8", newline="") as f:
                f.write("".join("\t".join(row) + "\n" for row in rows))
        with open(os.path.join(root, "dataset.json"), "w", encoding="utf-8") as f:
            f.write(manifest)
        return build_dataset(DatasetManifest.from_file(os.path.join(root, "dataset.json")),
                             seed=4)


def _bytes(data) -> list:
    """Everything the relations keep, as comparable values."""
    out = [data.digest()]
    for packed in (data.user_packed, data.item_packed):
        out += [packed.rows.dtype, packed.rows.shape, packed.rows.tobytes(),
                packed.weights.tobytes(), packed.bounds]
    for part in (data.split.train, data.split.validation, data.split.test):
        out += [(column.dtype, column.tobytes()) for column in part.columns()]
    return out


def _raw_ids(files) -> dict[str, list[str]]:
    """Every raw id of each side, in any file, in order of first appearance."""
    ids = {"user": {}, "item": {}}
    for row in files["ratings.tsv"]:
        ids["user"].setdefault(row[0])
        ids["item"].setdefault(row[1])
    for name, owner in FEATURE_FILES.items():
        for row in files[name]:
            ids[owner].setdefault(row[0])
    return {side: list(names) for side, names in ids.items()}


@st.composite
def renamings(draw):
    files, manifest = _base(draw(st.integers(0, 3)), draw(st.sampled_from([5, 8])))
    renames = {side: dict(zip(names, draw(st.lists(ID_TEXT, min_size=len(names),
                                                   max_size=len(names), unique=True))))
               for side, names in _raw_ids(files).items()}
    return files, manifest, renames


@hypothesis.settings(max_examples=40, deadline=None)
@hypothesis.given(case=renamings())
def test_renaming_every_raw_id_keeps_the_prepared_data(case):
    files, manifest, renames = case
    renamed = {"ratings.tsv": [[renames["user"][row[0]], renames["item"][row[1]], *row[2:]]
                               for row in files["ratings.tsv"]]}
    for name, owner in FEATURE_FILES.items():
        renamed[name] = [[renames[owner][row[0]], *row[1:]] for row in files[name]]
    assert _bytes(_prepared(renamed, manifest)) == _bytes(_prepared(files, manifest))


RATING = st.sampled_from(["1", "2.5", "5", "3.0", "4"])
STAMP = st.one_of(st.just([]), st.integers(-10 ** 12, 10 ** 12).map(lambda t: [str(t)]))


@st.composite
def dropped_users(draw):
    min_ratings = draw(st.sampled_from([5, 8]))
    files, manifest = _base(draw(st.integers(0, 3)), min_ratings)
    ids = _raw_ids(files)
    user = draw(ID_TEXT.filter(lambda text: text not in ids["user"]))
    # Existing items, and items no file names, which no kept user rated.
    items = st.one_of(st.sampled_from(ids["item"]),
                      ID_TEXT.filter(lambda text: text not in ids["item"]))
    rows = draw(st.lists(st.tuples(items, RATING, STAMP), min_size=1,
                         max_size=min_ratings - 1))
    return files, manifest, [[user, item, rating, *stamp] for item, rating, stamp in rows]


@hypothesis.settings(max_examples=40, deadline=None)
@hypothesis.given(case=dropped_users())
def test_ratings_of_a_dropped_user_keep_the_prepared_data(case):
    files, manifest, extra = case
    appended = {**files, "ratings.tsv": files["ratings.tsv"] + extra}
    assert _bytes(_prepared(appended, manifest)) == _bytes(_prepared(files, manifest))


# Any text the feature reader takes as one token: no tab, line end or "|".
TOKEN_TEXT = st.text(st.characters(blacklist_categories=("Cs",),
                                   blacklist_characters="\t\n\r|"), max_size=4)


@st.composite
def unrated_entities(draw):
    """Feature lines for new users and items that have no ratings, appended
    after every other line: closed-field lines hold only tokens that the
    field's file already names, open-field lines any tokens."""
    files, manifest = _base(draw(st.integers(0, 3)), draw(st.sampled_from([5, 8])))
    ids = _raw_ids(files)
    new = {side: draw(st.lists(ID_TEXT.filter(lambda text, s=side: text not in ids[s]),
                               min_size=1, max_size=3, unique=True))
           for side in ids}
    appended = dict(files)
    for name, owner in FEATURE_FILES.items():
        known = sorted({tok for row in files[name] for tok in row[1].split("|") if tok})
        tokens = TOKEN_TEXT if name == "item_tag.tsv" else st.sampled_from(known)
        lines = draw(st.lists(st.tuples(st.sampled_from(new[owner]),
                                        st.lists(tokens, max_size=3)), max_size=4))
        appended[name] = files[name] + [[entity, "|".join(toks)] for entity, toks in lines]
    return files, manifest, appended


@hypothesis.settings(max_examples=40, deadline=None)
@hypothesis.given(case=unrated_entities())
def test_feature_lines_of_unrated_entities_keep_the_prepared_data(case):
    files, manifest, appended = case
    assert _bytes(_prepared(appended, manifest)) == _bytes(_prepared(files, manifest))
