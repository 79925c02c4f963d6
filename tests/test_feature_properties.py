"""Property tests: on generated feature files, the package's parse,
vocabulary and packed tables equal the line by line and entity by entity
references bit for bit, also for tokens at the edges of the byte keys that
parse_feature_file codes tokens by, in blocks of every size. Skipped when
hypothesis is not installed. Also checks that a failing hypothesis test
under the repo's pytest config fails alone, without ending the session."""

import pathlib
import subprocess
import sys
import tempfile

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

from test_feature_oracle import (assert_matches_reference, package_tables,  # noqa: E402
                                 write_fields)

TOKENS = st.sampled_from(["a", "b", "c", "d", "e", "é", ""])
LINES = st.lists(st.tuples(st.sampled_from(["e0", "e1", "e2", "e3", "x0"]),
                           st.lists(TOKENS, max_size=5)), max_size=12)
FIELD = st.tuples(st.sampled_from(["user", "item"]), st.booleans(), LINES)


@hypothesis.settings(max_examples=60, deadline=None)
@hypothesis.given(fields=st.lists(FIELD, max_size=4),
                  n_users=st.integers(0, 4), n_items=st.integers(0, 4),
                  tag_top_t=st.integers(0, 4))
def test_generated_feature_files_match_the_reference(fields, n_users, n_items,
                                                     tag_top_t):
    # Population e0..e{n-1} on each side, dense ids in reverse order; x0 and
    # any e beyond n lie outside it.
    ids = {"user": {f"e{j}": n_users - 1 - j for j in range(n_users)},
           "item": {f"e{j}": n_items - 1 - j for j in range(n_items)}}
    with tempfile.TemporaryDirectory() as root:
        specs = write_fields(root, [(f"f{k}", owner, open_vocab, lines)
                                    for k, (owner, open_vocab, lines) in enumerate(fields)])
        vocab, packed = package_tables(specs, tag_top_t, ids)
        assert_matches_reference(vocab, packed, specs, tag_top_t, ids)


# Tokens at the edges of the byte keys: 1, 7, 8, 9, 16, 17 and more bytes;
# texts that share their first 8 bytes; multibyte UTF-8 ("aaaaaaaé" puts a
# 2-byte character across two words); NUL bytes inside and at the end ("a\0"
# reads the words of "a"); and "" for empty lists and "a||b".
KEY_TOKENS = ["a", "b", "abcdefg", "abcdefgh", "abcdefgz", "abcdefghi", "abcdefghj",
              "abcdefghabcdefgh", "abcdefghabcdefghi", "abcdefghijklmnopqrstuvwxyz0123",
              "é", "aaaaaaaé", "aaaaaaaa", "日本語のテキスト", "a\0", "\0", "\0\0", "a\0b",
              "abcdefgh\0", "abcdefgh\0\0", "abcdefghabcdefgh\0", ""]
# Any text that may be a token: no "|", tab or line end, no lone surrogate.
TOKEN_TEXT = st.text(st.characters(blacklist_characters="|\t\n\r",
                                   blacklist_categories=("Cs",)), max_size=20)
# Ids in the digit form and in the text form, some holding a "|".
KEY_ENTITIES = ["1", "2", "10", "e0", "e1", "x|y", "|", "e|0"]
KEY_LINES = st.lists(st.tuples(st.sampled_from(KEY_ENTITIES),
                               st.lists(st.sampled_from(KEY_TOKENS) | TOKEN_TEXT, max_size=6)),
                     max_size=14)


@pytest.mark.usefixtures("block_lines")
@hypothesis.settings(max_examples=80, deadline=None)
@hypothesis.given(lines=KEY_LINES, open_vocab=st.booleans(),
                  members=st.lists(st.sampled_from(KEY_ENTITIES), unique=True),
                  tag_top_t=st.integers(0, 4))
@hypothesis.example(lines=[("e0", ["a\0", "a", "\0"]), ("e1", ["a", "a\0"]), ("e0", ["a"])],
                    open_vocab=False, members=["e1", "e0"], tag_top_t=2)
@hypothesis.example(lines=[("x|y", ["p", "", "q"]), ("|", []), ("e|0", ["", ""]),
                           ("x|y", ["q"])],
                    open_vocab=True, members=["x|y", "|"], tag_top_t=1)
@hypothesis.example(lines=[("1", ["abcdefghi", "abcdefgh"]), ("2", ["abcdefghj"]),
                           ("1", ["abcdefghabcdefghi", "abcdefghabcdefgh"]),
                           ("10", ["aaaaaaaé", "aaaaaaaa", "abcdefgh\0"])],
                    open_vocab=True, members=["10", "2", "1"], tag_top_t=4)
def test_tokens_coded_from_the_bytes_match_the_line_by_line_parse(lines, open_vocab,
                                                                  members, tag_top_t):
    ids = {"user": {e: j for j, e in enumerate(members)}, "item": {}}
    with tempfile.TemporaryDirectory() as root:
        # assert_matches_reference also checks the parse against
        # feature_dict and the codes' texts against feature_names.
        specs = write_fields(root, [("f", "user", open_vocab, lines)])
        vocab, packed = package_tables(specs, tag_top_t, ids)
        assert_matches_reference(vocab, packed, specs, tag_top_t, ids)


FAILING_AND_PASSING = {
    "test_a_fails.py": ("import hypothesis\n"
                        "import hypothesis.strategies as st\n\n\n"
                        "@hypothesis.given(st.integers())\n"
                        "def test_fails(x):\n"
                        "    assert x < 5\n"),
    "test_b_passes.py": "def test_passes():\n    pass\n",
}


def test_a_failing_property_test_does_not_end_the_session(tmp_path):
    # Reporting a failing example imports libcst, whose import warning the
    # config's error::DeprecationWarning once turned into an INTERNALERROR
    # (exit 3) that skipped every later test file.
    for name, text in FAILING_AND_PASSING.items():
        (tmp_path / name).write_text(text)
    config = pathlib.Path(__file__).resolve().parents[1] / "pyproject.toml"
    run = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                          "-c", str(config), "--rootdir", str(tmp_path), *FAILING_AND_PASSING],
                         cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert run.returncode == 1, run.stdout + run.stderr
    assert "INTERNALERROR" not in run.stdout + run.stderr
    assert "1 failed, 1 passed" in run.stdout
