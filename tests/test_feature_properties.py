"""Property test: on generated feature files, the package's vocabulary and
packed tables equal the entity by entity references bit for bit. Skipped
when hypothesis is not installed. Also checks that a failing hypothesis test
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
