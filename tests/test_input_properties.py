"""Property tests for five of the program's inputs: run configs, dataset
manifests, feature files, the ratings file and checkpoints. Whatever JSON
value one key takes, `sain evaluate` (which checks the whole run config and
builds the data, without training) returns a documented exit code, prints
exactly one `error category=` line when that code is not 0, and never
raises. Whatever lines are spliced into one feature file or into the
ratings file, `sain train` does the same. Whatever edit is made to a
trained checkpoint's header or payload, resealed with a valid sha256, `sain
evaluate` does the same. Skipped when hypothesis is not installed.

Path-valued keys (the run config's `dataset`, the manifest's `ratings` and a
feature's `path`) take only names under the test's own directory: a missing
file, a directory, a file that is not UTF-8, or the valid file. They never
take drawn text, so no example reads a file outside that directory."""

import contextlib
import copy
import hashlib
import io
import json
import math
import os
import struct
import tempfile
from dataclasses import asdict

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

from sain.checkpoint import MAGIC  # noqa: E402
from sain.cli import main  # noqa: E402
from sain.model import ModelConfig  # noqa: E402
from sain.training import TrainConfig  # noqa: E402

from conftest import write_synthetic_dataset  # noqa: E402

# Every test runs with the data files read in blocks of 1, 2, 3 and the
# default number of lines (conftest.block_lines).
pytestmark = pytest.mark.usefixtures("block_lines")

EXIT_CODES = {0, 1, 3, 4, 5, 6, 7}
MODEL_CONFIG = asdict(ModelConfig(embed_dim=8, num_heads=2, top_k=2))
TRAIN_CONFIG = asdict(TrainConfig(max_epochs=1, batch_size=64, seed=3))
TOP_KEYS = ("dataset", "model", "output_dir", "split_by_time", "model_config",
            "train_config")
CONFIG_SLOTS = ([((), key) for key in TOP_KEYS]
                + [(("model_config",), key) for key in MODEL_CONFIG]
                + [(("train_config",), key) for key in TRAIN_CONFIG])
FEATURE_KEYS = ("field", "owner", "path", "open")
MANIFEST_SLOTS = ([((), key) for key in ("ratings", "min_ratings", "tag_top_t", "features")]
                  + [(("features", i), key) for i in range(4) for key in FEATURE_KEYS])
PATH_SLOTS = {((), "dataset"), ((), "ratings"), *((("features", i), "path") for i in range(4))}
# A missing file, a directory, a file that is not UTF-8, and the valid file.
PATHS = ("absent.tsv", "folder", "latin1.tsv", None)

TEXT = st.one_of(st.text(max_size=6),
                 st.sampled_from(["user", "item", "gender", "age", "genre", "tag",
                                  "sain", "biasedmf", "all"]))
SCALARS = st.one_of(st.none(), st.booleans(), st.integers(-3, 40),
                    st.floats(allow_nan=True, allow_infinity=True), TEXT)
VALUES = st.recursive(SCALARS, lambda inner: st.lists(inner, max_size=3)
                      | st.dictionaries(TEXT, inner, max_size=3), max_leaves=5)

# Feature-file lines: pieces joined by separators, then a line end. A piece
# is an entity or token of the dataset, another id, empty or blank text,
# bytes that are not UTF-8, a NUL, or a character that str.splitlines would
# break a line at (NEL, U+2028, form feed) but the readers must not. A line
# end may be CR alone, doubled (a blank line) or missing, which joins the
# line to the next.
PIECES = st.sampled_from([b"u0", b"u7", b"i3", b"x9", b"M", b"20s", b"action", b"t1",
                          b"", b" ", b"\xc3\xa9", b"\xff", b"\xe9t\xe9", b"\x00",
                          b"\xc2\x85", b"\xe2\x80\xa8", b"\x0c"])
SEPARATORS = st.sampled_from([b"\t", b"|", b"||", b"\t\t", b" ", b","])
ENDS = st.sampled_from([b"\n", b"\r\n", b"\r", b"\n\n", b"\r\r", b""])
LINE = st.tuples(st.lists(st.tuples(PIECES, SEPARATORS), max_size=4), PIECES, ENDS).map(
    lambda t: b"".join(piece + sep for piece, sep in t[0]) + t[1] + t[2])


# Ratings-file lines: 0-6 fields joined by tabs (most often), spaces, `|` or
# doubled tabs, then a line end as above. A field is an id of the dataset or
# another, a valid number, or a number text that Python's float() or int()
# reads in its own way: underscores, nan, an overflow, a negative zero, an
# Arabic-Indic digit three, 20 digits, hexadecimal. Or it is empty, blank,
# or bytes that are not UTF-8.
RATING_FIELDS = st.sampled_from([
    b"u0", b"u7", b"i3", b"x9", b"3", b"4.5", b"1000", b"1_0", b"nan", b"1e400",
    b"-0", "\u0663".encode(), b"12345678901234567890", b"0x10", b"", b" ",
    b"\xff", b"\xe9t\xe9"])
RATING_SEPARATORS = st.sampled_from([b"\t", b"\t", b"\t", b" ", b"|", b"\t\t"])
RATING_LINE = st.tuples(st.lists(st.tuples(RATING_FIELDS, RATING_SEPARATORS),
                                 max_size=5), RATING_FIELDS, ENDS).map(
    lambda t: b"".join(f + sep for f, sep in t[0]) + t[1] + t[2])


def _write_json(path, payload):
    with open(path, "w", encoding="utf-8") as f:
        json.dump(payload, f)
    return str(path)


@pytest.fixture(scope="module")
def run(tmp_path_factory):
    """A trained SAIN checkpoint on the synthetic set, its run config and
    its manifest, with the directory and the non-UTF-8 file beside them."""
    root = tmp_path_factory.mktemp("inputs")
    manifest_path = write_synthetic_dataset(str(root / "data"))
    (root / "data" / "folder").mkdir()
    (root / "data" / "latin1.tsv").write_bytes(b"u0\t\xe9t\xe9\n")
    config = {"dataset": manifest_path, "model": "sain", "output_dir": "out",
              "split_by_time": False, "model_config": MODEL_CONFIG,
              "train_config": TRAIN_CONFIG}
    assert main(["train", "--config", _write_json(root / "run.json", config)]) == 0
    with open(manifest_path, encoding="utf-8") as f:
        manifest = json.load(f)
    assert len(manifest["features"]) == 4
    return {"root": root, "config": config, "manifest": manifest,
            "checkpoint": str(root / "out" / "model.ckpt")}


def _parent(doc, where):
    for step in where:
        doc = doc[step]
    return doc


def _edited(doc, slot, value):
    doc = copy.deepcopy(doc)
    where, key = slot
    _parent(doc, where)[key] = value
    return doc


def _main_once(run, config, command="evaluate", checkpoint=None) -> int:
    """Run `sain evaluate` on `config` (with `checkpoint`, by default the
    trained one) or `sain train`, check the property, and return the exit
    code."""
    with tempfile.TemporaryDirectory(dir=run["root"]) as out_dir:
        config_path = _write_json(os.path.join(out_dir, "run.json"), config)
        checkpoint = (["--checkpoint", checkpoint or run["checkpoint"]]
                      if command == "evaluate" else [])
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([command, "--config", config_path, "--output-dir", out_dir]
                        + checkpoint)
    assert code in EXIT_CODES
    if code == 0:
        assert err.getvalue() == ""
    else:
        lines = err.getvalue().splitlines(keepends=True)
        assert len(lines) == 1 and lines[0].startswith("error category="), lines
        assert lines[0].endswith("\n") and out.getvalue() == ""
    return code


def _path(run, slot, name):
    """A path-valued key's value: `name` (one of PATHS) in the data
    directory, or the key's own valid value when `name` is None."""
    where, key = slot
    if name is None:
        return _parent(run["config"] if key == "dataset" else run["manifest"], where)[key]
    return str(run["root"] / "data" / name) if key == "dataset" else name


def test_the_unedited_inputs_evaluate(run):
    manifest = _write_json(run["root"] / "data" / "edited.json", run["manifest"])
    assert _main_once(run, run["config"]) == 0
    assert _main_once(run, {**run["config"], "dataset": manifest}) == 0


@hypothesis.settings(max_examples=100, deadline=None)
@hypothesis.given(slot=st.sampled_from(CONFIG_SLOTS), value=VALUES,
                  path=st.sampled_from(PATHS))
def test_any_run_config_value_ends_in_a_code_and_one_line(run, slot, value, path):
    if slot in PATH_SLOTS:
        value = _path(run, slot, path)
    _main_once(run, _edited(run["config"], slot, value))


@hypothesis.settings(max_examples=100, deadline=None)
@hypothesis.given(slot=st.sampled_from(MANIFEST_SLOTS), value=VALUES,
                  path=st.sampled_from(PATHS))
@hypothesis.example(slot=(("features", 0), "field"), value=5, path=None)
@hypothesis.example(slot=(("features", 0), "field"), value=["a"], path=None)
@hypothesis.example(slot=(("features", 1), "field"), value="gender", path=None)
@hypothesis.example(slot=(("features", 2), "field"), value="gender", path=None)
def test_any_manifest_value_ends_in_a_code_and_one_line(run, slot, value, path):
    if slot in PATH_SLOTS:
        value = _path(run, slot, path)
    manifest = _write_json(run["root"] / "data" / "edited.json",
                           _edited(run["manifest"], slot, value))
    _main_once(run, {**run["config"], "dataset": manifest})


def _train_spliced(run, slot, at, lines):
    """Put `lines` into the file that the manifest's `slot` names, at line
    `at` (at its end past the last line), as drawn.tsv, point `slot` at it,
    and train one epoch."""
    data = run["root"] / "data"
    where, key = slot
    kept = (data / _parent(run["manifest"], where)[key]).read_bytes().splitlines(True)
    (data / "drawn.tsv").write_bytes(b"".join(kept[:at] + lines + kept[at:]))
    manifest = _write_json(data / "edited.json", _edited(run["manifest"], slot, "drawn.tsv"))
    return _main_once(run, {**run["config"], "dataset": manifest}, command="train")


@hypothesis.settings(max_examples=100, deadline=None)
@hypothesis.given(feature=st.integers(0, 3), at=st.integers(0, 40),
                  lines=st.lists(LINE, max_size=6))
def test_any_feature_file_ends_in_a_code_and_one_line(run, feature, at, lines):
    """The drawn lines go into one feature file, and one epoch trains on it."""
    _train_spliced(run, (("features", feature), "path"), at, lines)


def _holds_a_non_ascii_number(data: bytes) -> bool:
    """Whether some line of a UTF-8 ratings file has 3 or 4 fields and a
    rating or timestamp text with a character outside ASCII or an underscore."""
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError:
        return False
    lines = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
    rows = [line.split("\t") for line in lines]
    return any(len(row) in (3, 4) and any(not t.isascii() or "_" in t for t in row[2:])
               for row in rows)


@hypothesis.settings(max_examples=100, deadline=None)
@hypothesis.given(at=st.integers(0, 300), lines=st.lists(RATING_LINE, max_size=6))
@hypothesis.example(at=0, lines=[b"x9\t\xd9\xa3\t1_0\t12345678901234567890\n"])
@hypothesis.example(at=300, lines=[b"u0\ti3\t-0\n"])
@hypothesis.example(at=5, lines=[b"u0\ti3\t4.5\t0x10\r"])
@hypothesis.example(at=7, lines=["u0\ti3\t\u0663\n".encode()])
@hypothesis.example(at=7, lines=[b"u0\ti3\t3\t1_0\n"])
def test_any_ratings_file_ends_in_a_code_and_one_line(run, at, lines):
    """The drawn lines go into the ratings file, and one epoch trains on it.
    A file with a rating or timestamp text that is not ASCII or holds an
    underscore never trains, although float() and int() would read it."""
    code = _train_spliced(run, ((), "ratings"), at, lines)
    if _holds_a_non_ascii_number((run["root"] / "data" / "drawn.tsv").read_bytes()):
        assert code != 0


# Checkpoint edits. The header JSON is edited at one place: a value set to a
# drawn one (or a drawn shape), a key or entry deleted, or a key renamed.
# Then 8 payload bytes may be overwritten with a float that no training run
# writes, or the payload cut short or lengthened. The file is sealed again
# with a valid sha256, so the edit reaches the checks behind the checksum.
HEADER_EDITS = st.sampled_from(["set", "set", "shape", "delete", "rename", "none"])
SHAPES = st.lists(st.integers(-1, 70), max_size=3)
PAYLOAD_EDITS = st.sampled_from(["none", "overwrite", "truncate", "extend"])
WORDS = st.sampled_from([struct.pack("<d", v) for v in
                         (math.nan, math.inf, -math.inf, 1e308, -0.0, 5e-324)]
                        + [b"\xff" * 8])


def _paths(doc, where=()):
    """The path of every value inside a JSON document, parents first."""
    if isinstance(doc, dict):
        entries = doc.items()
    elif isinstance(doc, list):
        entries = enumerate(doc)
    else:
        return []
    return [path for key, value in entries
            for path in [(*where, key), *_paths(value, (*where, key))]]


def _sealed(header, payload: bytes) -> bytes:
    head = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    body = MAGIC + len(head).to_bytes(8, "little") + head + payload
    return body + hashlib.sha256(body).digest()


@pytest.fixture(scope="module")
def checkpoints(run):
    """kind -> (header, payload) of a trained checkpoint: the SAIN one of
    `run`, and a BiasedMF one trained on the same data."""
    config = {**run["config"], "model": "biasedmf", "output_dir": "out-mf"}
    assert main(["train", "--config", _write_json(run["root"] / "mf.json", config)]) == 0
    out = {}
    for kind, path in (("sain", run["checkpoint"]),
                       ("biasedmf", run["root"] / "out-mf" / "model.ckpt")):
        with open(path, "rb") as f:
            blob = f.read()
        head_len = int.from_bytes(blob[len(MAGIC):len(MAGIC) + 8], "little")
        start = len(MAGIC) + 8
        out[kind] = json.loads(blob[start:start + head_len]), blob[start + head_len:-32]
    return out


@hypothesis.settings(max_examples=100, deadline=None)
@hypothesis.given(kind=st.sampled_from(["sain", "biasedmf"]), edit=HEADER_EDITS,
                  place=st.integers(0, 10 ** 6), value=VALUES | SHAPES, key=TEXT,
                  shape=SHAPES, payload_edit=PAYLOAD_EDITS,
                  at=st.integers(0, 10 ** 6), word=WORDS)
# An infinity at the payload's start, and a NaN's bytes 1 byte off the
# alignment, which read as a finite weight large enough to overflow: both
# evaluated with numpy's warnings and exit 0.
@hypothesis.example(kind="sain", edit="none", place=0, value=None, key="", shape=[],
                    payload_edit="overwrite", at=0, word=struct.pack("<d", math.inf))
@hypothesis.example(kind="sain", edit="none", place=0, value=None, key="", shape=[],
                    payload_edit="overwrite", at=2953, word=struct.pack("<d", math.nan))
def test_any_checkpoint_edit_ends_in_a_code_and_one_line(run, checkpoints, kind, edit,
                                                         place, value, key, shape,
                                                         payload_edit, at, word):
    header, payload = checkpoints[kind]
    header = copy.deepcopy(header)
    if edit == "shape":
        entry = header["arrays"][place % len(header["arrays"])]
        entry["shape"] = shape
    elif edit != "none":
        paths = _paths(header)
        *where, last = paths[place % len(paths)]
        parent = _parent(header, where)
        if edit == "set":
            parent[last] = value
        elif edit == "delete":
            del parent[last]
        elif isinstance(parent, dict):
            parent[key] = parent.pop(last)
    at %= max(len(payload), 1)
    if payload_edit == "overwrite":
        payload = payload[:at] + word + payload[at + len(word):]
    elif payload_edit == "truncate":
        payload = payload[:at]
    elif payload_edit == "extend":
        payload = payload + word
    path = run["root"] / "edited.ckpt"
    path.write_bytes(_sealed(header, payload))
    _main_once(run, run["config"], checkpoint=str(path))
