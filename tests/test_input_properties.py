"""Property tests for two of the program's inputs, run configs and dataset
manifests: whatever JSON value one key takes, `sain evaluate` (which checks
the whole run config and builds the data, without training) returns a
documented exit code, prints exactly one `error category=` line when that
code is not 0, and never raises. Skipped when hypothesis is not installed.

Path-valued keys (the run config's `dataset`, the manifest's `ratings` and a
feature's `path`) take only names under the test's own directory: a missing
file, a directory, a file that is not UTF-8, or the valid file. They never
take drawn text, so no example reads a file outside that directory."""

import contextlib
import copy
import io
import json
import os
import tempfile

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

from sain.cli import main  # noqa: E402
from sain.model import ModelConfig  # noqa: E402
from sain.training import TrainConfig  # noqa: E402

from conftest import write_synthetic_dataset  # noqa: E402

EXIT_CODES = {0, 1, 3, 4, 5, 6, 7}
MODEL_CONFIG = ModelConfig(embed_dim=8, num_heads=2, top_k=2).to_dict()
TRAIN_CONFIG = TrainConfig(max_epochs=1, batch_size=64, seed=3).to_dict()
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


def _evaluate_once(run, config) -> int:
    """Run `sain evaluate` on `config`, check the property, and return the
    exit code."""
    with tempfile.TemporaryDirectory(dir=run["root"]) as out_dir:
        config_path = _write_json(os.path.join(out_dir, "run.json"), config)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["evaluate", "--config", config_path, "--checkpoint",
                         run["checkpoint"], "--output-dir", out_dir])
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
    assert _evaluate_once(run, run["config"]) == 0
    assert _evaluate_once(run, {**run["config"], "dataset": manifest}) == 0


@hypothesis.settings(max_examples=100, deadline=None)
@hypothesis.given(slot=st.sampled_from(CONFIG_SLOTS), value=VALUES,
                  path=st.sampled_from(PATHS))
def test_any_run_config_value_ends_in_a_code_and_one_line(run, slot, value, path):
    if slot in PATH_SLOTS:
        value = _path(run, slot, path)
    _evaluate_once(run, _edited(run["config"], slot, value))


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
    _evaluate_once(run, {**run["config"], "dataset": manifest})
