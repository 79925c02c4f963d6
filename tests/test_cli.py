"""Command-line interface tests: the run-config loader, every subcommand's
outputs and exit codes, flag overrides, and deterministic reruns."""

import csv
import dataclasses
import json
import os
import re
import subprocess
import sys

import numpy as np
import pytest

import sain
from sain.checkpoint import load_checkpoint, save_checkpoint
from sain.cli import RunManifest, main
from sain.data import DatasetManifest, build_dataset

from conftest import write_synthetic_dataset

# Every test runs with the data files read in blocks of 1, 2, 3 and the
# default number of lines (conftest.block_lines).
pytestmark = pytest.mark.usefixtures("block_lines")


def _write_config(tmp_path, dataset_path, name="run.json", **overrides):
    cfg = {
        "dataset": dataset_path,
        "model": "sain",
        "output_dir": "out",
        "model_config": {"embed_dim": 8, "num_heads": 2, "top_k": 2,
                         "dropout_rate": 0.1},
        "train_config": {"max_epochs": 2, "batch_size": 64, "seed": 3},
    }
    cfg.update(overrides)
    path = str(tmp_path / name)
    with open(path, "w") as f:
        json.dump(cfg, f)
    return path


@pytest.fixture()
def run_config(tmp_path, synthetic_manifest):
    return _write_config(tmp_path, synthetic_manifest)


class TestRunManifest:
    def test_defaults_and_path_resolution(self, run_config, tmp_path):
        rm = RunManifest.load(run_config)
        assert rm.model == "sain"
        assert rm.output_dir == str(tmp_path / "out")
        assert rm.model_config.embed_dim == 8
        assert rm.model_config.bn_epsilon == 1e-5  # default filled in
        assert rm.train_config.patience == 10
        assert not rm.split_by_time

    def test_overrides_win(self, run_config):
        rm = RunManifest.load(run_config, {"model_config.top_k": 4,
                                           "train_config.seed": 99,
                                           "top.output_dir": "elsewhere",
                                           "train_config.max_epochs": None})
        assert rm.model_config.top_k == 4
        assert rm.train_config.seed == 99
        assert rm.train_config.max_epochs == 2  # None overrides are ignored
        assert rm.output_dir.endswith("elsewhere")

    def test_missing_and_malformed_configs(self, tmp_path):
        from sain.errors import IoError, ParseError
        with pytest.raises(IoError):
            RunManifest.load(str(tmp_path / "absent.json"))
        bad = tmp_path / "bad.json"
        bad.write_text("{oops")
        with pytest.raises(ParseError):
            RunManifest.load(str(bad))
        nodataset = tmp_path / "nodataset.json"
        nodataset.write_text("{}")
        with pytest.raises(ParseError, match="dataset"):
            RunManifest.load(str(nodataset))

    def test_unknown_model_kind(self, tmp_path, synthetic_manifest):
        path = _write_config(tmp_path, synthetic_manifest, model="svd")
        from sain.errors import ParseError
        with pytest.raises(ParseError, match="model kind"):
            RunManifest.load(path)

    def test_unknown_config_key_is_a_parse_error(self, tmp_path,
                                                 synthetic_manifest):
        path = _write_config(tmp_path, synthetic_manifest,
                             model_config={"bogus": 1})
        from sain.errors import ParseError
        with pytest.raises(ParseError):
            RunManifest.load(path)


class TestUsage:
    """A usage error prints one `error category=parse` line with argparse's
    message and exits 4, before any work; --help still prints and exits 0."""

    @pytest.mark.parametrize("argv, message", [
        ([], "the following arguments are required: command"),
        (["fit"], "argument command: invalid choice: 'fit'"),
        (["train", "--config", "{cfg}", "--bogus"], "unrecognized arguments: --bogus"),
        (["evaluate", "--config", "{cfg}", "--seed", "3"],
         "unrecognized arguments: --seed 3"),
        (["predict", "--config", "{cfg}", "--split-by-time", "--user", "u0",
          "--item", "i1"], "unrecognized arguments: --split-by-time"),
        (["attention", "--config", "{cfg}", "--model", "sain", "--user", "u0",
          "--item", "i1"], "unrecognized arguments: --model sain"),
        (["train"], "the following arguments are required: --config"),
        (["predict", "--config", "{cfg}", "--user", "u0"],
         "the following arguments are required: --item"),
        (["sweep-k", "--config", "{cfg}"],
         "the following arguments are required: --k-values"),
        (["train", "--config", "{cfg}", "--max-epochs", "two"],
         "argument --max-epochs: invalid int value: 'two'"),
        (["evaluate", "--config", "{cfg}", "--split", "dev"],
         "argument --split: invalid choice: 'dev'"),
        (["gradcheck", "--seeds", "many"],
         "argument --seeds: invalid int value: 'many'")],
        ids=["no-command", "unknown-command", "train-unknown-flag",
             "evaluate-run-flag", "predict-split-flag", "attention-model-flag",
             "train-no-config", "predict-no-item", "sweep-no-k-values",
             "train-bad-int", "evaluate-bad-choice", "gradcheck-bad-int"])
    def test_one_line_and_exit_4(self, run_config, tmp_path, capsys, argv, message):
        argv = [a.replace("{cfg}", run_config) for a in argv]
        assert main(argv) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith(
            f"error category=parse: {message}")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command, own", [
        ("evaluate", ["--split"]), ("predict", ["--user", "--item"]),
        ("attention", ["--user", "--item"])])
    def test_checkpoint_commands_take_only_their_own_flags(self, capsys, command,
                                                           own):
        with pytest.raises(SystemExit) as exit_info:
            main([command, "--help"])
        assert exit_info.value.code == 0
        flags = re.findall(r"^  (--[a-z-]+)", capsys.readouterr().out, re.M)
        assert flags == ["--config", "--output-dir", "--checkpoint"] + own


class TestTrainCommand:
    def test_outputs_and_summary_line(self, run_config, tmp_path, capsys):
        assert main(["train", "--config", run_config]) == 0
        out_dir = tmp_path / "out"
        for name in ("model.ckpt", "training_log.csv", "resolved.json",
                     "train.timing.json"):
            assert (out_dir / name).exists()
        line = capsys.readouterr().out
        assert "model=sain" in line and "best_epoch=" in line
        with open(out_dir / "training_log.csv", newline="") as f:
            rows = list(csv.reader(f))
        assert rows[0][0] == "epoch"
        assert len(rows) == 3  # header + two epochs

    def test_resolved_json_reflects_flag_overrides(self, run_config, tmp_path):
        assert main(["train", "--config", run_config, "--top-k", "3",
                     "--seed", "17", "--output-dir", "alt"]) == 0
        with open(tmp_path / "alt" / "resolved.json") as f:
            resolved = json.load(f)
        assert resolved["model_config"]["top_k"] == 3
        assert resolved["train_config"]["seed"] == 17

    # Every override flag, each set to a value that neither the run config
    # nor the defaults hold; the second case takes the other form of each
    # boolean flag and the other model kind.
    @pytest.mark.parametrize("file_values, flags, want", [
        ({}, ["--seed", "5", "--learning-rate", "0.002", "--weight-decay", "0.0005",
              "--batch-size", "32", "--max-epochs", "1", "--patience", "4",
              "--embed-dim", "12", "--num-heads", "3", "--top-k", "3",
              "--dropout-rate", "0.2", "--l2-scope", "embeddings",
              "--no-renormalize-topk", "--gate-shared", "--model", "sain",
              "--output-dir", "flags", "--split-by-time"],
         {"train_config": {"seed": 5, "learning_rate": 0.002, "weight_decay": 0.0005,
                           "batch_size": 32, "max_epochs": 1, "patience": 4},
          "model_config": {"embed_dim": 12, "num_heads": 3, "top_k": 3,
                           "dropout_rate": 0.2, "l2_scope": "embeddings",
                           "renormalize_topk": False, "gate_shared": True},
          "model": "sain", "output_dir": "flags", "split_by_time": True}),
        ({"model_config": {"embed_dim": 8, "num_heads": 2, "top_k": 2,
                           "renormalize_topk": False, "gate_shared": True},
          "split_by_time": True},
         ["--renormalize-topk", "--no-gate-shared", "--no-split-by-time",
          "--l2-scope", "projections", "--model", "biasedmf", "--max-epochs", "1",
          "--output-dir", "flags"],
         {"model_config": {"renormalize_topk": True, "gate_shared": False,
                           "l2_scope": "projections"},
          "train_config": {"max_epochs": 1},
          "model": "biasedmf", "output_dir": "flags", "split_by_time": False})],
        ids=["values", "other-forms"])
    def test_every_override_flag_reaches_resolved_json(
            self, tmp_path, synthetic_manifest, file_values, flags, want):
        path = _write_config(tmp_path, synthetic_manifest, **file_values)
        assert main(["train", "--config", path] + flags) == 0
        with open(tmp_path / "flags" / "resolved.json") as f:
            resolved = json.load(f)
        for scope in ("train_config", "model_config"):
            for key, value in want[scope].items():
                assert resolved[scope][key] == value, key
        assert resolved["model"] == want["model"]
        assert resolved["output_dir"] == str(tmp_path / want["output_dir"])
        assert resolved["split_by_time"] is want["split_by_time"]

    def test_resolved_json_holds_every_config_field(self, tmp_path, synthetic_manifest):
        # Exactly the fields of both configs, by dataclasses.fields, so that a
        # hand-kept field list cannot drop one unseen. The file sets the four
        # that no flag reaches.
        path = _write_config(
            tmp_path, synthetic_manifest,
            model_config={"embed_dim": 8, "num_heads": 2, "top_k": 2, "bn_epsilon": 0.001,
                          "bn_momentum": 0.25, "loss_weights": [0.5, 2, 1]},
            train_config={"max_epochs": 1, "batch_size": 64, "min_delta": 0.01})
        assert main(["train", "--config", path]) == 0
        with open(tmp_path / "out" / "resolved.json") as f:
            resolved = json.load(f)
        rm = RunManifest.load(path)
        assert sorted(resolved) == sorted(f.name for f in dataclasses.fields(rm))
        for scope in ("model_config", "train_config"):
            config = getattr(rm, scope)
            names = [f.name for f in dataclasses.fields(config)]
            assert sorted(resolved[scope]) == sorted(names)
            for name in names:
                assert resolved[scope][name] == json.loads(json.dumps(getattr(config, name)))
        assert [resolved["model_config"][key] for key in
                ("bn_epsilon", "bn_momentum", "loss_weights")] == [0.001, 0.25, [0.5, 2.0, 1.0]]
        assert resolved["train_config"]["min_delta"] == 0.01

    def test_reruns_are_byte_identical(self, run_config, tmp_path):
        assert main(["train", "--config", run_config, "--output-dir", "a"]) == 0
        assert main(["train", "--config", run_config, "--output-dir", "b"]) == 0
        for name in ("model.ckpt", "training_log.csv"):
            with open(tmp_path / "a" / name, "rb") as f:
                bytes_a = f.read()
            with open(tmp_path / "b" / name, "rb") as f:
                bytes_b = f.read()
            assert bytes_a == bytes_b, name

    def test_biasedmf_model_flag(self, run_config, tmp_path, capsys):
        assert main(["train", "--config", run_config, "--model", "biasedmf",
                     "--output-dir", "mf"]) == 0
        assert "model=biasedmf" in capsys.readouterr().out
        with open(tmp_path / "mf" / "training_log.csv", newline="") as f:
            rows = list(csv.reader(f))
        assert rows[1][1] == "" and rows[1][2] == ""  # blank auxiliary losses

    def test_missing_config_exits_3(self, tmp_path, capsys):
        assert main(["train", "--config", str(tmp_path / "nope.json")]) == 3
        assert "category=io" in capsys.readouterr().err

    def test_bad_config_exits_4(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{oops")
        assert main(["train", "--config", str(bad)]) == 4
        assert "category=parse" in capsys.readouterr().err

    def test_indivisible_heads_exit_5(self, run_config, capsys):
        assert main(["train", "--config", run_config, "--embed-dim", "9"]) == 5
        assert "category=shape" in capsys.readouterr().err

    @pytest.mark.parametrize("flags, message", [
        (["--num-heads", "0"], "num_heads"),
        (["--embed-dim", "0"], "embed_dim"),
        (["--embed-dim", "-4"], "embed_dim"),
        (["--learning-rate", "nan"], "learning_rate"),
        (["--learning-rate", "0"], "learning_rate"),
        (["--weight-decay", "-1"], "weight_decay")])
    def test_out_of_range_settings_exit_1_with_one_line(self, run_config, tmp_path,
                                                        capsys, flags, message):
        assert main(["train", "--config", run_config] + flags) == 1
        err = capsys.readouterr().err
        assert err.startswith("error category=error: ") and message in err
        assert err.count("\n") == 1
        assert not (tmp_path / "out").exists()

    def test_non_finite_min_delta_in_the_run_config_exits_1(self, tmp_path,
                                                           synthetic_manifest,
                                                           capsys):
        # Python's json reads and writes the NaN literal.
        path = _write_config(tmp_path, synthetic_manifest,
                             train_config={"min_delta": float("nan")})
        assert main(["train", "--config", path]) == 1
        assert capsys.readouterr().err.startswith("error category=error: min_delta")

    @pytest.mark.parametrize("scope, key, value", [
        ("model_config", "embed_dim", 8.0), ("model_config", "top_k", True),
        ("train_config", "batch_size", 64.0), ("train_config", "max_epochs", 2.0),
        ("model_config", "bn_epsilon", -1.0), ("model_config", "bn_momentum", 2.0),
        ("model_config", "loss_weights", [0.0, 0.0, 0.0]),
        ("model_config", "loss_weights", [1.0, -1.0, 1.0]),
        ("model_config", "num_attention_layers", 2),
        # A number, null or NaN exited 4 with "'int' object is not iterable"
        # and no key named, while a two-entry list exited 1.
        ("model_config", "loss_weights", 5), ("model_config", "loss_weights", None),
        ("model_config", "loss_weights", float("nan")),
        ("model_config", "loss_weights", "abc"), ("model_config", "loss_weights", [1, 2])])
    def test_bad_run_config_values_exit_1_before_training(
            self, tmp_path, synthetic_manifest, capsys, scope, key, value):
        base = {"model_config": {"embed_dim": 8, "num_heads": 2, "top_k": 2,
                                 "dropout_rate": 0.1},
                "train_config": {"max_epochs": 2, "batch_size": 64, "seed": 3}}
        base[scope][key] = value
        path = _write_config(tmp_path, synthetic_manifest, **base)
        assert main(["train", "--config", path]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error category=error: {key}")
        assert err.count("\n") == 1
        assert not (tmp_path / "out").exists()

    def test_layer_count_1_from_old_configs_is_dropped(self, tmp_path,
                                                       synthetic_manifest):
        path = _write_config(tmp_path, synthetic_manifest,
                             model_config={"embed_dim": 8, "num_heads": 2,
                                           "top_k": 2, "num_attention_layers": 1},
                             train_config={"max_epochs": 1, "seed": 3})
        assert main(["train", "--config", path]) == 0
        with open(tmp_path / "out" / "resolved.json") as f:
            resolved = json.load(f)
        assert resolved["model_config"]["top_k"] == 2
        assert "num_attention_layers" not in resolved["model_config"]

    def test_outputs_do_not_depend_on_the_blas_thread_count(self, tmp_path):
        """embed_dim 64 and batch 256 make the Q/K/V and weight-gradient GEMMs
        big enough for OpenBLAS to split them across threads; the log and the
        checkpoint must come out byte-identical at 1 and 2 threads."""
        manifest = write_synthetic_dataset(str(tmp_path / "data"), n_users=120)
        config = _write_config(tmp_path, manifest,
                               model_config={"embed_dim": 64, "num_heads": 4,
                                             "top_k": 3, "dropout_rate": 0.1},
                               train_config={"max_epochs": 2, "batch_size": 256,
                                             "seed": 5})
        src = os.path.dirname(os.path.dirname(os.path.abspath(sain.__file__)))
        outputs = {}
        for threads in ("1", "2"):
            env = {**os.environ, "OPENBLAS_NUM_THREADS": threads,
                   "PYTHONPATH": os.pathsep.join(
                       [src] + os.environ.get("PYTHONPATH", "").split(os.pathsep))}
            out_dir = tmp_path / f"threads{threads}"
            proc = subprocess.run(
                [sys.executable, "-m", "sain.cli", "train", "--config", config,
                 "--output-dir", str(out_dir)], env=env, capture_output=True,
                text=True, timeout=300)
            assert proc.returncode == 0, proc.stderr
            outputs[threads] = [(out_dir / name).read_bytes()
                                for name in ("training_log.csv", "model.ckpt")]
        assert outputs["1"] == outputs["2"]


@pytest.fixture()
def trained(run_config, tmp_path):
    assert main(["train", "--config", run_config]) == 0
    return run_config, tmp_path


def _broken_dataset(tmp_path, edit):
    """A private synthetic dataset whose files `edit(root)` then breaks, and a
    run config for it."""
    root = tmp_path / "data"
    manifest = write_synthetic_dataset(str(root))
    edit(root)
    return _write_config(tmp_path, manifest, name="broken.json")


def _make_directory(name):
    def edit(root):
        os.remove(root / name)
        os.mkdir(root / name)
    return edit


def _append_bytes(name, data):
    def edit(root):
        with open(root / name, "ab") as f:
            f.write(data)
    return edit


class TestBadDataFiles:
    """Each bad data file ends the command with one error line naming the
    file (and the line, where there is one) and its category's exit code."""

    @pytest.mark.parametrize("edit, code, category, needle", [
        (_make_directory("ratings.tsv"), 3, "io", "cannot read {root}/ratings.tsv"),
        (_make_directory("item_tag.tsv"), 3, "io", "cannot read {root}/item_tag.tsv"),
        (_append_bytes("ratings.tsv", b"u1\ti1\t4\t\xff\n"), 4, "parse",
         "{root}/ratings.tsv: not UTF-8 text"),
        (_append_bytes("user_age.tsv", b"u1\t\xe9t\xe9\n"), 4, "parse",
         "{root}/user_age.tsv: not UTF-8 text"),
        (_append_bytes("ratings.tsv", b"u1\ti1\t4\t99999999999999999999\n"), 4,
         "parse", "{root}/ratings.tsv line 272: timestamp outside the int64 range"),
        # float() and int() read these texts, and they loaded with exit 0.
        (_append_bytes("ratings.tsv", "u1\ti1\t\u0663\n".encode()), 4, "parse",
         "{root}/ratings.tsv line 272: bad rating '\u0663'"),
        (_append_bytes("ratings.tsv", b"u1\ti1\t4\t1_0\n"), 4, "parse",
         "{root}/ratings.tsv line 272: bad timestamp '1_0'"),
        (_append_bytes("ratings.tsv", b"u1\ti1\t4_0\n"), 4, "parse",
         "{root}/ratings.tsv line 272: bad rating '4_0'"),
        (_append_bytes("ratings.tsv", "u1\ti1\t4\t\uff11\n".encode()), 4, "parse",
         "{root}/ratings.tsv line 272: bad timestamp '\uff11'")],
        ids=["ratings-directory", "feature-directory", "ratings-not-utf8",
             "feature-not-utf8", "timestamp-overflow", "rating-arabic-indic-digit",
             "timestamp-underscore", "rating-underscore", "timestamp-fullwidth-digit"])
    def test_one_error_line_and_exit_code(self, tmp_path, capsys, edit, code,
                                          category, needle):
        config = _broken_dataset(tmp_path, edit)
        assert main(["train", "--config", config]) == code
        err = capsys.readouterr().err
        assert err.startswith(f"error category={category}: ")
        assert needle.format(root=tmp_path / "data") in err
        assert err.count("\n") == 1
        assert not (tmp_path / "out").exists()


    @pytest.mark.parametrize("key, value, needle", [
        ("min_ratings", "five", "min_ratings must be an integer >= 0, got 'five'"),
        ("min_ratings", 2.7, "min_ratings must be an integer >= 0, got 2.7"),
        ("tag_top_t", -3, "tag_top_t must be an integer >= 0, got -3")],
        ids=["min-ratings-text", "min-ratings-fraction", "tag-top-t-negative"])
    def test_bad_manifest_counts_exit_4(self, tmp_path, capsys, key, value,
                                        needle):
        def edit(root):
            manifest = json.loads((root / "dataset.json").read_text())
            manifest[key] = value
            (root / "dataset.json").write_text(json.dumps(manifest))
        config = _broken_dataset(tmp_path, edit)
        assert main(["train", "--config", config]) == 4
        err = capsys.readouterr().err
        assert err.startswith("error category=parse: ")
        assert f"{tmp_path / 'data' / 'dataset.json'}: {needle}" in err
        assert err.count("\n") == 1
        assert not (tmp_path / "out").exists()


    @pytest.mark.parametrize("value", ["false", "no", 0, 1, None],
                             ids=["text-false", "text-no", "zero", "one", "null"])
    def test_feature_open_flag_must_be_a_json_bool(self, tmp_path, capsys, value):
        def edit(root):
            manifest = json.loads((root / "dataset.json").read_text())
            manifest["features"][3]["open"] = value
            (root / "dataset.json").write_text(json.dumps(manifest))
        config = _broken_dataset(tmp_path, edit)
        assert main(["train", "--config", config]) == 4
        err = capsys.readouterr().err
        assert err.startswith("error category=parse: ")
        assert (f"{tmp_path / 'data' / 'dataset.json'}: feature 'tag': open must be "
                f"true or false, got {value!r}") in err
        assert err.count("\n") == 1
        assert not (tmp_path / "out").exists()


    @pytest.mark.parametrize("feature, name, needle", [
        (0, 5, "field must be a string, got 5"),
        (0, ["a"], "field must be a string, got ['a']"),
        (1, "gender", "field 'gender' is named twice"),
        (2, "gender", "field 'gender' is named twice")],
        ids=["number", "list", "two-user-fields", "user-and-item-field"])
    def test_field_names_must_be_unique_strings(self, tmp_path, capsys, feature,
                                                name, needle):
        # A number or a list ended in a traceback; a repeated name exited 0
        # with one field's tokens under the other's name.
        def edit(root):
            manifest = json.loads((root / "dataset.json").read_text())
            manifest["features"][feature]["field"] = name
            (root / "dataset.json").write_text(json.dumps(manifest))
        config = _broken_dataset(tmp_path, edit)
        assert main(["train", "--config", config]) == 4
        err = capsys.readouterr().err
        assert err == (f"error category=parse: dataset manifest "
                       f"{tmp_path / 'data' / 'dataset.json'}: {needle}\n")
        assert not (tmp_path / "out").exists()


    def test_a_side_without_a_feature_field_exits_5(self, tmp_path, capsys):
        # The manifest is valid, but the attention model has no item field
        # to attend over.
        def edit(root):
            manifest = json.loads((root / "dataset.json").read_text())
            manifest["features"] = [f for f in manifest["features"]
                                    if f["owner"] == "user"]
            (root / "dataset.json").write_text(json.dumps(manifest))
        config = _broken_dataset(tmp_path, edit)
        assert main(["train", "--config", config]) == 5
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error category=shape: the attention model needs at least one feature "
            "field on each of the user and item sides\n")
        assert not (tmp_path / "out").exists()

    def test_unknown_owner_names_the_manifest(self, tmp_path, capsys):
        # The refusal named the field but not the manifest.
        def edit(root):
            manifest = json.loads((root / "dataset.json").read_text())
            manifest["features"][0]["owner"] = "movie"
            (root / "dataset.json").write_text(json.dumps(manifest))
        config = _broken_dataset(tmp_path, edit)
        assert main(["train", "--config", config]) == 4
        assert capsys.readouterr().err == (
            f"error category=parse: dataset manifest {tmp_path / 'data' / 'dataset.json'}: "
            f"unknown owner 'movie' for field 'gender'\n")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("lines, error", [
        ("u1\ti1\t4\t1_0\nu1\ti1\t٣\n", "bad timestamp '1_0'"),
        ("u1\ti1\t٣\nu1\ti1\tx\n", "bad rating '٣'"),
        ("u1\ti1\tx\nu1\ti1\t٣\n", "bad rating 'x'"),
        ("u1\ti1\t9\nu1\ti1\t4\t1_0\n", "rating outside [1,5]: 9")],
        ids=["stamp-then-rating", "digit-then-letter", "letter-then-digit",
             "range-then-stamp"])
    def test_the_first_bad_number_text_wins(self, tmp_path, capsys, lines, error):
        config = _broken_dataset(tmp_path, _append_bytes("ratings.tsv", lines.encode()))
        assert main(["train", "--config", config]) == 4
        path = tmp_path / "data" / "ratings.tsv"
        assert capsys.readouterr().err == f"error category=parse: {path} line 272: {error}\n"
        assert not (tmp_path / "out").exists()

    def test_min_ratings_that_leaves_too_few_ratings_names_the_filter(self, tmp_path,
                                                                      capsys):
        # The refusal was "dataset too small to split", naming neither the
        # file nor the filter.
        def edit(root):
            manifest = json.loads((root / "dataset.json").read_text())
            manifest["min_ratings"] = 1000
            (root / "dataset.json").write_text(json.dumps(manifest))
        config = _broken_dataset(tmp_path, edit)
        assert main(["train", "--config", config]) == 1
        assert capsys.readouterr().err == (
            f"error category=error: {tmp_path / 'data' / 'ratings.tsv'} with min_ratings "
            f"1000: dataset too small to split (0 ratings kept)\n")
        assert not (tmp_path / "out").exists()


def _config_directory(path):
    path.mkdir()


def _config_bytes(data):
    def write(path):
        path.write_bytes(data)
    return write


class TestBadRunConfigs:
    """A run config that cannot be read or is not the expected JSON ends the
    command with one error line naming it, its category's exit code, and no
    output directory."""

    @pytest.mark.parametrize("value", ["false", "no", 0, 1, None],
                             ids=["text-false", "text-no", "zero", "one", "null"])
    def test_split_by_time_must_be_a_json_bool(self, tmp_path, synthetic_manifest,
                                               capsys, value):
        path = _write_config(tmp_path, synthetic_manifest, split_by_time=value)
        assert main(["train", "--config", path]) == 4
        err = capsys.readouterr().err
        assert err.startswith("error category=parse: ")
        assert (f"run config {path}: split_by_time must be true or false, "
                f"got {value!r}") in err
        assert err.count("\n") == 1
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("value", [True, False])
    def test_split_by_time_takes_json_bools(self, tmp_path, synthetic_manifest,
                                            value):
        path = _write_config(tmp_path, synthetic_manifest, split_by_time=value)
        assert RunManifest.load(path).split_by_time is value

    @pytest.mark.parametrize("write, code, category, needle", [
        (_config_directory, 3, "io", "cannot read {path}"),
        (_config_bytes(b'{"dataset": "d.json", "output_dir": "\xff"}'), 4, "parse",
         "{path}: not UTF-8 text"),
        (_config_bytes(b"5"), 4, "parse", "run config {path}: expected a JSON object"),
        (_config_bytes(b'["dataset"]'), 4, "parse",
         "run config {path}: expected a JSON object"),
        (_config_bytes(b'{"dataset": "d.json", "model_config": [1]}'), 4, "parse",
         "run config {path}: model_config must be a JSON object"),
        (_config_bytes(b'{"dataset": "d.json", "train_config": "fast"}'), 4, "parse",
         "run config {path}: train_config must be a JSON object"),
        (_config_bytes(b'{"dataset": 5}'), 4, "parse",
         "run config {path}: dataset must be a string"),
        (_config_bytes(b'{"dataset": "d.json", "output_dir": null}'), 4, "parse",
         "run config {path}: output_dir must be a string"),
        # Python's json raises RecursionError on deep nesting and a plain
        # ValueError on an integer of over 4300 digits.
        (_config_bytes(b"[" * 100000 + b"]" * 100000), 4, "parse",
         "run config {path}: maximum recursion depth"),
        (_config_bytes(b'{"dataset": ' + b"1" * 5000 + b"}"), 4, "parse",
         "run config {path}: Exceeds the limit")],
        ids=["directory", "not-utf8", "top-level-number", "top-level-list",
             "model-config-list", "train-config-text", "dataset-number",
             "output-dir-null", "deep-nesting", "huge-integer"])
    def test_one_error_line_and_exit_code(self, tmp_path, capsys, write, code,
                                          category, needle):
        path = tmp_path / "run.json"
        write(path)
        before = sorted(os.listdir(tmp_path))
        assert main(["train", "--config", str(path)]) == code
        err = capsys.readouterr().err
        assert err.startswith(f"error category={category}: ")
        assert needle.format(path=path) in err
        assert err.count("\n") == 1
        assert sorted(os.listdir(tmp_path)) == before

    @pytest.mark.parametrize("key", ["\r", "a\nb", "\x0c", "\x85", "\u2028"],
                             ids=["cr", "newline", "form-feed", "nel", "line-separator"])
    def test_a_key_that_holds_a_line_end_is_quoted_on_one_line(
            self, tmp_path, synthetic_manifest, capsys, key):
        path = _write_config(tmp_path, synthetic_manifest, model_config={key: 1})
        assert main(["train", "--config", path]) == 4
        err = capsys.readouterr().err
        assert err.startswith("error category=parse: ")
        assert len(err.splitlines()) == 1 and err.endswith("\n")
        assert repr(key)[1:-1] in err


class TestEvaluateCommand:
    def test_metrics_line_and_report_file(self, trained, capsys):
        run_config, tmp_path = trained
        capsys.readouterr()
        assert main(["evaluate", "--config", run_config, "--split", "test"]) == 0
        line = capsys.readouterr().out
        assert line.startswith("RMSE=") and " MAE=" in line and " N=" in line
        with open(tmp_path / "out" / "eval_test.json") as f:
            payload = json.load(f)
        assert payload["split"] == "test"
        assert set(payload["detail"]) == {"content", "preference", "combined"}
        assert float(line.split("RMSE=")[1].split()[0]) == payload["rmse"]

    def test_evaluate_is_deterministic(self, trained, capsys):
        run_config, _ = trained
        capsys.readouterr()
        assert main(["evaluate", "--config", run_config]) == 0
        first = capsys.readouterr().out
        assert main(["evaluate", "--config", run_config]) == 0
        assert capsys.readouterr().out == first

    @staticmethod
    def _set_layer_count(path, value):
        """Re-save a checkpoint with `num_attention_layers` in its header
        config, as checkpoints were written while it was a config key."""
        ckpt = load_checkpoint(path)
        ckpt.config["num_attention_layers"] = value
        save_checkpoint(path, ckpt)

    def test_checkpoints_with_the_layer_count_1_still_load(self, trained, capsys):
        run_config, tmp_path = trained
        capsys.readouterr()
        assert main(["evaluate", "--config", run_config]) == 0
        before = capsys.readouterr().out
        path = str(tmp_path / "out" / "model.ckpt")
        self._set_layer_count(path, 1)
        assert load_checkpoint(path).config["num_attention_layers"] == 1
        assert main(["evaluate", "--config", run_config]) == 0
        assert capsys.readouterr().out == before

    @pytest.mark.parametrize("value", [2, 1.0, True])
    def test_other_layer_counts_in_a_checkpoint_exit_4(self, trained, capsys, value):
        run_config, tmp_path = trained
        self._set_layer_count(str(tmp_path / "out" / "model.ckpt"), value)
        capsys.readouterr()
        assert main(["evaluate", "--config", run_config]) == 4
        err = capsys.readouterr().err
        assert err.startswith("error category=parse") and err.count("\n") == 1
        assert "num_attention_layers is fixed at 1" in err

    @pytest.mark.parametrize("value", [5, [1, 2]], ids=["number", "two-entries"])
    def test_bad_loss_weights_in_a_checkpoint_exit_4(self, trained, capsys, value):
        run_config, tmp_path = trained
        path = str(tmp_path / "out" / "model.ckpt")
        ckpt = load_checkpoint(path)
        ckpt.config["loss_weights"] = value
        save_checkpoint(path, ckpt)
        capsys.readouterr()
        assert main(["evaluate", "--config", run_config]) == 4
        err = capsys.readouterr().err
        assert err.startswith("error category=parse: checkpoint ") and err.count("\n") == 1
        assert path in err and "loss_weights" in err

    def test_an_unknown_model_kind_in_a_checkpoint_exits_4(self, trained, capsys):
        # The checksum is written anew, so the file passes it and the kind
        # is refused when the model is rebuilt.
        run_config, tmp_path = trained
        path = str(tmp_path / "out" / "model.ckpt")
        ckpt = load_checkpoint(path)
        ckpt.kind = "xgboost"
        save_checkpoint(path, ckpt)
        capsys.readouterr()
        assert main(["evaluate", "--config", run_config]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error category=parse: unknown model kind in "
                                "checkpoint: 'xgboost'\n")

    def test_missing_checkpoint_exits_3(self, run_config, capsys):
        assert main(["evaluate", "--config", run_config,
                     "--checkpoint", "/nonexistent/model.ckpt"]) == 3
        assert "category=io" in capsys.readouterr().err

    def test_dataset_drift_exits_7(self, tmp_path, capsys):
        # A private dataset copy, trained on, then mutated before evaluation.
        root = tmp_path / "data"
        manifest = write_synthetic_dataset(str(root), seed=21)
        config = _write_config(tmp_path, manifest, name="drift.json")
        assert main(["train", "--config", config]) == 0
        with open(os.path.join(str(root), "ratings.tsv"), "a") as f:
            f.write("u0\ti1\t5\t9999\n")
        assert main(["evaluate", "--config", config]) == 7
        assert "category=manifest-drift" in capsys.readouterr().err

    def test_the_split_method_comes_from_the_checkpoint(self, trained,
                                                         synthetic_manifest, capsys):
        # The checkpoint was trained on the random split; a run config that
        # says split_by_time must not re-split the data under it.
        run_config, tmp_path = trained
        assert load_checkpoint(str(tmp_path / "out" / "model.ckpt")).meta[
            "split_by_time"] is False
        manifest = DatasetManifest.from_file(synthetic_manifest)
        assert not np.array_equal(build_dataset(manifest, 3).split.test.ratings,
                                  build_dataset(manifest, 3, by_time=True).split.test.ratings)
        report = tmp_path / "out" / "eval_test.json"
        capsys.readouterr()
        assert main(["evaluate", "--config", run_config]) == 0
        expected = capsys.readouterr().out, report.read_bytes()
        by_time = _write_config(tmp_path, synthetic_manifest, name="by_time.json",
                                split_by_time=True)
        assert main(["evaluate", "--config", by_time]) == 0
        assert (capsys.readouterr().out, report.read_bytes()) == expected


class TestCheckpointMeta:
    """evaluate, predict and attention rebuild the split from the seed and
    the split method in the checkpoint's meta; a meta that is not a JSON
    object, has no integer seed or a `split_by_time` that is not a JSON bool,
    is a parse error naming the file."""

    @pytest.mark.parametrize("edit", [
        lambda meta: {}, lambda meta: {k: v for k, v in meta.items() if k != "seed"},
        lambda meta: [], lambda meta: {**meta, "seed": "x"},
        lambda meta: {**meta, "seed": 1.5}, lambda meta: {**meta, "seed": True},
        lambda meta: {**meta, "seed": None},
        lambda meta: {**meta, "split_by_time": "false"},
        lambda meta: {**meta, "split_by_time": 0},
        lambda meta: {**meta, "split_by_time": None}],
        ids=["empty", "no-seed", "list", "string-seed", "float-seed", "bool-seed",
             "null-seed", "string-split-by-time", "int-split-by-time",
             "null-split-by-time"])
    @pytest.mark.parametrize("command", ["evaluate", "predict", "attention"])
    def test_exits_4_with_one_line(self, trained, capsys, command, edit):
        run_config, tmp_path = trained
        path = str(tmp_path / "out" / "model.ckpt")
        ckpt = load_checkpoint(path)
        ckpt.meta = edit(ckpt.meta)
        save_checkpoint(path, ckpt)
        pair = [] if command == "evaluate" else ["--user", "u0", "--item", "i1"]
        capsys.readouterr()
        assert main([command, "--config", run_config] + pair) == 4
        err = capsys.readouterr().err
        assert err.startswith("error category=parse: ") and err.count("\n") == 1
        assert path in err


    @pytest.mark.parametrize("seed", [1.5, True])
    def test_seed_message(self, trained, capsys, seed):
        run_config, tmp_path = trained
        path = str(tmp_path / "out" / "model.ckpt")
        ckpt = load_checkpoint(path)
        ckpt.meta["seed"] = seed
        save_checkpoint(path, ckpt)
        capsys.readouterr()
        assert main(["evaluate", "--config", run_config]) == 4
        assert capsys.readouterr().err == (f"error category=parse: checkpoint meta "
                                           f"has no integer seed: {path}\n")


class TestNonFiniteCheckpointNumbers:
    """Python's json reads NaN and Infinity. A BiasedMF checkpoint whose
    `mu` was Infinity evaluated with exit 0, every score clipped to 5.0; an
    optimizer rate of NaN loaded too."""

    @pytest.mark.parametrize("edit", [
        lambda ckpt: ckpt.layout.update(mu=float("inf")),
        lambda ckpt: ckpt.layout.update(mu=float("nan")),
        lambda ckpt: ckpt.layout.update(mu=float("-inf")),
        lambda ckpt: ckpt.adam.update(beta1=float("nan")),
        lambda ckpt: ckpt.adam.update(eps=float("inf"))],
        ids=["mu-infinity", "mu-nan", "mu-minus-infinity", "beta1-nan", "eps-infinity"])
    @pytest.mark.parametrize("command", ["evaluate", "predict"])
    def test_exit_4_with_one_line(self, run_config, tmp_path, capsys, edit, command):
        assert main(["train", "--config", run_config, "--model", "biasedmf",
                     "--output-dir", "mf"]) == 0
        path = str(tmp_path / "mf" / "model.ckpt")
        ckpt = load_checkpoint(path)
        edit(ckpt)
        save_checkpoint(path, ckpt)
        pair = [] if command == "evaluate" else ["--user", "u0", "--item", "i1"]
        capsys.readouterr()
        assert main([command, "--config", run_config, "--output-dir", "mf"] + pair) == 4
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.count("\n") == 1
        assert captured.err.startswith("error category=parse: checkpoint ")
        assert path in captured.err

    # A NaN or an infinity in the payload loaded, and the command printed
    # numpy's RuntimeWarnings and reported NaN with exit 0.
    @pytest.mark.parametrize("edit, name", [
        (lambda ckpt: ckpt.tensors["embeddings"].__setitem__((0, 0), np.nan),
         "tensor/embeddings"),
        (lambda ckpt: ckpt.tensors["cf_item"].__setitem__((3, 1), -np.inf),
         "tensor/cf_item"),
        (lambda ckpt: ckpt.stats["bn_var"].__setitem__(2, np.inf), "stat/bn_var"),
        (lambda ckpt: ckpt.adam["v"]["agg_user_b"].__setitem__(0, np.nan),
         "adam_v/agg_user_b")],
        ids=["tensor-nan", "tensor-minus-infinity", "stat-infinity", "moment-nan"])
    @pytest.mark.parametrize("command", ["evaluate", "predict", "attention"])
    def test_a_payload_value_that_is_not_finite_exits_4(self, trained, capsys, edit,
                                                         name, command):
        run_config, tmp_path = trained
        path = str(tmp_path / "out" / "model.ckpt")
        ckpt = load_checkpoint(path)
        edit(ckpt)
        save_checkpoint(path, ckpt)
        pair = [] if command == "evaluate" else ["--user", "u0", "--item", "i1"]
        capsys.readouterr()
        assert main([command, "--config", run_config] + pair) == 4
        assert capsys.readouterr() == ("", f"error category=parse: checkpoint array "
                                           f"{name!r} holds a value that is not finite: "
                                           f"{path}\n")

    # Finite weights so large that the scores overflow: numpy printed
    # RuntimeWarnings and the command reported NaN with exit 0.
    @pytest.mark.parametrize("command", ["evaluate", "predict", "attention"])
    def test_weights_that_overflow_exit_6_with_one_line(self, trained, capsys, command):
        run_config, tmp_path = trained
        path = str(tmp_path / "out" / "model.ckpt")
        ckpt = load_checkpoint(path)
        ckpt.tensors["embeddings"][:] = 1e200
        save_checkpoint(path, ckpt)
        pair = [] if command == "evaluate" else ["--user", "u0", "--item", "i1"]
        capsys.readouterr()
        assert main([command, "--config", run_config] + pair) == 6
        assert capsys.readouterr() == ("", "error category=divergence: the checkpoint's "
                                           "scores are not finite: its weights overflow\n")

    def test_weights_that_overflow_a_biasedmf_score_exit_6(self, run_config, tmp_path,
                                                          capsys):
        assert main(["train", "--config", run_config, "--model", "biasedmf",
                     "--output-dir", "mf"]) == 0
        path = str(tmp_path / "mf" / "model.ckpt")
        ckpt = load_checkpoint(path)
        # Products of +inf and -inf sum to NaN, which clipping keeps.
        ckpt.tensors["user_factors"][:] = 1e200
        ckpt.tensors["item_factors"][:] = 1e200
        ckpt.tensors["item_factors"][:, 0] = -1e200
        save_checkpoint(path, ckpt)
        capsys.readouterr()
        for pair in ([], ["--user", "u0", "--item", "i1"]):
            command = "predict" if pair else "evaluate"
            assert main([command, "--config", run_config, "--output-dir", "mf"] + pair) == 6
            assert capsys.readouterr().err.startswith("error category=divergence: ")

    # Scores that overflow to +inf, not NaN: clipping served them as 5.0, and
    # the command printed a finite RMSE or score with exit 0.
    @pytest.mark.parametrize("kind, tables, command", [
        ("biasedmf", ("user_factors", "item_factors"), "evaluate"),
        ("biasedmf", ("user_factors", "item_factors"), "predict"),
        ("sain", ("cf_user", "cf_item"), "predict")],
        ids=["biasedmf-evaluate", "biasedmf-predict", "sain-predict"])
    def test_scores_that_overflow_to_infinity_exit_6(self, run_config, tmp_path, capsys,
                                                      kind, tables, command):
        assert main(["train", "--config", run_config, "--model", kind,
                     "--output-dir", kind]) == 0
        path = str(tmp_path / kind / "model.ckpt")
        ckpt = load_checkpoint(path)
        for name in tables:
            ckpt.tensors[name][:] = 1e200
        save_checkpoint(path, ckpt)
        pair = [] if command == "evaluate" else ["--user", "u0", "--item", "i1"]
        capsys.readouterr()
        assert main([command, "--config", run_config, "--output-dir", kind] + pair) == 6
        assert capsys.readouterr() == ("", "error category=divergence: the checkpoint's "
                                           "scores are not finite: its weights overflow\n")
        assert not (tmp_path / kind / "eval_test.json").exists()


class TestPredictCommand:
    def test_scores_one_pair(self, trained, capsys):
        run_config, _ = trained
        capsys.readouterr()
        assert main(["predict", "--config", run_config,
                     "--user", "u0", "--item", "i1"]) == 0
        line = capsys.readouterr().out
        assert line.startswith("score=")
        for key in ("score_content=", "score_preference=", "gate_user=",
                    "gate_item="):
            assert key in line
        score = float(line.split("score=")[1].split()[0])
        assert 1.0 <= score <= 5.0

    def test_unknown_user_exits_5(self, trained, capsys):
        run_config, _ = trained
        assert main(["predict", "--config", run_config,
                     "--user", "nobody", "--item", "i1"]) == 5
        assert "category=shape" in capsys.readouterr().err

    def test_unknown_item_exits_5(self, trained, capsys):
        run_config, _ = trained
        capsys.readouterr()
        assert main(["predict", "--config", run_config,
                     "--user", "u0", "--item", "nothing"]) == 5
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error category=shape: unknown item id 'nothing'\n"

    def test_biasedmf_prints_bare_score(self, run_config, tmp_path, capsys):
        assert main(["train", "--config", run_config, "--model", "biasedmf",
                     "--output-dir", "mf"]) == 0
        capsys.readouterr()
        assert main(["predict", "--config", run_config,
                     "--output-dir", "mf", "--user", "u0", "--item", "i1"]) == 0
        line = capsys.readouterr().out.strip()
        assert line.startswith("score=") and "gate" not in line


class TestAttentionCommand:
    def test_writes_one_csv_per_head(self, trained, capsys):
        run_config, tmp_path = trained
        assert main(["attention", "--config", run_config,
                     "--user", "u0", "--item", "i1"]) == 0
        for h in (0, 1):
            path = tmp_path / "out" / f"attention_head{h}.csv"
            assert path.exists()
            with open(path, newline="") as f:
                rows = list(csv.reader(f))
            assert rows[0] == ["field", "gender", "age", "genre", "tag"]
            assert len(rows) == 5
            weights = [float(v) for v in rows[1][1:]]
            assert abs(sum(weights) - 1.0) < 1e-9

    def test_unknown_user_exits_5(self, trained, capsys):
        run_config, tmp_path = trained
        capsys.readouterr()
        assert main(["attention", "--config", run_config, "--output-dir", "att",
                     "--checkpoint", str(tmp_path / "out" / "model.ckpt"),
                     "--user", "nobody", "--item", "i1"]) == 5
        err = capsys.readouterr().err
        assert err.startswith("error category=shape") and err.count("\n") == 1
        assert not (tmp_path / "att").exists()

    def test_requires_attention_model(self, run_config, tmp_path, capsys):
        assert main(["train", "--config", run_config, "--model", "biasedmf",
                     "--output-dir", "mf"]) == 0
        assert main(["attention", "--config", run_config, "--output-dir", "mf",
                     "--user", "u0", "--item", "i1"]) == 5


class TestSweepCommand:
    def test_writes_csv_with_contract_header(self, tmp_path, memo_manifest,
                                             capsys):
        config = _write_config(
            tmp_path, memo_manifest, name="sweep.json",
            model_config={"embed_dim": 8, "num_heads": 2, "dropout_rate": 0.0},
            train_config={"max_epochs": 1, "batch_size": 80, "seed": 0})
        assert main(["sweep-k", "--config", config, "--k-values", "1,4"]) == 0
        with open(tmp_path / "out" / "sweep_k.csv", newline="") as f:
            rows = list(csv.reader(f))
        assert rows[0] == ["k", "test_rmse", "test_mae"]
        assert [r[0] for r in rows[1:]] == ["1", "4"]
        out = capsys.readouterr().out
        assert "k=1" in out and "k=4" in out

    def test_repeats_print_each_ks_mean_and_std(self, tmp_path, memo_manifest,
                                                 capsys):
        config = _write_config(
            tmp_path, memo_manifest, name="sweep.json",
            model_config={"embed_dim": 8, "num_heads": 2, "dropout_rate": 0.0},
            train_config={"max_epochs": 1, "batch_size": 80, "seed": 0})
        assert main(["sweep-k", "--config", config, "--k-values", "1,4",
                     "--repeats", "2"]) == 0
        lines = capsys.readouterr().out.splitlines()
        rmse = {}
        for line in lines[:4]:
            k, repeat, test_rmse, _ = line.split()
            rmse.setdefault(k, []).append(float(test_rmse.removeprefix("test_rmse=")))
        assert {k: len(v) for k, v in rmse.items()} == {"k=1": 2, "k=4": 2}
        assert lines[4:] == [f"{k} mean_rmse={sain.training.fmt(np.mean(v))} "
                             f"std_rmse={sain.training.fmt(np.std(v))}"
                             for k, v in rmse.items()]

    def test_bad_k_values_exit_4(self, run_config, capsys):
        assert main(["sweep-k", "--config", run_config,
                     "--k-values", "2,banana"]) == 4
        assert "category=parse" in capsys.readouterr().err

    @pytest.mark.parametrize("k", ["0", "-2"])
    def test_k_values_below_one_exit_4(self, run_config, tmp_path, capsys,
                                        monkeypatch, k):
        def no_dataset(*args, **kwargs):
            raise AssertionError("the dataset was built")
        monkeypatch.setattr(sain.cli, "build_dataset", no_dataset)
        assert main(["sweep-k", "--config", run_config, "--k-values", k]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            f"error category=parse: --k-values must be >= 1, got {k}"]
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("k_values", [",", "", " , ,"],
                             ids=["comma", "empty", "spaces-and-commas"])
    def test_empty_k_values_exit_4(self, run_config, tmp_path, capsys, monkeypatch,
                                   k_values):
        def no_dataset(*args, **kwargs):
            raise AssertionError("the dataset was built")
        monkeypatch.setattr(sain.cli, "build_dataset", no_dataset)
        assert main(["sweep-k", "--config", run_config, "--k-values", k_values]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == ["error category=parse: --k-values is empty"]
        assert not (tmp_path / "out").exists()

    def test_requires_attention_model(self, run_config, capsys):
        assert main(["sweep-k", "--config", run_config, "--model", "biasedmf",
                     "--k-values", "2"]) == 5

    @pytest.mark.parametrize("repeats", ["0", "-3"])
    def test_repeats_below_one_exit_4(self, run_config, tmp_path, capsys, repeats):
        assert main(["sweep-k", "--config", run_config, "--k-values", "2",
                     "--repeats", repeats]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            f"error category=parse: --repeats must be >= 1, got {repeats}"]
        assert not (tmp_path / "out").exists()


class TestHeap:
    @pytest.mark.parametrize("command", ["train", "sweep-k", "evaluate", "predict",
                                         "attention", "gradcheck"])
    def test_every_command_keeps_the_heap_before_it_builds_the_dataset(
            self, trained, monkeypatch, command):
        run_config, _ = trained
        events, build = [], sain.cli.build_dataset

        def build_dataset(*args, **kwargs):
            events.append("build_dataset")
            return build(*args, **kwargs)

        monkeypatch.setattr(sain.cli, "keep_heap", lambda: events.append("keep_heap"))
        monkeypatch.setattr(sain.cli, "build_dataset", build_dataset)
        argv = {"train": ["--output-dir", "again"], "sweep-k": ["--k-values", "1"],
                "predict": ["--user", "u0", "--item", "i1"],
                "attention": ["--user", "u0", "--item", "i1"]}.get(command, [])
        if command == "gradcheck":
            assert main([command, "--seeds", "1"]) == 0
            assert events == ["keep_heap"]
            return
        assert main([command, "--config", run_config, *argv]) == 0
        assert events == ["keep_heap", "build_dataset"]


class TestGradcheckCommand:
    def test_reports_pass(self, capsys):
        assert main(["gradcheck", "--seeds", "2"]) == 0
        out = capsys.readouterr().out
        assert "status=pass" in out
        assert out.count("model=sain") == 2
        assert out.count("model=biasedmf") == 2

    @pytest.mark.parametrize("seeds", ["0", "-2"])
    def test_seeds_below_one_exit_4(self, capsys, seeds):
        assert main(["gradcheck", "--seeds", seeds]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            f"error category=parse: --seeds must be >= 1, got {seeds}"]


class TestTimingSidecar:
    def test_timing_file_is_separate_from_outputs(self, trained):
        _, tmp_path = trained
        with open(tmp_path / "out" / "train.timing.json") as f:
            payload = json.load(f)
        assert payload["command"] == "train"
        assert payload["wall_seconds"] >= 0.0
        with open(tmp_path / "out" / "training_log.csv") as f:
            epochs = len(f.readlines()) - 1
        assert [e["epoch"] for e in payload["epochs"]] == list(range(1, epochs + 1))
        assert all(e["train_seconds"] > 0.0 and e["eval_seconds"] > 0.0
                   for e in payload["epochs"])
        # Set-up, the epochs and the save are disjoint stretches of the run.
        assert payload["prepare_seconds"] > 0.0 and payload["save_seconds"] > 0.0
        assert payload["prepare_seconds"] + payload["save_seconds"] + sum(
            e["train_seconds"] + e["eval_seconds"]
            for e in payload["epochs"]) <= payload["wall_seconds"]
        meta = load_checkpoint(str(tmp_path / "out" / "model.ckpt")).meta
        assert payload["stop_reason"] == (
            "patience" if meta["stopped_early"] else "max_epochs")

    def test_a_diverged_run_writes_its_timing_and_nothing_else(self, run_config,
                                                              tmp_path, capsys):
        # It exited 6 and left no record of where its time went or why it
        # stopped.
        assert main(["train", "--config", run_config, "--learning-rate", "1e3",
                     "--weight-decay", "0", "--max-epochs", "50", "--patience", "50",
                     "--output-dir", "diverged"]) == 6
        captured = capsys.readouterr()
        assert captured.out == ""
        assert re.fullmatch(r"error category=divergence: training diverged at "
                            r"epoch \d+: loss=\S+\n", captured.err)
        assert os.listdir(tmp_path / "diverged") == ["train.timing.json"]
        with open(tmp_path / "diverged" / "train.timing.json") as f:
            payload = json.load(f)
        assert sorted(payload) == ["command", "prepare_seconds", "stop_reason",
                                   "wall_seconds"]
        assert payload["command"] == "train"
        assert payload["stop_reason"] == "divergence"
        assert 0.0 < payload["prepare_seconds"] <= payload["wall_seconds"]

    def test_checkpoint_commands_time_their_set_up(self, trained):
        # Loading the checkpoint, rebuilding the data and the drift check.
        run_config, tmp_path = trained
        outputs = {name: (tmp_path / "out" / name).read_bytes()
                   for name in ("training_log.csv", "model.ckpt")}
        assert main(["evaluate", "--config", run_config]) == 0
        assert main(["attention", "--config", run_config, "--user", "u0",
                     "--item", "i1"]) == 0
        for command in ("evaluate", "attention"):
            with open(tmp_path / "out" / f"{command}.timing.json") as f:
                payload = json.load(f)
            assert payload["command"] == command
            assert 0.0 < payload["prepare_seconds"] <= payload["wall_seconds"]
        assert outputs == {name: (tmp_path / "out" / name).read_bytes()
                           for name in outputs}
