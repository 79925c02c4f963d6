"""Command-line interface tests: the run-config loader, every subcommand's
outputs and exit codes, flag overrides, and deterministic reruns."""

import csv
import json
import os
import subprocess
import sys

import pytest

import sain
from sain.cli import RunManifest, main

from conftest import write_synthetic_dataset


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
        ("model_config", "loss_weights", [1.0, -1.0, 1.0])])
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
         "parse", "{root}/ratings.tsv line 272: timestamp outside the int64 range")],
        ids=["ratings-directory", "feature-directory", "ratings-not-utf8",
             "feature-not-utf8", "timestamp-overflow"])
    def test_one_error_line_and_exit_code(self, tmp_path, capsys, edit, code,
                                          category, needle):
        config = _broken_dataset(tmp_path, edit)
        assert main(["train", "--config", config]) == code
        err = capsys.readouterr().err
        assert err.startswith(f"error category={category}: ")
        assert needle.format(root=tmp_path / "data") in err
        assert err.count("\n") == 1
        assert not (tmp_path / "out").exists()


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

    def test_biasedmf_prints_bare_score(self, run_config, tmp_path, capsys):
        assert main(["train", "--config", run_config, "--model", "biasedmf",
                     "--output-dir", "mf"]) == 0
        capsys.readouterr()
        assert main(["predict", "--config", run_config, "--model", "biasedmf",
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

    def test_bad_k_values_exit_4(self, run_config, capsys):
        assert main(["sweep-k", "--config", run_config,
                     "--k-values", "2,banana"]) == 4
        assert "category=parse" in capsys.readouterr().err

    def test_requires_attention_model(self, run_config, capsys):
        assert main(["sweep-k", "--config", run_config, "--model", "biasedmf",
                     "--k-values", "2"]) == 5


class TestGradcheckCommand:
    def test_reports_pass(self, capsys):
        assert main(["gradcheck", "--seeds", "2"]) == 0
        out = capsys.readouterr().out
        assert "status=pass" in out
        assert out.count("model=sain") == 2
        assert out.count("model=biasedmf") == 2


class TestTimingSidecar:
    def test_timing_file_is_separate_from_outputs(self, trained):
        _, tmp_path = trained
        with open(tmp_path / "out" / "train.timing.json") as f:
            payload = json.load(f)
        assert payload["command"] == "train"
        assert payload["wall_seconds"] >= 0.0
