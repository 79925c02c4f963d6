"""Training-loop tests: metrics, early stopping semantics driven by a scripted
engine, divergence detection, deterministic logs, evaluation, the top-K sweep,
attention export, and model serialization."""

import csv
import math
import os

import numpy as np
import pytest

from sain.errors import DivergenceError, ParseError, ShapeError
from sain import training
from sain.checkpoint import load_checkpoint, save_checkpoint
from sain.model import ModelConfig
from sain.seeding import derive_seed
from sain.training import (EpochLog, EvalReport, TrainConfig, attention_matrices,
                           clip_ratings, evaluate_sain, fmt, load_model,
                           predict_sain, rmse_mae, run_training, save_model,
                           sweep_top_k, train_sain, write_attention_csv,
                           write_sweep_csv, write_training_log)

from conftest import small_params


class TestMetrics:
    def test_rmse_mae_hand_values(self):
        rmse, mae = rmse_mae(np.asarray([5.0, 3.0]), np.asarray([2.0, 3.0]))
        assert math.isclose(rmse, math.sqrt(9.0 / 2.0), rel_tol=1e-15)
        assert math.isclose(mae, 1.5, abs_tol=1e-15)

    def test_cancelling_errors_separate_the_metrics(self):
        rmse, mae = rmse_mae(np.asarray([2.0, 0.0]), np.asarray([1.0, 1.0]))
        assert rmse == 1.0 and mae == 1.0
        rmse, mae = rmse_mae(np.asarray([3.0, 1.0]), np.asarray([1.0, 1.0]))
        assert math.isclose(rmse, math.sqrt(2.0), rel_tol=1e-15)
        assert math.isclose(mae, 1.0, abs_tol=1e-15)

    def test_perfect_prediction_is_zero(self):
        assert rmse_mae(np.ones(5), np.ones(5)) == (0.0, 0.0)

    def test_mae_never_exceeds_rmse(self):
        rng = np.random.default_rng(42)
        for _ in range(200):
            n = int(rng.integers(1, 50))
            pred = rng.uniform(1.0, 5.0, size=n)
            truth = rng.uniform(1.0, 5.0, size=n)
            rmse, mae = rmse_mae(pred, truth)
            assert mae <= rmse + 1e-12

    def test_validation(self):
        with pytest.raises(ShapeError):
            rmse_mae(np.ones(3), np.ones(4))
        with pytest.raises(ValueError):
            rmse_mae(np.asarray([]), np.asarray([]))

    def test_clip_ratings(self):
        np.testing.assert_array_equal(clip_ratings(np.asarray([0.5, 3.0, 7.0])),
                                      [1.0, 3.0, 5.0])

    def test_fmt_is_shortest_round_trip(self):
        assert fmt(0.1) == "0.1"
        assert fmt(2.0) == "2.0"
        assert fmt(1.0 / 3.0) == repr(1.0 / 3.0)
        assert float(fmt(math.pi)) == math.pi


class TestTrainConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(batch_size=0)
        with pytest.raises(ValueError):
            TrainConfig(patience=0)

    @pytest.mark.parametrize("field, value", [
        ("learning_rate", float("nan")), ("learning_rate", float("inf")),
        ("learning_rate", 0.0), ("learning_rate", -1e-3),
        ("weight_decay", -1e-4), ("weight_decay", float("nan")),
        ("weight_decay", float("inf")),
        ("min_delta", float("nan")), ("min_delta", float("inf")),
        ("min_delta", float("-inf"))])
    def test_rejects_non_finite_and_out_of_range_floats(self, field, value):
        with pytest.raises(ValueError, match=field):
            TrainConfig(**{field: value})

    @pytest.mark.parametrize("field, value", [
        ("batch_size", 64.0), ("max_epochs", True), ("patience", 2.5),
        ("seed", 1.0), ("seed", False)])
    def test_integer_fields_reject_floats_and_bools(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            TrainConfig(**{field: value})

    @pytest.mark.parametrize("field, value", [
        ("learning_rate", "0.1"), ("weight_decay", True), ("min_delta", None)])
    def test_float_fields_reject_non_numbers(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be a number"):
            TrainConfig(**{field: value})

    def test_accepts_boundary_floats(self):
        TrainConfig(learning_rate=1e-12, weight_decay=0.0, min_delta=-0.5)

    def test_dict_round_trip(self):
        tcfg = TrainConfig(learning_rate=0.01, max_epochs=7, seed=3)
        assert TrainConfig.from_dict(tcfg.to_dict()) == tcfg


class _Marker:
    """Stand-in params object whose clones remember when they were taken."""

    def __init__(self, tag):
        self.tag = tag

    def clone(self):
        return _Marker(self.tag)


class ScriptedEngine:
    """Engine double that replays a fixed validation-RMSE sequence, for exact
    tests of the early-stopping and snapshot bookkeeping."""

    kind = "scripted"

    def __init__(self, val_sequence, losses=None):
        self.val_sequence = list(val_sequence)
        self.losses = losses
        self.epoch = 0
        self.params = _Marker(("live", None))
        self.steps = 0

    @property
    def n_train(self):
        return 4

    def step(self, idx):
        self.steps += 1
        loss = 0.5 if self.losses is None else self.losses[self.epoch]
        return loss, (None, None, loss)

    def evaluate(self, split):
        rmse = self.val_sequence[self.epoch]
        self.epoch += 1
        return EvalReport(rmse=rmse, mae=rmse / 2.0, count=4)

    def snapshot(self):
        return _Marker(("snap", self.epoch)), {}


class TestEarlyStopping:
    def test_stops_after_patience_bad_epochs(self):
        engine = ScriptedEngine([1.0, 0.9, 0.95, 0.96, 0.97])
        result = run_training(engine, TrainConfig(max_epochs=50, patience=2,
                                                  batch_size=2))
        assert result.stopped_early
        assert len(result.history) == 4
        assert result.best_epoch == 2
        assert result.best_val_rmse == 0.9
        assert result.params.tag == ("snap", 2)

    def test_patience_one_stops_on_first_non_improvement(self):
        engine = ScriptedEngine([1.0, 1.1, 0.5])
        result = run_training(engine, TrainConfig(max_epochs=50, patience=1,
                                                  batch_size=2))
        assert result.stopped_early and len(result.history) == 2
        assert result.best_epoch == 1

    def test_improvement_resets_the_counter(self):
        engine = ScriptedEngine([1.0, 1.05, 0.8, 0.85, 0.86, 0.9])
        result = run_training(engine, TrainConfig(max_epochs=50, patience=3,
                                                  batch_size=2))
        assert result.stopped_early and len(result.history) == 6
        assert result.best_epoch == 3 and result.best_val_rmse == 0.8

    def test_min_delta_requires_material_improvement(self):
        engine = ScriptedEngine([1.0, 0.999])
        result = run_training(engine, TrainConfig(max_epochs=50, patience=1,
                                                  batch_size=2, min_delta=0.01))
        assert result.stopped_early and result.best_epoch == 1

    def test_runs_to_max_epochs_when_improving(self):
        engine = ScriptedEngine([1.0, 0.9, 0.8])
        result = run_training(engine, TrainConfig(max_epochs=3, patience=2,
                                                  batch_size=2))
        assert not result.stopped_early
        assert len(result.history) == 3
        assert result.best_val_rmse == min(e.val_rmse for e in result.history)

    def test_final_params_come_from_the_live_engine(self):
        engine = ScriptedEngine([1.0, 0.9, 0.95])
        result = run_training(engine, TrainConfig(max_epochs=2, patience=5,
                                                  batch_size=2))
        assert result.params.tag == ("snap", 2)
        assert result.final_params.tag == ("live", None)

    def test_batches_cover_the_training_set(self):
        engine = ScriptedEngine([1.0, 0.9])
        run_training(engine, TrainConfig(max_epochs=2, patience=5, batch_size=3))
        # 4 rows with batch size 3 make 2 steps per epoch.
        assert engine.steps == 4


class TestDivergence:
    def test_runaway_loss_aborts_with_epoch(self):
        engine = ScriptedEngine([1.0], losses=[2e8])
        with pytest.raises(DivergenceError, match="epoch 1"):
            run_training(engine, TrainConfig(max_epochs=5, batch_size=4))

    def test_non_finite_loss_aborts(self):
        engine = ScriptedEngine([1.0], losses=[float("nan")])
        with pytest.raises(DivergenceError):
            run_training(engine, TrainConfig(max_epochs=5, batch_size=4))

    def test_absurd_learning_rate_diverges_in_training(self, memo_data):
        mcfg = ModelConfig(embed_dim=8, num_heads=2, top_k=4, dropout_rate=0.0)
        tcfg = TrainConfig(learning_rate=1e3, weight_decay=0.0, batch_size=80,
                           max_epochs=50, patience=50, seed=0)
        with pytest.raises(DivergenceError):
            train_sain(memo_data, mcfg, tcfg)


class TestLogs:
    def test_training_log_format_and_blanks(self, tmp_path):
        history = [EpochLog(1, 0.5, None, 0.25, 1.5, 1.0),
                   EpochLog(2, None, None, 0.125, 1.25, 0.75)]
        path = str(tmp_path / "log.csv")
        write_training_log(path, history)
        with open(path, newline="") as f:
            rows = list(csv.reader(f))
        assert rows[0] == ["epoch", "loss_content", "loss_preference",
                           "loss_combined", "val_rmse", "val_mae"]
        assert rows[1] == ["1", "0.5", "", "0.25", "1.5", "1.0"]
        assert rows[2] == ["2", "", "", "0.125", "1.25", "0.75"]

    def test_sweep_csv_header_and_rows(self, tmp_path):
        path = str(tmp_path / "sweep.csv")
        write_sweep_csv(path, [{"k": 2, "test_rmse": 1.5, "test_mae": 1.0}])
        with open(path, newline="") as f:
            rows = list(csv.reader(f))
        assert rows == [["k", "test_rmse", "test_mae"], ["2", "1.5", "1.0"]]

    def test_attention_csv_is_labeled_square(self, tmp_path):
        path = str(tmp_path / "attn.csv")
        matrix = np.asarray([[0.75, 0.25], [0.5, 0.5]])
        write_attention_csv(path, matrix, ["gender", "genre"])
        with open(path, newline="") as f:
            rows = list(csv.reader(f))
        assert rows[0] == ["field", "gender", "genre"]
        assert rows[1] == ["gender", "0.75", "0.25"]
        assert rows[2] == ["genre", "0.5", "0.5"]


def _quick_train(prepared, seed=0, max_epochs=2, **cfg):
    defaults = dict(embed_dim=8, num_heads=2, top_k=2, dropout_rate=0.1)
    defaults.update(cfg)
    mcfg = ModelConfig(**defaults)
    tcfg = TrainConfig(max_epochs=max_epochs, batch_size=64, seed=seed)
    return train_sain(prepared, mcfg, tcfg), mcfg, tcfg


class TestTrainSain:
    def test_history_and_snapshot_cover_every_epoch(self, prepared):
        result, _, _ = _quick_train(prepared, max_epochs=3)
        assert [e.epoch for e in result.history] == [1, 2, 3]
        for e in result.history:
            assert e.loss_content is not None and e.loss_preference is not None
            assert np.isfinite(e.val_rmse) and np.isfinite(e.val_mae)
        assert 1 <= result.best_epoch <= 3

    def test_same_seed_is_bit_identical(self, prepared):
        a, _, _ = _quick_train(prepared, seed=5)
        b, _, _ = _quick_train(prepared, seed=5)
        np.testing.assert_array_equal(a.params.flatten(), b.params.flatten())
        np.testing.assert_array_equal(a.params.bn_mean, b.params.bn_mean)
        assert [e.loss_combined for e in a.history] == [e.loss_combined
                                                        for e in b.history]

    def test_different_seed_differs(self, prepared):
        a, _, _ = _quick_train(prepared, seed=5)
        b, _, _ = _quick_train(prepared, seed=6)
        assert not np.array_equal(a.params.flatten(), b.params.flatten())

    def test_training_reduces_combined_loss(self, memo_data):
        mcfg = ModelConfig(embed_dim=16, num_heads=2, top_k=4, dropout_rate=0.0)
        tcfg = TrainConfig(learning_rate=1e-3, weight_decay=0.0, batch_size=80,
                           max_epochs=40, patience=40, seed=0)
        result = train_sain(memo_data, mcfg, tcfg)
        losses = [e.loss_combined for e in result.history]
        assert losses[-1] < losses[0]

    def test_full_batch_loss_is_monotone_at_small_learning_rate(self, memo_data):
        mcfg = ModelConfig(embed_dim=16, num_heads=2, top_k=4, dropout_rate=0.0)
        tcfg = TrainConfig(learning_rate=1e-3, weight_decay=0.0, batch_size=80,
                           max_epochs=200, patience=200, seed=0)
        result = train_sain(memo_data, mcfg, tcfg)
        losses = [e.loss_combined for e in result.history]
        assert all(b <= a + 1e-9 for a, b in zip(losses, losses[1:]))


class TestKeepHeap:
    class _Mallopt:
        """Stands in for the C function: records calls and ctypes settings."""

        def __init__(self):
            self.calls = []

        def __call__(self, param, value):
            self.calls.append((param, value))
            return 1

    def test_sets_mmap_then_trim_threshold(self, monkeypatch):
        libc = type("Libc", (), {})()
        libc.mallopt = self._Mallopt()
        monkeypatch.setattr(training.ctypes, "CDLL", lambda name: libc)
        training.keep_heap()
        assert libc.mallopt.calls == [(-3, 32 << 20), (-1, 256 << 20)]
        assert libc.mallopt.argtypes == [training.ctypes.c_int, training.ctypes.c_int]

    def test_no_op_without_mallopt(self, monkeypatch):
        monkeypatch.setattr(training.ctypes, "CDLL", lambda name: object())
        training.keep_heap()

        def no_library(name):
            raise OSError("no C library")

        monkeypatch.setattr(training.ctypes, "CDLL", no_library)
        training.keep_heap()

    def test_runs_on_this_platform_and_when_each_engine_is_built(self, prepared,
                                                                 monkeypatch):
        training.keep_heap()
        built = []
        monkeypatch.setattr(training, "keep_heap", lambda: built.append(1))
        training.SainEngine(prepared, small_params(prepared, seed=1)[0], TrainConfig())
        from sain.baseline import MfParams
        mf = MfParams.init(prepared.num_users, prepared.num_items, 2, 3.0,
                           np.random.default_rng(0))
        training.MfEngine(prepared, mf, TrainConfig())
        assert built == [1, 1]


class TestEvaluate:
    def test_report_structure_and_idempotence(self, prepared):
        result, _, _ = _quick_train(prepared)
        a = evaluate_sain(result.params, prepared, "test")
        b = evaluate_sain(result.params, prepared, "test")
        assert set(a.detail) == {"content", "preference", "combined"}
        assert a.detail["combined"] == (a.rmse, a.mae)
        assert a.count == len(prepared.split.test)
        assert (a.rmse, a.mae) == (b.rmse, b.mae)
        assert a.mae <= a.rmse + 1e-12

    def test_served_score_is_clipped(self, prepared):
        # Blow up the CF tables (and pin the gates at an even blend) so raw
        # combined scores leave [1, 5]; the headline metric must reflect the
        # clipped prediction.
        result, _, _ = _quick_train(prepared)
        params = result.params.clone()
        params.tensors["cf_user"][:] = 30.0
        params.tensors["cf_item"][:] = 30.0
        params.tensors["gate_user_w"][:] = 0.0
        params.tensors["gate_item_w"][:] = 0.0
        report = evaluate_sain(params, prepared, "test")
        ratings = np.asarray(prepared.split.test.ratings)
        want_rmse, want_mae = rmse_mae(np.full(ratings.shape, 5.0), ratings)
        assert math.isclose(report.rmse, want_rmse, rel_tol=1e-12)
        assert math.isclose(report.mae, want_mae, rel_tol=1e-12)
        # The preference diagnostic stays unclipped and therefore huge.
        assert report.detail["preference"][0] > 100.0

    def test_predict_rows_carry_gates(self, prepared):
        result, _, _ = _quick_train(prepared)
        rows = predict_sain(result.params, prepared, np.asarray([0, 1]),
                            np.asarray([1, 0]))
        assert len(rows) == 2
        for row in rows:
            assert 1.0 <= row["score"] <= 5.0
            assert 0.0 < row["gate_user"] < 1.0
            assert 0.0 < row["gate_item"] < 1.0


class TestSweep:
    def test_rows_share_the_base_seed(self, memo_data):
        mcfg = ModelConfig(embed_dim=8, num_heads=2, top_k=2, dropout_rate=0.0)
        tcfg = TrainConfig(max_epochs=2, batch_size=80, seed=9)
        rows = sweep_top_k(memo_data, mcfg, tcfg, [1, 4])
        assert [r["k"] for r in rows] == [1, 4]
        assert all(r["seed"] == 9 and r["repeat"] == 0 for r in rows)

    def test_sweep_matches_direct_training(self, memo_data):
        mcfg = ModelConfig(embed_dim=8, num_heads=2, top_k=2, dropout_rate=0.0)
        tcfg = TrainConfig(max_epochs=2, batch_size=80, seed=9)
        rows = sweep_top_k(memo_data, mcfg, tcfg, [4])
        direct = train_sain(memo_data,
                            ModelConfig.from_dict({**mcfg.to_dict(), "top_k": 4}),
                            tcfg)
        report = evaluate_sain(direct.params, memo_data, "test")
        assert rows[0]["test_rmse"] == report.rmse
        assert rows[0]["test_mae"] == report.mae

    def test_repeats_derive_new_seeds(self, memo_data):
        mcfg = ModelConfig(embed_dim=8, num_heads=2, top_k=2, dropout_rate=0.0)
        tcfg = TrainConfig(max_epochs=1, batch_size=80, seed=9)
        rows = sweep_top_k(memo_data, mcfg, tcfg, [2], repeats=2)
        assert rows[0]["seed"] == 9
        assert rows[1]["seed"] == derive_seed(9, "sweep", 1)
        assert rows[1]["seed"] != 9

    def test_invalid_k_rejected(self, memo_data):
        with pytest.raises(ValueError):
            sweep_top_k(memo_data, ModelConfig(embed_dim=8), TrainConfig(), [0])


class TestAttentionExport:
    def test_one_square_matrix_per_head(self, prepared):
        params, cfg = small_params(prepared, seed=50, num_heads=2)
        mats = attention_matrices(params, prepared.user_features[0],
                                  prepared.item_features[0])
        S = params.layout.seq_len
        assert len(mats) == 2
        for mat in mats:
            assert mat.shape == (S, S)
            np.testing.assert_allclose(mat.sum(axis=1), np.ones(S), atol=1e-9)

    def test_matrices_are_pre_filter(self, prepared):
        # Even with top-K at 1 the export keeps full dense rows.
        params, cfg = small_params(prepared, seed=51, top_k=1)
        mats = attention_matrices(params, prepared.user_features[1],
                                  prepared.item_features[1])
        assert all((mat > 0.0).all() for mat in mats)


class TestModelSerialization:
    def test_sain_round_trip(self, prepared, tmp_path):
        result, _, _ = _quick_train(prepared)
        path = str(tmp_path / "m.ckpt")
        save_model(path, "sain", result.params, result.adam, meta={"seed": 0})
        kind, params, adam, meta = load_model(path)
        assert kind == "sain" and meta == {"seed": 0}
        np.testing.assert_array_equal(params.flatten(), result.params.flatten())
        np.testing.assert_array_equal(params.bn_mean, result.params.bn_mean)
        np.testing.assert_array_equal(params.bn_var, result.params.bn_var)
        for name, state in result.adam.items():
            assert adam[name].t == state.t
            np.testing.assert_array_equal(adam[name].m, state.m)
            np.testing.assert_array_equal(adam[name].v, state.v)

    def test_biasedmf_round_trip(self, prepared, tmp_path):
        from sain.training import train_biasedmf
        result = train_biasedmf(prepared, dim=4, tcfg=TrainConfig(max_epochs=2))
        path = str(tmp_path / "m.ckpt")
        save_model(path, "biasedmf", result.params, result.adam)
        kind, params, _, _ = load_model(path)
        assert kind == "biasedmf"
        assert params.mu == result.params.mu
        assert (params.num_users, params.num_items, params.dim) == (
            result.params.num_users, result.params.num_items, result.params.dim)
        np.testing.assert_array_equal(params.flatten(), result.params.flatten())

    def test_loaded_params_are_one_arena_with_the_saved_moments(self, prepared,
                                                                tmp_path):
        result, _, _ = _quick_train(prepared)
        path = str(tmp_path / "m.ckpt")
        save_model(path, "sain", result.params, result.adam)
        _, params, adam, _ = load_model(path)
        assert all(np.shares_memory(t, params.flat) for t in params.tensors.values())
        assert params.t == result.params.t > 0
        np.testing.assert_array_equal(params.m, result.params.m)
        np.testing.assert_array_equal(params.v, result.params.v)
        assert all(np.shares_memory(s.m, params.m) for s in adam.values())

    @staticmethod
    def _edited(path, edit):
        ckpt = load_checkpoint(path)
        edit(ckpt)
        save_checkpoint(path, ckpt)

    @pytest.mark.parametrize("edit, message", [
        (lambda c: c.tensors.pop("gate_user_b"), "tensors do not match"),
        (lambda c: c.tensors.update(embeddings=c.tensors["embeddings"][1:]),
         r"tensors do not match its layout \(embeddings"),
        (lambda c: c.tensors.update(cf_user=c.tensors.pop("cf_user")),
         "tensors do not match its layout"),
        (lambda c: c.config.update(embed_dim=4), "do not match its layout"),
        (lambda c: c.stats.pop("bn_var"), "stats do not match"),
        (lambda c: c.adam["m"].update(bn_beta=np.zeros(3)), "wrong shape"),
        (lambda c: c.adam["t"].update(bn_beta=1), "optimizer state unusable"),
        (lambda c: c.adam["t"].pop("bn_beta"), "optimizer state"),
        (lambda c: c.layout.pop("num_items"), "layout, config"),
        (lambda c: c.config.update(top_k=2.0), "layout, config")],
        ids=["missing-tensor", "short-table", "reordered", "config-shape",
             "missing-stat", "moment-shape", "t-out-of-step", "t-missing",
             "layout-key", "config-type"])
    def test_sain_checkpoint_must_match_its_layout(self, prepared, tmp_path,
                                                   edit, message):
        result, _, _ = _quick_train(prepared)
        path = str(tmp_path / "m.ckpt")
        save_model(path, "sain", result.params, result.adam)
        self._edited(path, edit)
        with pytest.raises(ParseError, match=message):
            load_model(path)

    @pytest.mark.parametrize("edit", [
        lambda c: c.layout.update(num_users=c.layout["num_users"] + 1),
        lambda c: c.layout.update(dim=3),
        lambda c: c.layout.pop("mu")], ids=["num-users", "dim", "no-mu"])
    def test_biasedmf_checkpoint_must_match_its_layout(self, prepared, tmp_path,
                                                       edit):
        from sain.training import train_biasedmf
        result = train_biasedmf(prepared, dim=4, tcfg=TrainConfig(max_epochs=1))
        path = str(tmp_path / "m.ckpt")
        save_model(path, "biasedmf", result.params, result.adam)
        self._edited(path, edit)
        with pytest.raises(ParseError):
            load_model(path)

    def test_unknown_kind_rejected(self, prepared, tmp_path):
        result, _, _ = _quick_train(prepared)
        with pytest.raises(ValueError):
            save_model(str(tmp_path / "m.ckpt"), "mystery", result.params)
