"""Training-loop tests: metrics, early stopping semantics driven by a scripted
engine, divergence detection, deterministic logs, evaluation, the top-K sweep,
attention export, and model serialization."""

import csv
import dataclasses
import hashlib
import math
import os
import re
import tracemalloc

import numpy as np
import pytest

from sain.errors import DivergenceError, ParseError, ShapeError
from sain import training
from sain.checkpoint import load_checkpoint, save_checkpoint
from sain.model import L2_SCOPES, ModelConfig, backward, decayed_names, forward_batch
from sain.seeding import derive_seed
from sain.tensor import adam_step, sorted_distinct
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
        assert TrainConfig(**dataclasses.asdict(tcfg)) == tcfg


class _Marker:
    """Stand-in params object whose clones remember when they were taken."""

    def __init__(self, tag):
        self.tag = tag

    def clone(self):
        return _Marker(self.tag)

    def optimizer_state(self):
        return {"tag": self.tag}


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
        return _Marker(("snap", self.epoch))


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

    @pytest.mark.parametrize("sequence, reason", [([1.0, 1.1, 1.2], "patience"),
                                                  ([1.0, 0.9, 0.8], "max_epochs")])
    def test_stop_reason_and_one_clock_reading_per_epoch(self, sequence, reason):
        engine = ScriptedEngine(sequence)
        result = run_training(engine, TrainConfig(max_epochs=3, patience=2,
                                                  batch_size=2))
        assert result.stop_reason == reason
        assert len(result.epoch_seconds) == len(result.history)
        assert all(train_s >= 0.0 and eval_s >= 0.0
                   for train_s, eval_s in result.epoch_seconds)

    def test_final_params_come_from_the_live_engine(self):
        engine = ScriptedEngine([1.0, 0.9, 0.95])
        result = run_training(engine, TrainConfig(max_epochs=2, patience=5,
                                                  batch_size=2))
        assert result.params.tag == ("snap", 2)
        assert result.adam == {"tag": ("snap", 2)}
        assert result.final_params.tag == ("live", None)
        assert result.final_params is engine.params

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


class TestEntityRows:
    """Both engines hand adam_step the batch's distinct ids as `rows` for
    the tables indexed by entity id; two epochs end with the bits of the
    dense update, which leaves `rows` out."""

    @staticmethod
    def _train(prepared, kind, monkeypatch, dense):
        given = []
        adam_step = training.adam_step

        def recording(*args, rows=None, **kwargs):
            given.append(rows is not None)
            adam_step(*args, rows=None if dense else rows, **kwargs)

        monkeypatch.setattr(training, "adam_step", recording)
        tcfg = TrainConfig(learning_rate=0.01, max_epochs=2, patience=5,
                           batch_size=16, seed=4)
        if kind == "sain":
            mcfg = ModelConfig(embed_dim=8, num_heads=2, top_k=3, dropout_rate=0.1)
            result = train_sain(prepared, mcfg, tcfg)
        else:
            result = training.train_biasedmf(prepared, 4, tcfg)
        return result, given

    @pytest.mark.parametrize("kind, with_rows", [("sain", 2), ("biasedmf", 4)])
    def test_rows_keep_the_dense_bits(self, prepared, monkeypatch, kind, with_rows):
        rows, given = self._train(prepared, kind, monkeypatch, dense=False)
        dense, _ = self._train(prepared, kind, monkeypatch, dense=True)
        steps = 2 * math.ceil(len(prepared.split.train) / 16)
        assert sum(given) == with_rows * steps
        for a, b in ((rows.final_params, dense.final_params), (rows.params, dense.params)):
            assert a.flat.tobytes() == b.flat.tobytes()
            assert a.m.tobytes() == b.m.tobytes()
            assert a.v.tobytes() == b.v.tobytes()


class TestOneUpdate:
    """adam_update makes one adam_step per entity table, with its rows, and
    one over SAIN's dense tail (every tensor after cf_item), whose decay is
    uniform under every l2_scope. That must give, bit for bit, one
    adam_step per tensor, under every scope and gate layout."""

    @pytest.mark.parametrize("gate_shared", [False, True], ids=["split-gates", "shared-gate"])
    @pytest.mark.parametrize("scope", L2_SCOPES)
    def test_one_update_is_the_per_tensor_steps(self, prepared, monkeypatch, scope,
                                                gate_shared):
        params, _ = small_params(prepared, seed=8, top_k=2, dropout_rate=0.1,
                                 l2_scope=scope, gate_shared=gate_shared)
        tcfg = TrainConfig(learning_rate=0.01, weight_decay=0.05, batch_size=32, seed=2)
        engine = training.SainEngine(prepared, params, tcfg)
        for start in (0, 32):               # moments and step count off their start
            engine.step(np.arange(start, start + 32))
        idx = np.arange(64, 96)
        u, i, r = engine.users[idx], engine.items[idx], engine.ratings[idx]
        trace = forward_batch(u, i, prepared.user_packed, prepared.item_packed, params,
                              mode="train", dropout_rng=np.random.default_rng(3))
        grads = backward(trace, r, params)
        rows = {"cf_user": sorted_distinct(u), "cf_item": sorted_distinct(i)}
        decay = decayed_names(params, scope)
        want = params.clone()
        want.t += 1
        for name, tensor in want.tensors.items():
            m, v = want.moments[name]
            adam_step(tensor, grads[name], m, v, want.t, tcfg.learning_rate,
                      tcfg.weight_decay if name in decay else 0.0, want.beta1,
                      want.beta2, want.eps, rows=rows.get(name))
        calls = []
        step = training.adam_step

        def recording(param, grad, m, v, t, lr, weight_decay, *args, **kwargs):
            calls.append((param.size, weight_decay))
            step(param, grad, m, v, t, lr, weight_decay, *args, **kwargs)

        monkeypatch.setattr(training, "adam_step", recording)
        training.adam_update(params, grads, tcfg, decay, rows)
        assert params.t == want.t
        assert params.flat.tobytes() == want.flat.tobytes()
        assert params.m.tobytes() == want.m.tobytes()
        assert params.v.tobytes() == want.v.tobytes()
        tables = params.EMBEDDINGS
        tail = sum(t.size for name, t in params.tensors.items() if name not in tables)
        table_wd = 0.0 if scope == "projections" else tcfg.weight_decay
        tail_wd = 0.0 if scope == "embeddings" else tcfg.weight_decay
        assert calls == [(params.tensors[name].size, table_wd) for name in tables] + [
            (tail, tail_wd)]


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


def _eval_pairs(prepared, n, seed):
    rng = np.random.default_rng(seed)
    return (rng.integers(0, prepared.num_users, size=n),
            rng.integers(0, prepared.num_items, size=n))


class TestEvalBlocks:
    """_eval_outputs runs EVAL_BATCH pairs per forward pass. Eval-mode rows do
    not depend on each other, so the block size changes nothing but memory
    and speed, with one caveat: OpenBLAS's matrix-vector kernel takes rows in
    groups of 4 and sums the rows past the last full group in another order,
    and it also runs every one-row matrix product. Blocks of 1 or 7 rows
    therefore change last bits; block sizes that are multiples of 4 must not,
    with a last single row joined to the block before it."""

    NAMES = ("content", "preference", "combined", "gate_user", "gate_item")

    @staticmethod
    def _params(prepared, dim=16):
        params, _ = small_params(prepared, seed=4, embed_dim=dim, num_heads=4,
                                 top_k=2)
        params.bn_mean[:] = np.linspace(-0.3, 0.3, dim)
        params.bn_var[:] = np.linspace(0.5, 2.0, dim)
        return params

    def _outputs(self, monkeypatch, size, params, prepared, uids, iids):
        monkeypatch.setattr(training, "EVAL_BATCH", size)
        out = training._eval_outputs(params, prepared, uids, iids)
        assert sorted(out) == sorted(self.NAMES)
        for name in self.NAMES:
            assert out[name].shape == uids.shape
        return out

    def test_block_size_changes_no_bit(self, prepared, monkeypatch):
        params = self._params(prepared)
        uids, iids = _eval_pairs(prepared, 1100, seed=21)
        want = self._outputs(monkeypatch, 4096, params, prepared, uids, iids)
        for size in (4, 8, 100, 256, 512, 1100):
            got = self._outputs(monkeypatch, size, params, prepared, uids, iids)
            for name in self.NAMES:
                assert got[name].tobytes() == want[name].tobytes(), (size, name)

    @pytest.mark.parametrize("n", [1, 2, 5, 256, 257, 261, 512, 513, 517, 1025,
                                   4097, 4096 + 513, 4096 + 517])
    @pytest.mark.parametrize("size", [256, 512])
    def test_eval_blocks_give_the_4096_block_bits(self, prepared, monkeypatch,
                                                  size, n):
        params = self._params(prepared, dim=8)
        uids, iids = _eval_pairs(prepared, n, seed=n)
        want = self._outputs(monkeypatch, 4096, params, prepared, uids, iids)
        got = self._outputs(monkeypatch, size, params, prepared, uids, iids)
        for name in self.NAMES:
            assert got[name].tobytes() == want[name].tobytes(), name

    def test_single_pair_predictions_do_not_depend_on_the_block_size(
            self, prepared, monkeypatch):
        params = self._params(prepared)
        uids, iids = _eval_pairs(prepared, 3, seed=23)
        rows = {}
        for size in (1, 256, 4096):
            monkeypatch.setattr(training, "EVAL_BATCH", size)
            rows[size] = [training.predict_sain(params, prepared, uids[j:j + 1],
                                                iids[j:j + 1]) for j in range(3)]
        assert rows[1] == rows[256] == rows[4096]

    def test_block_size_is_256(self):
        assert training.EVAL_BATCH == 256

    def test_peak_memory_is_one_block_trace(self, prepared):
        params, _ = small_params(prepared, seed=4, embed_dim=32, num_heads=4,
                                 top_k=2)
        block = training.EVAL_BATCH
        n = 3 * block + 1
        uids, iids = _eval_pairs(prepared, n, seed=22)
        tracemalloc.start()
        try:
            trace = forward_batch(uids[:block], iids[:block], prepared.user_packed,
                                  prepared.item_packed, params)
            _, one_block = tracemalloc.get_traced_memory()
            del trace
            tracemalloc.reset_peak()
            training._eval_outputs(params, prepared, uids, iids)
            _, whole = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert whole <= 1.25 * one_block + 5 * n * 8


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
        direct = train_sain(memo_data, dataclasses.replace(mcfg, top_k=4), tcfg)
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
        mats = attention_matrices(params, prepared, 0, 0)
        S = params.layout.seq_len
        assert len(mats) == 2
        for mat in mats:
            assert mat.shape == (S, S)
            np.testing.assert_allclose(mat.sum(axis=1), np.ones(S), atol=1e-9)

    def test_matrices_are_pre_filter(self, prepared):
        # Even with top-K at 1 the export keeps full dense rows.
        params, cfg = small_params(prepared, seed=51, top_k=1)
        mats = attention_matrices(params, prepared, 1, 1)
        assert all((mat > 0.0).all() for mat in mats)


class TestDenseIdRange:
    """Dense ids outside [0, n) are rejected, naming the side, by every entry
    point built on forward_batch; before, -1 wrapped to the last entity and n
    ended in a bare IndexError."""

    @staticmethod
    def _bad_pair(prepared, side, bad):
        n = prepared.num_users if side == "user" else prepared.num_items
        uid = (n if bad == "n" else -1) if side == "user" else 0
        iid = (n if bad == "n" else -1) if side == "item" else 0
        return uid, iid

    @pytest.mark.parametrize("side", ["user", "item"])
    @pytest.mark.parametrize("bad", ["-1", "n"])
    def test_predict(self, prepared, side, bad):
        params, _ = small_params(prepared, seed=52)
        uid, iid = self._bad_pair(prepared, side, bad)
        with pytest.raises(ShapeError, match=f"{side} id outside"):
            predict_sain(params, prepared, np.asarray([1, uid]), np.asarray([1, iid]))

    @pytest.mark.parametrize("side", ["user", "item"])
    @pytest.mark.parametrize("bad", ["-1", "n"])
    def test_attention(self, prepared, side, bad):
        params, _ = small_params(prepared, seed=53)
        uid, iid = self._bad_pair(prepared, side, bad)
        with pytest.raises(ShapeError, match=f"{side} id outside"):
            attention_matrices(params, prepared, uid, iid)

    @pytest.mark.parametrize("side", ["user", "item"])
    @pytest.mark.parametrize("bad", ["-1", "n"])
    def test_evaluate(self, prepared, side, bad):
        params, _ = small_params(prepared, seed=54)
        uid, iid = self._bad_pair(prepared, side, bad)
        test = prepared.split.test
        users, items = test.users.copy(), test.items.copy()
        users[-1], items[-1] = uid, iid
        broken = dataclasses.replace(prepared, split=dataclasses.replace(
            prepared.split, test=dataclasses.replace(test, users=users, items=items)))
        with pytest.raises(ShapeError, match=f"{side} id outside"):
            evaluate_sain(params, broken, "test")

    def test_the_last_ids_are_accepted(self, prepared):
        params, _ = small_params(prepared, seed=55)
        last = predict_sain(params, prepared, np.asarray([prepared.num_users - 1]),
                            np.asarray([prepared.num_items - 1]))
        assert len(last) == 1


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
        assert set(adam["t"]) == set(result.adam["t"])
        for name, t in result.adam["t"].items():
            assert adam["t"][name] == t
            np.testing.assert_array_equal(adam["m"][name], result.adam["m"][name])
            np.testing.assert_array_equal(adam["v"][name], result.adam["v"][name])

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
        assert all(np.shares_memory(m, params.m) for m in adam["m"].values())

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


class TestCheckpointBits:
    """sha256 of model.ckpt as save_model writes it after two epochs of each
    model kind on the fixture, with and without the optimizer state. The
    files in tests/data are the with-state checkpoints of these runs, kept as
    written, so a checkpoint of an earlier build must load and save again to
    the same bytes. Like TestGoldenBits, the pins hold for the numpy and BLAS
    build they were recorded on."""

    DATA = os.path.join(os.path.dirname(__file__), "data")
    PINS = {("sain", True): "a723d93efb4c38f18f930d791d2c0f44a4a9784a800d9bbb4df31664f8445d9c",
            ("sain", False): "4c4eea183b1427410198f7e6c039513f6455adf08cc18f59519d61a010b819d1",
            ("biasedmf", True): "5f1e61019e64830af1b396fb36ad5ea831568c9f94ba63cd50aa6cd7701d2810",
            ("biasedmf", False): "70418e935823855934e5fdd092e393ac550b60cf9a8f770c8f708f58a1475c7c"}

    @staticmethod
    def _file_sha(path) -> str:
        with open(path, "rb") as f:
            return hashlib.sha256(f.read()).hexdigest()

    @pytest.mark.parametrize("kind", ["sain", "biasedmf"])
    @pytest.mark.parametrize("with_adam", [True, False], ids=["adam", "no-adam"])
    def test_save_model_writes_the_pinned_bytes(self, prepared, tmp_path, kind,
                                                with_adam):
        from sain.training import train_biasedmf
        tcfg = TrainConfig(max_epochs=2, batch_size=64, seed=4)
        result = (train_sain(prepared, ModelConfig(embed_dim=8, num_heads=2, top_k=2,
                                                   dropout_rate=0.1), tcfg)
                  if kind == "sain" else train_biasedmf(prepared, 4, tcfg))
        path = str(tmp_path / "model.ckpt")
        save_model(path, kind, result.params, result.adam if with_adam else None,
                   {"seed": 4})
        assert self._file_sha(path) == self.PINS[kind, with_adam]

    @pytest.mark.parametrize("kind", ["sain", "biasedmf"])
    def test_a_stored_checkpoint_saves_again_byte_for_byte(self, tmp_path, kind):
        stored = os.path.join(self.DATA, f"{kind}.ckpt")
        assert self._file_sha(stored) == self.PINS[kind, True]
        loaded_kind, params, adam, meta = load_model(stored)
        assert loaded_kind == kind and meta == {"seed": 4}
        for with_adam in (True, False):
            path = str(tmp_path / f"{with_adam}.ckpt")
            save_model(path, kind, params, adam if with_adam else None, meta)
            assert self._file_sha(path) == self.PINS[kind, with_adam]

    @pytest.mark.parametrize("kind, edit", [
        ("sain", lambda layout: layout.update(num_users=float(layout["num_users"]))),
        ("sain", lambda layout: layout.update(num_items=layout["num_items"] + 0.5)),
        ("sain", lambda layout: layout.update(sizes=[list(p) for p in
                                                     layout["sizes"].items()])),
        ("sain", lambda layout: layout.update(sizes={f: float(n) for f, n in
                                                     layout["sizes"].items()})),
        ("biasedmf", lambda layout: layout.update(mu=str(layout["mu"]))),
        ("biasedmf", lambda layout: layout.update(mu=True)),
        ("biasedmf", lambda layout: layout.update(num_users=float(layout["num_users"]))),
        ("biasedmf", lambda layout: layout.update(num_items=layout["num_items"] + 0.7)),
        ("biasedmf", lambda layout: layout.update(dim=True))],
        ids=["sain-float-users", "sain-fractional-items", "sain-sizes-pairs",
             "sain-float-sizes", "mf-string-mu", "mf-bool-mu", "mf-float-users",
             "mf-fractional-items", "mf-bool-dim"])
    def test_layout_values_are_not_coerced(self, tmp_path, kind, edit):
        # Each of these once loaded, coerced, and saved again to other bytes.
        ckpt = load_checkpoint(os.path.join(self.DATA, f"{kind}.ckpt"))
        edit(ckpt.layout)
        path = str(tmp_path / "m.ckpt")
        save_checkpoint(path, ckpt)
        prefix = f"checkpoint layout, config or optimizer state malformed: {path}: "
        with pytest.raises(ParseError, match=re.escape(prefix)):
            load_model(path)


def _sha(a) -> str:
    return hashlib.sha256(np.ascontiguousarray(a, dtype=np.float64).tobytes()).hexdigest()


class TestGoldenBits:
    """Three epochs of SAIN training on the fixture (12 steps of up to 64
    pairs), pinned to the sha256 of every float it leaves: the parameter
    arena, both Adam moment vectors, the batch-norm running statistics, the
    eval-mode scores and gates of every rated pair, and their pre- and
    post-top-K attention weights. Speed-ups must keep each stage's float
    operations and their order, so one reordered sum or product anywhere in
    the forward, the backward or Adam moves a last bit and fails a pin. Head
    widths of 6, 2 and 5 make the logit scale 1/sqrt(dh) inexact, so moving
    the scale shows too. The pins hold for the numpy and BLAS build they were recorded on; another
    build may round a GEMM differently and move them all at once."""

    CASES = {
        "dropout-topk2-renorm-split-gates-l2-all": (
            dict(embed_dim=12, num_heads=2, dropout_rate=0.1, top_k=2,
                 renormalize_topk=True, gate_shared=False, l2_scope="all"),
            dict(flat="aa8692c5e8343f3b561eb2227b7f188150d44668cb13285c324af89bd98f314a",
                 m="73ecadcc8df7968b9b80d03f9ff19a1cd8dbda56590dfdf781dfbf7d7f2b7b4f",
                 v="8a7669f136834b9e815e9d5f91c58c8a381f7cf5c48121f66564abf6d7632fc0",
                 bn_mean="6b2a844724ae02aea29ff9b4c74622f1780a8b97b98a81ef579a729568a76ffe",
                 bn_var="df3493ab4c3e8933d0a58a57370bd77f90c6959236f57f5204e4d1c606efd1ad",
                 eval="502c0d5858a246f054fee974a3ad4138ce805a6018270ee0745465e65d6d31a1",
                 attention="6e3e854884d1fd90641b542014bae08abdfbc1129e8309c9e3ca551897452b6b")),
        "no-dropout-topk3-raw-shared-gate-l2-embeddings": (
            dict(embed_dim=8, num_heads=4, dropout_rate=0.0, top_k=3,
                 renormalize_topk=False, gate_shared=True, l2_scope="embeddings"),
            dict(flat="a4ac028257636b49eff1b09f7e5f473fee3ee7230fcdf4ae9ceb9e09b7c2aaf3",
                 m="cbfac708474fd2fc6dbf7a95e33ca0849cf6c6cbc94d42fccd7cc0a318df00fb",
                 v="33017b404c9838d9af212818975b86716cac193a656ffa5e18b8351e4d474ce7",
                 bn_mean="2b68c8171e35d1e358278245ed846e4748939f0d4f33fd16a8b1062bec6df923",
                 bn_var="5140874aae87149137a6a3020f15b6d32a81e6318d15580065a02b847d39aa96",
                 eval="f86e9f84551be6596f8227154fe328fc052f1de78c33b1900e8a145d51d8c9cd",
                 attention="3a9051e706ccb31227bdf772fc5e649545eef789e54569f6f5004efcbba99f51")),
        "dropout-topk1-raw-split-gates-l2-embeddings": (
            dict(embed_dim=10, num_heads=2, dropout_rate=0.1, top_k=1,
                 renormalize_topk=False, gate_shared=False, l2_scope="embeddings"),
            dict(flat="212277871efc376c4e960f081b9427a7eb8233779d6c7dd538451c4960489002",
                 m="9d123f5fabe72b67dc401176cefe96f88996ee2027c31d02eaf93ce67adebf68",
                 v="6c18c5d73d219d8d8088da4fd5c1c04fbbad6d7199cfe9331ce02da69fea59d8",
                 bn_mean="2127078fe51642c5c7d0cde885a21c6aefcfc45188a9a3cedc9524232872a520",
                 bn_var="63c0add0fe9ec92f253c4ce2649d03ba2d4f7ec57ba69f7108dd0a015ec815b1",
                 eval="069297fad68697964fe5db0b5c94dceca3159f011893c72ee269532e5bea82da",
                 attention="047495e250d62f6ec5d8526039721eb8d6bbc4083d24b368ba3e3727eed68c61")),
        "no-dropout-full-k-renorm-shared-gate-l2-all": (
            dict(embed_dim=12, num_heads=3, dropout_rate=0.0, top_k=4,
                 renormalize_topk=True, gate_shared=True, l2_scope="all"),
            dict(flat="daf6c1e3723fd40306d15dd17b0498a6b1085d828c607ee227d6e6ef38484330",
                 m="bad39dc1f7e0918e1a6c05fe51961f53d6f9d7b70530cf045172717e1d41a21c",
                 v="9642c932c46783ea1b4753d95c9950a2d59cf911c925050e5f8179cd9b508fcb",
                 bn_mean="7672eb8e3127e2ea33dc5925efdc6886cf0e293cec6caab60db17936c36175e6",
                 bn_var="880ebe49df2ac787c5e6014e65712ab1e63c1416141937c9ed949537e27a88a1",
                 eval="21c4664e08eeff01c7b344da13ba79be4eb8480914a40da96a03f5ca87bfa90b",
                 attention="4804e9da06c265298ca3c64c8e8732d631969299bbdeecf71ff5f21c455c773b")),
    }

    @staticmethod
    def digests(prepared, model_kwargs) -> dict[str, str]:
        mcfg = ModelConfig(**model_kwargs)
        tcfg = TrainConfig(max_epochs=3, patience=3, batch_size=64, seed=3)
        final = train_sain(prepared, mcfg, tcfg).final_params
        users, items = prepared.interactions.users, prepared.interactions.items
        outs = training._eval_outputs(final, prepared, users, items)
        trace = forward_batch(users, items, prepared.user_packed,
                              prepared.item_packed, final)
        return {"flat": _sha(final.flat), "m": _sha(final.m), "v": _sha(final.v),
                "bn_mean": _sha(final.bn_mean), "bn_var": _sha(final.bn_var),
                "eval": _sha(np.stack([outs[k] for k in TestEvalBlocks.NAMES])),
                "attention": _sha(np.stack([trace.alpha_full, trace.alpha_topk]))}

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_training_keeps_every_bit(self, prepared, case):
        model_kwargs, want = self.CASES[case]
        assert self.digests(prepared, model_kwargs) == want


class TestAttentionGoldenBits:
    """sha256 of the exported attention matrices of five fixture pairs (the
    last user and item among them; most items pool several tokens) under
    four configs: top-K of 1 and of S, with 2 and 4 heads. The export is the
    pre-top-K softmax, so K must not reach it. Like TestGoldenBits, the pins
    hold for the numpy and BLAS build they were recorded on."""

    PAIRS = [(0, 0), (1, 1), (3, 2), (7, 11), (29, 19)]
    CASES = {
        "d8-h2-top1": (dict(embed_dim=8, num_heads=2, top_k=1),
                       "195a764c93af8b52b511203071fa1df499ffe0cd1d40ba1359ba88a62ffc8151"),
        "d8-h4-topS": (dict(embed_dim=8, num_heads=4, top_k=4),
                       "7a52f45f16dbbb18daecfcd6b9082562f50c1f8641128ab149046cf88478e0bb"),
        "d12-h4-top1": (dict(embed_dim=12, num_heads=4, top_k=1),
                        "62bafd5c7cf75633078db58468f067f15b413cf160026f85097b8f93ef1c0fbd"),
        "d12-h2-topS": (dict(embed_dim=12, num_heads=2, top_k=4),
                        "a4eb33727fe0d843f2811c4dbea36c2c7c0cc8df3ea84cb2b23c4ce46307e1ae"),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_export_keeps_every_bit(self, prepared, case):
        model_kwargs, want = self.CASES[case]
        params, _ = small_params(prepared, seed=60, **model_kwargs)
        assert (prepared.num_users, prepared.num_items) == (30, 20)
        h = hashlib.sha256()
        for u, i in self.PAIRS:
            mats = attention_matrices(params, prepared, u, i)
            h.update(np.stack(mats).astype("<f8").tobytes())
        assert h.hexdigest() == want
