"""Release acceptance gate: one test per shipping criterion, each asserting its
stated tolerance and printing the measured value. Criteria 6 and 7 need the
MovieLens-100k archive on disk; when it is absent they fail with instructions
rather than silently passing or skipping.
"""

import json
import math
import os
import time

import numpy as np
import pytest

from sain.cli import main
from sain.data import DatasetManifest, build_dataset, pack_features
from sain.gradcheck import (TOLERANCE, _toy_entities, _toy_vocab,
                            build_sain_fixture, run_suite)
from sain.ml100k import convert_ml100k, find_ml100k
from sain.model import FieldLayout, ModelConfig, SainParams, forward_batch
from sain.training import (TrainConfig, evaluate_mf, evaluate_sain, load_model,
                           rmse_mae, save_model, train_biasedmf, train_sain)

from conftest import write_synthetic_dataset
from oracles import head_outputs, scores

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

_ML100K = {}


def _ml100k_prepared(tmp_path_factory):
    """Convert and build the real dataset once per session, or fail with a
    actionable diagnostic when it is not on disk."""
    if "data" in _ML100K:
        return _ML100K["data"]
    src = find_ml100k(base_dir=REPO_ROOT)
    if src is None:
        pytest.fail(
            "MovieLens-100k is not available: this environment blocks network "
            "downloads and its package mirror carries no dataset copy. To run "
            "this criterion, unpack the archive at <repo>/data/ml-100k or set "
            "SAIN_ML100K_DIR to an unpacked copy (must contain u.data), then "
            "rerun pytest.")
    out = str(tmp_path_factory.mktemp("ml100k"))
    manifest = convert_ml100k(src, out)
    data = build_dataset(DatasetManifest.from_file(manifest), seed=0)
    _ML100K["data"] = data
    return data


def _ml100k_baseline_rmse(tmp_path_factory):
    if "mf_rmse" in _ML100K:
        return _ML100K["mf_rmse"]
    data = _ml100k_prepared(tmp_path_factory)
    tcfg = TrainConfig(learning_rate=1e-3, weight_decay=1e-4, batch_size=256,
                       max_epochs=100, patience=10, seed=0)
    result = train_biasedmf(data, dim=32, tcfg=tcfg)
    report = evaluate_mf(result.params, data, "test")
    _ML100K["mf_rmse"] = report.rmse
    _ML100K["mf_mae"] = report.mae
    return report.rmse


def test_criterion_01_gradients_match_finite_differences():
    """20 seeds per model, K in {2, 3, 4}, every tensor within 1e-4, under a
    minute."""
    started = time.perf_counter()
    report = run_suite(num_seeds=20, k_values=(2, 3, 4))
    elapsed = time.perf_counter() - started
    assert len(report.cases) == 40
    print(f"criterion 1: max_rel_err={report.max_rel_err:.3e} "
          f"(tolerance {TOLERANCE}), {elapsed:.1f}s")
    for case in report.cases:
        assert case.max_rel_err < TOLERANCE, case
    assert elapsed < 60.0


def test_criterion_02_attention_rows_are_filtered_distributions():
    """1000 random forward passes: every pre-filter row sums to 1 within 1e-9
    and every filtered row keeps at most min(K, S) nonzero weights."""
    vocab = _toy_vocab()
    layout = FieldLayout.from_vocab(vocab, 4, 4)
    S = layout.seq_len
    worst_sum_err = 0.0
    for i in range(1000):
        rng = np.random.default_rng(np.random.SeedSequence([i, 7]))
        k = 1 + i % 5
        config = ModelConfig(embed_dim=4, num_heads=2, top_k=k, dropout_rate=0.0)
        params = SainParams.init(layout, config, rng)
        user_packed = pack_features(*_toy_entities(rng, 4), vocab, "user")
        item_packed = pack_features(*_toy_entities(rng, 4), vocab, "item")
        b = int(rng.integers(1, 5))
        trace = forward_batch(rng.integers(0, 4, size=b),
                              rng.integers(0, 4, size=b),
                              user_packed, item_packed, params)
        for h in range(config.num_heads):
            sums = trace.alpha_full[:, h].sum(axis=-1)
            worst_sum_err = max(worst_sum_err, float(np.max(np.abs(sums - 1.0))))
            assert np.max(np.abs(sums - 1.0)) <= 1e-9
            nonzero = (trace.alpha_topk[:, h] > 0.0).sum(axis=-1)
            assert nonzero.max() <= min(k, S)
            renorm = trace.alpha_topk[:, h].sum(axis=-1)
            assert np.max(np.abs(renorm - 1.0)) <= 1e-9
    print(f"criterion 2: 1000 forwards, worst row-sum error {worst_sum_err:.3e}")


def test_criterion_03_full_k_equals_unfiltered_attention():
    """With K = m + n the filter is the identity: scores match plain softmax
    attention within 1e-12 across 100 random configurations."""
    vocab = _toy_vocab()
    layout = FieldLayout.from_vocab(vocab, 4, 4)
    S = layout.seq_len
    worst = 0.0
    for i in range(100):
        rng = np.random.default_rng(np.random.SeedSequence([i, 23]))
        cfg_full = ModelConfig(embed_dim=4, num_heads=2, top_k=S, dropout_rate=0.0)
        cfg_plain = ModelConfig(embed_dim=4, num_heads=2, top_k=S,
                                dropout_rate=0.0, renormalize_topk=False)
        cfg_big = ModelConfig(embed_dim=4, num_heads=2, top_k=S + 3,
                              dropout_rate=0.0)
        params = SainParams.init(layout, cfg_full, rng)
        params.tensors["embeddings"] = rng.normal(
            0.0, 1.0, params.tensors["embeddings"].shape)
        user_packed = pack_features(*_toy_entities(rng, 4), vocab, "user")
        item_packed = pack_features(*_toy_entities(rng, 4), vocab, "item")
        uids = rng.integers(0, 4, size=3)
        iids = rng.integers(0, 4, size=3)

        def under(config):
            # the same weights, run as the model that `config` sets up
            p = params.clone()
            p.config = config
            return forward_batch(uids, iids, user_packed, item_packed, p)

        t_full, t_plain, t_big = map(under, (cfg_full, cfg_plain, cfg_big))
        out_full, out_plain = head_outputs(t_full), head_outputs(t_plain)
        worst = max(worst,
                    float(np.max(np.abs(scores(t_full) - scores(t_plain)))),
                    float(np.max(np.abs(out_full - out_plain))))
        np.testing.assert_allclose(scores(t_full), scores(t_plain), atol=1e-12)
        np.testing.assert_allclose(out_full, out_plain, atol=1e-12)
        np.testing.assert_array_equal(scores(t_full), scores(t_big))
    print(f"criterion 3: max deviation from unfiltered attention {worst:.3e}")


def test_criterion_04_saturated_gates_recover_each_pure_score():
    """Gate weights built to saturate the blend: the combined score matches the
    preference score (gates at 1) or the content score (gates at 0) within
    1e-9."""
    fixture = None
    for seed in range(20):
        fx = build_sain_fixture(seed, batch=1)
        trace = forward_batch(fx.uids, fx.iids, fx.user_packed, fx.item_packed,
                              fx.params)
        du = (trace.cf["user"] - trace.content["user"])[0]
        di = (trace.cf["item"] - trace.content["item"])[0]
        if du @ du > 1e-6 and di @ di > 1e-6:
            fixture = (fx, du, di)
            break
    assert fixture is not None
    fx, du, di = fixture

    worst = 0.0
    for sign, target in ((1.0, "preference"), (-1.0, "content")):
        params = fx.params.clone()
        params.tensors["gate_user_w"] = sign * 40.0 * du / (du @ du)
        params.tensors["gate_item_w"] = sign * 40.0 * di / (di @ di)
        trace = forward_batch(fx.uids, fx.iids, fx.user_packed, fx.item_packed,
                              params)
        for side in ("user", "item"):
            a = trace.gate_alpha[side][0]
            assert (a > 1.0 - 1e-12) if sign > 0 else (a < 1e-12)
        pure = (trace.score_preference if sign > 0 else trace.score_content)[0]
        gap = abs(trace.score_combined[0] - pure)
        worst = max(worst, gap)
        assert gap < 1e-9, target
    print(f"criterion 4: worst combined-vs-pure score gap {worst:.3e}")


def test_criterion_05_memorizes_a_tiny_dataset(memo_data):
    """100 unique user-item pairs memorized to train RMSE below 0.05 within
    2000 full-batch epochs, in under two minutes."""
    started = time.perf_counter()
    mcfg = ModelConfig(embed_dim=16, num_heads=2, top_k=4, dropout_rate=0.0)
    tcfg = TrainConfig(learning_rate=5e-3, weight_decay=0.0, batch_size=80,
                       max_epochs=2000, patience=2000, seed=0)
    result = train_sain(memo_data, mcfg, tcfg)
    report = evaluate_sain(result.final_params, memo_data, "train")
    elapsed = time.perf_counter() - started
    print(f"criterion 5: train RMSE {report.rmse:.4f} after "
          f"{len(result.history)} epochs, {elapsed:.1f}s")
    assert report.rmse < 0.05
    assert elapsed < 120.0


def test_criterion_06_baseline_hits_published_range(tmp_path_factory):
    """BiasedMF on MovieLens-100k lands in the published test-RMSE range
    [0.89, 0.94] in under ten minutes."""
    started = time.perf_counter()
    rmse = _ml100k_baseline_rmse(tmp_path_factory)
    elapsed = time.perf_counter() - started
    print(f"criterion 6: BiasedMF test RMSE {rmse:.4f} "
          f"(MAE {_ML100K['mf_mae']:.4f}), {elapsed:.0f}s")
    assert 0.89 <= rmse <= 0.94
    assert elapsed < 600.0


def test_criterion_07_attention_model_beats_the_baseline(tmp_path_factory):
    """The attention model with gender/age/occupation/genre features beats the
    criterion-6 RMSE by at least 0.005 in under thirty minutes."""
    baseline = _ml100k_baseline_rmse(tmp_path_factory)
    data = _ml100k_prepared(tmp_path_factory)
    started = time.perf_counter()
    mcfg = ModelConfig()  # embed_dim 64, 2 heads, top-K 8, dropout 0.1
    tcfg = TrainConfig(learning_rate=1e-3, weight_decay=1e-4, batch_size=256,
                       max_epochs=100, patience=10, seed=0)
    result = train_sain(data, mcfg, tcfg)
    report = evaluate_sain(result.params, data, "test")
    elapsed = time.perf_counter() - started
    print(f"criterion 7: attention test RMSE {report.rmse:.4f} vs baseline "
          f"{baseline:.4f} (margin {baseline - report.rmse:.4f}), {elapsed:.0f}s")
    assert report.rmse <= baseline - 0.005
    assert elapsed < 1800.0


def test_criterion_08_training_runs_are_byte_reproducible(tmp_path):
    """Two identical train commands produce byte-identical training logs and
    checkpoints."""
    manifest = write_synthetic_dataset(str(tmp_path / "data"), seed=31)
    config = {
        "dataset": manifest, "model": "sain", "output_dir": "out",
        "model_config": {"embed_dim": 8, "num_heads": 2, "top_k": 2,
                         "dropout_rate": 0.1},
        "train_config": {"max_epochs": 5, "batch_size": 64, "seed": 13},
    }
    config_path = str(tmp_path / "run.json")
    with open(config_path, "w") as f:
        json.dump(config, f)
    assert main(["train", "--config", config_path, "--output-dir", "a"]) == 0
    assert main(["train", "--config", config_path, "--output-dir", "b"]) == 0
    for name in ("training_log.csv", "model.ckpt"):
        with open(tmp_path / "a" / name, "rb") as f:
            bytes_a = f.read()
        with open(tmp_path / "b" / name, "rb") as f:
            bytes_b = f.read()
        assert bytes_a == bytes_b, name
    print("criterion 8: two training runs byte-identical "
          "(training_log.csv, model.ckpt)")


def test_criterion_09_metrics_reproduce_hand_values():
    """RMSE/MAE match hand arithmetic within 1e-12, and MAE never exceeds RMSE
    on 1000 random prediction sets."""
    rmse, mae = rmse_mae(np.asarray([5.0, 3.0]), np.asarray([2.0, 3.0]))
    assert abs(rmse - math.sqrt(9.0 / 2.0)) < 1e-12
    assert abs(mae - 1.5) < 1e-12
    rmse, mae = rmse_mae(np.asarray([2.0, 0.0]), np.asarray([1.0, 1.0]))
    assert abs(rmse - 1.0) < 1e-12 and abs(mae - 1.0) < 1e-12
    assert rmse_mae(np.full(7, 2.5), np.full(7, 2.5)) == (0.0, 0.0)
    rng = np.random.default_rng(90)
    for _ in range(1000):
        n = int(rng.integers(1, 40))
        pred = rng.uniform(1.0, 5.0, size=n)
        truth = rng.uniform(1.0, 5.0, size=n)
        r, m = rmse_mae(pred, truth)
        assert m <= r + 1e-12
    print("criterion 9: hand metric values within 1e-12; "
          "MAE <= RMSE on 1000 random sets")


def test_criterion_10_checkpoints_round_trip_exactly(memo_data, tmp_path):
    """Save, load, and save again produces byte-identical files, and the
    reloaded model evaluates within 1e-12 of the original."""
    mcfg = ModelConfig(embed_dim=8, num_heads=2, top_k=3, dropout_rate=0.1)
    tcfg = TrainConfig(max_epochs=3, batch_size=64, seed=4)
    result = train_sain(memo_data, mcfg, tcfg)
    first = str(tmp_path / "first.ckpt")
    second = str(tmp_path / "second.ckpt")
    save_model(first, "sain", result.params, result.adam,
               meta={"seed": 4, "dataset_digest": memo_data.digest()})
    kind, params, adam, meta = load_model(first)
    save_model(second, kind, params, adam, meta)
    with open(first, "rb") as f:
        bytes_first = f.read()
    with open(second, "rb") as f:
        bytes_second = f.read()
    assert bytes_first == bytes_second
    before = evaluate_sain(result.params, memo_data, "test")
    after = evaluate_sain(params, memo_data, "test")
    gap = max(abs(before.rmse - after.rmse), abs(before.mae - after.mae))
    assert gap <= 1e-12
    print(f"criterion 10: byte-identical checkpoint round trip; "
          f"eval gap {gap:.1e}")
