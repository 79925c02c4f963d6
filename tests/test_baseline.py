"""Biased matrix-factorization tests: scoring arithmetic, gradient scatter,
symmetry, and end-to-end fitting of a trivially learnable dataset."""

import json
import math
import os

import numpy as np
import pytest

from sain.baseline import MfParams, mf_backward, mf_loss, mf_scores
from sain.data import DatasetManifest, build_dataset
from sain.errors import ShapeError
from sain.training import TrainConfig, evaluate_mf, train_biasedmf

from conftest import write_feature_file, write_rating_file


def _params(num_users=3, num_items=3, dim=2):
    t = {"user_factors": np.zeros((num_users, dim)),
         "item_factors": np.zeros((num_items, dim)),
         "user_bias": np.zeros(num_users),
         "item_bias": np.zeros(num_items)}
    return MfParams(t, mu=3.0)


class TestScoring:
    def test_hand_arithmetic(self):
        p = _params()
        p.tensors["user_bias"][1] = 0.2
        p.tensors["item_bias"][2] = 0.1
        p.tensors["user_factors"][1] = [0.5, 0.0]
        p.tensors["item_factors"][2] = [0.1, 9.0]
        s = mf_scores(np.asarray([1]), np.asarray([2]), p)
        assert math.isclose(s[0], 3.0 + 0.2 + 0.1 + 0.05, abs_tol=1e-15)

    def test_degenerate_model_predicts_global_mean(self):
        s = mf_scores(np.asarray([0, 1, 2]), np.asarray([2, 1, 0]), _params())
        np.testing.assert_array_equal(s, [3.0, 3.0, 3.0])

    def test_user_item_symmetry(self):
        rng = np.random.default_rng(40)
        p = MfParams.init(4, 4, 3, mu=3.5, rng=rng)
        p.tensors["user_bias"] = rng.normal(size=4)
        p.tensors["item_bias"] = rng.normal(size=4)
        swapped = MfParams({"user_factors": p.tensors["item_factors"].copy(),
                            "item_factors": p.tensors["user_factors"].copy(),
                            "user_bias": p.tensors["item_bias"].copy(),
                            "item_bias": p.tensors["user_bias"].copy()},
                           mu=3.5)
        uids = np.asarray([0, 1, 3])
        iids = np.asarray([2, 2, 0])
        np.testing.assert_allclose(mf_scores(uids, iids, p),
                                   mf_scores(iids, uids, swapped), atol=1e-15)

    def test_unknown_ids_rejected(self):
        p = _params()
        with pytest.raises(ShapeError, match="user"):
            mf_scores(np.asarray([5]), np.asarray([0]), p)
        with pytest.raises(ShapeError, match="item"):
            mf_scores(np.asarray([0]), np.asarray([-1]), p)

    def test_init_validation(self):
        with pytest.raises(ShapeError):
            MfParams.init(0, 3, 2, mu=3.0, rng=np.random.default_rng(0))

    def test_sizes_are_the_tensors_shapes(self):
        # The entity counts and the dimension are read from the tables, so
        # the id check bounds ids by the rows that exist.
        p = _params(num_users=3, num_items=4, dim=2)
        assert (p.num_users, p.num_items, p.dim) == (3, 4, 2)
        assert (p.clone().num_users, p.clone().num_items) == (3, 4)
        with pytest.raises(ShapeError, match="user"):
            mf_scores(np.asarray([3]), np.asarray([0]), p)
        with pytest.raises(ShapeError, match="item"):
            mf_scores(np.asarray([0]), np.asarray([4]), p)
        np.testing.assert_array_equal(mf_scores(np.asarray([2]), np.asarray([3]), p), [3.0])

    def test_tables_that_disagree_are_refused(self):
        t = _params(num_users=3, num_items=4, dim=2).tensors
        for name, shape in (("user_bias", (5,)), ("item_factors", (4, 3))):
            bad = {k: np.zeros(shape) if k == name else v.copy() for k, v in t.items()}
            with pytest.raises(ShapeError, match="agree"):
                MfParams(bad, mu=3.0)


class TestLossAndGradients:
    def test_loss_hand_value(self):
        loss = mf_loss(np.asarray([4.0, 2.0]), np.asarray([3.0, 3.0]))
        assert math.isclose(loss, 1.0, abs_tol=1e-15)
        with pytest.raises(ValueError):
            mf_loss(np.asarray([]), np.asarray([]))

    def test_repeated_ids_accumulate(self):
        p = _params()
        p.tensors["item_factors"][:] = 1.0
        uids = np.asarray([0, 0])
        iids = np.asarray([1, 2])
        scores = mf_scores(uids, iids, p)
        r = np.asarray([1.0, 2.0])
        grads = mf_backward(uids, iids, scores, r, p)
        g = 2.0 * (scores - r) / 2.0
        assert math.isclose(grads["user_bias"][0], g.sum(), abs_tol=1e-15)
        np.testing.assert_allclose(grads["user_factors"][0],
                                   np.full(2, g.sum()), atol=1e-15)

    def test_scatters_equal_np_add_at_bit_for_bit(self):
        # Heavily repeated ids, mixed-sign contributions of very different
        # sizes, and rows no pair touches: the bincount scatters must sum each
        # row in batch order from zero, exactly as np.add.at does.
        rng = np.random.default_rng(44)
        p = MfParams.init(30, 20, 5, mu=3.0, rng=rng)
        p.tensors["user_bias"] = rng.normal(size=30)
        uids = rng.integers(0, 6, size=500)
        iids = rng.integers(0, 15, size=500)
        ratings = rng.uniform(1.0, 5.0, 500) * 10.0 ** rng.integers(-3, 3, 500)
        scores = mf_scores(uids, iids, p)
        grads = mf_backward(uids, iids, scores, ratings, p)
        g = 2.0 * (scores - ratings) / ratings.shape[0]
        expected = {k: np.zeros_like(v) for k, v in p.tensors.items()}
        factors_u, factors_i = p.tensors["user_factors"], p.tensors["item_factors"]
        np.add.at(expected["user_factors"], uids, g[:, None] * factors_i[iids])
        np.add.at(expected["item_factors"], iids, g[:, None] * factors_u[uids])
        np.add.at(expected["user_bias"], uids, g)
        np.add.at(expected["item_bias"], iids, g)
        assert list(grads) == list(expected)
        for name, want in expected.items():
            assert grads[name].shape == want.shape
            assert grads[name].tobytes() == want.tobytes(), name
        assert not grads["user_bias"][6:].any() and not grads["item_factors"][15:].any()

    def test_mismatched_ratings_rejected(self):
        p = _params()
        with pytest.raises(ShapeError):
            mf_backward(np.asarray([0]), np.asarray([0]), np.asarray([3.0]),
                        np.asarray([3.0, 3.0]), p)

    def test_flatten_round_trip(self):
        p = MfParams.init(3, 4, 2, mu=3.0, rng=np.random.default_rng(41))
        flat = p.flatten()
        q = p.clone()
        q.set_flat(flat * 2.0)
        np.testing.assert_allclose(q.flatten(), flat * 2.0, atol=0)
        np.testing.assert_array_equal(p.flatten(), flat)


def _constant_dataset(root, n_users=10, n_items=5):
    """Every rating is 3.0, so the global mean alone is a perfect model."""
    os.makedirs(root, exist_ok=True)
    rows = [(f"u{u}", f"i{j}", 3.0) for u in range(n_users) for j in range(n_items)]
    write_rating_file(os.path.join(root, "ratings.tsv"), rows)
    write_feature_file(os.path.join(root, "uf.tsv"),
                       {f"u{u}": ["a"] for u in range(n_users)})
    write_feature_file(os.path.join(root, "if.tsv"),
                       {f"i{j}": ["b"] for j in range(n_items)})
    manifest = {"ratings": "ratings.tsv", "min_ratings": 1,
                "features": [{"field": "uf", "owner": "user", "path": "uf.tsv"},
                             {"field": "if", "owner": "item", "path": "if.tsv"}]}
    path = os.path.join(root, "dataset.json")
    with open(path, "w") as f:
        json.dump(manifest, f)
    return path


class TestEndToEnd:
    def test_fits_a_constant_dataset(self, tmp_path):
        manifest = DatasetManifest.from_file(_constant_dataset(str(tmp_path)))
        data = build_dataset(manifest, seed=2)
        tcfg = TrainConfig(learning_rate=0.05, weight_decay=0.0, batch_size=64,
                           max_epochs=200, patience=200, seed=0)
        result = train_biasedmf(data, dim=4, tcfg=tcfg)
        report = evaluate_mf(result.params, data, "test")
        assert report.rmse < 0.05
        assert report.mae <= report.rmse + 1e-12

    def test_same_seed_reproduces_parameters(self, prepared):
        tcfg = TrainConfig(max_epochs=3, seed=7)
        a = train_biasedmf(prepared, dim=4, tcfg=tcfg)
        b = train_biasedmf(prepared, dim=4, tcfg=tcfg)
        np.testing.assert_array_equal(a.params.flatten(), b.params.flatten())
        assert [e.val_rmse for e in a.history] == [e.val_rmse for e in b.history]

    def test_history_has_blank_auxiliary_losses(self, prepared):
        tcfg = TrainConfig(max_epochs=2, seed=8)
        result = train_biasedmf(prepared, dim=4, tcfg=tcfg)
        for entry in result.history:
            assert entry.loss_content is None
            assert entry.loss_preference is None
            assert entry.loss_combined > 0.0
