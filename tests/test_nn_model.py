"""Tests for repro.nn.model.Sequential — flat params, gradients, predict."""

import numpy as np
import pytest

from repro.nn import Dense, Flatten, ReLU, Sequential, mlp, tiny_cnn


@pytest.fixture
def small_model(rng):
    return Sequential([Dense(6, 8, rng), ReLU(), Dense(8, 3, rng)])


class TestFlatParams:
    def test_round_trip(self, small_model, rng):
        w = small_model.get_flat_params()
        new = rng.normal(size=w.shape)
        small_model.set_flat_params(new)
        np.testing.assert_allclose(small_model.get_flat_params(), new)

    def test_num_params(self, small_model):
        assert small_model.num_params == 6 * 8 + 8 + 8 * 3 + 3

    def test_get_returns_copy(self, small_model):
        w = small_model.get_flat_params()
        w[:] = 0
        assert small_model.get_flat_params().any()

    def test_set_wrong_size_raises(self, small_model):
        with pytest.raises(ValueError):
            small_model.set_flat_params(np.zeros(3))

    def test_set_does_not_change_behaviour_when_identical(self, small_model, rng):
        x = rng.normal(size=(4, 6))
        before = small_model.forward(x, training=False)
        small_model.set_flat_params(small_model.get_flat_params())
        np.testing.assert_allclose(small_model.forward(x, training=False), before)


class TestLossAndGrad:
    def test_gradient_matches_numerical(self, small_model, rng):
        x = rng.normal(size=(5, 6))
        y = rng.integers(0, 3, size=5)
        _, grad = small_model.loss_and_flat_grad(x, y)
        w = small_model.get_flat_params()
        eps = 1e-6
        for i in rng.choice(w.size, size=15, replace=False):
            wp = w.copy()
            wp[i] += eps
            small_model.set_flat_params(wp)
            up = small_model.evaluate_loss(x, y)
            wp[i] -= 2 * eps
            small_model.set_flat_params(wp)
            down = small_model.evaluate_loss(x, y)
            numeric = (up - down) / (2 * eps)
            assert grad[i] == pytest.approx(numeric, abs=1e-5)
        small_model.set_flat_params(w)

    def test_loss_decreases_with_sgd(self, small_model, rng):
        x = rng.normal(size=(32, 6))
        y = (x[:, 0] > 0).astype(np.int64)
        first, _ = small_model.loss_and_flat_grad(x, y)
        for _ in range(60):
            loss, grad = small_model.loss_and_flat_grad(x, y)
            small_model.set_flat_params(small_model.get_flat_params() - 0.5 * grad)
        assert loss < first

    def test_cnn_gradient_matches_numerical(self, rng):
        model = tiny_cnn(np.random.default_rng(3))
        x = rng.random((3, 1, 12, 12))
        y = rng.integers(0, 4, size=3)
        _, grad = model.loss_and_flat_grad(x, y)
        w = model.get_flat_params()
        eps = 1e-6
        for i in rng.choice(w.size, size=10, replace=False):
            wp = w.copy()
            wp[i] += eps
            model.set_flat_params(wp)
            up = model.evaluate_loss(x, y)
            wp[i] -= 2 * eps
            model.set_flat_params(wp)
            down = model.evaluate_loss(x, y)
            assert grad[i] == pytest.approx((up - down) / (2 * eps), abs=1e-5)


class TestPredict:
    def test_predict_shape(self, small_model, rng):
        preds = small_model.predict(rng.normal(size=(7, 6)))
        assert preds.shape == (7,)
        assert preds.dtype.kind == "i"

    def test_predict_proba_rows_sum_to_one(self, small_model, rng):
        probs = small_model.predict_proba(rng.normal(size=(7, 6)))
        np.testing.assert_allclose(probs.sum(axis=1), np.ones(7))

    def test_predict_batched_matches_unbatched(self, small_model, rng):
        x = rng.normal(size=(10, 6))
        np.testing.assert_array_equal(
            small_model.predict(x, batch_size=3), small_model.predict(x, batch_size=100)
        )

    def test_empty_raises(self, small_model):
        with pytest.raises(ValueError):
            small_model.predict_proba(np.zeros((0, 6)))

    def test_bad_batch_size(self, small_model, rng):
        with pytest.raises(ValueError):
            small_model.predict_proba(rng.normal(size=(4, 6)), batch_size=0)


class TestEvaluateLoss:
    def test_matches_forward_loss(self, small_model, rng):
        x = rng.normal(size=(9, 6))
        y = rng.integers(0, 3, size=9)
        logits = small_model.forward(x, training=False)
        expected = small_model.loss.loss_only(logits, y)
        assert small_model.evaluate_loss(x, y, batch_size=4) == pytest.approx(expected)

    def test_empty_raises(self, small_model):
        with pytest.raises(ValueError):
            small_model.evaluate_loss(np.zeros((0, 6)), np.zeros(0, dtype=int))


class TestConstruction:
    def test_empty_raises(self):
        with pytest.raises(ValueError):
            Sequential([])

    def test_mlp_factory_shapes(self, rng):
        model = mlp(rng, in_features=20, num_classes=4, hidden=10, depth=2)
        assert model.forward(rng.normal(size=(2, 4, 5)), training=False).shape == (2, 4)

    def test_mlp_depth_validation(self, rng):
        with pytest.raises(ValueError):
            mlp(rng, 10, 2, depth=0)
