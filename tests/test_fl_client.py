"""Tests for VehicleClient."""

import numpy as np
import pytest

from repro.datasets import ArrayDataset
from repro.fl import VehicleClient
from repro.nn import mlp


@pytest.fixture
def dataset(rng):
    x = rng.normal(size=(40, 6))
    y = (x[:, 0] > 0).astype(np.int64)
    return ArrayDataset(x=x, y=y, num_classes=2)


@pytest.fixture
def model(rng):
    return mlp(np.random.default_rng(1), 6, 2, hidden=8)


class TestConstruction:
    def test_num_samples(self, dataset, rng):
        client = VehicleClient(0, dataset, rng)
        assert client.num_samples == 40

    def test_empty_dataset_raises(self, rng):
        empty = ArrayDataset(np.zeros((0, 3)), np.zeros(0, dtype=int), num_classes=2)
        with pytest.raises(ValueError):
            VehicleClient(0, empty, rng)

    def test_invalid_params(self, dataset, rng):
        with pytest.raises(ValueError):
            VehicleClient(-1, dataset, rng)
        with pytest.raises(ValueError):
            VehicleClient(0, dataset, rng, batch_size=0)
        with pytest.raises(ValueError):
            VehicleClient(0, dataset, rng, local_steps=0)
        with pytest.raises(ValueError):
            VehicleClient(0, dataset, rng, local_steps=2)  # needs local_lr
        with pytest.raises(ValueError):
            VehicleClient(0, dataset, rng, reduction="max")


class TestComputeUpdate:
    def test_gradient_shape(self, dataset, model, rng):
        client = VehicleClient(0, dataset, rng, batch_size=16)
        g = client.compute_update(model.get_flat_params(), model)
        assert g.shape == (model.num_params,)

    def test_sum_reduction_scales_by_batch(self, dataset, model):
        """sum-gradient == mean-gradient * batch (same minibatch draw)."""
        w = model.get_flat_params()
        sum_client = VehicleClient(0, dataset, np.random.default_rng(9), batch_size=16, reduction="sum")
        mean_client = VehicleClient(0, dataset, np.random.default_rng(9), batch_size=16, reduction="mean")
        g_sum = sum_client.compute_update(w, model)
        g_mean = mean_client.compute_update(w, model)
        np.testing.assert_allclose(g_sum, g_mean * 16, rtol=1e-10)

    def test_different_rounds_different_batches(self, dataset, model, rng):
        client = VehicleClient(0, dataset, rng, batch_size=8)
        w = model.get_flat_params()
        g1 = client.compute_update(w, model)
        g2 = client.compute_update(w, model)
        assert not np.allclose(g1, g2)

    def test_does_not_corrupt_global_params(self, dataset, model, rng):
        client = VehicleClient(0, dataset, rng)
        w = model.get_flat_params()
        w_copy = w.copy()
        client.compute_update(w, model)
        np.testing.assert_array_equal(w, w_copy)

    def test_local_steps_pseudo_gradient(self, dataset, model, rng):
        client = VehicleClient(0, dataset, rng, batch_size=8, local_steps=3, local_lr=0.1)
        w = model.get_flat_params()
        g = client.compute_update(w, model)
        # Applying the pseudo-gradient with local_lr reproduces the
        # endpoint of the local trajectory.
        assert g.shape == (model.num_params,)
        assert np.isfinite(g).all()


class TestFullGradient:
    def test_deterministic(self, dataset, model, rng):
        client = VehicleClient(0, dataset, rng, batch_size=16)
        w = model.get_flat_params()
        g1 = client.full_gradient(w, model)
        g2 = client.full_gradient(w, model)
        np.testing.assert_array_equal(g1, g2)

    def test_matches_manual_full_batch(self, dataset, model, rng):
        client = VehicleClient(0, dataset, rng, batch_size=16, reduction="mean")
        w = model.get_flat_params()
        g = client.full_gradient(w, model)
        model.set_flat_params(w)
        _, expected = model.loss_and_flat_grad(dataset.x, dataset.y)
        np.testing.assert_allclose(g, expected, atol=1e-10)

    def test_sum_reduction_scale(self, dataset, model, rng):
        client = VehicleClient(0, dataset, rng, batch_size=16, reduction="sum")
        w = model.get_flat_params()
        g_sum = client.full_gradient(w, model)
        client_mean = VehicleClient(0, dataset, rng, batch_size=16, reduction="mean")
        g_mean = client_mean.full_gradient(w, model)
        np.testing.assert_allclose(g_sum, g_mean * 16, rtol=1e-10)
