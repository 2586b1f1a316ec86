"""Tests for repro.nn.optim.SGD."""

import numpy as np
import pytest

from repro.nn import SGD


class TestSGD:
    def test_plain_step(self):
        opt = SGD(lr=0.1)
        params = np.array([1.0, 2.0])
        grad = np.array([1.0, -1.0])
        np.testing.assert_allclose(opt.step(params, grad), [0.9, 2.1])

    def test_does_not_mutate_inputs(self):
        opt = SGD(lr=0.1)
        params = np.array([1.0])
        grad = np.array([1.0])
        opt.step(params, grad)
        assert params[0] == 1.0 and grad[0] == 1.0

    def test_weight_decay(self):
        opt = SGD(lr=0.1, weight_decay=0.5)
        out = opt.step(np.array([2.0]), np.array([0.0]))
        np.testing.assert_allclose(out, [2.0 - 0.1 * 0.5 * 2.0])

    def test_momentum_accumulates(self):
        opt = SGD(lr=1.0, momentum=0.9)
        p = np.array([0.0])
        g = np.array([1.0])
        p1 = opt.step(p, g)  # v = 1 -> p = -1
        p2 = opt.step(p1, g)  # v = 1.9 -> p = -2.9
        assert p1[0] == pytest.approx(-1.0)
        assert p2[0] == pytest.approx(-2.9)

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError):
            SGD(lr=0.1).step(np.zeros(2), np.zeros(3))

    @pytest.mark.parametrize("kwargs", [
        {"lr": 0.0}, {"lr": -1.0},
        {"lr": 0.1, "momentum": 1.0}, {"lr": 0.1, "momentum": -0.1},
        {"lr": 0.1, "weight_decay": -1.0},
    ])
    def test_invalid_hyperparameters(self, kwargs):
        with pytest.raises(ValueError):
            SGD(**kwargs)

    def test_converges_on_quadratic(self):
        """SGD minimizes 0.5||x - target||^2."""
        target = np.array([3.0, -2.0])
        x = np.zeros(2)
        opt = SGD(lr=0.2)
        for _ in range(100):
            x = opt.step(x, x - target)
        np.testing.assert_allclose(x, target, atol=1e-6)
