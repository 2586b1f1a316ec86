"""Tests for repro.nn.layers — shapes, numerical gradients, error paths."""

import numpy as np
import pytest

from repro.nn.layers import (
    Conv2d,
    Dense,
    Flatten,
    MaxPool2d,
    ReLU,
    col2im,
    im2col,
)


def numerical_input_grad(layer, x, dout, eps=1e-6):
    """Central-difference gradient of sum(forward(x) * dout) w.r.t. x."""
    grad = np.zeros_like(x)
    flat_x = x.ravel()
    flat_g = grad.ravel()
    for i in range(flat_x.size):
        orig = flat_x[i]
        flat_x[i] = orig + eps
        up = float((layer.forward(x, training=False) * dout).sum())
        flat_x[i] = orig - eps
        down = float((layer.forward(x, training=False) * dout).sum())
        flat_x[i] = orig
        flat_g[i] = (up - down) / (2 * eps)
    return grad


def numerical_param_grad(layer, param, x, dout, eps=1e-6):
    grad = np.zeros_like(param)
    flat_p = param.ravel()
    flat_g = grad.ravel()
    for i in range(flat_p.size):
        orig = flat_p[i]
        flat_p[i] = orig + eps
        up = float((layer.forward(x, training=False) * dout).sum())
        flat_p[i] = orig - eps
        down = float((layer.forward(x, training=False) * dout).sum())
        flat_p[i] = orig
        flat_g[i] = (up - down) / (2 * eps)
    return grad


class TestDense:
    def test_forward_shape(self, rng):
        layer = Dense(8, 5, rng)
        assert layer.forward(rng.normal(size=(3, 8))).shape == (3, 5)

    def test_forward_values(self, rng):
        layer = Dense(2, 2, rng)
        layer.weight[...] = np.array([[1.0, 0.0], [0.0, 2.0]])
        layer.bias[...] = np.array([0.5, -0.5])
        out = layer.forward(np.array([[1.0, 1.0]]))
        np.testing.assert_allclose(out, [[1.5, 1.5]])

    def test_backward_input_gradient(self, rng):
        layer = Dense(6, 4, rng)
        x = rng.normal(size=(3, 6))
        dout = rng.normal(size=(3, 4))
        layer.forward(x, training=True)
        dx = layer.backward(dout)
        np.testing.assert_allclose(dx, numerical_input_grad(layer, x, dout), atol=1e-5)

    def test_backward_weight_gradient(self, rng):
        layer = Dense(5, 3, rng)
        x = rng.normal(size=(4, 5))
        dout = rng.normal(size=(4, 3))
        layer.forward(x, training=True)
        layer.backward(dout)
        expected = numerical_param_grad(layer, layer.weight, x, dout)
        np.testing.assert_allclose(layer.grad_weight, expected, atol=1e-5)

    def test_backward_bias_gradient(self, rng):
        layer = Dense(5, 3, rng)
        x = rng.normal(size=(4, 5))
        dout = rng.normal(size=(4, 3))
        layer.forward(x, training=True)
        layer.backward(dout)
        expected = numerical_param_grad(layer, layer.bias, x, dout)
        np.testing.assert_allclose(layer.grad_bias, expected, atol=1e-5)

    def test_backward_before_forward_raises(self, rng):
        with pytest.raises(RuntimeError):
            Dense(3, 3, rng).backward(np.zeros((1, 3)))

    def test_wrong_input_shape_raises(self, rng):
        with pytest.raises(ValueError):
            Dense(3, 3, rng).forward(np.zeros((2, 4)))

    def test_invalid_sizes_raise(self, rng):
        with pytest.raises(ValueError):
            Dense(0, 3, rng)

    def test_num_params(self, rng):
        assert Dense(4, 3, rng).num_params == 4 * 3 + 3

    def test_grad_buffer_identity_stable(self, rng):
        """Sequential relies on grads() references staying valid."""
        layer = Dense(3, 2, rng)
        ref = layer.grads()[0]
        x = rng.normal(size=(2, 3))
        layer.forward(x, training=True)
        layer.backward(rng.normal(size=(2, 2)))
        assert layer.grads()[0] is ref


class TestConv2d:
    def test_forward_shape_same_padding(self, rng):
        layer = Conv2d(2, 4, kernel_size=3, rng=rng, padding=1)
        assert layer.forward(rng.normal(size=(2, 2, 8, 8))).shape == (2, 4, 8, 8)

    def test_forward_shape_valid(self, rng):
        layer = Conv2d(1, 3, kernel_size=3, rng=rng)
        assert layer.forward(rng.normal(size=(1, 1, 7, 7))).shape == (1, 3, 5, 5)

    def test_forward_stride(self, rng):
        layer = Conv2d(1, 2, kernel_size=3, rng=rng, stride=2, padding=1)
        assert layer.forward(rng.normal(size=(1, 1, 8, 8))).shape == (1, 2, 4, 4)

    def test_matches_direct_convolution(self, rng):
        """Cross-check im2col conv against a naive loop implementation."""
        layer = Conv2d(2, 3, kernel_size=3, rng=rng, padding=0)
        x = rng.normal(size=(1, 2, 5, 5))
        out = layer.forward(x, training=False)
        naive = np.zeros_like(out)
        for oc in range(3):
            for i in range(3):
                for j in range(3):
                    acc = np.zeros((3, 3))
                    for ic in range(2):
                        patch = x[0, ic, i : i + 3, j : j + 3]
                        acc += (patch * layer.weight[oc, ic]).sum()
                    naive[0, oc, i, j] = acc[0, 0] + layer.bias[oc]
        np.testing.assert_allclose(out, naive, atol=1e-10)

    def test_backward_input_gradient(self, rng):
        layer = Conv2d(2, 3, kernel_size=3, rng=rng, padding=1)
        x = rng.normal(size=(2, 2, 5, 5))
        dout = rng.normal(size=(2, 3, 5, 5))
        layer.forward(x, training=True)
        dx = layer.backward(dout)
        np.testing.assert_allclose(dx, numerical_input_grad(layer, x, dout), atol=1e-5)

    def test_backward_weight_gradient(self, rng):
        layer = Conv2d(1, 2, kernel_size=3, rng=rng, padding=1)
        x = rng.normal(size=(2, 1, 4, 4))
        dout = rng.normal(size=(2, 2, 4, 4))
        layer.forward(x, training=True)
        layer.backward(dout)
        expected = numerical_param_grad(layer, layer.weight, x, dout)
        np.testing.assert_allclose(layer.grad_weight, expected, atol=1e-5)

    def test_backward_bias_gradient(self, rng):
        layer = Conv2d(1, 2, kernel_size=3, rng=rng, padding=1)
        x = rng.normal(size=(2, 1, 4, 4))
        dout = rng.normal(size=(2, 2, 4, 4))
        layer.forward(x, training=True)
        layer.backward(dout)
        expected = numerical_param_grad(layer, layer.bias, x, dout)
        np.testing.assert_allclose(layer.grad_bias, expected, atol=1e-5)

    def test_wrong_channels_raise(self, rng):
        layer = Conv2d(2, 3, kernel_size=3, rng=rng)
        with pytest.raises(ValueError):
            layer.forward(np.zeros((1, 1, 5, 5)))

    def test_kernel_too_large_raises(self, rng):
        layer = Conv2d(1, 1, kernel_size=9, rng=rng)
        with pytest.raises(ValueError):
            layer.forward(np.zeros((1, 1, 5, 5)))


class TestIm2col:
    def test_round_trip_adjoint(self, rng):
        """<im2col(x), c> == <x, col2im(c)> — adjointness."""
        x = rng.normal(size=(2, 3, 6, 6))
        col, oh, ow = im2col(x, 3, 3, 1, 1)
        c = rng.normal(size=col.shape)
        lhs = float((col * c).sum())
        back = col2im(c, x.shape, 3, 3, 1, 1)
        rhs = float((x * back).sum())
        assert lhs == pytest.approx(rhs, rel=1e-10)

    def test_output_size(self, rng):
        col, oh, ow = im2col(rng.normal(size=(2, 1, 5, 5)), 3, 3, 1, 0)
        assert (oh, ow) == (3, 3)
        assert col.shape == (2 * 9, 9)


class TestMaxPool2d:
    def test_forward(self):
        x = np.arange(16, dtype=np.float64).reshape(1, 1, 4, 4)
        out = MaxPool2d(2).forward(x)
        np.testing.assert_array_equal(out[0, 0], [[5, 7], [13, 15]])

    def test_backward_routes_to_max(self, rng):
        layer = MaxPool2d(2)
        x = rng.normal(size=(2, 3, 4, 4))
        layer.forward(x, training=True)
        dout = rng.normal(size=(2, 3, 2, 2))
        dx = layer.backward(dout)
        assert dx.shape == x.shape
        # Gradient mass is conserved per pooling window.
        np.testing.assert_allclose(
            dx.reshape(2, 3, 2, 2, 2, 2).sum(axis=(3, 5)), dout, atol=1e-12
        )

    def test_indivisible_raises(self):
        with pytest.raises(ValueError):
            MaxPool2d(2).forward(np.zeros((1, 1, 5, 5)))

    def test_tie_splits_gradient(self):
        x = np.ones((1, 1, 2, 2))
        layer = MaxPool2d(2)
        layer.forward(x, training=True)
        dx = layer.backward(np.array([[[[4.0]]]]))
        np.testing.assert_allclose(dx, np.ones((1, 1, 2, 2)))


class TestActivations:
    def test_relu_forward(self):
        out = ReLU().forward(np.array([-1.0, 0.0, 2.0]))
        np.testing.assert_array_equal(out, [0.0, 0.0, 2.0])

    def test_relu_backward(self, rng):
        layer = ReLU()
        x = rng.normal(size=(4, 5))
        layer.forward(x, training=True)
        dout = rng.normal(size=(4, 5))
        dx = layer.backward(dout)
        np.testing.assert_array_equal(dx, dout * (x > 0))

    def test_backward_without_forward_raises(self):
        with pytest.raises(RuntimeError):
            ReLU().backward(np.zeros(3))


class TestFlatten:
    def test_round_trip(self, rng):
        layer = Flatten()
        x = rng.normal(size=(2, 3, 4, 5))
        out = layer.forward(x, training=True)
        assert out.shape == (2, 60)
        dx = layer.backward(out)
        np.testing.assert_array_equal(dx, x)
