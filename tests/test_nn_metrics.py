"""Tests for repro.nn.metrics."""

import numpy as np
import pytest

from repro.nn.metrics import accuracy


class TestAccuracy:
    def test_perfect(self):
        assert accuracy(np.array([0, 1, 2]), np.array([0, 1, 2])) == 1.0

    def test_none_correct(self):
        assert accuracy(np.array([1, 2, 0]), np.array([0, 1, 2])) == 0.0

    def test_partial(self):
        assert accuracy(np.array([0, 1, 0, 0]), np.array([0, 1, 1, 1])) == 0.5

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            accuracy(np.array([]), np.array([]))

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError):
            accuracy(np.array([0, 1]), np.array([0]))
