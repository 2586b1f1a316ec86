"""Tests for aggregation rules, incl. hypothesis properties for FedAvg."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fl import coordinate_median, fedavg, trimmed_mean
from repro.fl.aggregation import AGGREGATORS


class TestFedAvg:
    def test_equal_weights_is_mean(self, rng):
        grads = [rng.normal(size=8) for _ in range(4)]
        out = fedavg(grads, [1.0] * 4)
        np.testing.assert_allclose(out, np.mean(grads, axis=0))

    def test_weighting_eq1(self):
        """Eq. 1: dataset-size-weighted average."""
        out = fedavg([np.array([0.0]), np.array([3.0])], [1, 2])
        assert out[0] == pytest.approx(2.0)

    def test_single_client(self, rng):
        g = rng.normal(size=5)
        np.testing.assert_allclose(fedavg([g], [7]), g)

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            fedavg([], [])

    def test_weight_count_mismatch_raises(self, rng):
        with pytest.raises(ValueError):
            fedavg([rng.normal(size=3)], [1, 2])

    def test_negative_weight_raises(self, rng):
        with pytest.raises(ValueError):
            fedavg([rng.normal(size=3)] * 2, [1, -1])

    def test_zero_total_weight_raises(self, rng):
        with pytest.raises(ValueError):
            fedavg([rng.normal(size=3)] * 2, [0, 0])

    @given(st.integers(1, 8), st.integers(1, 16))
    @settings(max_examples=30, deadline=None)
    def test_convexity_property(self, n, d):
        """FedAvg output is inside the coordinate-wise envelope."""
        rng = np.random.default_rng(n * 100 + d)
        grads = [rng.normal(size=d) for _ in range(n)]
        weights = rng.uniform(0.1, 5.0, size=n)
        out = fedavg(grads, weights)
        stacked = np.stack(grads)
        assert (out >= stacked.min(axis=0) - 1e-12).all()
        assert (out <= stacked.max(axis=0) + 1e-12).all()

    @given(st.integers(2, 6))
    @settings(max_examples=20, deadline=None)
    def test_permutation_invariance(self, n):
        rng = np.random.default_rng(n)
        grads = [rng.normal(size=4) for _ in range(n)]
        weights = list(rng.uniform(0.5, 2.0, size=n))
        out1 = fedavg(grads, weights)
        order = rng.permutation(n)
        out2 = fedavg([grads[i] for i in order], [weights[i] for i in order])
        np.testing.assert_allclose(out1, out2)

    def test_scale_invariant_in_weights(self, rng):
        grads = [rng.normal(size=4) for _ in range(3)]
        w = [1.0, 2.0, 3.0]
        np.testing.assert_allclose(fedavg(grads, w), fedavg(grads, [10 * x for x in w]))


class TestMedian:
    def test_resists_outlier(self, rng):
        honest = [np.ones(4) for _ in range(4)]
        attacker = [np.full(4, 1e9)]
        out = coordinate_median(honest + attacker)
        np.testing.assert_allclose(out, np.ones(4))

    def test_odd_count_exact(self):
        out = coordinate_median([np.array([1.0]), np.array([5.0]), np.array([3.0])])
        assert out[0] == 3.0


class TestTrimmedMean:
    def test_drops_extremes(self):
        grads = [np.array([v]) for v in [0.0, 1.0, 2.0, 3.0, 100.0]]
        out = trimmed_mean(grads, trim_fraction=0.2)
        assert out[0] == pytest.approx(2.0)

    def test_invalid_fraction(self, rng):
        with pytest.raises(ValueError):
            trimmed_mean([rng.normal(size=2)] * 3, trim_fraction=0.5)

    def test_never_trims_everything(self, rng):
        """With trim_fraction < 0.5, at least one gradient survives."""
        out = trimmed_mean([rng.normal(size=2)] * 2, trim_fraction=0.49)
        assert np.isfinite(out).all()


class TestRegistry:
    def test_contains_paper_rule(self):
        assert "fedavg" in AGGREGATORS

    def test_all_callable(self, rng):
        grads = [rng.normal(size=3) for _ in range(5)]
        for rule in AGGREGATORS.values():
            out = rule(grads, [1.0] * 5)
            assert out.shape == (3,)


class TestMatrixInput:
    """A stacked ``(n, d)`` array is the gradient matrix itself."""

    @pytest.mark.parametrize("name", sorted(AGGREGATORS))
    def test_array_equals_list_bitwise(self, name, rng):
        block = rng.normal(size=(5, 7))
        weights = rng.uniform(1, 10, size=5).tolist()
        aggregate = AGGREGATORS[name]
        assert (
            aggregate(block, weights).tobytes()
            == aggregate(list(block), weights).tobytes()
        )

    def test_float64_block_is_not_copied(self, rng):
        from repro.fl.aggregation import _validate

        block = rng.normal(size=(3, 4))
        assert _validate(block) is block

    @pytest.mark.parametrize("name", sorted(AGGREGATORS))
    def test_empty_array_raises_documented_error(self, name):
        with pytest.raises(ValueError, match="empty gradient list"):
            AGGREGATORS[name](np.empty((0, 4)), [])

    def test_array_weight_errors(self, rng):
        block = rng.normal(size=(2, 3))
        with pytest.raises(ValueError, match="non-negative"):
            fedavg(block, [1, -1])
        with pytest.raises(ValueError, match="sum to zero"):
            fedavg(block, [0, 0])
        with pytest.raises(ValueError, match="one weight per gradient"):
            fedavg(block, [1])
