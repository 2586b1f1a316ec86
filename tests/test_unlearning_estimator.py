"""Tests for Eq. 6 estimation and Eq. 7 clipping."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.unlearning import GradientEstimator, clip_elementwise, estimate_gradient
from repro.unlearning.lbfgs import LbfgsBuffer


class TestClipElementwise:
    def test_paper_formula(self):
        """Eq. 7: x / max(1, |x|/L) elementwise."""
        g = np.array([0.5, -3.0, 2.0, -0.1])
        out = clip_elementwise(g, 1.0)
        expected = g / np.maximum(1.0, np.abs(g) / 1.0)
        np.testing.assert_allclose(out, expected)
        np.testing.assert_allclose(out, [0.5, -1.0, 1.0, -0.1])

    def test_below_threshold_unchanged(self, rng):
        g = rng.uniform(-0.9, 0.9, size=50)
        np.testing.assert_array_equal(clip_elementwise(g, 1.0), g)

    def test_infinite_threshold_is_identity(self, rng):
        g = rng.normal(size=20) * 100
        np.testing.assert_array_equal(clip_elementwise(g, np.inf), g)

    def test_invalid_threshold(self):
        with pytest.raises(ValueError):
            clip_elementwise(np.zeros(3), 0.0)
        with pytest.raises(ValueError):
            clip_elementwise(np.zeros(3), -1.0)

    @given(st.floats(0.01, 100.0))
    @settings(max_examples=30, deadline=None)
    def test_output_bounded_property(self, threshold):
        rng = np.random.default_rng(int(threshold * 100))
        g = rng.normal(size=64) * 50
        out = clip_elementwise(g, threshold)
        assert (np.abs(out) <= threshold + 1e-12).all()
        # Sign never flips.
        assert (np.sign(out) == np.sign(g)).all() or (g == 0).any()


class TestEstimateGradient:
    def test_zero_displacement_returns_stored(self, rng):
        buf = LbfgsBuffer()
        s = rng.normal(size=8)
        buf.add_pair(s, s)
        g = rng.normal(size=8)
        w = rng.normal(size=8)
        np.testing.assert_allclose(estimate_gradient(g, buf, w, w), g)

    def test_empty_buffer_returns_stored(self, rng):
        g = rng.normal(size=8)
        out = estimate_gradient(g, LbfgsBuffer(), rng.normal(size=8), rng.normal(size=8))
        np.testing.assert_array_equal(out, g)

    def test_eq6_on_quadratic(self, rng):
        """On a quadratic with Hessian A, estimates are exact in the
        pair span: g(w') = g(w) + A (w' - w)."""
        d = 10
        a_mat = rng.normal(size=(d, d))
        a = a_mat @ a_mat.T / d + np.eye(d)
        buf = LbfgsBuffer(buffer_size=d)
        for _ in range(d):
            s = rng.normal(size=d)
            buf.add_pair(s, a @ s)
        w = rng.normal(size=d)
        w_bar = w + rng.normal(size=d) * 0.1
        g_w = a @ w  # gradient of 0.5 w'Aw
        estimate = estimate_gradient(g_w, buf, w_bar, w)
        true = a @ w_bar
        assert np.linalg.norm(estimate - true) / np.linalg.norm(true) < 0.25

    def test_shape_mismatch_raises(self, rng):
        with pytest.raises(ValueError):
            estimate_gradient(np.zeros(3), LbfgsBuffer(), np.zeros(4), np.zeros(4))


class TestGradientEstimator:
    def test_estimate_is_clipped(self, rng):
        est = GradientEstimator(buffer_size=2, clip_threshold=0.5)
        s = rng.normal(size=6)
        est.seed_pair(s, s * 100)
        out = est.estimate(rng.normal(size=6), rng.normal(size=6), rng.normal(size=6))
        assert (np.abs(out) <= 0.5).all()

    def test_tracks_pair_statistics(self, rng):
        est = GradientEstimator()
        s = rng.normal(size=4)
        est.seed_pair(s, s)  # accepted
        est.seed_pair(np.zeros(4), s)  # rejected (zero step)
        assert est.pairs_accepted == 1
        assert est.pairs_rejected == 1

    def test_counts_estimates(self, rng):
        est = GradientEstimator()
        w = rng.normal(size=4)
        est.estimate(rng.normal(size=4), w, w)
        est.estimate(rng.normal(size=4), w, w)
        assert est.estimates_made == 2

    def test_invalid_clip_threshold(self):
        with pytest.raises(ValueError):
            GradientEstimator(clip_threshold=0.0)

    @pytest.mark.parametrize("seeded", [False, True])
    def test_int8_row_matches_float64_row_bitwise(self, rng, seeded):
        """A bulk ``get_round`` row arrives as int8; widened inside
        ``stored + hvp`` it must give the same bytes as a float64 row —
        the estimate and the refresh pair alike."""
        d = 64
        row8 = rng.integers(-1, 2, size=d).astype(np.int8)
        row64 = row8.astype(np.float64)
        disp = rng.normal(size=d) * 0.3
        est = GradientEstimator(buffer_size=3, clip_threshold=0.8)
        if seeded:
            for _ in range(3):
                s = rng.normal(size=d)
                est.seed_pair(s, s * rng.uniform(0.5, 2.0) + rng.normal(size=d) * 0.1)
        serial = [est.estimate_displaced(row, disp) for row in (row8, row64)]
        assert serial[0].dtype == np.float64
        assert serial[0].tobytes() == serial[1].tobytes()
        assert (serial[0] - row8).tobytes() == (serial[1] - row64).tobytes()
