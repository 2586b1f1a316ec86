"""Tests for the compact-form L-BFGS (Algorithm 2)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.unlearning import LbfgsBuffer, lbfgs_hessian_dense


def spd_matrix(rng, d):
    a = rng.normal(size=(d, d))
    return a @ a.T / d + np.eye(d)


class TestBufferBasics:
    def test_empty_hvp_is_zero(self, rng):
        buf = LbfgsBuffer(buffer_size=2)
        v = rng.normal(size=7)
        np.testing.assert_array_equal(buf.hvp(v), np.zeros(7))

    def test_add_pair_accepts_curved(self, rng):
        buf = LbfgsBuffer()
        s = rng.normal(size=5)
        assert buf.add_pair(s, s)  # y = s has positive curvature
        assert len(buf) == 1

    def test_rejects_zero_step(self):
        buf = LbfgsBuffer()
        assert not buf.add_pair(np.zeros(4), np.ones(4))
        assert buf.is_empty

    def test_rejects_negative_curvature(self, rng):
        buf = LbfgsBuffer()
        s = rng.normal(size=5)
        assert not buf.add_pair(s, -s)

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError):
            LbfgsBuffer().add_pair(np.zeros(3), np.zeros(4))

    def test_buffer_evicts_oldest(self, rng):
        buf = LbfgsBuffer(buffer_size=2)
        for _ in range(5):
            s = rng.normal(size=4)
            buf.add_pair(s, s)
        assert len(buf) == 2

    def test_clear(self, rng):
        buf = LbfgsBuffer()
        s = rng.normal(size=3)
        buf.add_pair(s, s)
        buf.clear()
        assert buf.is_empty

    def test_invalid_construction(self):
        with pytest.raises(ValueError):
            LbfgsBuffer(buffer_size=0)
        with pytest.raises(ValueError):
            LbfgsBuffer(sigma_floor=0.0)

    def test_hvp_wrong_dim_raises(self, rng):
        buf = LbfgsBuffer()
        s = rng.normal(size=4)
        buf.add_pair(s, s)
        with pytest.raises(ValueError):
            buf.hvp(np.zeros(5))


class TestQuadraticApproximation:
    def test_secant_on_latest_pair(self, rng):
        """BFGS satisfies B s_k = y_k for the most recent pair."""
        d = 12
        a = spd_matrix(rng, d)
        buf = LbfgsBuffer(buffer_size=4)
        pairs = []
        for _ in range(4):
            s = rng.normal(size=d)
            pairs.append((s, a @ s))
            buf.add_pair(s, a @ s)
        s_last, y_last = pairs[-1]
        np.testing.assert_allclose(buf.hvp(s_last), y_last, rtol=1e-8)

    def test_approximates_spd_hessian(self, rng):
        d = 15
        a = spd_matrix(rng, d)
        buf = LbfgsBuffer(buffer_size=8)
        for _ in range(8):
            s = rng.normal(size=d)
            buf.add_pair(s, a @ s)
        v = rng.normal(size=d)
        rel_err = np.linalg.norm(buf.hvp(v) - a @ v) / np.linalg.norm(a @ v)
        assert rel_err < 0.6  # quasi-Newton quality, not exactness

    def test_hvp_linear(self, rng):
        d = 8
        a = spd_matrix(rng, d)
        buf = LbfgsBuffer(buffer_size=3)
        for _ in range(3):
            s = rng.normal(size=d)
            buf.add_pair(s, a @ s)
        u, v = rng.normal(size=d), rng.normal(size=d)
        np.testing.assert_allclose(
            buf.hvp(2 * u + 3 * v), 2 * buf.hvp(u) + 3 * buf.hvp(v), rtol=1e-8
        )


class TestDenseAlgorithm2:
    def test_symmetric(self, rng):
        d, s = 10, 3
        a = spd_matrix(rng, d)
        dw = rng.normal(size=(d, s))
        h = lbfgs_hessian_dense(dw, a @ dw)
        np.testing.assert_allclose(h, h.T, atol=1e-10)

    def test_matches_buffer_hvp(self, rng):
        """The matrix form of Algorithm 2 and the product form agree."""
        d, s = 9, 3
        a = spd_matrix(rng, d)
        dw = rng.normal(size=(d, s))
        dg = a @ dw
        h = lbfgs_hessian_dense(dw, dg)
        buf = LbfgsBuffer(buffer_size=s)
        for j in range(s):
            buf.add_pair(dw[:, j], dg[:, j])
        v = rng.normal(size=d)
        np.testing.assert_allclose(h @ v, buf.hvp(v), rtol=1e-7, atol=1e-9)

    def test_exact_for_sigma_scaled_identity(self, rng):
        """If the true Hessian is σI the approximation is exact."""
        d, s = 6, 2
        sigma = 2.5
        dw = rng.normal(size=(d, s))
        h = lbfgs_hessian_dense(dw, sigma * dw)
        np.testing.assert_allclose(h, sigma * np.eye(d), atol=1e-8)

    def test_shape_validation(self, rng):
        with pytest.raises(ValueError):
            lbfgs_hessian_dense(rng.normal(size=(4, 2)), rng.normal(size=(4, 3)))

    def test_dense_size_guard(self):
        with pytest.raises(ValueError):
            LbfgsBuffer().dense(5000)


class TestRobustness:
    @given(st.integers(1, 5))
    @settings(max_examples=20, deadline=None)
    def test_hvp_always_finite(self, num_pairs):
        """Even with badly-scaled sign-unit pairs the product is finite."""
        rng = np.random.default_rng(num_pairs)
        buf = LbfgsBuffer(buffer_size=num_pairs)
        for _ in range(num_pairs):
            s = rng.normal(size=20) * 1e-4  # tiny steps
            y = rng.choice([-2.0, 0.0, 2.0], size=20)  # sign-difference units
            buf.add_pair(s, y)
        out = buf.hvp(rng.normal(size=20))
        assert np.isfinite(out).all()

    def test_duplicate_pairs_no_crash(self, rng):
        """Identical pairs make the middle matrix singular; the lstsq
        fallback must keep the product finite."""
        buf = LbfgsBuffer(buffer_size=3)
        s = rng.normal(size=10)
        for _ in range(3):
            buf.add_pair(s, s * 2)
        assert np.isfinite(buf.hvp(rng.normal(size=10))).all()


@pytest.mark.parametrize("d", [1, 7, 610])
@pytest.mark.parametrize("s", [1, 2, 3])
@pytest.mark.parametrize("shared", [True, False])
def test_stacked_forms_equal_each_buffers_form(d, s, shared):
    """Row k of the stack holds ``buffers[k].compact_form()`` bit for
    bit, ΔW shared or per row."""
    from repro.unlearning.lbfgs import stack_compact_forms

    rng = np.random.default_rng(d * 10 + s)
    pool = [rng.normal(size=d) for _ in range(s)]
    buffers = []
    while len(buffers) < 6:
        buf = LbfgsBuffer(buffer_size=s)
        for j in range(s):
            w = pool[j] if shared else rng.normal(size=d)
            buf.adopt_pair(w, rng.uniform(0.5, 1.5) * w + 0.1 * rng.normal(size=d))
        if len(buf) == s:
            buffers.append(buf)
    dw, which, dg, sigma, middle, wing = stack_compact_forms(
        [buf.pairs() for buf in buffers]
    )
    assert len(dw) == (1 if shared else len(buffers))
    for k, buf in enumerate(buffers):
        want = buf.compact_form()
        got = (dw[which[k]], dg[k], sigma[k], middle[k], wing[k])
        for a, b in zip(want, got):
            assert np.float64(a).tobytes() == np.ascontiguousarray(b).tobytes()
