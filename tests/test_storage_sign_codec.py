"""Tests for the 2-bit ternary sign codec, incl. hypothesis round trips."""

import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.storage import (
    decode_gradient,
    decode_round,
    encode_gradient,
    encode_round,
    pack_signs,
    pack_signs_batch,
    packed_size_bytes,
    storage_savings_ratio,
    ternarize,
    unpack_signs,
)


class TestTernarize:
    def test_paper_definition(self):
        """>δ -> +1, <-δ -> -1, between -> 0 (§IV)."""
        g = np.array([0.5, -0.5, 1e-8, -1e-8, 0.0])
        np.testing.assert_array_equal(ternarize(g, 1e-6), [1, -1, 0, 0, 0])

    def test_boundary_exactly_delta_is_zero(self):
        np.testing.assert_array_equal(ternarize(np.array([1e-6, -1e-6]), 1e-6), [0, 0])

    def test_zero_delta(self):
        g = np.array([0.1, -0.1, 0.0])
        np.testing.assert_array_equal(ternarize(g, 0.0), [1, -1, 0])

    def test_large_delta_zeroes_everything(self):
        g = np.array([0.5, -0.5])
        np.testing.assert_array_equal(ternarize(g, 1.0), [0, 0])

    def test_negative_delta_raises(self):
        with pytest.raises(ValueError):
            ternarize(np.zeros(3), -1.0)

    def test_dtype(self):
        assert ternarize(np.array([1.0]), 0.1).dtype == np.int8

    def test_preserves_shape(self, rng):
        g = rng.normal(size=(3, 4, 5))
        assert ternarize(g, 1e-6).shape == (3, 4, 5)


class TestPackUnpack:
    def test_round_trip(self, rng):
        signs = rng.choice([-1, 0, 1], size=101).astype(np.int8)
        packed, length = pack_signs(signs)
        np.testing.assert_array_equal(unpack_signs(packed, length), signs)

    def test_packing_density(self):
        """4 ternary values per byte."""
        packed, _ = pack_signs(np.zeros(100, dtype=np.int8))
        assert packed.nbytes == 25

    def test_padding(self):
        for n in (1, 2, 3, 4, 5):
            packed, length = pack_signs(np.ones(n, dtype=np.int8))
            assert length == n
            np.testing.assert_array_equal(unpack_signs(packed, n), np.ones(n))

    def test_empty(self):
        packed, length = pack_signs(np.zeros(0, dtype=np.int8))
        assert length == 0
        assert unpack_signs(packed, 0).shape == (0,)

    def test_invalid_values_raise(self):
        with pytest.raises(ValueError):
            pack_signs(np.array([2], dtype=np.int8))

    def test_non_flat_raises(self):
        with pytest.raises(ValueError):
            pack_signs(np.zeros((2, 2), dtype=np.int8))

    def test_short_buffer_raises(self):
        packed, _ = pack_signs(np.zeros(4, dtype=np.int8))
        with pytest.raises(ValueError):
            unpack_signs(packed, 100)

    @given(st.lists(st.sampled_from([-1, 0, 1]), min_size=0, max_size=200))
    @settings(max_examples=50, deadline=None)
    def test_round_trip_property(self, values):
        signs = np.array(values, dtype=np.int8)
        packed, length = pack_signs(signs)
        np.testing.assert_array_equal(unpack_signs(packed, length), signs)


class TestEncodeDecode:
    def test_encode_equals_ternarize_then_pack(self, rng):
        g = rng.normal(size=57) * 1e-3
        packed, length = encode_gradient(g, 1e-4)
        decoded = decode_gradient(packed, length)
        np.testing.assert_array_equal(decoded, ternarize(g, 1e-4).astype(np.float64))

    def test_decode_is_float(self, rng):
        packed, length = encode_gradient(rng.normal(size=9), 1e-6)
        assert decode_gradient(packed, length).dtype == np.float64

    @given(st.integers(1, 300))
    @settings(max_examples=30, deadline=None)
    def test_round_trip_any_length(self, n):
        rng = np.random.default_rng(n)
        g = rng.normal(size=n)
        packed, length = encode_gradient(g, 1e-6)
        assert length == n
        decoded = decode_gradient(packed, length)
        assert set(np.unique(decoded)).issubset({-1.0, 0.0, 1.0})


class TestDecodeRound:
    """Bulk round decode yields int8 rows equal to per-client unpacking,
    bit for bit; widened, they equal the float64 ``decode_gradient``."""

    # The codec test matrix: every delta / vector-length shape the codec
    # tests exercise, plus the degenerate cohorts.
    DELTAS = [0.0, 1e-6, 1e-4, 1.0]
    LENGTHS = [1, 3, 4, 5, 57, 101]

    @pytest.mark.parametrize("delta", DELTAS)
    @pytest.mark.parametrize("length", LENGTHS)
    def test_identity_vs_per_client_unpack(self, delta, length):
        rng = np.random.default_rng(length)
        gradients = rng.normal(size=(5, length)) * 10.0 ** float(rng.integers(-6, 1))
        packed, enc_length = encode_round(gradients, delta)
        assert enc_length == length
        decoded = decode_round(packed, length)
        assert decoded.shape == (5, length)
        assert decoded.dtype == np.int8
        for i in range(5):
            assert decoded[i].tobytes() == unpack_signs(packed[i], length).tobytes()
            assert (
                decoded[i].astype(np.float64).tobytes()
                == decode_gradient(packed[i], length).tobytes()
            )

    @pytest.mark.parametrize("length", [5, 101, 102, 103])
    def test_matches_shift_and_mask_reference(self, length):
        """Both decoders against the codec's definition — code point
        ``(byte >> 2·slot) & 3`` — not against each other, on a 2-D
        block whose length is not a multiple of 4, whose rows carry
        spare trailing bytes and which is not contiguous in memory."""
        rng = np.random.default_rng(length)
        signs = rng.integers(-1, 2, size=(6, length)).astype(np.int8)
        packed, _ = pack_signs_batch(signs)
        wide = np.zeros((6, 2 * (packed.shape[1] + 2)), dtype=np.uint8)
        wide[:, ::2][:, : packed.shape[1]] = packed
        block = wide[:, ::2]  # strided view, two spare bytes per row
        assert not block.flags.c_contiguous
        codes = (block[:, :, None] >> (2 * np.arange(4))) & 0b11
        reference = np.array([0, 1, -1, 0], dtype=np.int8)[codes].reshape(6, -1)
        np.testing.assert_array_equal(reference[:, :length], signs)
        decoded = decode_round(block, length)
        assert decoded.dtype == np.int8 and decoded.shape == (6, length)
        assert decoded.tobytes() == reference[:, :length].tobytes()
        for i in range(6):
            row = unpack_signs(block[i], length)
            assert row.dtype == np.int8
            assert row.tobytes() == signs[i].tobytes()

    def test_empty_cohort(self):
        """A round with zero clients decodes to an empty (0, d) int8 matrix."""
        packed = np.empty((0, packed_size_bytes(7)), dtype=np.uint8)
        decoded = decode_round(packed, 7)
        assert decoded.shape == (0, 7)
        assert decoded.dtype == np.int8

    def test_zero_length_round(self):
        packed, length = pack_signs_batch(np.zeros((3, 0), dtype=np.int8))
        decoded = decode_round(packed, length)
        assert decoded.shape == (3, 0)

    def test_all_zero_signs(self):
        """δ larger than every element stores all-zero directions."""
        packed, length = encode_round(np.full((4, 9), 0.5), delta=1.0)
        decoded = decode_round(packed, length)
        np.testing.assert_array_equal(decoded, np.zeros((4, 9)))
        for i in range(4):
            assert decoded[i].tobytes() == unpack_signs(packed[i], length).tobytes()

    def test_round_trip_through_encode_round(self, rng):
        g = rng.normal(size=(6, 33)) * 1e-3
        packed, length = encode_round(g, 1e-4)
        assert decode_round(packed, length).tobytes() == ternarize(g, 1e-4).tobytes()

    def test_non_2d_raises(self):
        with pytest.raises(ValueError):
            decode_round(np.zeros(4, dtype=np.uint8), 4)

    def test_short_rows_raise(self):
        with pytest.raises(ValueError):
            decode_round(np.zeros((2, 1), dtype=np.uint8), 100)

    def test_negative_length_raises(self):
        with pytest.raises(ValueError):
            decode_round(np.zeros((2, 1), dtype=np.uint8), -1)

    @given(st.integers(0, 6), st.integers(0, 120))
    @settings(max_examples=40, deadline=None)
    def test_identity_property(self, rows, length):
        rng = np.random.default_rng(rows * 1000 + length)
        signs = rng.choice([-1, 0, 1], size=(rows, length)).astype(np.int8)
        packed, enc_length = pack_signs_batch(signs)
        decoded = decode_round(packed, enc_length)
        assert decoded.shape == (rows, length) and decoded.dtype == np.int8
        for i in range(rows):
            assert decoded[i].tobytes() == unpack_signs(packed[i], length).tobytes()


class TestStorageAccounting:
    def test_packed_size(self):
        assert packed_size_bytes(0) == 0
        assert packed_size_bytes(1) == 1
        assert packed_size_bytes(4) == 1
        assert packed_size_bytes(5) == 2

    def test_savings_ratio_paper_claim(self):
        """2 bits vs 32 bits = 93.75% saved — 'approximately 95%'."""
        ratio = storage_savings_ratio(1_000_000)
        assert ratio == pytest.approx(0.9375, abs=1e-6)

    def test_savings_vs_float64(self):
        assert storage_savings_ratio(1000, full_dtype_bytes=8) == pytest.approx(
            1 - 250 / 8000
        )

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            packed_size_bytes(-1)
        with pytest.raises(ValueError):
            storage_savings_ratio(0)


# ----------------------------------------------------------------------
# the one-pass encoder == ternarize-then-pack, byte for byte
# ----------------------------------------------------------------------
#: ``make chaos`` (which sets CHAOS_SEEDS) runs the property at length.
CHAOS = "CHAOS_SEEDS" in os.environ


def reference_encode(gradients, delta):
    """Ternarize, then pack element by element — the two-pass encoder
    the one-pass ``encode_round`` replaced, written independently of
    every packing path in the codec."""
    signs = ternarize(gradients, delta)
    rows, length = signs.shape
    packed = np.zeros((rows, packed_size_bytes(length)), dtype=np.uint8)
    for i, j in np.argwhere(signs != 0):
        code = 1 if signs[i, j] == 1 else 2
        packed[i, j // 4] |= code << (2 * (j % 4))
    return packed


@st.composite
def gradient_rounds(draw):
    rows = draw(st.integers(0, 5))
    length = draw(st.one_of(st.just(1), st.integers(0, 67)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    dtype = draw(st.sampled_from([np.float64, np.float32]))
    delta = draw(st.one_of(st.just(0.0), st.floats(0.0, 2.0)))
    delta = float(dtype(delta))  # so that planted ties stay exact ties
    g = rng.normal(size=(rows, length)).astype(dtype)
    # Planted specials: exact ±δ ties (must stay 0), ±inf, NaN, ±0.0.
    specials = np.array([delta, -delta, np.inf, -np.inf, np.nan, 0.0, -0.0])
    mask = rng.random(g.shape) < 0.3
    g[mask] = rng.choice(specials, size=int(mask.sum()))
    if draw(st.booleans()) and length:
        # Non-contiguous rows: every other column of a wider matrix.
        wide = np.zeros((rows, 2 * length), dtype=g.dtype)
        wide[:, ::2] = g
        g = wide[:, ::2]
    return g, delta


@pytest.mark.chaos
@settings(max_examples=400 if CHAOS else 40, deadline=None)
@given(case=gradient_rounds())
def test_one_pass_encoder_matches_ternarize_then_pack(case):
    g, delta = case
    expected = reference_encode(g, delta)
    packed, length = encode_round(g, delta)
    assert (packed.shape, packed.dtype, length) == (expected.shape, np.uint8, g.shape[1])
    assert packed.tobytes() == expected.tobytes()
    assert pack_signs_batch(ternarize(g, delta))[0].tobytes() == expected.tobytes()
    for row, want in zip(g, expected):
        got, n = encode_gradient(row, delta)
        assert (got.tobytes(), n) == (want.tobytes(), g.shape[1])
        assert pack_signs(ternarize(row, delta))[0].tobytes() == want.tobytes()
