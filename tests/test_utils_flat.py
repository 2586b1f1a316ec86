"""Tests for repro.utils.flat — flat-vector helpers, incl. property tests."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.utils.flat import (
    flatten_arrays,
    shapes_of,
    total_size,
    unflatten_vector,
)


class TestFlattenUnflatten:
    def test_round_trip(self, rng):
        arrays = [rng.normal(size=s) for s in [(3, 4), (5,), (2, 2, 2)]]
        flat = flatten_arrays(arrays)
        back = unflatten_vector(flat, shapes_of(arrays))
        for a, b in zip(arrays, back):
            np.testing.assert_array_equal(a, b)

    def test_empty_list(self):
        assert flatten_arrays([]).shape == (0,)

    def test_flatten_copies(self, rng):
        a = rng.normal(size=(3,))
        flat = flatten_arrays([a])
        flat[0] = 999.0
        assert a[0] != 999.0

    def test_unflatten_copies(self, rng):
        flat = rng.normal(size=6)
        arrays = unflatten_vector(flat, [(2, 3)])
        arrays[0][0, 0] = 123.0
        assert flat[0] != 123.0

    def test_length_mismatch_raises(self):
        with pytest.raises(ValueError, match="require"):
            unflatten_vector(np.zeros(5), [(2, 3)])

    def test_order_preserved(self):
        flat = flatten_arrays([np.array([1.0, 2.0]), np.array([[3.0], [4.0]])])
        np.testing.assert_array_equal(flat, [1.0, 2.0, 3.0, 4.0])

    @given(
        st.lists(
            st.tuples(st.integers(1, 4), st.integers(1, 4)), min_size=1, max_size=5
        )
    )
    @settings(max_examples=30, deadline=None)
    def test_round_trip_property(self, shapes):
        rng = np.random.default_rng(0)
        arrays = [rng.normal(size=s) for s in shapes]
        back = unflatten_vector(flatten_arrays(arrays), shapes)
        assert all(np.array_equal(a, b) for a, b in zip(arrays, back))


class TestTotalSize:
    def test_basic(self):
        assert total_size([(2, 3), (4,)]) == 10

    def test_empty(self):
        assert total_size([]) == 0
