"""Tests for repro.datasets.base — ArrayDataset and splitting."""

import numpy as np
import pytest

from repro.datasets import ArrayDataset, train_test_split


@pytest.fixture
def dataset(rng):
    return ArrayDataset(
        x=rng.normal(size=(30, 2, 4, 4)),
        y=rng.integers(0, 3, size=30),
        num_classes=3,
    )


class TestConstruction:
    def test_len(self, dataset):
        assert len(dataset) == 30

    def test_mismatched_lengths_raise(self, rng):
        with pytest.raises(ValueError):
            ArrayDataset(x=rng.normal(size=(5, 2)), y=np.zeros(4, dtype=int), num_classes=2)

    def test_label_out_of_range_raises(self, rng):
        with pytest.raises(ValueError):
            ArrayDataset(x=rng.normal(size=(3, 2)), y=np.array([0, 1, 5]), num_classes=3)

    def test_negative_label_raises(self, rng):
        with pytest.raises(ValueError):
            ArrayDataset(x=rng.normal(size=(2, 2)), y=np.array([0, -1]), num_classes=2)

    def test_2d_labels_raise(self, rng):
        with pytest.raises(ValueError):
            ArrayDataset(x=rng.normal(size=(2, 2)), y=np.zeros((2, 1), dtype=int), num_classes=2)


class TestSubset:
    def test_selects_rows(self, dataset):
        sub = dataset.subset([0, 2, 4])
        assert len(sub) == 3
        np.testing.assert_array_equal(sub.y, dataset.y[[0, 2, 4]])

    def test_copies(self, dataset):
        sub = dataset.subset([0])
        sub.x[0] = 0.0
        assert dataset.x[0].any()


class TestSampleBatch:
    def test_shape(self, dataset, rng):
        xb, yb = dataset.sample_batch(8, rng)
        assert xb.shape[0] == 8 and yb.shape == (8,)

    def test_capped_at_dataset_size(self, dataset, rng):
        xb, _ = dataset.sample_batch(999, rng)
        assert xb.shape[0] == len(dataset)

    def test_empty_raises(self, rng):
        empty = ArrayDataset(np.zeros((0, 2)), np.zeros(0, dtype=int), num_classes=2)
        with pytest.raises(ValueError):
            empty.sample_batch(4, rng)


class TestTrainTestSplit:
    def test_partition_sizes(self, dataset, rng):
        train, test = train_test_split(dataset, 0.2, rng)
        assert len(train) + len(test) == len(dataset)
        assert len(test) == 6

    def test_disjoint(self, dataset, rng):
        """No sample appears in both splits (checked via unique rows)."""
        train, test = train_test_split(dataset, 0.3, rng)
        train_flat = {t.tobytes() for t in train.x}
        test_flat = {t.tobytes() for t in test.x}
        assert not train_flat & test_flat

    def test_invalid_fraction(self, dataset, rng):
        with pytest.raises(ValueError):
            train_test_split(dataset, 0.0, rng)
        with pytest.raises(ValueError):
            train_test_split(dataset, 1.0, rng)
