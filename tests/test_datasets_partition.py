"""Tests for repro.datasets.partition — client splits."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datasets import (
    ArrayDataset,
    partition_dirichlet,
    partition_iid,
)


@pytest.fixture
def dataset(rng):
    return ArrayDataset(
        x=rng.normal(size=(120, 4)),
        y=rng.integers(0, 5, size=120),
        num_classes=5,
    )


def total_samples(shards):
    return sum(len(s) for s in shards)


def all_disjoint_and_complete(dataset, shards):
    rows = [x.tobytes() for s in shards for x in s.x]
    return len(rows) == len(set(rows)) == len(dataset)


class TestIid:
    def test_complete_partition(self, dataset, rng):
        shards = partition_iid(dataset, 8, rng)
        assert total_samples(shards) == len(dataset)
        assert all_disjoint_and_complete(dataset, shards)

    def test_near_equal_sizes(self, dataset, rng):
        shards = partition_iid(dataset, 7, rng)
        sizes = [len(s) for s in shards]
        assert max(sizes) - min(sizes) <= 1

    def test_too_many_clients_raises(self, dataset, rng):
        with pytest.raises(ValueError):
            partition_iid(dataset, 1000, rng)

    def test_zero_clients_raises(self, dataset, rng):
        with pytest.raises(ValueError):
            partition_iid(dataset, 0, rng)

    @given(st.integers(1, 12))
    @settings(max_examples=12, deadline=None)
    def test_any_client_count_is_complete(self, clients):
        rng = np.random.default_rng(0)
        ds = ArrayDataset(
            x=rng.normal(size=(60, 3)), y=rng.integers(0, 4, 60), num_classes=4
        )
        shards = partition_iid(ds, clients, rng)
        assert total_samples(shards) == 60


class TestDirichlet:
    def test_complete_partition(self, dataset, rng):
        shards = partition_dirichlet(dataset, 6, rng, alpha=0.5)
        assert total_samples(shards) == len(dataset)
        assert all_disjoint_and_complete(dataset, shards)

    def test_min_samples_respected(self, dataset, rng):
        shards = partition_dirichlet(dataset, 5, rng, alpha=1.0, min_samples=3)
        assert all(len(s) >= 3 for s in shards)

    def test_low_alpha_more_skewed(self, rng):
        ds = ArrayDataset(
            x=rng.normal(size=(2000, 2)),
            y=rng.integers(0, 10, size=2000),
            num_classes=10,
        )

        def skew(alpha, seed):
            shards = partition_dirichlet(ds, 10, np.random.default_rng(seed), alpha=alpha)
            props = np.stack(
                [np.bincount(s.y, minlength=s.num_classes) / max(1, len(s)) for s in shards]
            )
            return float(props.std())

        assert skew(0.1, 1) > skew(100.0, 2)

    def test_invalid_alpha(self, dataset, rng):
        with pytest.raises(ValueError):
            partition_dirichlet(dataset, 4, rng, alpha=0.0)
