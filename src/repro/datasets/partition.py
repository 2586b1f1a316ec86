"""Partitioning a dataset across federated clients.

Two standard schemes:

- :func:`partition_iid` — uniform random split, the setting of the
  paper's experiments.
- :func:`partition_dirichlet` — label-skewed non-IID split via a
  per-client Dirichlet draw over classes (the standard FL heterogeneity
  model), used by the extension experiments.

Both return one :class:`~repro.datasets.base.ArrayDataset` per client.
FedAvg weighting (Eq. 1) uses ``len(dataset)`` of each shard, so shard
sizes are preserved exactly.
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.datasets.base import ArrayDataset

__all__ = ["partition_iid", "partition_dirichlet"]


def _validate(dataset: ArrayDataset, num_clients: int) -> None:
    if num_clients <= 0:
        raise ValueError(f"num_clients must be positive, got {num_clients}")
    if len(dataset) < num_clients:
        raise ValueError(
            f"dataset has {len(dataset)} samples, fewer than {num_clients} clients"
        )


def partition_iid(
    dataset: ArrayDataset, num_clients: int, rng: np.random.Generator
) -> List[ArrayDataset]:
    """Uniform random partition into ``num_clients`` near-equal shards."""
    _validate(dataset, num_clients)
    order = rng.permutation(len(dataset))
    shards = np.array_split(order, num_clients)
    return [
        dataset.subset(shard, name=f"{dataset.name}-client{i}")
        for i, shard in enumerate(shards)
    ]


def partition_dirichlet(
    dataset: ArrayDataset,
    num_clients: int,
    rng: np.random.Generator,
    alpha: float = 0.5,
    min_samples: int = 1,
) -> List[ArrayDataset]:
    """Label-skewed partition: client class mixtures ~ Dirichlet(alpha).

    Smaller ``alpha`` means more heterogeneity.  Re-draws until every
    client holds at least ``min_samples`` samples (bounded retries).
    """
    _validate(dataset, num_clients)
    if alpha <= 0:
        raise ValueError(f"alpha must be positive, got {alpha}")
    if min_samples < 0:
        raise ValueError("min_samples must be non-negative")

    labels = dataset.y
    for _attempt in range(100):
        client_indices: List[List[int]] = [[] for _ in range(num_clients)]
        for cls in range(dataset.num_classes):
            cls_idx = np.flatnonzero(labels == cls)
            if cls_idx.size == 0:
                continue
            rng.shuffle(cls_idx)
            proportions = rng.dirichlet(np.full(num_clients, alpha))
            # Convert proportions to contiguous split points.
            cuts = (np.cumsum(proportions)[:-1] * cls_idx.size).astype(int)
            for client, part in enumerate(np.split(cls_idx, cuts)):
                client_indices[client].extend(part.tolist())
        sizes = [len(ci) for ci in client_indices]
        if min(sizes) >= min_samples:
            return [
                dataset.subset(np.array(sorted(ci)), name=f"{dataset.name}-client{i}")
                for i, ci in enumerate(client_indices)
            ]
    raise RuntimeError(
        "could not satisfy min_samples after 100 Dirichlet draws; "
        "reduce num_clients or min_samples, or increase alpha"
    )
