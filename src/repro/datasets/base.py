"""Dataset containers.

A dataset in this reproduction is an in-memory pair of arrays:
``x`` with shape ``(N, C, H, W)`` (or ``(N, F)`` for tabular data) and
integer labels ``y`` with shape ``(N,)``.  :class:`ArrayDataset` wraps
the pair with the operations the FL substrate needs — deterministic
shuffled minibatching, subsetting, and class bookkeeping.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator, Optional, Sequence, Tuple

import numpy as np

__all__ = ["ArrayDataset", "train_test_split"]

#: Bound on one float64 temporary of a synthetic generator's rendering
#: chunk (a pass holds about four): twenty 28x28 eight-stroke digits,
#: so a chunk's working set stays a few MiB whatever the dataset size.
RENDER_BYTES = 1 << 20


@dataclass
class ArrayDataset:
    """Immutable-by-convention in-memory dataset.

    Attributes
    ----------
    x:
        Features, first axis is the sample axis.
    y:
        Integer labels, shape ``(N,)``.
    num_classes:
        Number of classes in the underlying task (may exceed the number
        of classes present in this particular subset).
    name:
        Human-readable provenance tag, carried through subsetting.
    """

    x: np.ndarray
    y: np.ndarray
    num_classes: int
    name: str = "dataset"

    def __post_init__(self) -> None:
        self.x = np.asarray(self.x, dtype=np.float64)
        self.y = np.asarray(self.y, dtype=np.int64)
        if self.x.shape[0] != self.y.shape[0]:
            raise ValueError(
                f"x has {self.x.shape[0]} samples but y has {self.y.shape[0]}"
            )
        if self.y.ndim != 1:
            raise ValueError(f"y must be 1-D, got shape {self.y.shape}")
        if self.num_classes <= 0:
            raise ValueError("num_classes must be positive")
        if self.y.size and (self.y.min() < 0 or self.y.max() >= self.num_classes):
            raise ValueError("labels out of range for num_classes")

    def __len__(self) -> int:
        return int(self.x.shape[0])

    def subset(self, indices: Sequence[int], name: Optional[str] = None) -> "ArrayDataset":
        """New dataset holding only ``indices`` (copies the slices)."""
        idx = np.asarray(indices, dtype=np.int64)
        return ArrayDataset(
            x=self.x[idx].copy(),
            y=self.y[idx].copy(),
            num_classes=self.num_classes,
            name=name or self.name,
        )

    def class_counts(self) -> np.ndarray:
        """Per-class sample counts, length ``num_classes``."""
        return np.bincount(self.y, minlength=self.num_classes)

    def batches(
        self,
        batch_size: int,
        rng: Optional[np.random.Generator] = None,
        drop_last: bool = False,
    ) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
        """Yield ``(xb, yb)`` minibatches.

        With an ``rng`` the sample order is a fresh uniform shuffle;
        without one the order is the stored order (useful in tests).
        """
        if batch_size <= 0:
            raise ValueError("batch_size must be positive")
        n = len(self)
        order = np.arange(n)
        if rng is not None:
            rng.shuffle(order)
        for start in range(0, n, batch_size):
            idx = order[start : start + batch_size]
            if drop_last and idx.size < batch_size:
                return
            yield self.x[idx], self.y[idx]

    def sample_batch(
        self, batch_size: int, rng: np.random.Generator
    ) -> Tuple[np.ndarray, np.ndarray]:
        """One uniformly sampled (with replacement) minibatch — the SGD
        sampling model of the paper (one stochastic batch per round)."""
        if len(self) == 0:
            raise ValueError("cannot sample from an empty dataset")
        idx = rng.integers(0, len(self), size=min(batch_size, len(self)))
        return self.x[idx], self.y[idx]

    def merged_with(self, other: "ArrayDataset", name: Optional[str] = None) -> "ArrayDataset":
        """Concatenate two datasets over the sample axis."""
        if self.num_classes != other.num_classes:
            raise ValueError("cannot merge datasets with different num_classes")
        if self.x.shape[1:] != other.x.shape[1:]:
            raise ValueError("cannot merge datasets with different feature shapes")
        return ArrayDataset(
            x=np.concatenate([self.x, other.x], axis=0),
            y=np.concatenate([self.y, other.y], axis=0),
            num_classes=self.num_classes,
            name=name or f"{self.name}+{other.name}",
        )


def train_test_split(
    dataset: ArrayDataset, test_fraction: float, rng: np.random.Generator
) -> Tuple[ArrayDataset, ArrayDataset]:
    """Shuffle and split into (train, test)."""
    if not 0.0 < test_fraction < 1.0:
        raise ValueError(f"test_fraction must be in (0, 1), got {test_fraction}")
    n = len(dataset)
    order = rng.permutation(n)
    n_test = max(1, int(round(n * test_fraction)))
    test_idx = order[:n_test]
    train_idx = order[n_test:]
    return (
        dataset.subset(train_idx, name=f"{dataset.name}-train"),
        dataset.subset(test_idx, name=f"{dataset.name}-test"),
    )


def check_render_args(image_size: int, noise_std: float) -> None:
    """Reject a size or noise scale no image can be rendered with."""
    if image_size < 1:
        raise ValueError(f"image_size must be positive, got {image_size}")
    if not noise_std >= 0.0:
        raise ValueError(f"noise_std must be non-negative, got {noise_std}")


def render_batched(
    labels: np.ndarray,
    images: np.ndarray,
    draw: Callable[[int, np.ndarray], np.ndarray],
    render: Callable[[int, np.ndarray, np.ndarray], None],
    row_bytes: Callable[[int], int],
) -> None:
    """Fill ``images`` for a synthetic generator in chunked batches.

    ``draw(label, image)`` runs once per sample, in order: it returns
    the sample's parameter row and writes its pixel noise into
    ``image``.  Then ``render(label, chunk, rows)`` runs per class over
    as many samples as keep ``row_bytes(label)`` each under
    :data:`RENDER_BYTES`, at least one, and overwrites the chunk.
    """
    rows = [draw(int(label), image) for label, image in zip(labels, images)]
    for label in np.unique(labels):
        idx = np.flatnonzero(labels == label)
        step = max(1, RENDER_BYTES // row_bytes(int(label)))
        for lo in range(0, len(idx), step):
            chunk_idx = idx[lo : lo + step]
            chunk = images[chunk_idx]
            render(int(label), chunk, np.array([rows[i] for i in chunk_idx]))
            images[chunk_idx] = chunk
