"""Aggregation rules.

The paper uses FedAvg (Eq. 1): the dataset-size-weighted mean of the
received gradients.  Median and trimmed-mean are included as the
standard Byzantine-robust alternatives used by the extension
experiments (the paper's intro situates unlearning as a complement to
such defenses).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

__all__ = ["fedavg", "coordinate_median", "trimmed_mean", "AGGREGATORS"]


def _validate(gradients: Sequence[np.ndarray]) -> np.ndarray:
    """The ``(n, d)`` float64 gradient matrix.  A 2-D array (one
    gradient per row, e.g. a replay round's estimate block) is the
    matrix itself, not copied when it is float64; anything else is
    stacked row by row."""
    if isinstance(gradients, np.ndarray) and gradients.ndim == 2:
        matrix = gradients.astype(np.float64, copy=False)
    elif len(gradients):
        matrix = np.stack(
            [np.asarray(g, dtype=np.float64).ravel() for g in gradients]
        )
    else:
        matrix = np.empty((0, 0))
    if not matrix.shape[0]:
        raise ValueError("cannot aggregate an empty gradient list")
    return matrix


def fedavg(
    gradients: Sequence[np.ndarray], weights: Sequence[float]
) -> np.ndarray:
    """Eq. 1: ``A(g_1..g_n) = (Σ |D_i| g_i) / Σ |D_i|``.

    ``weights`` are the client dataset sizes ``|D_i|``.
    """
    matrix = _validate(gradients)
    w = np.asarray(weights, dtype=np.float64)
    if w.shape != (matrix.shape[0],):
        raise ValueError(
            f"need one weight per gradient: {w.shape} vs {matrix.shape[0]} gradients"
        )
    if (w < 0).any():
        raise ValueError("weights must be non-negative")
    total = w.sum()
    if total <= 0:
        raise ValueError("weights sum to zero")
    return (w[:, None] * matrix).sum(axis=0) / total


def coordinate_median(
    gradients: Sequence[np.ndarray], weights: Sequence[float] | None = None
) -> np.ndarray:
    """Coordinate-wise median (weights ignored; kept for interface parity)."""
    matrix = _validate(gradients)
    return np.median(matrix, axis=0)


def trimmed_mean(
    gradients: Sequence[np.ndarray],
    weights: Sequence[float] | None = None,
    trim_fraction: float = 0.1,
) -> np.ndarray:
    """Coordinate-wise trimmed mean, dropping the ``trim_fraction``
    largest and smallest values per coordinate."""
    if not 0.0 <= trim_fraction < 0.5:
        raise ValueError(f"trim_fraction must be in [0, 0.5), got {trim_fraction}")
    matrix = _validate(gradients)
    n = matrix.shape[0]
    k = int(np.floor(n * trim_fraction))
    if 2 * k >= n:
        raise ValueError("trim removes every gradient; lower trim_fraction")
    ordered = np.sort(matrix, axis=0)
    return ordered[k : n - k].mean(axis=0)


AGGREGATORS = {
    "fedavg": fedavg,
    "median": coordinate_median,
    "trimmed_mean": trimmed_mean,
}
