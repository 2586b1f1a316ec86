"""Classification metrics used throughout the evaluation."""

from __future__ import annotations

import numpy as np

__all__ = ["accuracy"]


def accuracy(predictions: np.ndarray, labels: np.ndarray) -> float:
    """Fraction of exact matches between predictions and labels."""
    predictions = np.asarray(predictions)
    labels = np.asarray(labels)
    if predictions.shape != labels.shape:
        raise ValueError(
            f"shape mismatch: predictions {predictions.shape} vs labels {labels.shape}"
        )
    if predictions.size == 0:
        raise ValueError("cannot compute accuracy of empty arrays")
    return float(np.mean(predictions == labels))
