"""Weight initializers.

All initializers take an explicit :class:`numpy.random.Generator` so
model construction is deterministic given a seed — a hard requirement
for the unlearning experiments, where the *retraining* baseline must
re-initialize from a reproducible state.

Every initializer accepts an optional ``out`` array — a pre-carved view
into a :class:`~repro.nn.arena.ParameterArena` — and writes into it
instead of allocating.  The random draws are identical either way, so
an arena-backed model and a standalone one start from bitwise-equal
parameters given the same generator state.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

__all__ = ["he_normal", "zeros"]


def _deliver(values: np.ndarray, out: Optional[np.ndarray]) -> np.ndarray:
    """Return ``values`` as float64, or write them into ``out``."""
    if out is None:
        return values.astype(np.float64)
    if out.shape != values.shape:
        raise ValueError(f"out has shape {out.shape}, expected {values.shape}")
    np.copyto(out, values, casting="same_kind")
    return out


def he_normal(
    rng: np.random.Generator,
    shape: Tuple[int, ...],
    fan_in: int,
    out: Optional[np.ndarray] = None,
) -> np.ndarray:
    """He (Kaiming) normal initialization, suited to ReLU networks."""
    if fan_in <= 0:
        raise ValueError(f"fan_in must be positive, got {fan_in}")
    std = np.sqrt(2.0 / fan_in)
    return _deliver(rng.normal(0.0, std, size=shape), out)


def zeros(shape: Tuple[int, ...], out: Optional[np.ndarray] = None) -> np.ndarray:
    """All-zeros array (bias initialization)."""
    if out is not None:
        if out.shape != tuple(shape):
            raise ValueError(f"out has shape {out.shape}, expected {tuple(shape)}")
        out.fill(0.0)
        return out
    return np.zeros(shape, dtype=np.float64)
