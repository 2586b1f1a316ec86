"""Flat parameter-vector helpers.

The unlearning algebra of the paper (backtracking, Cauchy mean-value
estimation, L-BFGS, clipping) all operates on flat vectors
``w ∈ R^d``.  The neural-network substrate exposes its parameters as a
list of arrays; these helpers convert between the two representations.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

__all__ = [
    "flatten_arrays",
    "unflatten_vector",
    "unflatten_views",
    "shapes_of",
    "total_size",
]


def shapes_of(arrays: Sequence[np.ndarray]) -> List[Tuple[int, ...]]:
    """Return the shape of each array in ``arrays``."""
    return [tuple(a.shape) for a in arrays]


def total_size(shapes: Sequence[Tuple[int, ...]]) -> int:
    """Total element count across ``shapes``."""
    return int(sum(int(np.prod(s)) for s in shapes))


def flatten_arrays(arrays: Sequence[np.ndarray]) -> np.ndarray:
    """Concatenate ``arrays`` into one flat float64 vector.

    Always copies, so mutating the result never aliases model state.
    """
    if not arrays:
        return np.zeros(0, dtype=np.float64)
    return np.concatenate([np.asarray(a, dtype=np.float64).ravel() for a in arrays])


def unflatten_vector(
    vector: np.ndarray, shapes: Sequence[Tuple[int, ...]]
) -> List[np.ndarray]:
    """Split flat ``vector`` back into arrays of the given ``shapes``.

    Raises
    ------
    ValueError
        If the vector length does not match the total size of ``shapes``.
    """
    vector = np.asarray(vector, dtype=np.float64).ravel()
    expected = total_size(shapes)
    if vector.size != expected:
        raise ValueError(
            f"vector has {vector.size} elements but shapes require {expected}"
        )
    out: List[np.ndarray] = []
    offset = 0
    for shape in shapes:
        size = int(np.prod(shape))
        out.append(vector[offset : offset + size].reshape(shape).copy())
        offset += size
    return out


def unflatten_views(
    vector: np.ndarray, shapes: Sequence[Tuple[int, ...]]
) -> List[np.ndarray]:
    """Carve flat ``vector`` into reshaped *views* — zero copies.

    The arena counterpart of :func:`unflatten_vector`: each returned
    array aliases a contiguous slice of ``vector``, so writes through a
    view are writes into the flat buffer and vice versa.  No dtype
    conversion is performed (a cast would force a copy and silently
    break the aliasing).

    Raises
    ------
    ValueError
        If ``vector`` is not 1-D or its length does not match the total
        size of ``shapes``.
    """
    vector = np.asarray(vector)
    if vector.ndim != 1:
        raise ValueError(f"expected a flat vector, got shape {vector.shape}")
    expected = total_size(shapes)
    if vector.size != expected:
        raise ValueError(
            f"vector has {vector.size} elements but shapes require {expected}"
        )
    out: List[np.ndarray] = []
    offset = 0
    for shape in shapes:
        size = int(np.prod(shape))
        out.append(vector[offset : offset + size].reshape(shape))
        offset += size
    return out
