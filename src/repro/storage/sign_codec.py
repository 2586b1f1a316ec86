"""Ternary sign codec — the paper's 2-bit gradient-direction storage.

§IV of the paper: "we defined the direction of a gradient element as 1
when it is greater than a threshold δ, -1 when it is less than the
threshold -δ, and 0 when it is between the thresholds", and each
direction "takes up just two bits", sparing ~95 % of the storage a
float32 gradient would need.

:func:`ternarize` implements the thresholded sign map;
:func:`pack_signs` / :func:`unpack_signs` implement the 2-bit packing
(4 elements per byte).  The measured ratio vs float32 is exactly
2/32 = 6.25 %, i.e. 93.75 % savings, plus a negligible fixed header —
matching the paper's "approximately 95 %" claim.

:func:`encode_round` is the batched encoder: one round's gradients,
stacked as a ``(num_clients, d)`` matrix, go straight from floats to
2-bit codes — two threshold comparisons write each element's code and
one word-wide multiply packs four codes per byte — with each row
bitwise identical to ``pack_signs_batch(ternarize(g, δ))``.  Unpacking
goes through a precomputed byte → 4-signs lookup table.

:func:`decode_round` is the decode counterpart: a whole round's packed
``(num_clients, packed_size_bytes(d))`` block — a dict-store stack or a
round-major memmap block — is LUT-decoded to int8 directions in one
pass, with each row equal to a per-client :func:`unpack_signs`.  This
is what the recovery replay's bulk read path consumes: rows stay one
byte per element through the stores' ``get_round``, the decode cache
and the prefetch window, and widen to float64 only inside the Eq. 6
add.  The per-record :func:`decode_gradient` (behind every store's
``get``) returns float64.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

__all__ = [
    "ternarize",
    "pack_signs",
    "pack_signs_batch",
    "unpack_signs",
    "encode_gradient",
    "encode_round",
    "decode_gradient",
    "decode_round",
    "packed_size_bytes",
    "storage_savings_ratio",
]

# 2-bit code points: 0 -> 0, 1 -> +1, 2 -> -1 (3 is unused / reserved).
_SIGN_OF_CODE = np.array([0, 1, -1, 0], dtype=np.int8)

# byte value -> its four decoded signs, low bit-pair first.  Decoding a
# packed buffer is then a single table lookup instead of four shift/mask
# passes over a scratch (n, 4) code matrix.
_BYTE_TO_SIGNS = np.empty((256, 4), dtype=np.int8)
for _byte in range(256):
    for _slot in range(4):
        _BYTE_TO_SIGNS[_byte, _slot] = _SIGN_OF_CODE[(_byte >> (2 * _slot)) & 0b11]
del _byte, _slot
# The same table with each row as one 4-byte item: gathering one item
# per packed byte moves the same bytes as gathering rows of four int8,
# several times faster.  Viewed back as int8 the result is the row's
# four signs in memory order, whatever the byte order of the machine.
_BYTE_TO_QUAD = _BYTE_TO_SIGNS.view(np.uint32).reshape(256)


def ternarize(gradient: np.ndarray, delta: float) -> np.ndarray:
    """Thresholded element-wise sign: ``{-1, 0, +1}`` as ``int8``.

    ``> delta -> +1``, ``< -delta -> -1``, and ``0`` on the closed band
    ``[-delta, delta]`` (the paper's definition); NaN maps to ``0``.
    """
    if delta < 0:
        raise ValueError(f"delta must be non-negative, got {delta}")
    gradient = np.asarray(gradient, dtype=np.float64)
    out = np.zeros(gradient.shape, dtype=np.int8)
    out[gradient > delta] = 1
    out[gradient < -delta] = -1
    return out


def pack_signs(signs: np.ndarray) -> Tuple[np.ndarray, int]:
    """Pack a flat ternary array into 2 bits per element.

    Returns ``(packed_bytes, original_length)``.  Length must be carried
    separately because the packed array is padded to a whole byte.
    """
    signs = np.asarray(signs)
    if signs.ndim != 1:
        raise ValueError(f"signs must be flat, got shape {signs.shape}")
    packed, length = pack_signs_batch(signs[None, :])
    return packed[0], length


def pack_signs_batch(signs: np.ndarray) -> Tuple[np.ndarray, int]:
    """Pack a ``(num_rows, d)`` ternary matrix, one row per client.

    Returns ``(packed, d)`` where ``packed`` has shape
    ``(num_rows, packed_size_bytes(d))``.  The caller's signs are
    validated, then packed by :func:`encode_round` at ``delta = 0``
    (which maps ``+1``, ``0``, ``-1`` to themselves).
    """
    signs = np.asarray(signs)
    if signs.ndim != 2:
        raise ValueError(f"signs must be 2-D (rows, d), got shape {signs.shape}")
    if signs.size and not np.isin(signs, (-1, 0, 1)).all():
        raise ValueError("signs may only contain -1, 0, +1")
    return encode_round(signs, 0.0)


def unpack_signs(packed: np.ndarray, length: int) -> np.ndarray:
    """Inverse of :func:`pack_signs`; returns int8 ternary array."""
    packed = np.asarray(packed, dtype=np.uint8)
    if length < 0:
        raise ValueError("length must be non-negative")
    if packed.size * 4 < length:
        raise ValueError(
            f"packed buffer holds at most {packed.size * 4} elements, need {length}"
        )
    # Single table lookup decodes all four slots of every byte at once;
    # the length-trim is a view, so this allocates exactly one array.
    return np.take(_BYTE_TO_QUAD, packed).view(np.int8).reshape(-1)[:length]


def encode_gradient(gradient: np.ndarray, delta: float) -> Tuple[np.ndarray, int]:
    """Ternarize then pack a flat gradient vector (any shape is raveled)."""
    packed, length = encode_round(np.ravel(gradient)[None, :], delta)
    return packed[0], length


def encode_round(gradients: np.ndarray, delta: float) -> Tuple[np.ndarray, int]:
    """Ternarize + pack one round's ``(num_clients, d)`` gradient stack.

    Row ``i`` of the returned ``(num_clients, packed_size_bytes(d))``
    array is bitwise identical to ``pack_signs(ternarize(gradients[i],
    delta))[0]``.  No int8 signs are built and nothing is re-validated:
    the codes come straight from the comparisons, so they are valid by
    construction.
    """
    if delta < 0:
        raise ValueError(f"delta must be non-negative, got {delta}")
    gradients = np.asarray(gradients, dtype=np.float64)
    if gradients.ndim != 2:
        raise ValueError(
            f"gradients must be 2-D (clients, d), got shape {gradients.shape}"
        )
    rows, length = gradients.shape
    # One code per element, rows padded to whole 4-byte words: 1 above
    # delta, 2 below -delta, 0 on the closed band between (and for NaN).
    codes = np.zeros((rows, length + (-length) % 4), dtype=np.uint8)
    head = codes[:, :length]
    np.greater(gradients, delta, out=head)
    head |= np.less(gradients, -delta).view(np.uint8) << 1
    # A word c0 + c1·2⁸ + c2·2¹⁶ + c3·2²⁴ (codes ≤ 3) times this constant
    # holds the packed byte c0 + 4·c1 + 16·c2 + 64·c3 in its top byte:
    # every other partial product lands in its own lower bit pair or
    # past bit 31, so nothing carries into it.
    words = codes.view("<u4")
    words *= np.uint32(0x01041040)
    return (words >> 24).astype(np.uint8), int(length)


def decode_gradient(packed: np.ndarray, length: int) -> np.ndarray:
    """Unpack to a float64 direction vector in ``{-1, 0, +1}``."""
    return unpack_signs(packed, length).astype(np.float64)


def decode_round(packed: np.ndarray, length: int) -> np.ndarray:
    """Bulk-decode one round's packed block to int8 directions.

    The inverse of :func:`encode_round`: ``packed`` holds one client per
    row (``(num_clients, packed_size_bytes(length))``, as produced by
    :func:`pack_signs_batch` or read straight out of a round-major mmap
    block) and the result is the ``(num_clients, length)`` direction
    matrix in ``{-1, 0, +1}`` as int8.  Row ``i`` equals
    ``unpack_signs(packed[i], length)`` — one lookup-table pass over the
    whole cohort replaces ``num_clients`` per-client unpack calls.
    Widening is left to the arithmetic that consumes a row (−1, 0 and
    +1 are exact in float64).  An empty cohort (0 rows) decodes to an
    empty ``(0, length)`` int8 matrix.
    """
    packed = np.asarray(packed, dtype=np.uint8)
    if packed.ndim != 2:
        raise ValueError(f"packed block must be 2-D (rows, bytes), got {packed.shape}")
    if length < 0:
        raise ValueError("length must be non-negative")
    rows = packed.shape[0]
    if packed.shape[1] * 4 < length:
        raise ValueError(
            f"packed rows hold at most {packed.shape[1] * 4} elements, need {length}"
        )
    if rows == 0:
        return np.empty((0, length), dtype=np.int8)
    # One table lookup decodes all four slots of every byte of every
    # row (``np.take`` moves the same items as fancy indexing, about
    # twice as fast); the length-trim is a view, so exactly one matrix
    # is allocated.
    return np.take(_BYTE_TO_QUAD, packed).view(np.int8)[:, :length]


def packed_size_bytes(num_elements: int) -> int:
    """Bytes needed to store ``num_elements`` ternary values."""
    if num_elements < 0:
        raise ValueError("num_elements must be non-negative")
    return (num_elements + 3) // 4


def storage_savings_ratio(num_elements: int, full_dtype_bytes: int = 4) -> float:
    """Fraction of storage saved vs a full ``full_dtype_bytes``-per-element
    gradient (float32 by default).  ~0.9375 for large vectors."""
    if num_elements <= 0:
        raise ValueError("num_elements must be positive")
    full = num_elements * full_dtype_bytes
    packed = packed_size_bytes(num_elements)
    return 1.0 - packed / full
