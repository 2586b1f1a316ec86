"""Procedural MNIST-like digit dataset.

The paper evaluates on MNIST; with no network access the reproduction
synthesizes an equivalent task: 28x28 grayscale images of the digits
0-9, rendered from stroke skeletons with per-sample geometric jitter
(rotation, translation, scale, stroke width, control-point noise) and
pixel noise.  A small CNN reaches high accuracy on it, label-flipping
`7 -> 1` and 3x3-trigger backdoors behave as they do on MNIST, and the
image tensor shapes match exactly — which is all the experiments
consume.

Rendering model
---------------
Each digit is a set of line segments in the unit square.  A pixel's
intensity is ``exp(-(d / width)^2)`` where ``d`` is its distance to the
nearest segment — i.e. a Gaussian "ink brush" along the skeleton.
Per-sample augmentation perturbs the segment endpoints and applies an
affine transform to the pixel grid *before* evaluating distances, so
rendering is vectorized per chunk: a loop draws each sample's random
parameters in order, then one pass per digit class renders a chunk of
samples at a time (bounded by :data:`~repro.datasets.base.RENDER_BYTES`).
Every image is bit for bit the one :func:`render_digit` draws alone.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.datasets.base import ArrayDataset, check_render_args, render_batched

__all__ = ["DIGIT_STROKES", "render_digit", "make_synthetic_mnist"]

Segment = Tuple[Tuple[float, float], Tuple[float, float]]

# Stroke skeletons in the unit square; x grows right, y grows down.
# The glyphs are seven-segment-inspired but mutually distinct enough
# that a linear model cannot trivially separate them while a small CNN
# learns them well.
DIGIT_STROKES: Dict[int, List[Segment]] = {
    0: [
        ((0.30, 0.15), (0.70, 0.15)),
        ((0.70, 0.15), (0.72, 0.85)),
        ((0.72, 0.85), (0.28, 0.85)),
        ((0.28, 0.85), (0.30, 0.15)),
    ],
    1: [
        ((0.38, 0.28), (0.55, 0.12)),
        ((0.55, 0.12), (0.55, 0.88)),
        ((0.40, 0.88), (0.70, 0.88)),
    ],
    2: [
        ((0.28, 0.25), (0.50, 0.12)),
        ((0.50, 0.12), (0.72, 0.25)),
        ((0.72, 0.25), (0.70, 0.45)),
        ((0.70, 0.45), (0.28, 0.85)),
        ((0.28, 0.85), (0.74, 0.85)),
    ],
    3: [
        ((0.28, 0.15), (0.72, 0.15)),
        ((0.72, 0.15), (0.50, 0.48)),
        ((0.50, 0.48), (0.72, 0.70)),
        ((0.72, 0.70), (0.50, 0.88)),
        ((0.50, 0.88), (0.28, 0.80)),
    ],
    4: [
        ((0.34, 0.12), (0.26, 0.55)),
        ((0.26, 0.55), (0.76, 0.55)),
        ((0.62, 0.12), (0.62, 0.90)),
    ],
    5: [
        ((0.72, 0.14), (0.30, 0.14)),
        ((0.30, 0.14), (0.30, 0.48)),
        ((0.30, 0.48), (0.62, 0.45)),
        ((0.62, 0.45), (0.70, 0.68)),
        ((0.70, 0.68), (0.54, 0.88)),
        ((0.54, 0.88), (0.28, 0.82)),
    ],
    6: [
        ((0.68, 0.14), (0.38, 0.32)),
        ((0.38, 0.32), (0.28, 0.65)),
        ((0.28, 0.65), (0.42, 0.88)),
        ((0.42, 0.88), (0.68, 0.80)),
        ((0.68, 0.80), (0.66, 0.58)),
        ((0.66, 0.58), (0.32, 0.56)),
    ],
    7: [
        ((0.26, 0.15), (0.74, 0.15)),
        ((0.74, 0.15), (0.44, 0.88)),
        ((0.36, 0.50), (0.64, 0.50)),
    ],
    8: [
        ((0.50, 0.12), (0.70, 0.28)),
        ((0.70, 0.28), (0.50, 0.48)),
        ((0.50, 0.48), (0.30, 0.28)),
        ((0.30, 0.28), (0.50, 0.12)),
        ((0.50, 0.48), (0.72, 0.70)),
        ((0.72, 0.70), (0.50, 0.90)),
        ((0.50, 0.90), (0.28, 0.70)),
        ((0.28, 0.70), (0.50, 0.48)),
    ],
    9: [
        ((0.68, 0.42), (0.34, 0.44)),
        ((0.34, 0.44), (0.30, 0.20)),
        ((0.30, 0.20), (0.56, 0.12)),
        ((0.56, 0.12), (0.70, 0.26)),
        ((0.70, 0.26), (0.64, 0.88)),
    ],
}


#: Each digit's skeleton as ``(S, 4)`` rows of ``(ax, ay, bx, by)``.
_SEGMENTS = {
    digit: np.array([[ax, ay, bx, by] for (ax, ay), (bx, by) in strokes])
    for digit, strokes in DIGIT_STROKES.items()
}


def _segment_distances(
    px: np.ndarray, py: np.ndarray, segments: np.ndarray
) -> np.ndarray:
    """Distance from each pixel to its nearest segment.

    ``px, py`` are ``(B, 1, P)`` pixel coordinates; ``segments`` is
    ``(B, S, 4)`` rows of ``(ax, ay, bx, by)`` (either may broadcast
    over ``B``).  Returns the ``(B, P)`` per-pixel minimum distance,
    vectorized over samples, segments and pixels, one coordinate array
    at a time.
    """
    ax, ay, bx, by = (segments[..., k, None] for k in range(4))  # (B, S, 1)
    abx, aby = bx - ax, by - ay
    ab_len2 = np.maximum(np.square(abx) + np.square(aby), 1e-12)
    t = (px - ax) * abx
    t += (py - ay) * aby
    t /= ab_len2
    np.clip(t, 0.0, 1.0, out=t)  # (B, S, P)
    dx = px - (ax + t * abx)
    t *= aby
    t += ay
    dy = np.subtract(py, t, out=t)
    dist = np.square(dx, out=dx)
    dist += np.square(dy, out=dy)
    return np.sqrt(dist, out=dist).min(axis=1)


def _draw_digit(rng, digit, out, noise_std, stroke_width=0.055, jitter=0.02,
                max_rotation_deg=12.0, max_shift=0.06):
    """One sample's random parameters, drawn in the per-image order
    (defaults as :func:`render_digit`'s); the pixel noise goes into
    ``out``.

    Returns the row ``4S`` segment jitters, then stroke width, cos and
    sin of the rotation, scale, x and y shift, and brightness.
    """
    jittered = rng.normal(0.0, jitter, size=_SEGMENTS[digit].size)
    width = stroke_width * float(rng.uniform(0.8, 1.35))
    theta = np.deg2rad(rng.uniform(-max_rotation_deg, max_rotation_deg))
    scale = rng.uniform(0.9, 1.1)
    shift_x = rng.uniform(-max_shift, max_shift)
    shift_y = rng.uniform(-max_shift, max_shift)
    brightness = rng.uniform(0.75, 1.0)
    out[...] = rng.normal(0.0, noise_std, size=out.shape)
    return np.concatenate(
        (jittered, (width, np.cos(theta), np.sin(theta), scale, shift_x, shift_y, brightness))
    )


def _render_digits(digit, out, params, stroke_width=None):
    """Render ``len(out)`` images of ``digit`` into ``out`` in one pass.

    ``params`` holds one :func:`_draw_digit` row per image, and ``out``
    the pixel noise on entry.  With ``params=None`` the canonical glyph
    at ``stroke_width`` is rendered: no jitter, transform, brightness or
    noise.
    """
    size = out.shape[-1]
    coords = (np.arange(size) + 0.5) / size
    gx, gy = np.meshgrid(coords, coords)  # gy varies along rows
    px = gx.reshape(1, -1)
    py = gy.reshape(1, -1)
    segments = _SEGMENTS[digit]
    width = stroke_width
    if params is not None:
        segments = segments + params[:, :-7].reshape(len(params), -1, 4)
        width, cos_t, sin_t, scale, shift_x, shift_y, brightness = params[:, -7:].T[..., None]
        cx = px - 0.5 - shift_x
        cy = py - 0.5 - shift_y
        px = (cos_t * cx - sin_t * cy) / scale + 0.5
        py = (sin_t * cx + cos_t * cy) / scale + 0.5
    dist = _segment_distances(px[:, None], py[:, None], segments)
    dist /= width
    image = np.exp(np.negative(np.square(dist, out=dist), out=dist), out=dist)
    if params is not None:
        image *= brightness
        image += out.reshape(image.shape)
    np.clip(image.reshape(out.shape), 0.0, 1.0, out=out)


def render_digit(
    digit: int,
    rng: Optional[np.random.Generator] = None,
    image_size: int = 28,
    stroke_width: float = 0.055,
    jitter: float = 0.02,
    max_rotation_deg: float = 12.0,
    max_shift: float = 0.06,
    noise_std: float = 0.05,
) -> np.ndarray:
    """Render one digit image, shape ``(image_size, image_size)`` in [0, 1].

    With ``rng=None`` the canonical (un-augmented, noise-free) glyph is
    rendered — used by tests to check class separability.
    """
    if digit not in DIGIT_STROKES:
        raise ValueError(f"digit must be 0-9, got {digit}")
    check_render_args(image_size, noise_std)
    image = np.empty((1, image_size, image_size))
    params = None
    if rng is not None:
        params = _draw_digit(rng, digit, image, noise_std, stroke_width, jitter,
                             max_rotation_deg, max_shift)[None]
    _render_digits(digit, image, params, stroke_width)
    return image[0]


def make_synthetic_mnist(
    num_samples: int,
    rng: np.random.Generator,
    image_size: int = 28,
    class_weights: Optional[Sequence[float]] = None,
    noise_std: float = 0.05,
    name: str = "synthetic-mnist",
) -> ArrayDataset:
    """Generate a balanced (or weighted) MNIST-like dataset.

    Returns an :class:`ArrayDataset` with ``x`` of shape
    ``(N, 1, image_size, image_size)`` and labels 0-9.  Every sample
    equals :func:`render_digit` with the same ``rng`` at its turn.
    """
    if num_samples <= 0:
        raise ValueError("num_samples must be positive")
    check_render_args(image_size, noise_std)
    num_classes = 10
    if class_weights is None:
        probs = np.full(num_classes, 1.0 / num_classes)
    else:
        probs = np.asarray(class_weights, dtype=np.float64)
        # Written so NaN (and an infinite total) fails the test too.
        if probs.shape != (num_classes,) or not 0 < probs.sum() < np.inf or not probs.min() >= 0:
            raise ValueError("class_weights must be 10 finite non-negative values")
        probs = probs / probs.sum()
    labels = rng.choice(num_classes, size=num_samples, p=probs)
    images = np.empty((num_samples, 1, image_size, image_size), dtype=np.float64)
    render_batched(
        labels,
        images,
        lambda digit, out: _draw_digit(rng, digit, out, noise_std),
        _render_digits,
        lambda digit: 8 * len(_SEGMENTS[digit]) * image_size**2,
    )
    return ArrayDataset(x=images, y=labels, num_classes=num_classes, name=name)
