"""Procedural GTSRB-like traffic-sign dataset.

The paper's second benchmark is GTSRB (German traffic signs).  The
reproduction synthesizes an equivalent task: 32x32 RGB images of ten
traffic-sign families, each defined by a sign shape (circle, triangle,
octagon, diamond, square), a border/fill colour scheme, and an inner
glyph.  Per-sample augmentation models the paper's description of
GTSRB — "varying in angle, lighting, and seasonal changes" — via random
rotation, scale, translation, brightness/colour jitter, background
variation, and pixel noise.

All geometry is evaluated analytically on a transformed coordinate
grid, so rendering needs no drawing library and is vectorized per
chunk: a loop draws each sample's random parameters in order, then one
pass per sign class renders a chunk of samples at a time (bounded by
:data:`~repro.datasets.base.RENDER_BYTES`).  Every image is bit for
bit the one :func:`render_sign` draws alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple

import numpy as np

from repro.datasets.base import ArrayDataset, check_render_args, render_batched

__all__ = ["SIGN_CLASSES", "render_sign", "make_synthetic_gtsrb", "SignSpec"]

RED = (0.82, 0.10, 0.12)
BLUE = (0.10, 0.25, 0.75)
WHITE = (0.95, 0.95, 0.95)
BLACK = (0.08, 0.08, 0.08)
YELLOW = (0.95, 0.80, 0.10)

MaskFn = Callable[[np.ndarray, np.ndarray], np.ndarray]


def _circle(r: float) -> MaskFn:
    return lambda x, y: x**2 + y**2 <= r**2


def _triangle(r: float) -> MaskFn:
    # Upward-pointing equilateral triangle with inradius-ish scale r.
    def mask(x: np.ndarray, y: np.ndarray) -> np.ndarray:
        return (y <= r) & (y >= np.sqrt(3.0) * np.abs(x) - r)

    return mask


def _octagon(r: float) -> MaskFn:
    def mask(x: np.ndarray, y: np.ndarray) -> np.ndarray:
        return np.maximum(
            np.maximum(np.abs(x), np.abs(y)), (np.abs(x) + np.abs(y)) / np.sqrt(2.0)
        ) <= r

    return mask


def _diamond(r: float) -> MaskFn:
    return lambda x, y: np.abs(x) + np.abs(y) <= r


def _square(r: float) -> MaskFn:
    return lambda x, y: np.maximum(np.abs(x), np.abs(y)) <= r


def _hbar(cy: float, half_h: float, half_w: float) -> MaskFn:
    return lambda x, y: (np.abs(y - cy) <= half_h) & (np.abs(x) <= half_w)


def _vbar(cx: float, half_w: float, half_h: float) -> MaskFn:
    return lambda x, y: (np.abs(x - cx) <= half_w) & (np.abs(y) <= half_h)


def _arrow_up() -> MaskFn:
    def mask(x: np.ndarray, y: np.ndarray) -> np.ndarray:
        shaft = (np.abs(x) <= 0.10) & (y >= -0.15) & (y <= 0.45)
        head = (y >= -0.45) & (y <= -0.15) & (np.abs(x) <= (y + 0.45) * 0.9)
        return shaft | head

    return mask


def _arrow_right() -> MaskFn:
    up = _arrow_up()
    return lambda x, y: up(-y, x)


def _zigzag() -> MaskFn:
    def mask(x: np.ndarray, y: np.ndarray) -> np.ndarray:
        # Two joined diagonal bars forming a bent-road glyph.
        d1 = np.abs(y - (1.4 * x + 0.18)) <= 0.09
        d2 = np.abs(y - (-1.4 * x + 0.18)) <= 0.09
        return ((d1 & (x <= 0.02)) | (d2 & (x >= -0.02))) & (np.abs(y) <= 0.42)

    return mask


def _cross() -> MaskFn:
    def mask(x: np.ndarray, y: np.ndarray) -> np.ndarray:
        return (np.abs(y - x) <= 0.09) | (np.abs(y + x) <= 0.09)

    return mask


def _none() -> MaskFn:
    return lambda x, y: np.zeros_like(x, dtype=bool)


@dataclass(frozen=True)
class SignSpec:
    """Procedural description of one traffic-sign class."""

    name: str
    outer: MaskFn  # full sign silhouette
    inner: MaskFn  # fill region inside the border
    border_color: Tuple[float, float, float]
    fill_color: Tuple[float, float, float]
    glyph: MaskFn
    glyph_color: Tuple[float, float, float]


def _spec(
    name: str,
    shape: Callable[[float], MaskFn],
    outer_r: float,
    inner_r: float,
    border: Tuple[float, float, float],
    fill: Tuple[float, float, float],
    glyph: MaskFn,
    glyph_color: Tuple[float, float, float],
) -> SignSpec:
    return SignSpec(
        name=name,
        outer=shape(outer_r),
        inner=shape(inner_r),
        border_color=border,
        fill_color=fill,
        glyph=glyph,
        glyph_color=glyph_color,
    )


SIGN_CLASSES: Dict[int, SignSpec] = {
    0: _spec("no-entry", _circle, 0.85, 0.62, RED, RED, _hbar(0.0, 0.12, 0.45), WHITE),
    1: _spec("speed-limit", _circle, 0.85, 0.66, RED, WHITE, _vbar(0.0, 0.10, 0.38), BLACK),
    2: _spec("no-overtake", _circle, 0.85, 0.66, RED, WHITE, _cross(), BLACK),
    3: _spec("caution", _triangle, 0.85, 0.60, RED, WHITE, _vbar(0.0, 0.09, 0.28), BLACK),
    4: _spec("curves", _triangle, 0.85, 0.60, RED, WHITE, _zigzag(), BLACK),
    5: _spec("stop", _octagon, 0.85, 0.85, RED, RED, _hbar(0.0, 0.13, 0.55), WHITE),
    6: _spec("ahead-only", _circle, 0.85, 0.80, BLUE, BLUE, _arrow_up(), WHITE),
    7: _spec("right-only", _circle, 0.85, 0.80, BLUE, BLUE, _arrow_right(), WHITE),
    8: _spec("parking", _square, 0.80, 0.74, BLUE, BLUE, _vbar(-0.12, 0.09, 0.35), WHITE),
    9: _spec("priority", _diamond, 0.88, 0.60, WHITE, YELLOW, _none(), WHITE),
}


def _draw_sign(rng, out, noise_std, max_rotation_deg=10.0, max_shift=0.12):
    """One sample's random parameters, drawn in the per-image order
    (defaults as :func:`render_sign`'s); the pixel noise goes into
    ``out``.

    Returns the row cos and sin of the rotation, scale, x and y shift,
    three background channels, brightness, three channel jitters.
    """
    theta = np.deg2rad(rng.uniform(-max_rotation_deg, max_rotation_deg))
    scale = rng.uniform(0.85, 1.1)
    shift_x = rng.uniform(-max_shift, max_shift)
    shift_y = rng.uniform(-max_shift, max_shift)
    bg_base = rng.uniform(0.25, 0.65)
    background = [bg_base * f for f in rng.uniform(0.8, 1.2, size=3)]
    brightness = rng.uniform(0.6, 1.15)
    channel_jitter = rng.uniform(0.9, 1.1, size=3)
    out[...] = rng.normal(0.0, noise_std, size=out.shape)
    return np.array((np.cos(theta), np.sin(theta), scale, shift_x, shift_y,
                     *background, brightness, *channel_jitter))


def _render_signs(cls, out, params):
    """Render ``len(out)`` signs of class ``cls`` into ``out``
    ``(B, 3, size, size)`` in one pass.

    ``params`` holds one :func:`_draw_sign` row per image, and ``out``
    the pixel noise on entry.  With ``params=None`` the canonical sign
    is rendered: no transform, lighting or noise.
    """
    spec = SIGN_CLASSES[cls]
    coords = np.linspace(-1.0, 1.0, out.shape[-1])
    gx, gy = np.meshgrid(coords, coords)
    if params is None:
        tx, ty = gx, gy
        image = 0.45
    else:
        cos_t, sin_t, scale, shift_x, shift_y = params[:, :5].T[..., None, None]
        tx = (cos_t * (gx - shift_x) - sin_t * (gy - shift_y)) / scale
        ty = (sin_t * (gx - shift_x) + cos_t * (gy - shift_y)) / scale
        image = params[:, 5:8, None, None]  # background, (B, 3, 1, 1)

    outer = spec.outer(tx, ty)
    inner = spec.inner(tx, ty)
    glyph = spec.glyph(tx, ty) & inner
    for mask, color in (
        (outer, spec.border_color),
        (inner, spec.fill_color),
        (glyph, spec.glyph_color),
    ):
        image = np.where(mask[..., None, :, :], np.asarray(color)[:, None, None], image)

    if params is not None:
        image *= params[:, 8, None, None, None]
        image *= params[:, 9:, None, None]
        image += out
    np.clip(image, 0.0, 1.0, out=out)


def render_sign(
    cls: int,
    rng: Optional[np.random.Generator] = None,
    image_size: int = 32,
    max_rotation_deg: float = 10.0,
    max_shift: float = 0.12,
    noise_std: float = 0.04,
) -> np.ndarray:
    """Render one sign image, shape ``(3, image_size, image_size)`` in [0, 1].

    ``rng=None`` renders the canonical un-augmented sign.
    """
    if cls not in SIGN_CLASSES:
        raise ValueError(f"class must be 0-{len(SIGN_CLASSES) - 1}, got {cls}")
    check_render_args(image_size, noise_std)
    image = np.empty((1, 3, image_size, image_size))
    params = None
    if rng is not None:
        params = _draw_sign(rng, image, noise_std, max_rotation_deg, max_shift)[None]
    _render_signs(cls, image, params)
    return image[0]


def make_synthetic_gtsrb(
    num_samples: int,
    rng: np.random.Generator,
    image_size: int = 32,
    num_classes: int = 10,
    noise_std: float = 0.04,
    name: str = "synthetic-gtsrb",
) -> ArrayDataset:
    """Generate a GTSRB-like dataset.

    Returns an :class:`ArrayDataset` with ``x`` of shape
    ``(N, 3, image_size, image_size)``.  Every sample equals
    :func:`render_sign` with the same ``rng`` at its turn.
    """
    if num_samples <= 0:
        raise ValueError("num_samples must be positive")
    if not 2 <= num_classes <= len(SIGN_CLASSES):
        raise ValueError(
            f"num_classes must be in [2, {len(SIGN_CLASSES)}], got {num_classes}"
        )
    check_render_args(image_size, noise_std)
    labels = rng.integers(0, num_classes, size=num_samples)
    images = np.empty((num_samples, 3, image_size, image_size), dtype=np.float64)
    render_batched(
        labels,
        images,
        lambda cls, out: _draw_sign(rng, out, noise_std),
        _render_signs,
        lambda cls: 8 * images[0].size,
    )
    return ArrayDataset(x=images, y=labels, num_classes=num_classes, name=name)
