"""Neural-network layers with explicit forward/backward passes.

Design notes
------------
- Data layout is ``NCHW`` for images and ``(N, features)`` for dense
  inputs, matching the conventions of the PyTorch models in the paper.
  Layers are written once over *leading axes*: axes before the batch
  axis stack batches (:class:`~repro.nn.model.Sequential` feeds
  ``(K, N, ...)`` blocks, a batch per vehicle).  Every product stays
  one BLAS call per batch with that batch's own shapes (a stacked
  ``np.matmul``, never one merged ``(K*N, ...)`` product), so batch
  ``k`` of a stacked pass is bit for bit its pass alone.
- Each layer owns its parameters and gradient buffers as plain NumPy
  arrays.  :meth:`Layer.params` and :meth:`Layer.grads` return *live
  references* so the :class:`~repro.nn.model.Sequential` container can
  flatten and overwrite them in place.  When a layer is placed in a
  ``Sequential``, the container carves one contiguous
  :class:`~repro.nn.arena.ParameterArena` and the layer *adopts* views
  into it (:meth:`Layer.adopt_views`) — from then on the layer's
  ``weight``/``bias``/``grad_*`` arrays ARE slices of the model's flat
  parameter/gradient vectors.
- ``backward`` consumes the upstream gradient and both (a) stores the
  parameter gradients — into the layer's own buffers, or into the
  stacked per-batch views it is handed — and (b) returns the gradient
  with respect to the layer input, unless told nothing reads it.
- Convolution uses the im2col/col2im transform so the inner loop is a
  single BLAS matmul — the only way a pure-NumPy CNN is fast enough for
  hundred-round federated experiments.  The large patch matrices and
  accumulators are drawn from a per-layer :class:`~repro.nn.arena.Workspace`
  keyed by input shape, so steady-state training performs no large
  allocations; buffers returned from ``backward`` may alias workspace
  scratch and are only valid until the layer's next pass.
"""

from __future__ import annotations

from typing import Any, List, Optional, Sequence, Tuple

import numpy as np

from repro.nn.arena import Workspace
from repro.nn.init import he_normal, zeros

__all__ = [
    "Layer",
    "Dense",
    "Conv2d",
    "MaxPool2d",
    "ReLU",
    "Tanh",
    "Flatten",
    "Dropout",
    "im2col",
    "col2im",
]


class Layer:
    """Base class for all layers.

    Subclasses implement :meth:`forward` and :meth:`backward`;
    parameterized layers declare their parameter attributes in
    ``_param_attrs`` (each ``name`` pairs with a ``grad_<name>``
    buffer), which drives :meth:`params`, :meth:`grads` and arena
    adoption.
    """

    _param_attrs: Tuple[str, ...] = ()

    def params(self) -> List[np.ndarray]:
        """Live references to this layer's parameter arrays."""
        return [getattr(self, name) for name in self._param_attrs]

    def grads(self) -> List[np.ndarray]:
        """Live references to this layer's gradient arrays (same order)."""
        return [getattr(self, f"grad_{name}") for name in self._param_attrs]

    def adopt_views(
        self,
        param_views: Sequence[np.ndarray],
        grad_views: Sequence[np.ndarray],
    ) -> None:
        """Rebind parameters/gradients onto pre-carved arena views.

        Copies the current values into the views (so initialization —
        and any trained state — survives the rebind bitwise), then
        swaps the layer's attributes to the views.  Called by
        :class:`~repro.nn.model.Sequential` when it builds its arena.
        """
        if len(param_views) != len(self._param_attrs) or len(grad_views) != len(
            self._param_attrs
        ):
            raise ValueError(
                f"{type(self).__name__} has {len(self._param_attrs)} parameters, "
                f"got {len(param_views)} param / {len(grad_views)} grad views"
            )
        for name, pview, gview in zip(self._param_attrs, param_views, grad_views):
            current = getattr(self, name)
            if pview.shape != current.shape or gview.shape != current.shape:
                raise ValueError(
                    f"view shape mismatch for {type(self).__name__}.{name}: "
                    f"{pview.shape} vs {current.shape}"
                )
            np.copyto(pview, current, casting="same_kind")
            np.copyto(gview, getattr(self, f"grad_{name}"), casting="same_kind")
            setattr(self, name, pview)
            setattr(self, f"grad_{name}", gview)

    def forward(self, x: np.ndarray, training: bool = True) -> np.ndarray:
        """Compute the layer output; ``training=True`` caches state for
        :meth:`backward`."""
        raise NotImplementedError

    def backward(
        self,
        dout: np.ndarray,
        grads: Optional[Sequence[np.ndarray]] = None,
        input_grad: bool = True,
    ) -> Optional[np.ndarray]:
        """Consume the upstream gradient; fills the parameter gradients
        — into ``grads`` when given (like :meth:`grads`, with the stacked
        axes of ``dout`` in front) — and returns the gradient w.r.t. the
        layer input, or nothing (uncomputed) with ``input_grad=False``."""
        raise NotImplementedError

    def footprint(self, shape: Tuple[int, ...]) -> Tuple[Tuple[int, ...], int]:
        """``(output sample shape, elements held per sample)`` of a
        training pass on an input sample of ``shape``; the default fits
        element-wise layers (output, cache, input gradient)."""
        return shape, 3 * int(np.prod(shape))

    @property
    def num_params(self) -> int:
        """Total scalar parameter count of this layer."""
        return int(sum(p.size for p in self.params()))


def im2col(
    x: np.ndarray,
    kh: int,
    kw: int,
    stride: int,
    pad: int,
    workspace: Optional[Workspace] = None,
    tag: str = "",
) -> Tuple[np.ndarray, int, int]:
    """Unfold image batch ``x`` (NCHW) into a patch matrix.

    Returns ``(col, out_h, out_w)`` where ``col`` has shape
    ``(N * out_h * out_w, C * kh * kw)``: one row per output spatial
    position, one column per kernel tap.  Leading axes before ``N``
    stack batches: ``(K, N, C, H, W)`` gives ``K`` patch matrices.

    With a ``workspace``, the padded image, the 6-D gather buffer and
    the returned patch matrix are drawn from it (keyed by ``tag`` and
    input shape) instead of being allocated — the returned array is
    then workspace scratch, valid until the next same-shape call.
    """
    *lead, c, h, w = x.shape
    lead = tuple(lead)
    out_h = (h + 2 * pad - kh) // stride + 1
    out_w = (w + 2 * pad - kw) // stride + 1
    if out_h <= 0 or out_w <= 0:
        raise ValueError(
            f"kernel ({kh}x{kw}, stride={stride}, pad={pad}) too large for input {h}x{w}"
        )
    padded = lead + (c, h + 2 * pad, w + 2 * pad)
    col6_shape = lead + (c, kh, kw, out_h, out_w)
    if workspace is None:
        img = np.pad(x, [(0, 0)] * (x.ndim - 2) + [(pad, pad)] * 2, mode="constant")
        col = np.empty(col6_shape, dtype=x.dtype)
    else:
        if pad:
            # Border stays zero from allocation; only the interior is
            # rewritten each call.
            img = workspace.get((tag, "im2col_img"), padded, x.dtype, zero=True)
            img[..., pad : h + pad, pad : w + pad] = x
        else:
            img = x
        col = workspace.get((tag, "im2col_col6"), col6_shape, x.dtype)
    for y in range(kh):
        y_max = y + stride * out_h
        for xk in range(kw):
            x_max = xk + stride * out_w
            col[..., y, xk, :, :] = img[..., y:y_max:stride, xk:x_max:stride]
    k = len(lead)
    rows = col.transpose(*range(k), k + 3, k + 4, k, k + 1, k + 2)
    col2d_shape = lead[:-1] + (lead[-1] * out_h * out_w, c * kh * kw)
    if workspace is None:
        return rows.reshape(col2d_shape), out_h, out_w
    col2d = workspace.get((tag, "im2col_col2d"), col2d_shape, x.dtype)
    np.copyto(col2d.reshape(rows.shape), rows)
    return col2d, out_h, out_w


def col2im(
    col: np.ndarray,
    input_shape: Tuple[int, int, int, int],
    kh: int,
    kw: int,
    stride: int,
    pad: int,
    workspace: Optional[Workspace] = None,
    tag: str = "",
) -> np.ndarray:
    """Fold a patch matrix back into an image batch, summing overlaps.

    Exact adjoint of :func:`im2col`, used for the convolution backward
    pass with respect to the input.  With a ``workspace`` the
    accumulator comes from it and the result may alias workspace
    scratch (valid until the next same-shape call).
    """
    *lead, c, h, w = input_shape
    lead = tuple(lead)
    out_h = (h + 2 * pad - kh) // stride + 1
    out_w = (w + 2 * pad - kw) // stride + 1
    k = len(lead)
    col6 = col.reshape(lead + (out_h, out_w, c, kh, kw)).transpose(
        *range(k), k + 2, k + 3, k + 4, k, k + 1
    )
    padded = lead + (c, h + 2 * pad, w + 2 * pad)
    if workspace is None:
        img = np.zeros(padded, dtype=col.dtype)
    else:
        img = workspace.get((tag, "col2im_img"), padded, col.dtype)
        img.fill(0.0)
    for y in range(kh):
        y_max = y + stride * out_h
        for xk in range(kw):
            x_max = xk + stride * out_w
            img[..., y:y_max:stride, xk:x_max:stride] += col6[..., y, xk, :, :]
    if pad == 0:
        return img
    return img[..., pad : h + pad, pad : w + pad]


class Dense(Layer):
    """Fully-connected layer: ``y = x @ W + b``.

    Parameters
    ----------
    in_features, out_features:
        Input/output dimensionality.
    rng:
        Generator used for He-normal weight initialization.
    """

    _param_attrs = ("weight", "bias")

    def __init__(self, in_features: int, out_features: int, rng: np.random.Generator):
        if in_features <= 0 or out_features <= 0:
            raise ValueError("feature counts must be positive")
        self.in_features = in_features
        self.out_features = out_features
        self.weight = he_normal(rng, (in_features, out_features), fan_in=in_features)
        self.bias = zeros((out_features,))
        self.grad_weight = np.zeros_like(self.weight)
        self.grad_bias = np.zeros_like(self.bias)
        self._x: Optional[np.ndarray] = None

    def forward(self, x: np.ndarray, training: bool = True) -> np.ndarray:
        """Affine map ``x @ W + b``; caches ``x`` when training."""
        if x.ndim < 2 or x.shape[-1] != self.in_features:
            raise ValueError(
                f"Dense expects (..., N, {self.in_features}), got {x.shape}"
            )
        if training:
            self._x = x
        return x @ self.weight + self.bias

    def backward(self, dout, grads=None, input_grad=True):
        """Fill weight/bias gradients and return ``dL/dx``."""
        if self._x is None:
            raise RuntimeError("backward called before forward(training=True)")
        grad_weight, grad_bias = self.grads() if grads is None else grads
        # Written in place so the gradient buffer identity is stable.
        np.matmul(self._x.swapaxes(-1, -2), dout, out=grad_weight)
        grad_bias[...] = dout.sum(axis=-2)
        self._x = None
        return dout @ self.weight.T if input_grad else None

    def footprint(self, shape):
        return (self.out_features,), self.in_features + self.out_features

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Dense({self.in_features}, {self.out_features})"


class Conv2d(Layer):
    """2-D convolution over NCHW batches via im2col.

    Parameters
    ----------
    in_channels, out_channels:
        Channel counts.
    kernel_size:
        Square kernel side length.
    stride, padding:
        Usual convolution hyperparameters.
    rng:
        Generator for He-normal weight initialization.

    The im2col patch matrix, the output of the forward matmul, and the
    backward's ``dcol``/``col2im`` buffers all come from a per-layer
    :class:`~repro.nn.arena.Workspace` (separate keys for training and
    inference, so an inference pass never clobbers a pending backward's
    cached patches).  Warm-path forward/backward therefore performs no
    large allocations.
    """

    _param_attrs = ("weight", "bias")

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel_size: int,
        rng: np.random.Generator,
        stride: int = 1,
        padding: int = 0,
    ):
        if min(in_channels, out_channels, kernel_size, stride) <= 0:
            raise ValueError("channels, kernel_size and stride must be positive")
        if padding < 0:
            raise ValueError("padding must be non-negative")
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = kernel_size
        self.stride = stride
        self.padding = padding
        fan_in = in_channels * kernel_size * kernel_size
        self.weight = he_normal(
            rng, (out_channels, in_channels, kernel_size, kernel_size), fan_in=fan_in
        )
        self.bias = zeros((out_channels,))
        self.grad_weight = np.zeros_like(self.weight)
        self.grad_bias = np.zeros_like(self.bias)
        self._ws = Workspace()
        self._col: Optional[np.ndarray] = None
        self._x_shape: Optional[Tuple[int, ...]] = None

    def forward(self, x: np.ndarray, training: bool = True) -> np.ndarray:
        """Convolve NCHW input via im2col; caches patches when training."""
        if x.ndim < 4 or x.shape[-3] != self.in_channels:
            raise ValueError(
                f"Conv2d expects (..., N, {self.in_channels}, H, W), got {x.shape}"
            )
        tag = "t" if training else "i"
        col, out_h, out_w = im2col(
            x,
            self.kernel_size,
            self.kernel_size,
            self.stride,
            self.padding,
            workspace=self._ws,
            tag=tag,
        )
        w_mat = self.weight.reshape(self.out_channels, -1)
        out_mat = self._ws.get(
            (tag, "fwd_out"), col.shape[:-1] + (self.out_channels,), col.dtype
        )
        np.matmul(col, w_mat.T, out=out_mat)
        out_mat += self.bias
        out = np.moveaxis(
            out_mat.reshape(x.shape[:-3] + (out_h, out_w, self.out_channels)), -1, -3
        )
        if training:
            self._col = col
            self._x_shape = x.shape
        return out

    def backward(self, dout, grads=None, input_grad=True):
        """Fill kernel/bias gradients and return ``dL/dx`` via col2im."""
        if self._col is None or self._x_shape is None:
            raise RuntimeError("backward called before forward(training=True)")
        col, x_shape = self._col, self._x_shape
        self._col = self._x_shape = None
        grad_weight, grad_bias = self.grads() if grads is None else grads
        dout_mat = self._ws.get(
            ("t", "bwd_dout"), col.shape[:-1] + (self.out_channels,), dout.dtype
        )
        dout_nhwc = np.moveaxis(dout, -3, -1)
        np.copyto(dout_mat.reshape(dout_nhwc.shape), dout_nhwc)
        grad_bias[...] = dout_mat.sum(axis=-2)
        np.matmul(
            dout_mat.swapaxes(-1, -2),
            col,
            out=grad_weight.reshape(grad_weight.shape[:-3] + (-1,)),
        )
        if not input_grad:
            return None
        dcol = self._ws.get(("t", "bwd_dcol"), col.shape, col.dtype)
        np.matmul(dout_mat, self.weight.reshape(self.out_channels, -1), out=dcol)
        return col2im(
            dcol,
            x_shape,
            self.kernel_size,
            self.kernel_size,
            self.stride,
            self.padding,
            workspace=self._ws,
            tag="t",
        )

    def footprint(self, shape):
        c, h, w = shape
        k, s, p = self.kernel_size, self.stride, self.padding
        oh, ow = (h + 2 * p - k) // s + 1, (w + 2 * p - k) // s + 1
        # im2col's two patch copies and dcol, plus output and its gradient.
        per_pixel = 3 * c * k * k + 2 * self.out_channels
        return (self.out_channels, oh, ow), per_pixel * oh * ow

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Conv2d({self.in_channels}, {self.out_channels}, "
            f"k={self.kernel_size}, s={self.stride}, p={self.padding})"
        )


class MaxPool2d(Layer):
    """Non-overlapping max pooling (``stride == pool_size``).

    The reproduction only needs the classic ``2x2/2`` pooling of the
    paper's CNNs, so the implementation requires the spatial dims to be
    divisible by the pool size and uses a pure reshape — no im2col cost.
    The windowed input copy, argmax mask and routed gradient live in a
    per-layer :class:`~repro.nn.arena.Workspace`.
    """

    def __init__(self, pool_size: int = 2):
        if pool_size <= 0:
            raise ValueError("pool_size must be positive")
        self.pool_size = pool_size
        self._ws = Workspace()
        self._mask: Optional[np.ndarray] = None
        self._x_shape: Optional[Tuple[int, int, int, int]] = None

    def forward(self, x: np.ndarray, training: bool = True) -> np.ndarray:
        """Non-overlapping max pooling; caches the argmax mask when training."""
        p = self.pool_size
        h, w = x.shape[-2:]
        if h % p or w % p:
            raise ValueError(
                f"MaxPool2d(pool={p}) needs H, W divisible by pool; got {h}x{w}"
            )
        tag = "t" if training else "i"
        windows = x.shape[:-2] + (h // p, p, w // p, p)
        xr = self._ws.get((tag, "pool_xr"), windows, x.dtype)
        # xr is contiguous, so viewing it as NCHW is free; the copy also
        # absorbs non-contiguous inputs (e.g. a conv's transposed output).
        np.copyto(xr.reshape(x.shape), x)
        out = xr.max(axis=(-3, -1))
        if training:
            # Mask marks, per pooling window, which positions achieved the
            # max (ties propagate gradient to every argmax, which is the
            # subgradient convention and keeps the op deterministic).
            mask = self._ws.get((tag, "pool_mask"), xr.shape, np.bool_)
            np.equal(xr, out[..., None, :, None], out=mask)
            self._mask = mask
            self._x_shape = x.shape
        return out

    def backward(self, dout, grads=None, input_grad=True):
        """Route the gradient to the max positions (ties share it)."""
        if self._mask is None or self._x_shape is None:
            raise RuntimeError("backward called before forward(training=True)")
        mask, x_shape = self._mask, self._x_shape
        self._mask = self._x_shape = None
        if not input_grad:
            return None
        counts = mask.sum(axis=(-3, -1), keepdims=True)
        dx6 = self._ws.get(("t", "pool_dx"), mask.shape, dout.dtype)
        np.multiply(mask, dout[..., None, :, None] / counts, out=dx6)
        return dx6.reshape(x_shape)

    def footprint(self, shape):
        c, h, w = shape
        p = self.pool_size
        # Window copy, mask and routed gradient at input size.
        return (c, h // p, w // p), 3 * c * h * w

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"MaxPool2d({self.pool_size})"


class ReLU(Layer):
    """Element-wise rectifier."""

    def __init__(self) -> None:
        self._mask: Optional[np.ndarray] = None

    def forward(self, x: np.ndarray, training: bool = True) -> np.ndarray:
        """Element-wise ``max(x, 0)``; caches the active mask when training."""
        out = np.maximum(x, 0.0)
        if training:
            self._mask = x > 0
        return out

    def backward(self, dout, grads=None, input_grad=True):
        """Pass the gradient through where the input was positive."""
        if self._mask is None:
            raise RuntimeError("backward called before forward(training=True)")
        mask, self._mask = self._mask, None
        return dout * mask if input_grad else None

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "ReLU()"


class Tanh(Layer):
    """Element-wise hyperbolic tangent."""

    def __init__(self) -> None:
        self._out: Optional[np.ndarray] = None

    def forward(self, x: np.ndarray, training: bool = True) -> np.ndarray:
        """Element-wise ``tanh``; caches the output when training."""
        out = np.tanh(x)
        if training:
            self._out = out
        return out

    def backward(self, dout, grads=None, input_grad=True):
        """Chain rule through tanh: ``dout * (1 - tanh(x)^2)``."""
        if self._out is None:
            raise RuntimeError("backward called before forward(training=True)")
        out, self._out = self._out, None
        return dout * (1.0 - out**2) if input_grad else None

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "Tanh()"


class Flatten(Layer):
    """Collapse all non-batch dimensions: ``(N, ...) -> (N, prod(...))``.

    The one layer whose sample rank is open, so it cannot find the
    batch axis from the back: it keeps the first ``lead`` axes (1 by
    default; :class:`~repro.nn.model.Sequential` sets 2 on its layers,
    which it feeds ``(K, N, ...)`` blocks).
    """

    lead = 1

    def __init__(self) -> None:
        self._shape: Optional[Tuple[int, ...]] = None

    def forward(self, x: np.ndarray, training: bool = True) -> np.ndarray:
        """Reshape to ``(N, -1)``; remembers the input shape when training."""
        if training:
            self._shape = x.shape
        return x.reshape(x.shape[: self.lead] + (-1,))

    def backward(self, dout, grads=None, input_grad=True):
        """Reshape the gradient back to the cached input shape."""
        if self._shape is None:
            raise RuntimeError("backward called before forward(training=True)")
        shape, self._shape = self._shape, None
        return dout.reshape(shape) if input_grad else None

    def footprint(self, shape):
        return (int(np.prod(shape)),), 0

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "Flatten()"


#: Sentinel mask for a zero-rate Dropout in training mode: the layer is
#: the identity, so neither a ones mask nor an input copy is needed.
_IDENTITY_MASK = object()


class Dropout(Layer):
    """Inverted dropout.

    Active only when ``training=True``; at inference it is the
    identity.  Requires an explicit generator so training remains
    reproducible.  With ``rate == 0.0`` the training path is also the
    identity and allocates nothing (no ones mask, no input copy).  On
    stacked batches the mask is one draw over the block, so batch ``k``
    gets the numbers it would get drawn on its own, after batches
    ``0..k-1``.
    """

    def __init__(self, rate: float, rng: np.random.Generator):
        if not 0.0 <= rate < 1.0:
            raise ValueError(f"dropout rate must be in [0, 1), got {rate}")
        self.rate = rate
        self._rng = rng
        self._mask: Optional[Any] = None

    def forward(self, x: np.ndarray, training: bool = True) -> np.ndarray:
        """Apply inverted dropout when training; identity at inference."""
        if not training:
            self._mask = None
            return x
        if self.rate == 0.0:
            self._mask = _IDENTITY_MASK
            return x
        keep = 1.0 - self.rate
        self._mask = (self._rng.random(x.shape) < keep) / keep
        return x * self._mask

    def backward(self, dout, grads=None, input_grad=True):
        """Apply the same keep mask used in the forward pass."""
        if self._mask is None:
            raise RuntimeError("backward called before forward(training=True)")
        mask, self._mask = self._mask, None
        if not input_grad:
            return None
        return dout if mask is _IDENTITY_MASK else dout * mask

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Dropout({self.rate})"
