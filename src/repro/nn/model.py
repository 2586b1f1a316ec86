"""The :class:`Sequential` model container.

The container's defining feature for this reproduction is *flat
parameter access*: :meth:`Sequential.get_flat_params` /
:meth:`Sequential.set_flat_params` view the whole model as a single
vector ``w ∈ R^d``, and :meth:`Sequential.loss_and_flat_grad` returns
the loss and ``∇L(w)`` as a matching flat vector.  All federated
aggregation, backtracking, and L-BFGS recovery operate purely in this
vector space.

Memory model
------------
On construction the container builds a
:class:`~repro.nn.arena.ParameterArena`: one contiguous flat parameter
buffer and one contiguous flat gradient buffer.  Every layer's
``weight``/``bias``/``grad_*`` array is a reshaped *view* into those
buffers (see :meth:`repro.nn.layers.Layer.adopt_views`), so:

- ``get_flat_params()`` is a single ``copy()``;
- ``set_flat_params()`` is a single ``np.copyto`` — the layers see the
  new values through their views with zero per-layer work;
- ``loss_and_flat_grad()`` never concatenates: the backward pass wrote
  the flat gradient in place.

The ``_view`` variants (:meth:`get_flat_params_view`,
:meth:`get_flat_grads_view`, :meth:`loss_and_flat_grad_view`) skip even
that one copy and hand out read-only aliases of the arena for hot paths
that only *read* the vector before the model is touched again.

:meth:`Sequential.cohort_pass` runs one forward/backward over ``K``
stacked minibatches — a round's vehicles at one global model (Eq. 2) —
into the rows of a ``(K, d)`` gradient block, row ``k`` bit for bit
the pass on batch ``k`` alone (:mod:`repro.nn.layers`).  The plain API
is the pass at ``K = 1``.  No pass computes the input gradient of the
first layer with parameters: nothing reads it.

``dtype`` selects the arena compute precision.  The default
``float64`` is the bitwise-determinism contract; ``float32`` is an
opt-in policy where layer compute runs in single precision while every
flat vector crossing the model boundary remains float64 (inputs are
cast on the way in, params/grads are cast on the way out).
"""

from __future__ import annotations

import copy
from typing import Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.nn.arena import ParameterArena
from repro.nn.layers import Flatten, Layer
from repro.nn.loss import SoftmaxCrossEntropy, softmax
from repro.utils.flat import shapes_of

__all__ = ["PASS_BYTES", "Sequential"]

_ALLOWED_DTYPES = (np.dtype(np.float64), np.dtype(np.float32))

#: Bound on one cohort pass's estimated working set: the paper CNN at
#: batch 128 (~0.1 GiB a vehicle) runs a vehicle a pass, and every
#: ledger MLP cohort fits in one.
PASS_BYTES = 64 << 20


class Sequential:
    """Feed-forward stack of layers with flat-vector parameter access.

    Parameters
    ----------
    layers:
        Ordered layers; the output of each feeds the next.
    loss:
        Loss object; defaults to :class:`SoftmaxCrossEntropy`.
    dtype:
        Arena/compute precision — ``float64`` (default, bitwise
        contract) or ``float32`` (opt-in fast policy; flat vectors at
        the model boundary stay float64).
    """

    def __init__(
        self,
        layers: Sequence[Layer],
        loss: Optional[SoftmaxCrossEntropy] = None,
        dtype=np.float64,
    ):
        self.layers: List[Layer] = list(layers)
        if not self.layers:
            raise ValueError("Sequential needs at least one layer")
        self.loss = loss or SoftmaxCrossEntropy()
        self.dtype = np.dtype(dtype)
        if self.dtype not in _ALLOWED_DTYPES:
            raise ValueError(
                f"Sequential dtype must be float64 or float32, got {self.dtype}"
            )
        self._param_shapes = shapes_of(self._param_refs())
        self._build_arena()

    def _build_arena(self) -> None:
        """Carve the flat arena and rebind every layer onto views of it.

        Layer parameters keep their pre-adoption values (copied in
        bitwise), so building — or re-building after deepcopy/unpickle —
        never perturbs model state.
        """
        arena = ParameterArena(self._param_shapes, dtype=self.dtype)
        offset = 0
        # Each parameter's columns of a (K, d) gradient block.
        ends = np.cumsum([0] + [v.size for v in arena.grad_views]).tolist()
        self._columns = [
            (slice(a, b), v.shape) for a, b, v in zip(ends, ends[1:], arena.grad_views)
        ]
        self._first = len(self.layers)
        for i, layer in enumerate(self.layers):
            count = len(layer.params())
            layer.adopt_views(
                arena.param_views[offset : offset + count],
                arena.grad_views[offset : offset + count],
            )
            offset += count
            if count:
                self._first = min(self._first, i)
            if isinstance(layer, Flatten):
                layer.lead = 2  # the layers see (K, N, ...) blocks
        self._arena = arena

    @property
    def arena(self) -> ParameterArena:
        """The model's parameter/gradient arena (advanced use)."""
        return self._arena

    # ------------------------------------------------------------------
    # forward / backward
    # ------------------------------------------------------------------
    def forward(self, x: np.ndarray, training: bool = True) -> np.ndarray:
        """Run the stack; returns logits."""
        return self._forward(np.asarray(x)[None], training)[0]

    def _forward(self, xs: np.ndarray, training: bool) -> np.ndarray:
        """The stack over a ``(K, N, ...)`` block of batches."""
        out = xs
        if self.dtype != np.float64 and out.dtype != self.dtype:
            out = out.astype(self.dtype)
        for layer in self.layers:
            out = layer.forward(out, training=training)
        return out

    @staticmethod
    def _batches(n: int, batch_size: int) -> Iterator[Tuple[int, int]]:
        """Yield ``(start, stop)`` slices covering ``range(n)``."""
        if batch_size <= 0:
            raise ValueError("batch_size must be positive")
        for start in range(0, n, batch_size):
            yield start, min(start + batch_size, n)

    def predict(self, x: np.ndarray, batch_size: int = 256) -> np.ndarray:
        """Predicted class indices, evaluated in inference mode."""
        return np.argmax(self.predict_proba(x, batch_size=batch_size), axis=1)

    def predict_proba(self, x: np.ndarray, batch_size: int = 256) -> np.ndarray:
        """Class probabilities, evaluated in inference mode and batched.

        The output is written batch-by-batch into one preallocated
        array — no per-chunk list or final concatenation.
        """
        out: Optional[np.ndarray] = None
        for start, stop in self._batches(x.shape[0], batch_size):
            logits = self.forward(x[start:stop], training=False)
            probs = softmax(logits)
            if out is None:
                out = np.empty((x.shape[0], probs.shape[1]), dtype=probs.dtype)
            out[start:stop] = probs
        if out is None:
            raise ValueError("cannot predict on an empty batch")
        return out

    def loss_and_flat_grad(
        self, x: np.ndarray, y: np.ndarray
    ) -> Tuple[float, np.ndarray]:
        """One forward+backward pass; returns ``(loss, flat gradient)``.

        The gradient is an owned float64 copy; use
        :meth:`loss_and_flat_grad_view` when a read-only alias suffices.
        """
        loss = self._forward_backward(x, y)
        g = self._arena.g
        if self.dtype == np.float64:
            return loss, g.copy()
        return loss, g.astype(np.float64)

    def loss_and_flat_grad_view(
        self, x: np.ndarray, y: np.ndarray
    ) -> Tuple[float, np.ndarray]:
        """Like :meth:`loss_and_flat_grad`, but the gradient is a
        read-only view of the arena (arena dtype, zero-copy).

        The view is only valid until the next backward pass on this
        model — copy (or consume) it before training again.
        """
        loss = self._forward_backward(x, y)
        return loss, self._arena.readonly_grads()

    def _forward_backward(self, x: np.ndarray, y: np.ndarray) -> float:
        """Forward+backward; leaves the flat gradient in the arena."""
        xs, ys = np.asarray(x)[None], np.asarray(y)[None]
        return float(self.cohort_pass(xs, ys, self._arena.g[None])[0])

    def cohort_pass(
        self, xs: np.ndarray, ys: np.ndarray, grads: np.ndarray
    ) -> np.ndarray:
        """One forward/backward over ``K`` stacked minibatches.

        ``xs`` is ``(K, N, ...)`` and ``ys`` ``(K, N)``; row ``k`` of the
        ``(K, d)`` arena-dtype block ``grads`` receives batch ``k``'s
        flat gradient, equal bit for bit to
        ``loss_and_flat_grad(xs[k], ys[k])``.  Returns the ``(K,)``
        losses.  The parameters are read, never written.
        """
        if grads.shape != (len(xs), self.num_params) or grads.dtype != self.dtype:
            raise ValueError(
                f"grads must be ({len(xs)}, {self.num_params}) {self.dtype}, "
                f"got {grads.shape} {grads.dtype}"
            )
        losses, grad = self.loss.forward(self._forward(xs, training=True), ys)
        k = len(grads)
        views = [grads[:, cols].reshape((k,) + shape) for cols, shape in self._columns]
        at = len(views)
        for i in range(len(self.layers) - 1, self._first - 1, -1):
            layer = self.layers[i]
            count = len(layer.params())
            grad = layer.backward(
                grad, views[at - count : at], input_grad=i > self._first
            )
            at -= count
        return losses

    def pass_rows(self, batch_shape: Tuple[int, ...]) -> int:
        """How many minibatches of ``batch_shape`` one :meth:`cohort_pass`
        takes: as many as keep the layers' footprints plus a gradient row
        (8 bytes an element) under :data:`PASS_BYTES`, at least one."""
        shape, per_sample = tuple(batch_shape[1:]), 0
        for layer in self.layers:
            shape, elements = layer.footprint(shape)
            per_sample += elements
        row_bytes = 8 * (batch_shape[0] * per_sample + self.num_params)
        return max(1, PASS_BYTES // row_bytes)

    def evaluate_loss(
        self, x: np.ndarray, y: np.ndarray, batch_size: int = 256
    ) -> float:
        """Mean loss in inference mode, batched (no gradient buffers touched)."""
        total, count = 0.0, 0
        for start, stop in self._batches(x.shape[0], batch_size):
            xb = x[start:stop]
            logits = self.forward(xb, training=False)
            total += self.loss.loss_only(logits, y[start:stop]) * xb.shape[0]
            count += xb.shape[0]
        if count == 0:
            raise ValueError("cannot evaluate loss on empty data")
        return total / count

    # ------------------------------------------------------------------
    # flat parameter access
    # ------------------------------------------------------------------
    def _param_refs(self) -> List[np.ndarray]:
        refs: List[np.ndarray] = []
        for layer in self.layers:
            refs.extend(layer.params())
        return refs

    def _grad_refs(self) -> List[np.ndarray]:
        refs: List[np.ndarray] = []
        for layer in self.layers:
            refs.extend(layer.grads())
        return refs

    @property
    def num_params(self) -> int:
        """Total scalar parameter count ``d``."""
        return self._arena.size

    def get_flat_params(self) -> np.ndarray:
        """Copy of all parameters as one flat float64 vector."""
        w = self._arena.w
        if self.dtype == np.float64:
            return w.copy()
        return w.astype(np.float64)

    def get_flat_params_view(self) -> np.ndarray:
        """Read-only zero-copy view of the flat parameters (arena dtype).

        Aliases live model state: valid only until the next parameter
        mutation (``set_flat_params`` or a training step).
        """
        return self._arena.readonly_params()

    def set_flat_params(self, vector: np.ndarray) -> None:
        """Overwrite all parameters from a flat vector — one ``copyto``."""
        vector = np.asarray(vector)
        if vector.size != self._arena.size:
            raise ValueError(
                f"vector has {vector.size} elements but shapes require "
                f"{self._arena.size}"
            )
        np.copyto(self._arena.w, vector.reshape(-1), casting="same_kind")

    def get_flat_grads_view(self) -> np.ndarray:
        """Read-only zero-copy view of the flat gradients (arena dtype).

        Valid only until the next backward pass on this model.
        """
        return self._arena.readonly_grads()

    # ------------------------------------------------------------------
    # copying / serialization — views don't survive either, so the
    # arena is rebuilt (and layers re-adopted) on the other side.
    # ------------------------------------------------------------------
    def clone(self) -> "Sequential":
        """Deep copy with its own freshly bound arena (same values)."""
        return copy.deepcopy(self)

    def __deepcopy__(self, memo) -> "Sequential":
        cls = self.__class__
        new = cls.__new__(cls)
        memo[id(self)] = new
        state = {k: v for k, v in self.__dict__.items() if k != "_arena"}
        # Copying the layers detaches their params from this arena
        # (views become owned arrays); rebuilding re-attaches them.
        new.__dict__.update(copy.deepcopy(state, memo))
        new._build_arena()
        return new

    def __getstate__(self) -> dict:
        return {k: v for k, v in self.__dict__.items() if k != "_arena"}

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._build_arena()

    # ------------------------------------------------------------------
    # convenience
    # ------------------------------------------------------------------
    def workspace_nbytes(self) -> int:
        """Bytes currently held by all layer scratch workspaces."""
        return int(
            sum(layer._ws.nbytes for layer in self.layers if hasattr(layer, "_ws"))
        )

    def clear_workspaces(self) -> None:
        """Release all layer scratch buffers (e.g. before serializing)."""
        for layer in self.layers:
            ws = getattr(layer, "_ws", None)
            if ws is not None:
                ws.clear()
