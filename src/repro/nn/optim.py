"""Optimizers operating on flat parameter vectors.

The paper uses plain SGD (Eq. 2: ``w_{t+1} = w_t − η · A(g)``) on both
clients and server.  The optimizer here works directly on flat vectors
so the same code drives local client training and the server-side
recovery loop.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

__all__ = ["SGD"]


class SGD:
    """Stochastic gradient descent with optional momentum and weight decay.

    Parameters
    ----------
    lr:
        Learning rate ``η``.
    momentum:
        Classic (heavy-ball) momentum coefficient; 0 disables it.
        The paper's experiments use 0 — momentum exists for the
        extension experiments.
    weight_decay:
        L2 coefficient added to the gradient (decoupled from the loss).
    """

    def __init__(self, lr: float, momentum: float = 0.0, weight_decay: float = 0.0):
        if lr <= 0:
            raise ValueError(f"learning rate must be positive, got {lr}")
        if not 0.0 <= momentum < 1.0:
            raise ValueError(f"momentum must be in [0, 1), got {momentum}")
        if weight_decay < 0:
            raise ValueError(f"weight_decay must be non-negative, got {weight_decay}")
        self.lr = lr
        self.momentum = momentum
        self.weight_decay = weight_decay
        self._velocity: Optional[np.ndarray] = None
        self._buf: Optional[np.ndarray] = None

    def step(self, params: np.ndarray, grad: np.ndarray) -> np.ndarray:
        """Return updated parameters (does not mutate inputs)."""
        params = np.asarray(params, dtype=np.float64)
        grad = np.asarray(grad, dtype=np.float64)
        if params.shape != grad.shape:
            raise ValueError(
                f"params/grad shape mismatch: {params.shape} vs {grad.shape}"
            )
        if self.weight_decay:
            grad = grad + self.weight_decay * params
        if self.momentum:
            if self._velocity is None or self._velocity.shape != grad.shape:
                self._velocity = np.zeros_like(grad)
            self._velocity = self.momentum * self._velocity + grad
            update = self._velocity
        else:
            update = grad
        return params - self.lr * update

    def step_(self, params: np.ndarray, grad: np.ndarray) -> np.ndarray:
        """In-place, allocation-free variant of :meth:`step`.

        Updates ``params`` in place (and returns it) using fused
        ``out=`` arithmetic; ``grad`` is never mutated.  The scalar
        sequencing matches :meth:`step` exactly, so for float64 inputs
        the result is bitwise-identical — the hot loops (server rounds,
        recovery replay) use this entry point, while :meth:`step`
        remains the pure functional form.
        """
        if not isinstance(params, np.ndarray) or not isinstance(grad, np.ndarray):
            raise TypeError("step_ requires ndarray params and grad")
        if params.shape != grad.shape:
            raise ValueError(
                f"params/grad shape mismatch: {params.shape} vs {grad.shape}"
            )
        if not params.flags.writeable:
            raise ValueError("params must be writable for an in-place step")
        buf = self._buf
        if buf is None or buf.shape != params.shape or buf.dtype != params.dtype:
            buf = self._buf = np.empty_like(params)
        update = grad
        if self.weight_decay:
            np.multiply(params, self.weight_decay, out=buf)
            np.add(buf, grad, out=buf)
            update = buf
        if self.momentum:
            if self._velocity is None or self._velocity.shape != update.shape:
                self._velocity = np.zeros_like(update)
            np.multiply(self._velocity, self.momentum, out=self._velocity)
            np.add(self._velocity, update, out=self._velocity)
            update = self._velocity
        np.multiply(update, self.lr, out=buf)
        np.subtract(params, buf, out=params)
        return params
