"""Loss functions.

The paper's models are multi-class classifiers trained with softmax
cross-entropy; that is the only loss the reproduction needs, plus the
standalone stable :func:`softmax` used by evaluation code.
"""

from __future__ import annotations

import numpy as np

__all__ = ["softmax", "SoftmaxCrossEntropy"]


def softmax(logits: np.ndarray) -> np.ndarray:
    """Numerically stable softmax over the last axis."""
    shifted = logits - logits.max(axis=-1, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=-1, keepdims=True)


class SoftmaxCrossEntropy:
    """Fused softmax + cross-entropy for integer class labels.

    Fusing the two keeps the backward pass the textbook
    ``(p - onehot(y)) / N`` expression, which is both faster and far
    more numerically stable than back-propagating through an explicit
    softmax layer.
    """

    def forward(self, logits: np.ndarray, labels: np.ndarray):
        """Return ``(mean_loss, dloss/dlogits)``.

        Parameters
        ----------
        logits:
            ``(N, num_classes)`` raw scores; leading axes before ``N``
            stack batches, and then the loss is one mean per batch.
        labels:
            ``(N,)`` integer class indices in ``[0, num_classes)`` (with
            the same leading axes as ``logits``).
        """
        logits = np.asarray(logits, dtype=np.float64)
        labels = np.asarray(labels)
        if logits.ndim < 2:
            raise ValueError(f"logits must be (N, C), got {logits.shape}")
        if labels.shape != logits.shape[:-1]:
            raise ValueError(
                f"labels must be {logits.shape[:-1]}, got {labels.shape}"
            )
        if labels.size and (labels.min() < 0 or labels.max() >= logits.shape[-1]):
            raise ValueError("labels out of range for logits width")
        probs = softmax(logits)
        picked = np.take_along_axis(probs, labels[..., None], axis=-1)
        # Clip only inside the log; the gradient uses the exact probs.
        nll = -np.log(np.clip(picked[..., 0], 1e-300, None))
        loss = nll.mean(axis=-1)
        grad = probs
        np.put_along_axis(grad, labels[..., None], picked - 1.0, axis=-1)
        grad /= logits.shape[-2]
        return (float(loss) if loss.ndim == 0 else loss), grad

    def loss_only(self, logits: np.ndarray, labels: np.ndarray) -> float:
        """Mean cross-entropy without materializing the gradient."""
        loss, _ = self.forward(logits, labels)
        return loss
