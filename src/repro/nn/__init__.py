"""A from-scratch NumPy neural-network substrate.

The paper trains small CNNs with SGD under PyTorch; no deep-learning
framework is available offline, so this package implements the whole
substrate: layers with explicit forward/backward passes, a
:class:`~repro.nn.model.Sequential` container exposing parameters as a
single flat vector (the representation the unlearning algebra needs),
softmax cross-entropy loss, and SGD.

Public surface
--------------
- layers: :class:`Dense`, :class:`Conv2d`, :class:`MaxPool2d`,
  :class:`ReLU`, :class:`Flatten`
- container: :class:`Sequential`
- memory: :class:`ParameterArena`, :class:`Workspace`
- loss: :class:`SoftmaxCrossEntropy`
- optimizer: :class:`SGD`
- model zoo: :func:`mnist_cnn`, :func:`gtsrb_cnn`, :func:`mlp`
"""

from repro.nn.arena import ParameterArena, Workspace
from repro.nn.layers import (
    Conv2d,
    Dense,
    Flatten,
    Layer,
    MaxPool2d,
    ReLU,
)
from repro.nn.loss import SoftmaxCrossEntropy, softmax
from repro.nn.metrics import accuracy
from repro.nn.model import Sequential
from repro.nn.optim import SGD
from repro.nn.zoo import gtsrb_cnn, mlp, mnist_cnn, tiny_cnn

__all__ = [
    "Conv2d",
    "Dense",
    "Flatten",
    "Layer",
    "MaxPool2d",
    "ParameterArena",
    "ReLU",
    "SGD",
    "Sequential",
    "SoftmaxCrossEntropy",
    "Workspace",
    "accuracy",
    "gtsrb_cnn",
    "mlp",
    "mnist_cnn",
    "softmax",
    "tiny_cnn",
]
