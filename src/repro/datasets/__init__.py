"""Datasets for the FUIoV reproduction.

Two procedurally generated image-classification tasks substitute for
the paper's MNIST and GTSRB benchmarks (no network access for
downloads; see DESIGN.md §2 for the substitution argument), plus the
client partitioners that split a dataset across federated vehicles.
"""

from repro.datasets.base import ArrayDataset, train_test_split
from repro.datasets.partition import partition_dirichlet, partition_iid
from repro.datasets.synthetic_gtsrb import (
    SIGN_CLASSES,
    make_synthetic_gtsrb,
    render_sign,
)
from repro.datasets.synthetic_mnist import (
    DIGIT_STROKES,
    make_synthetic_mnist,
    render_digit,
)

__all__ = [
    "ArrayDataset",
    "DIGIT_STROKES",
    "SIGN_CLASSES",
    "make_synthetic_gtsrb",
    "make_synthetic_mnist",
    "partition_dirichlet",
    "partition_iid",
    "render_digit",
    "render_sign",
    "train_test_split",
]
