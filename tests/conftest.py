"""Shared fixtures for the test suite.

The heavier fixtures (a trained federated record) are session-scoped:
many unlearning tests share one small training run, which keeps the
suite fast while still exercising the real pipeline.
"""

from __future__ import annotations

import ctypes
import functools
import gc
import glob
import os

import numpy as np
import pytest

from repro.datasets import ArrayDataset, make_synthetic_mnist, partition_iid, train_test_split
from repro.fl import FederatedSimulation, ParticipationSchedule, VehicleClient
from repro.nn import mlp
from repro.storage import FullGradientStore
from repro.utils.rng import SeedSequenceTree


#: The OpenBLAS core the suite's byte-pinned digests were recorded on.
#: Float reductions differ between BLAS kernels, so a pin that fails on
#: another core may be a kernel difference, not a regression.
PINS_CORE = "SkylakeX"

#: The NumPy SIMD dispatch target those pins were recorded on.  NumPy's
#: ``exp`` differs between targets, so pins over it are keyed by target.
PINS_SIMD = "X86_V4"


@functools.lru_cache(maxsize=None)
def blas_core() -> str:
    """The OpenBLAS kernel core NumPy's bundled library picked at
    runtime (e.g. ``SkylakeX``), or ``unknown``."""
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libs, "libscipy_openblas*"))):
        try:
            corename = ctypes.CDLL(path).scipy_openblas_get_corename64_
        except (OSError, AttributeError):
            continue
        corename.restype = ctypes.c_char_p
        return corename().decode()
    return "unknown"


@functools.lru_cache(maxsize=None)
def simd_target() -> str:
    """The highest ``X86_V*`` SIMD level NumPy dispatches to at runtime,
    as ``np.show_runtime()`` lists it (``NPY_DISABLE_CPU_FEATURES`` can
    lower it), or ``unknown`` off x86."""
    from numpy._core import _multiarray_umath as umath

    levels = [
        name
        for name in umath.__cpu_baseline__ + umath.__cpu_dispatch__
        if name.startswith("X86_V") and umath.__cpu_features__.get(name)
    ]
    return max(levels, default="unknown")


def pin_note() -> str:
    """Failure message for a pinned-digest assertion."""
    return (
        f"runtime BLAS core {blas_core()}, SIMD target {simd_target()}; "
        f"pins recorded on {PINS_CORE}, {PINS_SIMD}"
    )


def pytest_report_header(config):
    return (
        f"BLAS core: {blas_core()}, SIMD target: {simd_target()} "
        f"(digest pins recorded on {PINS_CORE}, {PINS_SIMD})"
    )


def pytest_collection_finish(session):
    # Move everything collection built into the permanent generation, so
    # tests that call gc.collect() (the forest accounting rules) walk
    # only what the tests themselves allocate, not the whole session.
    gc.collect()
    gc.freeze()


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if config.get_verbosity() < 0:  # -q drops the report header
        terminalreporter.write_line(pytest_report_header(config))


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(1234)


@pytest.fixture
def tiny_dataset(rng) -> ArrayDataset:
    """64 random 2-class samples with 8 features."""
    x = rng.normal(size=(64, 8))
    y = (x[:, 0] > 0).astype(np.int64)
    return ArrayDataset(x=x, y=y, num_classes=2, name="tiny")


SMALL_IMAGE = 14
SMALL_FEATURES = SMALL_IMAGE * SMALL_IMAGE


def _make_small_fl(seed: int = 77, num_rounds: int = 40, forget_join: int = 2):
    """A small but real FL setup: 6 clients, MNIST-like 14x14, MLP."""
    tree = SeedSequenceTree(seed)
    data = make_synthetic_mnist(900, tree.rng("data"), image_size=SMALL_IMAGE)
    train, test = train_test_split(data, 0.2, tree.rng("split"))
    shards = partition_iid(train, 6, tree.rng("part"))
    clients = [
        VehicleClient(i, shards[i], tree.rng(f"client{i}"), batch_size=32)
        for i in range(6)
    ]
    model = mlp(tree.rng("model"), SMALL_FEATURES, 10, hidden=24)

    def factory():
        return mlp(tree.rng("model"), SMALL_FEATURES, 10, hidden=24)

    schedule = ParticipationSchedule.with_events(range(6), joins={5: forget_join})
    sim = FederatedSimulation(
        model,
        clients,
        learning_rate=2e-3,
        schedule=schedule,
        gradient_store=FullGradientStore(),
        test_set=test,
        eval_every=1000,
    )
    record = sim.run(num_rounds)
    return {
        "record": record,
        "model": model,
        "factory": factory,
        "clients": {c.client_id: c for c in clients},
        "test": test,
        "train": train,
        "forget_id": 5,
        "forget_join": forget_join,
        "tree": tree,
    }


@pytest.fixture(scope="session")
def small_fl():
    """Session-scoped trained FL run shared by unlearning tests.

    Tests must not mutate the record; the model's parameters may be
    overwritten freely (every consumer sets them before use).
    """
    return _make_small_fl()
