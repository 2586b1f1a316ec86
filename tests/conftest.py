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
from typing import Dict

import numpy as np
import pytest

from repro.datasets import ArrayDataset, make_synthetic_mnist, partition_iid, train_test_split
from repro.fl import FederatedSimulation, ParticipationSchedule, VehicleClient
from repro.nn import mlp
from repro.storage import FullGradientStore
from repro.utils.rng import SeedSequenceTree


#: The NumPy SIMD dispatch target the byte-pinned digests were recorded
#: on.  NumPy's ``exp`` differs between targets, so pins over it are
#: keyed by target.
PINS_SIMD = "X86_V4"

#: Set to ``1`` to print the runtime core's digest pins instead of
#: checking them (see :class:`CorePins`).
RECORD_PINS = "REPRO_RECORD_PINS"


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


class CorePins:
    """One test module's byte-pinned digests, a table per OpenBLAS core.

    Float reductions differ between BLAS kernels, so each core has its
    own values.  ``pins[name]`` is the value recorded on the runtime
    core; on a core with no table the test fails and names the command
    that records one.  With ``REPRO_RECORD_PINS=1`` a lookup returns a
    stand-in that equals whatever it is compared with and keeps it; the
    session then prints each module's table and fails, since nothing
    was checked.
    """

    #: module -> name -> value seen while recording.
    recorded: Dict[str, Dict[str, object]] = {}

    def __init__(self, module: str, tables: Dict[str, Dict[str, object]]):
        self.module = module
        self.tables = tables

    def __getitem__(self, name: str):
        if os.environ.get(RECORD_PINS) == "1":
            return _Recorded(self.recorded.setdefault(self.module, {}), name)
        core = blas_core()
        if core not in self.tables:
            path = self.module.replace(".", "/") + ".py"
            pytest.fail(
                f"no digest pins in {self.module} for BLAS core {core} "
                f"(recorded on {', '.join(self.tables)}); record them with "
                f"`{RECORD_PINS}=1 OPENBLAS_CORETYPE={core} PYTHONPATH=src "
                f"python -m pytest -q {path}` at a commit whose pins pass on "
                "a recorded core"
            )
        return self.tables[core][name]


class _Recorded:
    """A pin being recorded: equal to the first value it is compared
    with, which it keeps; a different value later is an error."""

    __hash__ = None

    def __init__(self, table: Dict[str, object], name: str):
        self.table = table
        self.name = name

    def __eq__(self, other):
        seen = self.table.setdefault(self.name, other)
        if seen != other:
            raise AssertionError(f"pin {self.name!r} read {seen!r}, then {other!r}")
        return True


def pin_note() -> str:
    """Failure message for a pinned-digest assertion."""
    return (
        f"runtime BLAS core {blas_core()}, SIMD target {simd_target()}; "
        f"pins keyed by core, recorded on {PINS_SIMD}"
    )


def pytest_report_header(config):
    return (
        f"BLAS core: {blas_core()}, SIMD target: {simd_target()} "
        f"(digest pins keyed by core, recorded on {PINS_SIMD})"
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
    for module, table in sorted(CorePins.recorded.items()):
        terminalreporter.write_line(f"{module}: {blas_core()!r}: {{")
        for name, value in table.items():
            terminalreporter.write_line(f"    {name!r}: {value!r},")
        terminalreporter.write_line("}")


def pytest_sessionfinish(session, exitstatus):
    if os.environ.get(RECORD_PINS) == "1":
        session.exitstatus = pytest.ExitCode.TESTS_FAILED


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
