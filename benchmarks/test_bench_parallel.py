"""Tracked serial-vs-parallel baseline for the execution engine.

Runs the same 8-client / 20-round federated simulation once on the
serial reference and once through the process pool (and, after each,
the recovery replay over its record — replay has no fan-out, so its
times compare like for like), then writes the measured wall times, the
speedup, and the host's CPU count to ``results/parallel.json`` (with
the session telemetry snapshot attached, as every benchmark record).

Bitwise identity between the two runs is a hard assertion — always.
The ≥2× speedup is only asserted when the host actually has the cores
for it (``os.cpu_count() >= 4``); on smaller machines the numbers are
still measured and recorded, so the baseline tracks every substrate it
runs on.  This is the "substrate-dependent: measured and recorded,
shape is the assertion" idiom used across the suite.
"""

import os
import time

import numpy as np
import pytest

from repro.datasets import make_synthetic_mnist, partition_iid, train_test_split
from repro.fl import FederatedSimulation, ParticipationSchedule, VehicleClient
from repro.nn import mlp
from repro.storage import SignGradientStore
from repro.unlearning import SignRecoveryUnlearner
from repro.utils.rng import SeedSequenceTree

NUM_CLIENTS = 8
NUM_ROUNDS = 20
IMAGE = 8
FEATURES = IMAGE * IMAGE
WORKERS = 4
SEED = 2024


def build_sim(backend=None, workers=None):
    """The benchmark workload, rebuilt identically for every engine."""
    tree = SeedSequenceTree(SEED)
    data = make_synthetic_mnist(400, tree.rng("data"), image_size=IMAGE)
    train, _ = train_test_split(data, 0.2, tree.rng("split"))
    shards = partition_iid(train, NUM_CLIENTS, tree.rng("part"))
    clients = [
        VehicleClient(i, shards[i], tree.rng(f"c{i}"), batch_size=32)
        for i in range(NUM_CLIENTS)
    ]
    model = mlp(tree.rng("model"), FEATURES, 10, hidden=16)
    # Client 2 joins late so the recovery window has L-BFGS history.
    schedule = ParticipationSchedule.with_events(
        range(NUM_CLIENTS), joins={2: NUM_ROUNDS // 3}
    )
    sim = FederatedSimulation(
        model,
        clients,
        2e-3,
        schedule=schedule,
        gradient_store=SignGradientStore(),
        backend=backend,
        workers=workers,
    )
    return model, sim


def _timed(fn):
    start = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - start


@pytest.mark.benchmark(group="parallel")
def test_parallel_training_and_recovery_vs_serial(benchmark, save_result):
    """One serial and one process-pool pass over train + unlearn."""
    cpu_count = os.cpu_count() or 1

    def measure(backend, workers):
        model, sim = build_sim(backend=backend, workers=workers)
        record, train_seconds = _timed(lambda: sim.run(NUM_ROUNDS))
        # Recovery has no fan-out; it replays after each engine's training.
        unlearner = SignRecoveryUnlearner(refresh_period=4)
        result, recover_seconds = _timed(
            lambda: unlearner.unlearn(record, forget_ids=[2], model=model)
        )
        return {
            "record": record,
            "result": result,
            "train_seconds": train_seconds,
            "recover_seconds": recover_seconds,
        }

    serial = measure(None, None)  # resolves to the serial default

    def parallel_pass():
        return measure("process", WORKERS)

    parallel = benchmark.pedantic(parallel_pass, rounds=1, iterations=1)

    # Hard contract: the engines are interchangeable bit for bit.
    np.testing.assert_array_equal(
        parallel["record"].final_params(), serial["record"].final_params()
    )
    for t in range(NUM_ROUNDS + 1):
        np.testing.assert_array_equal(
            parallel["record"].params_at(t), serial["record"].params_at(t)
        )
    np.testing.assert_array_equal(
        parallel["result"].params, serial["result"].params
    )
    assert parallel["result"].stats == serial["result"].stats

    train_speedup = serial["train_seconds"] / max(parallel["train_seconds"], 1e-9)
    recover_speedup = serial["recover_seconds"] / max(
        parallel["recover_seconds"], 1e-9
    )
    save_result(
        "parallel",
        {
            "clients": NUM_CLIENTS,
            "rounds": NUM_ROUNDS,
            "model_params": int(build_sim()[0].num_params),
            "workers": WORKERS,
            "backend": "process",
            "cpu_count": cpu_count,
            "serial_train_seconds": serial["train_seconds"],
            "parallel_train_seconds": parallel["train_seconds"],
            "train_speedup": train_speedup,
            "serial_recover_seconds": serial["recover_seconds"],
            "parallel_recover_seconds": parallel["recover_seconds"],
            "recover_speedup": recover_speedup,
        },
    )
    # Speedup is substrate-dependent: asserted only where the cores exist,
    # measured and recorded everywhere.
    if cpu_count >= 4:
        assert train_speedup >= 2.0
