#!/usr/bin/env python
"""Parallel execution demo: same results, measured speedup.

Runs one small federated training + recovery workload twice — training
on the serial reference engine and through the process pool — verifies
the two runs are *bitwise identical*, and prints the measured wall
times and speedup.  On a single-core host the pool overhead usually
wins (speedup < 1×); the point of the demo is that correctness never
depends on the engine, so ``--workers``/``--backend`` are free knobs.
They are training-only: recovery runs one stacked kernel per replay
node either way.

The same engines back ``python -m repro.eval <exp> --backend process
--workers 4`` and the ``backend=``/``workers=`` constructor arguments
of ``FederatedSimulation``; the tracked baseline lives in
``benchmarks/results/parallel.json`` (``make bench-parallel``).

Run:  python examples/parallel_speedup.py
"""

from __future__ import annotations

import os
import time

import numpy as np

from repro.datasets import make_synthetic_mnist, partition_iid, train_test_split
from repro.fl import FederatedSimulation, ParticipationSchedule, VehicleClient
from repro.nn import mlp
from repro.storage import SignGradientStore
from repro.unlearning import SignRecoveryUnlearner
from repro.utils.rng import SeedSequenceTree

NUM_CLIENTS = 8
NUM_ROUNDS = 12
IMAGE = 8
WORKERS = 4
SEED = 7


def build_sim(backend=None, workers=None):
    """Rebuild the identical workload for whichever engine we time."""
    tree = SeedSequenceTree(SEED)
    data = make_synthetic_mnist(300, tree.rng("data"), image_size=IMAGE)
    train, _ = train_test_split(data, 0.2, tree.rng("split"))
    shards = partition_iid(train, NUM_CLIENTS, tree.rng("part"))
    clients = [
        VehicleClient(i, shards[i], tree.rng(f"c{i}"), batch_size=32)
        for i in range(NUM_CLIENTS)
    ]
    model = mlp(tree.rng("model"), IMAGE * IMAGE, 10, hidden=16)
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


def run_pipeline(backend=None, workers=None):
    """Train, then unlearn client 2; return (record, result, seconds)."""
    start = time.perf_counter()
    model, sim = build_sim(backend=backend, workers=workers)
    record = sim.run(NUM_ROUNDS)
    result = SignRecoveryUnlearner(refresh_period=4).unlearn(
        record, forget_ids=[2], model=model
    )
    return record, result, time.perf_counter() - start


def main():
    print(f"host CPUs: {os.cpu_count()}  |  pool workers: {WORKERS}")
    print(f"workload: {NUM_CLIENTS} clients x {NUM_ROUNDS} rounds + recovery\n")

    record_serial, result_serial, serial_s = run_pipeline()
    print(f"serial            {serial_s:8.3f} s")
    record_pool, result_pool, pool_s = run_pipeline("process", WORKERS)
    print(f"process pool x{WORKERS}   {pool_s:8.3f} s")

    np.testing.assert_array_equal(
        record_pool.final_params(), record_serial.final_params()
    )
    np.testing.assert_array_equal(result_pool.params, result_serial.params)
    print("\nbitwise identity: trained params equal, recovered params equal")
    print(f"speedup: {serial_s / max(pool_s, 1e-9):.2f}x "
          "(substrate-dependent; identity is the guarantee)")


if __name__ == "__main__":
    main()
