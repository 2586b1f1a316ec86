#!/usr/bin/env python
"""Training fan-out demo: same results, measured speedup.

Runs one small federated training + recovery workload twice — training
each round's cohort in one pass, then split across two threads —
verifies the two runs are *bitwise identical*, and prints the measured
wall times and speedup.  At this small MLP shape both runs take tens of
milliseconds and the ratio is noise; the threads pay off at CNN shapes,
where each vehicle's pass is long (EXPERIMENTS.md, "Training fan-out after
the cohort pass").  The point of the demo is that correctness never
depends on the worker count, so ``--workers`` is a free knob.  It is
training-only: recovery runs one stacked kernel per replay node either
way.

The same fan-out backs ``python -m repro.eval <exp> --workers 2`` and
the ``workers=`` constructor argument of ``FederatedSimulation``.

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
WORKERS = 2
SEED = 7


def build_sim(workers=1):
    """Rebuild the identical workload for whichever worker count we time."""
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
        workers=workers,
    )
    return model, sim


def run_pipeline(workers=1):
    """Train, then unlearn client 2; return (record, result, seconds)."""
    start = time.perf_counter()
    model, sim = build_sim(workers=workers)
    record = sim.run(NUM_ROUNDS)
    result = SignRecoveryUnlearner(refresh_period=4).unlearn(
        record, forget_ids=[2], model=model
    )
    return record, result, time.perf_counter() - start


def main():
    print(f"host CPUs: {os.cpu_count()}  |  threads: {WORKERS}")
    print(f"workload: {NUM_CLIENTS} clients x {NUM_ROUNDS} rounds + recovery\n")

    record_serial, result_serial, serial_s = run_pipeline()
    print(f"one pass          {serial_s:8.3f} s")
    record_pool, result_pool, pool_s = run_pipeline(WORKERS)
    print(f"workers={WORKERS}         {pool_s:8.3f} s")

    np.testing.assert_array_equal(
        record_pool.final_params(), record_serial.final_params()
    )
    np.testing.assert_array_equal(result_pool.params, result_serial.params)
    print("\nbitwise identity: trained params equal, recovered params equal")
    print(f"speedup: {serial_s / max(pool_s, 1e-9):.2f}x "
          "(substrate-dependent; identity is the guarantee)")


if __name__ == "__main__":
    main()
