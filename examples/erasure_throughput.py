#!/usr/bin/env python
"""Amortized erasure serving: one batch, one shared replay prefix.

Four vehicles that joined at staggered rounds queue right-to-be-
forgotten requests.  Serving them as one
:meth:`~repro.unlearning.UnlearningService.handle_erasure_batch` call
lets each request resume from the replay prefix it shares with the
previous one — request ``k`` replays only the rounds its own vehicle's
history actually perturbs — while returning parameters byte-identical
to serving every request cold.  The script prints the amortization
table and the cold-vs-batch wall clock, then repeats the batch on the
read-only on-disk store (``with_sign_store(..., backend="mmap")``) to
show the on-disk layout serves the same bytes; the script exits
non-zero when it does not.

Run:  python examples/erasure_throughput.py
"""

from __future__ import annotations

import shutil
import time

from repro.datasets import make_synthetic_mnist, partition_iid
from repro.fl import FederatedSimulation, ParticipationSchedule, VehicleClient, with_sign_store
from repro.nn import mlp
from repro.storage import FullGradientStore
from repro.unlearning import SignRecoveryUnlearner, UnlearningService
from repro.utils.rng import SeedSequenceTree

NUM_CLIENTS = 10
NUM_ROUNDS = 60
JOINS = {6: 6, 7: 40, 8: 50, 9: 56}
BATCH = sorted(JOINS)


def train():
    tree = SeedSequenceTree(7)
    dataset = make_synthetic_mnist(800, tree.rng("data"), image_size=12)
    shards = partition_iid(dataset, NUM_CLIENTS, tree.rng("partition"))
    clients = [
        VehicleClient(cid, shards[cid], tree.rng(f"client-{cid}"), batch_size=32)
        for cid in range(NUM_CLIENTS)
    ]
    model = mlp(tree.rng("model"), 144, 10, hidden=16)
    schedule = ParticipationSchedule.with_events(range(NUM_CLIENTS), joins=JOINS)
    sim = FederatedSimulation(
        model, clients, learning_rate=2e-3, schedule=schedule,
        gradient_store=FullGradientStore(),
    )
    return sim.run(NUM_ROUNDS), model


def main() -> None:
    record, model = train()
    print(f"trained {NUM_ROUNDS} rounds, {NUM_CLIENTS} vehicles; "
          f"erasure queue: {BATCH} (joined at {[JOINS[c] for c in BATCH]})")

    # Cold baseline: every request replayed from scratch, no cache.
    cold_record = with_sign_store(record, delta=1e-6)
    start = time.perf_counter()
    forget: list[int] = []
    cold_rounds = 0
    for cid in BATCH:
        forget.append(cid)
        result = SignRecoveryUnlearner(clip_threshold=5.0).unlearn(
            cold_record, list(forget), model
        )
        cold_rounds += result.rounds_replayed
    cold_seconds = time.perf_counter() - start

    # Amortized: the same four requests as one service batch.
    service = UnlearningService(
        record=with_sign_store(record, delta=1e-6), model=model, clip_threshold=5.0
    )
    start = time.perf_counter()
    outcomes = service.handle_erasure_batch(BATCH)
    batch_seconds = time.perf_counter() - start

    print("\n  request   backtrack   replayed   from cache")
    for cid, outcome in zip(BATCH, outcomes):
        print(
            f"  erase {cid}   round {outcome.result.stats['forget_round']:>3}   "
            f"{outcome.result.rounds_replayed - outcome.cached_prefix_rounds:>8}   "
            f"{outcome.cached_prefix_rounds:>10}"
        )
    cache = service.prefix_cache
    print(
        f"\ncold: {cold_rounds} replay rounds in {cold_seconds:.2f}s — "
        f"batch: {cold_rounds - cache.rounds_saved} rounds in {batch_seconds:.2f}s "
        f"({cold_seconds / batch_seconds:.1f}x, hit rate "
        f"{cache.hits}/{cache.hits + cache.misses})"
    )

    # Same batch served from the read-only on-disk layout.
    mmap_service = UnlearningService(
        record=with_sign_store(record, delta=1e-6, backend="mmap"),
        model=model, clip_threshold=5.0,
    )
    try:
        mmap_outcomes = mmap_service.handle_erasure_batch(BATCH)
        identical = all(
            a.params.tobytes() == b.params.tobytes()
            for a, b in zip(outcomes, mmap_outcomes)
        )
        print(f"mmap store batch byte-identical to dict store: {identical}")
    finally:
        shutil.rmtree(mmap_service.record.gradients.directory, ignore_errors=True)
    if not identical:
        raise SystemExit("mmap store batch differs from the dict store batch")


if __name__ == "__main__":
    main()
