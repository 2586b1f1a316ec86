"""Tracked fused replay-forest baseline: speedup grows with batch size.

One training run shaped like a real serving backlog — the oldest
forgotten vehicle joined early (round 5 of 120), the other 31 forget
vehicles join packed into the final round — then batches of K queued
erasure requests served two ways: K cold cache-less replays, and one
``UnlearningService.handle_erasure_batch_fused`` call (one shared
execution tree; ``docs/REPLAY.md``).  Byte identity between the two
paths is a hard assertion at every K.

The amortization is determined by replay-round counts, not the
substrate: at K=32 the cold path replays 32 × 115 = 3680 member-rounds
while the tree executes the 114-round trunk once plus a wide one-round
fan of forked branches (~146 node-rounds) — so the ≥10× speedup at
K=32, and speedup(32) ≥ speedup(4), are asserted unconditionally.
Per-batch rows (wall times, speedup, node-vs-member rounds, forks,
fusion width, warm-pass hit depth) land in ``results/forest.json``
with the session telemetry snapshot attached.
"""

import copy
import time

import pytest

from repro.datasets import make_synthetic_mnist, partition_iid
from repro.fl import FederatedSimulation, ParticipationSchedule, VehicleClient
from repro.nn import mlp
from repro.storage import SignGradientStore
from repro.unlearning import (
    ReplayForest,
    SignRecoveryUnlearner,
    UnlearningService,
    fused_unlearn,
)
from repro.utils.rng import SeedSequenceTree

NUM_CLIENTS = 40
NUM_ROUNDS = 120
IMAGE = 8
FEATURES = IMAGE * IMAGE
SEED = 2024
CLIP = 5.0

#: The erasure backlog: vehicle 8 joined early (the long shared trunk),
#: vehicles 9..39 join in the last round (short private tails), so the
#: tree's sharing grows with the batch size.
ANCHOR = 8
TAIL = list(range(9, 40))      # join round 119
FORGET_POPULATION = [ANCHOR] + TAIL
JOINS = {ANCHOR: 5, **{c: NUM_ROUNDS - 1 for c in TAIL}}
BATCH_SIZES = [4, 32]


def build_record():
    tree = SeedSequenceTree(SEED)
    data = make_synthetic_mnist(400, tree.rng("data"), image_size=IMAGE)
    shards = partition_iid(data, NUM_CLIENTS, tree.rng("part"))
    clients = [
        VehicleClient(i, shards[i], tree.rng(f"c{i}"), batch_size=16)
        for i in range(NUM_CLIENTS)
    ]
    model = mlp(tree.rng("model"), FEATURES, 10, hidden=8)
    schedule = ParticipationSchedule.with_events(range(NUM_CLIENTS), joins=JOINS)
    sim = FederatedSimulation(
        model,
        clients,
        2e-3,
        schedule=schedule,
        gradient_store=SignGradientStore(),
    )
    return sim.run(NUM_ROUNDS), model


def _timed(fn):
    start = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - start


@pytest.mark.benchmark(group="forest")
def test_fused_forest_speedup_grows_with_batch(benchmark, save_result):
    record, model = build_record()
    rows = []
    speedups = {}

    for batch_size in BATCH_SIZES:
        batch = FORGET_POPULATION[:batch_size]

        # Cold reference: every request replayed cache-less from scratch
        # on the pristine record (read-only).
        def cold_pass():
            results = []
            forget = []
            for cid in batch:
                forget.append(cid)
                unlearner = SignRecoveryUnlearner(clip_threshold=CLIP)
                results.append(unlearner.unlearn(record, list(forget), model))
            return results

        cold_results, cold_seconds = _timed(cold_pass)
        cold_rounds = sum(r.rounds_replayed for r in cold_results)

        # Fused: the same requests through one shared execution tree.
        # Each batch size gets its own record copy — committing a batch
        # purges the forgotten vehicles' stored gradients.
        service = UnlearningService(
            record=copy.deepcopy(record), model=model, clip_threshold=CLIP
        )

        report, fused_seconds = _timed(
            lambda: service.handle_erasure_batch_fused(batch)
        )

        # Hard contract: fusion never changes a bit, at any batch size.
        assert report.errors == [None] * batch_size
        for outcome, cold in zip(report.outcomes, cold_results):
            assert outcome.params.tobytes() == cold.params.tobytes()
            assert outcome.result.stats == cold.stats

        # Warm repeat through the raw executor on a forest of its own:
        # every request resumes at full depth (hit depth == its replay
        # span).  (Not on the service's forest: each commit retires what
        # no request forgetting at least the erased set can resume from,
        # and a verbatim repeat of the batch forgets less than that.)
        warm_unlearner = SignRecoveryUnlearner(
            clip_threshold=CLIP, prefix_cache=ReplayForest()
        )
        sets = [frozenset(batch[: k + 1]) for k in range(batch_size)]
        fused_unlearn(warm_unlearner, record, sets)

        def warm_pass():
            return fused_unlearn(warm_unlearner, record, sets)

        if batch_size == max(BATCH_SIZES):
            warm_outcomes, warm_stats = benchmark.pedantic(
                warm_pass, rounds=1, iterations=1
            )
        else:
            warm_outcomes, warm_stats = warm_pass()
        assert warm_stats.executed_node_rounds == 0

        stats = report.stats
        speedup = cold_seconds / max(fused_seconds, 1e-9)
        speedups[batch_size] = speedup
        rows.append(
            {
                "batch_size": batch_size,
                "cold_seconds": cold_seconds,
                "fused_seconds": fused_seconds,
                "speedup": speedup,
                "cold_rounds_replayed": cold_rounds,
                "executed_node_rounds": stats.executed_node_rounds,
                "member_rounds": stats.member_rounds,
                "shared_rounds": stats.shared_rounds,
                "forks": stats.forks,
                "fusion_width": stats.peak_branches,
                "forest_nodes": service.prefix_cache.node_count,
                "warm_hit_depth_rounds": [
                    o.cached_prefix_rounds for o in warm_outcomes
                ],
            }
        )

    save_result(
        "forest",
        {
            "clients": NUM_CLIENTS,
            "rounds": NUM_ROUNDS,
            "anchor_join_round": JOINS[ANCHOR],
            "tail_join_rounds": sorted({JOINS[c] for c in FORGET_POPULATION[1:]}),
            "batches": rows,
        },
    )

    # Fixed by the join schedule, not the substrate: the tree executes
    # ~146 node-rounds where the cold path replays 3680.
    assert speedups[32] >= 10.0
    assert speedups[32] >= speedups[4]
