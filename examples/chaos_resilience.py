#!/usr/bin/env python
"""Chaos engineering for federated unlearning: crash it, corrupt it, resume it.

IoV deployments fail constantly — vehicles drive out of coverage
mid-upload, OBUs ship garbage, the RSU process gets power-cycled.  This
example subjects the full pipeline to a deterministic fault schedule
and shows the resilience machinery holding the line:

1. A :class:`~repro.faults.FaultPlan` makes 15% of (round, vehicle)
   pairs upload corrupted updates (NaN/Inf/mis-shaped/mis-scaled),
   crashes a few clients outright, and schedules the RSU itself to be
   killed after round 30.
2. The server's :class:`~repro.faults.UpdateValidator` quarantines
   every mangled update before aggregation; quarantined vehicles are
   recorded as round dropouts in the membership ledger.
3. A :class:`~repro.fl.RoundJournal` appends each completed round to
   its round log and commits it with one marker swap; after the kill, a
   *fresh* process resumes from the journal and finishes training — the
   record is bitwise identical to an uninterrupted run.
4. Unlearning then proceeds from the battle-scarred record, with the
   recovery replay itself checkpointed so it too can survive a crash.

Run:  python examples/chaos_resilience.py
"""

from __future__ import annotations

import tempfile

import numpy as np

from repro.datasets import make_synthetic_mnist, partition_iid, train_test_split
from repro.faults import FaultPlan, RetryPolicy, ServerKilledError
from repro.fl import FederatedSimulation, RoundJournal, VehicleClient
from repro.nn import accuracy, mlp
from repro.storage import SignGradientStore
from repro.unlearning import SignRecoveryUnlearner
from repro.utils.rng import SeedSequenceTree

NUM_CLIENTS = 6
NUM_ROUNDS = 60
KILL_AFTER_ROUND = 30
FORGET_CLIENT = 4
LEARNING_RATE = 2e-3
SEED = 2024


def build_simulation(fault_plan: FaultPlan | None) -> tuple:
    """Rebuild the identical simulation from SEED (what a restarted
    process would do before resuming from the journal)."""
    tree = SeedSequenceTree(SEED)
    dataset = make_synthetic_mnist(900, tree.rng("data"), image_size=14)
    train, test = train_test_split(dataset, 0.2, tree.rng("split"))
    shards = partition_iid(train, NUM_CLIENTS, tree.rng("partition"))
    clients = [
        VehicleClient(cid, shards[cid], tree.rng(f"client-{cid}"), batch_size=32)
        for cid in range(NUM_CLIENTS)
    ]
    model = mlp(tree.rng("model"), in_features=196, num_classes=10, hidden=24)
    sim = FederatedSimulation(
        model,
        clients,
        learning_rate=LEARNING_RATE,
        gradient_store=SignGradientStore(),
        fault_plan=fault_plan,
        retry_policy=RetryPolicy(max_attempts=3),
    )
    return model, sim, test


def make_plan(kill_rounds=()) -> FaultPlan:
    """The chaos schedule — a pure function of SEED, so every rebuilt
    process sees the same faults."""
    return FaultPlan.random(
        range(NUM_CLIENTS),
        NUM_ROUNDS,
        seed=SEED,
        crash_rate=0.03,
        corrupt_rate=0.15,
        flaky_rate=0.05,
        kill_rounds=kill_rounds,
    )


def main() -> None:
    plan = make_plan(kill_rounds={KILL_AFTER_ROUND})
    print("scheduled faults:", plan.counts())

    with tempfile.TemporaryDirectory() as journal_dir:
        journal = RoundJournal(journal_dir)

        # --- first process: trains under fire until the kill ----------
        _, sim, _ = build_simulation(plan)
        try:
            sim.run(NUM_ROUNDS, journal=journal)
            raise AssertionError("the scheduled kill never fired")
        except ServerKilledError as exc:
            print(f"\nRSU killed after round {exc.round_index} (journal committed)")
        print("fault stats so far:", sim.fault_stats)

        # --- second process: resumes from the journal and finishes ----
        model, sim2, test = build_simulation(make_plan())
        record = sim2.run(NUM_ROUNDS, journal=journal)
        record.validate()
        print(f"\nresumed and finished all {record.num_rounds} rounds")
        print("quarantined updates:", len(sim2.server.quarantine))
        for event in sim2.server.quarantine[:3]:
            print(f"  round {event.round_index} client {event.client_id}: "
                  f"{event.reason}")
        model.set_flat_params(record.final_params())
        print(f"test accuracy: {accuracy(model.predict(test.x), test.y):.4f}")

        # --- sanity: bitwise identical to a run that never crashed ----
        _, clean_sim, _ = build_simulation(make_plan())
        clean = clean_sim.run(NUM_ROUNDS)
        identical = bool(
            np.array_equal(record.final_params(), clean.final_params())
        )
        print(f"bitwise identical to uninterrupted run: {identical}")

    # --- unlearn from the battle-scarred record, with checkpoints -----
    with tempfile.TemporaryDirectory() as ckpt_dir:
        unlearner = SignRecoveryUnlearner(checkpoint_dir=ckpt_dir)
        result = unlearner.unlearn(record, forget_ids=[FORGET_CLIENT], model=model)
        model.set_flat_params(result.params)
        print(f"\nforgot vehicle {FORGET_CLIENT}: replayed "
              f"{result.rounds_replayed} rounds, "
              f"accuracy {accuracy(model.predict(test.x), test.y):.4f}")


if __name__ == "__main__":
    main()
