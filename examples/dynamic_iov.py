#!/usr/bin/env python
"""Federated unlearning under real IoV dynamics.

Vehicles drive a city grid (random-waypoint mobility); an RSU at the
center covers part of the map.  A vehicle participates in a round only
while connected — so vehicles join FL when they first enter coverage,
drop out on transient gaps, and *leave* FL after long absences.

One vehicle that joined mid-way later requests erasure.  By then other
vehicles have left coverage for good — the situation in which
retraining-style methods such as FedRecover fail (they need those
vehicles online).  The paper's scheme recovers anyway: the server uses only its
stored sign directions and checkpoints.

Run:  python examples/dynamic_iov.py
"""

from __future__ import annotations

from repro.datasets import make_synthetic_mnist, partition_iid, train_test_split
from repro.fl import FederatedSimulation, VehicleClient, with_sign_store
from repro.iov import IovScenario, coverage_fraction, generate_iov_schedule
from repro.nn import accuracy, mlp
from repro.storage import FullGradientStore
from repro.unlearning import SignRecoveryUnlearner
from repro.utils.rng import SeedSequenceTree

NUM_VEHICLES = 12
NUM_ROUNDS = 100


def main() -> None:
    tree = SeedSequenceTree(11)

    # --- mobility -> connectivity -> participation schedule -------------
    scenario = IovScenario(
        num_vehicles=NUM_VEHICLES,
        num_rounds=NUM_ROUNDS,
        grid_rows=7,
        grid_cols=7,
        coverage_radius=620.0,
        packet_loss=0.05,
        leave_after=12,
    )
    schedule, connectivity = generate_iov_schedule(scenario, tree.rng("iov"))
    for vid in range(NUM_VEHICLES):
        if vid not in schedule.join_rounds:
            schedule.join_rounds[vid] = NUM_ROUNDS - 2  # never in coverage: joins late
    joined_late = [v for v, r in schedule.join_rounds.items() if r > 0]
    left = [v for v, r in schedule.leave_rounds.items() if r is not None]
    print(f"coverage: {coverage_fraction(connectivity):.1%} of vehicle-rounds connected")
    print(f"vehicles joining after round 0: {sorted(joined_late)}")
    print(f"vehicles that left FL for good: {sorted(left)}")
    print(f"transient dropouts: {len(schedule.dropouts)}")

    # --- federated training over the schedule ---------------------------
    dataset = make_synthetic_mnist(1600, tree.rng("data"), image_size=20)
    train, test = train_test_split(dataset, 0.2, tree.rng("split"))
    shards = partition_iid(train, NUM_VEHICLES, tree.rng("partition"))
    clients = [
        VehicleClient(v, shards[v], tree.rng(f"client-{v}"), batch_size=64)
        for v in range(NUM_VEHICLES)
    ]
    model = mlp(tree.rng("model"), 400, 10, hidden=32)
    sim = FederatedSimulation(
        model, clients, learning_rate=1e-3, schedule=schedule,
        gradient_store=FullGradientStore(), test_set=test, eval_every=50,
    )
    record = sim.run(NUM_ROUNDS)

    def test_acc(params):
        model.set_flat_params(params)
        return accuracy(model.predict(test.x), test.y)

    print(f"trained accuracy: {test_acc(record.final_params()):.3f}")

    # --- forget a vehicle that joined mid-way ----------------------------
    candidates = [v for v in joined_late if 0 < schedule.join_rounds[v] < NUM_ROUNDS // 2]
    target = candidates[0] if candidates else max(
        schedule.join_rounds, key=lambda v: schedule.join_rounds[v] > 0
    )
    print(
        f"forgetting vehicle {target} "
        f"(joined at round {schedule.join_rounds[target]}) ..."
    )
    sign_record = with_sign_store(record, delta=1e-6)
    result = SignRecoveryUnlearner(clip_threshold=5.0).unlearn(
        sign_record, [target], model
    )
    print(
        f"recovered accuracy: {test_acc(result.params):.3f} "
        f"({result.rounds_replayed} rounds replayed, "
        f"{result.stats['skipped_rounds']} idle rounds, "
        f"{result.client_gradient_calls} client computations — even though "
        f"{len(left)} vehicles are gone)"
    )


if __name__ == "__main__":
    main()
