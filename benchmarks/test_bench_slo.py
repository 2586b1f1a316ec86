"""Erasure-daemon SLO harness (``make bench-slo``).

One training run, then three seeded open-loop load phases against the
:class:`~repro.serving.ErasureDaemon` fronting the service:

1. ``steady`` — nominal mixed traffic (fresh singles/batches plus
   idempotent retries).  Asserted: ≥ 200 served req/s and a bounded
   p99 latency.
2. ``burst`` — a mass-GDPR burst of fresh erasures several times the
   queue capacity.  Asserted: nonzero shed rate (admission control
   rejects the excess instead of queueing without bound) and the queue
   never exceeds its capacity.
3. ``recover`` — nominal traffic again.  Asserted: shedding stops and
   the breaker is closed (the daemon recovered from the burst).

A fourth, separately trained record checks the deadline contract: a
request whose deadline expires aborts with a typed error, and the next
request for the same vehicle recovers parameters **byte-identical** to
a cache-less cold replay — the aborted replay left the prefix cache
either untouched or holding only committed round snapshots.

Per-phase p50/p95/p99 latency, req/s, and shed-rate rows land in
``results/slo.json`` with the session telemetry snapshot attached.
"""

import pytest

from repro.datasets import make_synthetic_mnist, partition_iid
from repro.fl import FederatedSimulation, ParticipationSchedule, VehicleClient
from repro.nn import mlp
from repro.serving import (
    DeadlineExceededError,
    ErasureDaemon,
    LoadGenerator,
    mass_gdpr_schedule,
    steady_schedule,
)
from repro.storage import SignGradientStore
from repro.unlearning import SignRecoveryUnlearner, UnlearningService
from repro.utils.rng import SeedSequenceTree

NUM_CLIENTS = 24
NUM_ROUNDS = 12
IMAGE = 8
FEATURES = IMAGE * IMAGE
SEED = 2024
CLIP = 5.0
#: Erasable late joiners: erasing one replays only from its join round,
#: and the service's prefix cache amortizes the shared prefix across
#: the stream — the data path the daemon serves under load.
ERASABLE = list(range(6, NUM_CLIENTS))
JOINS = {cid: 2 + (i % 9) for i, cid in enumerate(ERASABLE)}

RATE = 400.0
DURATION = 1.0
CAPACITY = 4
WORKERS = 2
BURST = 16

#: SLO floors/ceilings asserted below.
MIN_OK_PER_SECOND = 200.0
MAX_STEADY_P99 = 5.0
MAX_BURST_P99 = 60.0


def build_record(seed=SEED):
    tree = SeedSequenceTree(seed)
    data = make_synthetic_mnist(300, tree.rng("data"), image_size=IMAGE)
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


def build_service(record, model):
    return UnlearningService(record=record, model=model, clip_threshold=CLIP)


def run_phases(service):
    """The three-phase load story; returns (phase reports, daemon)."""
    daemon = ErasureDaemon(service, capacity=CAPACITY, workers=WORKERS).start()
    generator = LoadGenerator(daemon)
    try:
        steady = generator.run(
            steady_schedule(
                RATE, DURATION, ERASABLE[:4], seed=SEED,
                duplicate_fraction=0.9, key_prefix="steady",
            ),
            label="steady",
        )
        burst = generator.run(
            mass_gdpr_schedule(
                100.0, DURATION, BURST, ERASABLE[4:16], seed=SEED + 1,
                key_prefix="burst",
            ),
            label="burst",
        )
        recover = generator.run(
            steady_schedule(
                RATE, DURATION, ERASABLE[16:], seed=SEED + 2,
                duplicate_fraction=0.9, key_prefix="recover",
            ),
            label="recover",
        )
    finally:
        daemon.stop(mode="drain")
    return [steady, burst, recover], daemon


@pytest.mark.benchmark(group="slo")
def test_daemon_slo_under_load(benchmark, save_result):
    record, model = build_record()
    service = build_service(record, model)
    (phases, daemon) = benchmark.pedantic(
        lambda: run_phases(service), rounds=1
    )
    steady, burst, recover = phases

    # Phase 1: sustained throughput with a bounded tail.
    assert steady.counts.get("ok", 0) / steady.duration_seconds >= MIN_OK_PER_SECOND
    assert steady.latency["p99"] <= MAX_STEADY_P99
    assert steady.shed_rate == 0.0

    # Phase 2: the burst overwhelms a capacity-4 queue — admission
    # control must shed, and the daemon must not crash or queue
    # without bound (the queue is structurally capped at CAPACITY).
    assert burst.shed_rate > 0.0
    assert burst.counts.get("rejected", 0) > 0
    assert burst.latency["p99"] <= MAX_BURST_P99

    # Phase 3: the daemon recovered — no shedding, breaker closed,
    # queue drained.
    assert recover.shed_rate == 0.0
    status = daemon.status()
    assert status["queue_depth"] == 0
    assert status["breaker_state"] == "closed"
    assert status["counts"]["error"] == 0

    save_result(
        "slo",
        {
            "experiment": "slo",
            "seed": SEED,
            "rate": RATE,
            "capacity": CAPACITY,
            "workers": WORKERS,
            "burst_size": BURST,
            "phases": [p.as_dict() for p in phases],
            "daemon": {
                **{k: v for k, v in status.items() if k != "breaker_state"},
                "breaker_state": str(status["breaker_state"]),
            },
            "breaker_transitions": list(daemon.breaker.transitions),
        },
    )


@pytest.mark.benchmark(group="slo")
def test_deadline_abort_leaves_cache_byte_identical(benchmark):
    record, model = build_record(seed=7)
    target = ERASABLE[0]
    # Cache-less cold reference, computed before the service purges
    # anything from this record.
    reference = SignRecoveryUnlearner(clip_threshold=CLIP).unlearn(
        record, [target], model
    )
    service = build_service(record, model)
    daemon = ErasureDaemon(service, capacity=4, workers=1).start()
    try:
        def abort_then_serve():
            # A 1 ms deadline is admitted but expires while queued or
            # between replay rounds — either way the abort lands on
            # committed state only, and the retry serves cleanly.
            try:
                return daemon.submit(target, deadline=0.001).result()
            except DeadlineExceededError:
                return daemon.submit(target).result()

        response = benchmark.pedantic(abort_then_serve, rounds=1)
    finally:
        daemon.stop(mode="drain")
    assert response.status == "ok"
    assert response.params.tobytes() == reference.params.tobytes()
    assert response.outcomes[0].result.stats == reference.stats
