"""Seeded record factories — every workload's inputs come from here.

``solo_replay``, ``gdpr_ladder`` and ``live_interleave`` use a real
:class:`~repro.fl.FederatedSimulation` history (synthetic-MNIST shards,
an MLP, a join schedule); ``archive_lifecycle`` uses synthetic rows on a
self-consistent quadratic-bowl trajectory, because its subject is the
storage stack and real training at cohort x d = 96 x 4096 would take
the whole run.

Join rounds are a **seeded permutation of a fixed grid**: the seed
decides which vehicle joins when (and every sample, weight and
minibatch), but the multiset of replay lengths is the same for every
seed — a run-to-run difference is then the system's, not the draw's.

A factory call is the workload's set-up; ``run.py`` times it as
``setup_s``.  Each ends with a probe replay asserting
``pairs_accepted > 0``, so a history that never exercises the L-BFGS
path cannot pass for a benchmark input (and first-call warm-up lands in
set-up, not in the first timed request).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro.datasets import make_synthetic_mnist, partition_iid
from repro.fl import FederatedSimulation, ParticipationSchedule, VehicleClient
from repro.fl.history import TrainingRecord
from repro.fl.membership import MembershipLedger
from repro.nn import mlp
from repro.storage import ModelCheckpointStore, SignGradientStore
from repro.unlearning import SignRecoveryUnlearner
from repro.utils.rng import SeedSequenceTree

LEARNING_RATE = 2e-3
CLIP = 5.0
DELTA = 1e-6


@dataclass
class World:
    """One workload's generated inputs.  ``record`` is pristine: every
    consumer works on a :func:`clone_record` of it."""

    record: Optional[TrainingRecord]
    model: object
    erasable: List[int]
    joins: Dict[int, int]
    d: int
    cohort: int
    extra: Dict[str, object] = field(default_factory=dict)


def clone_record(record: TrainingRecord, store=None) -> TrainingRecord:
    """An independent copy whose sign rows can be purged freely.

    Rebuilt from ``store.items()`` + ``put_encoded`` — never
    ``copy.deepcopy``, which fails on ``SignGradientStore._mutex``.
    Checkpoints and ledger are shared: erasure never mutates them on
    the stop-the-world path.
    """
    if store is None:
        store = SignGradientStore(delta=DELTA)
    for (t, cid), (packed, length) in record.gradients.items():
        store.put_encoded(t, cid, packed, length)
    return TrainingRecord(
        checkpoints=record.checkpoints,
        gradients=store,
        ledger=record.ledger,
        client_sizes=dict(record.client_sizes),
        num_rounds=record.num_rounds,
        learning_rate=record.learning_rate,
        aggregator=record.aggregator,
    )


def cold_unlearner() -> SignRecoveryUnlearner:
    """The reference path: no forest, no prefetch, serial."""
    return SignRecoveryUnlearner(clip_threshold=CLIP, prefetch_depth=0)


def probe(world: World, record: Optional[TrainingRecord] = None) -> None:
    """Replay one erasure cold and require accepted L-BFGS pairs."""
    record = record if record is not None else world.record
    target = max(world.erasable, key=lambda c: world.joins[c])
    result = cold_unlearner().unlearn(clone_record(record), [target], world.model)
    if result.stats["pairs_accepted"] <= 0:
        raise RuntimeError("probe replay accepted no L-BFGS pairs")


def grid_joins(rng: np.random.Generator, erasable: List[int], lo: int, hi: int
               ) -> Dict[int, int]:
    """Assign the fixed grid ``linspace(lo, hi)`` to ``erasable`` in a
    seeded order."""
    grid = np.linspace(lo, hi, len(erasable)).astype(int)
    return {int(c): int(j) for c, j in zip(rng.permutation(erasable), grid)}


def fixed_order(vehicles: List[int], joins: Dict[int, int], label: int) -> List[int]:
    """``vehicles`` in an order whose *join ranks* are the same for every
    seed: the k-th entry is always the vehicle with the ``PATTERN[k]``-th
    earliest join, whoever the seed made that.  Erasures forget
    cumulatively, so the order of join rounds decides every replay's
    depth and what the forest can share; with a seeded order a run
    measured the draw (p50 moved 30 % between seeds), not the system."""
    ranked = sorted(vehicles, key=lambda c: (joins[c], c))
    pattern = np.random.default_rng(1000 + label).permutation(len(ranked))
    return [ranked[int(i)] for i in pattern]


def make_simulation(seed: int, base: int, joins: Dict[int, int], image: int,
                    hidden: int, batch: int, store=None):
    """A seeded :class:`FederatedSimulation` over ``base`` always-on
    vehicles plus the late joiners in ``joins``; returns ``(sim, model)``."""
    n = base + len(joins)
    tree = SeedSequenceTree(seed)
    data = make_synthetic_mnist(n * batch, tree.rng("data"), image_size=image)
    shards = partition_iid(data, n, tree.rng("part"))
    clients = [
        VehicleClient(i, shards[i], tree.rng(f"c{i}"), batch_size=batch)
        for i in range(n)
    ]
    model = mlp(tree.rng("model"), image * image, 10, hidden=hidden)
    sim = FederatedSimulation(
        model,
        clients,
        LEARNING_RATE,
        schedule=ParticipationSchedule.with_events(range(n), joins=joins),
        gradient_store=store if store is not None else SignGradientStore(delta=DELTA),
    )
    return sim, model


def trained_world(seed: int, base: int, erasable: int, rounds: int, image: int,
                  hidden: int, batch: int, lo: int, hi: int) -> World:
    ids = list(range(base, base + erasable))
    joins = grid_joins(SeedSequenceTree(seed).rng("joins"), ids, lo, hi)
    sim, model = make_simulation(seed, base, joins, image, hidden, batch)
    record = sim.run(rounds)
    world = World(record, model, ids, joins, int(record.final_params().size),
                  base + erasable)
    probe(world)
    return world


def solo_world(seed: int) -> World:
    """16 vehicles, 48 rounds, MLP 784-32-10 (d = 25 450); the 12
    erasable vehicles join on a grid over rounds 4..40."""
    return trained_world(seed, base=4, erasable=12, rounds=48, image=28,
                         hidden=32, batch=16, lo=4, hi=40)


def ladder_world(seed: int) -> World:
    """128 vehicles, 64 rounds, MLP 64-8-10 (d = 610); the 120 erasable
    vehicles join on a grid over rounds 1..62."""
    return trained_world(seed, base=8, erasable=120, rounds=64, image=8,
                         hidden=8, batch=8, lo=1, hi=62)


# ----------------------------------------------------------------------
# live_interleave: the simulation is the input; training is timed work
# ----------------------------------------------------------------------
LIVE_BASE = 12
LIVE_FIRST_JOIN = 8
LIVE_GAP = 40   # rounds between successive joins
LIVE_LAG = 3    # a vehicle asks to be forgotten this many rounds after joining


def live_joins(rounds: int) -> Dict[int, int]:
    count = max(1, (rounds - LIVE_FIRST_JOIN - LIVE_LAG - 2) // LIVE_GAP)
    return {LIVE_BASE + i: LIVE_FIRST_JOIN + LIVE_GAP * i for i in range(count)}


def live_simulation(seed: int, rounds: int, store=None):
    """MLP 256-16-10 (d = 4 282), 12 always-on vehicles, one more joining
    every ``LIVE_GAP`` rounds.  The seed permutes which vehicle takes
    which join slot."""
    slots = live_joins(rounds)
    order = SeedSequenceTree(seed).rng("joins").permutation(sorted(slots))
    joins = {int(c): slots[s] for c, s in zip(order, sorted(slots))}
    sim, model = make_simulation(seed, LIVE_BASE, joins, image=16, hidden=16,
                                 batch=16, store=store)
    return sim, model, joins


def live_world(seed: int, rounds: int, store=None) -> World:
    """``store`` is what the simulation writes its sign rows to while
    training — the traced run passes a store proxy."""
    sim, model, joins = live_simulation(seed, rounds, store=store)
    # Probe (and warm up) on a short prefix of the same simulation.
    prefix = LIVE_FIRST_JOIN + LIVE_GAP + 6
    warm_sim, warm_model, warm_joins = live_simulation(seed, rounds)
    record = warm_sim.run(prefix)
    early = [c for c, j in warm_joins.items() if j < prefix - 2]
    probe(World(record, warm_model, early, warm_joins, 0, 0))
    d = int(sim.server.params.size)
    return World(None, model, sorted(joins, key=joins.get), joins, d,
                 LIVE_BASE + 2, extra={"sim": sim, "rounds": rounds})


# ----------------------------------------------------------------------
# archive_lifecycle: synthetic rows
# ----------------------------------------------------------------------
ARCHIVE_COHORT = 96
ARCHIVE_DIM = 4096
ARCHIVE_ERASABLE = 32
ARCHIVE_WARM_ROUNDS = 24   # compact(cold_after=...): older rounds go cold
ARCHIVE_DEPTHS = (4, 36)   # erasable vehicles join this many rounds before the end
ARCHIVE_NOISE_POOL = 8


class ArchiveRows:
    """Generates one round of updates at a time (never the whole
    history: at full size it would not fit beside the store it feeds).

    Gradients pull towards a fixed target with sparse noise, and the
    checkpoints follow the resulting FedAvg trajectory — so pre-join
    vector pairs have positive curvature and the replay's L-BFGS path
    does real work.  The noise comes from a small seeded pool reused
    round-robin: drawing 96 x 4096 normals per round would cost more
    than the ``put_round`` it feeds.

    The erasable vehicles join on a fixed grid of depths before the last
    round (seeded as to who gets which), so a replay is tens of rounds
    deep whatever the archive's length, and those deeper than
    ``ARCHIVE_WARM_ROUNDS`` read the cold tier.
    """

    def __init__(self, seed: int, rounds: int):
        self.rounds = rounds
        tree = SeedSequenceTree(seed)
        rng = tree.rng("rows")
        self._noise = rng.normal(size=(ARCHIVE_NOISE_POOL, ARCHIVE_COHORT, ARCHIVE_DIM)) * 1e-3
        self._mask = rng.random(self._noise.shape) < 0.8
        self._target = tree.rng("target").normal(size=ARCHIVE_DIM)
        self.params = tree.rng("w0").normal(size=ARCHIVE_DIM) * 0.1
        self.erasable = list(range(ARCHIVE_COHORT - ARCHIVE_ERASABLE, ARCHIVE_COHORT))
        lo, hi = ARCHIVE_DEPTHS
        self.joins = grid_joins(tree.rng("joins"), self.erasable,
                                max(1, rounds - hi), max(2, rounds - lo))
        self.ledger = MembershipLedger()
        for cid in range(ARCHIVE_COHORT):
            self.ledger.join(cid, self.joins.get(cid, 0))
        self.checkpoints = ModelCheckpointStore()
        self.checkpoints.put(0, self.params)
        self.sizes = {cid: 64 for cid in range(ARCHIVE_COHORT)}

    def __iter__(self) -> Iterator[Tuple[int, Dict[int, np.ndarray]]]:
        for t in range(self.rounds):
            members = [c for c in range(ARCHIVE_COHORT) if self.joins.get(c, 0) <= t]
            k = t % ARCHIVE_NOISE_POOL
            dense = (self.params - self._target) * 1e-3 + self._noise[k, members]
            dense[self._mask[k, members]] = 0.0
            updates = {cid: dense[i] for i, cid in enumerate(members)}
            self.params = self.params - LEARNING_RATE * np.sign(dense).mean(axis=0)
            self.checkpoints.put(t + 1, self.params)
            yield t, updates

    def record(self, store, rounds: Optional[int] = None) -> TrainingRecord:
        return TrainingRecord(
            checkpoints=self.checkpoints,
            gradients=store,
            ledger=self.ledger,
            client_sizes=dict(self.sizes),
            num_rounds=self.rounds if rounds is None else rounds,
            learning_rate=LEARNING_RATE,
        )


def archive_world(seed: int, rounds: int) -> World:
    # Probe on a dict-store copy of a short history from the same generator.
    mini = ArchiveRows(seed, ARCHIVE_DEPTHS[1] + 4)
    store = SignGradientStore(delta=DELTA)
    for t, updates in mini:
        store.put_round(t, updates)
    probe(World(mini.record(store), None, mini.erasable, mini.joins, 0, 0))
    rows = ArchiveRows(seed, rounds)
    return World(None, None, rows.erasable, rows.joins, ARCHIVE_DIM, ARCHIVE_COHORT,
                 extra={"rows": rows, "rounds": rounds})
