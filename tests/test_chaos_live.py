"""Chaos scenarios for the snapshot-isolated live-traffic path.

An erasure that committed into a *live* training session must survive
the same faults the offline pipeline does:

- **crash**: the server is killed rounds after a live erasure commits;
  resuming from the journal must reproduce the uninterrupted run
  bitwise — merged params, overwritten checkpoint, purged store, and
  the exclusion all travel through the journal, so the forgotten
  vehicle is never resurrected;
- **churn**: vehicles join and leave around the erasure; the commit
  stays byte-identical to the sequential reference and unrelated churn
  is untouched.

Seeds come from the ``CHAOS_SEEDS`` environment variable, same as
``test_chaos.py``.
"""

import os

import numpy as np
import pytest

from repro.datasets import make_synthetic_mnist, partition_iid
from repro.faults import FaultPlan, ServerKilledError
from repro.fl import (
    FederatedSimulation,
    LiveTrainingSession,
    ParticipationSchedule,
    RoundJournal,
    VehicleClient,
)
from repro.nn import mlp
from repro.storage import SignGradientStore
from repro.unlearning import SignRecoveryUnlearner, UnlearningService
from repro.utils.rng import SeedSequenceTree

pytestmark = pytest.mark.chaos

CHAOS_SEEDS = [int(s) for s in os.environ.get("CHAOS_SEEDS", "7").split(",")]

NUM_ROUNDS = 8
NUM_CLIENTS = 5
IMAGE = 8
FEATURES = IMAGE * IMAGE
#: The live erasure lands once this many rounds have committed.
ERASE_AT = 4
TARGET = 3


def build_sim(seed, **kwargs):
    """A tiny but real FL setup, rebuilt identically from its seed."""
    tree = SeedSequenceTree(seed)
    data = make_synthetic_mnist(200, tree.rng("data"), image_size=IMAGE)
    shards = partition_iid(data, NUM_CLIENTS, tree.rng("part"))
    clients = [
        VehicleClient(i, shards[i], tree.rng(f"c{i}"), batch_size=16)
        for i in range(NUM_CLIENTS)
    ]
    model = mlp(tree.rng("model"), FEATURES, 10, hidden=8)
    return model, FederatedSimulation(
        model, clients, 2e-3, gradient_store=SignGradientStore(), **kwargs
    )


def run_live_erasure(seed, journal=None, expect_kill=None, **sim_kwargs):
    """Drive one paced live session: train to ``ERASE_AT``, erase
    ``TARGET``, then free-run to the end (or into the scheduled kill).

    Returns ``(record, outcome)``; ``record`` is ``None`` when
    ``expect_kill`` consumed the run.
    """
    model, sim = build_sim(seed, **sim_kwargs)
    session = LiveTrainingSession(sim, NUM_ROUNDS, paced=True, journal=journal)
    service = UnlearningService(
        record=sim.record_view(0),
        model=model,
        clip_threshold=5.0,
        prefetch_depth=0,
    ).bind_live(session)
    session.start()
    try:
        # One permit per observed advance: a journal resume publishes
        # all restored rounds on its first permit, so a bulk grant
        # would let training run past the intended erase point.
        while session.watermark < ERASE_AT:
            before = session.watermark
            session.allow_rounds(1)
            assert session.wait_for_round(before + 1, timeout=120)
        assert session.watermark == ERASE_AT
        outcome = service.handle_erasure_request(TARGET)
    finally:
        session.release_pacing()
    if expect_kill is not None:
        with pytest.raises(ServerKilledError) as err:
            session.result(timeout=120)
        assert err.value.round_index == expect_kill
        return None, outcome
    return session.result(timeout=120), outcome


def assert_no_resurrection(record, outcome, target=TARGET):
    """Membership and storage both honour the commit forever after."""
    for t in range(outcome.commit_round, record.num_rounds):
        assert target not in record.ledger.participants_at(t)
    for t in range(record.num_rounds):
        assert not record.gradients.has(t, target)
    assert target in record.metadata.get("erased_clients", [])


def assert_records_equal(a, b):
    """Bitwise equality of two training records (params + history)."""
    np.testing.assert_array_equal(a.final_params(), b.final_params())
    for t in range(a.num_rounds + 1):
        np.testing.assert_array_equal(a.params_at(t), b.params_at(t))
    assert a.ledger.to_dict() == b.ledger.to_dict()
    assert a.client_sizes == b.client_sizes
    items_a, items_b = a.gradients.items(), b.gradients.items()
    assert [k for k, _ in items_a] == [k for k, _ in items_b]
    for (_, pa), (_, pb) in zip(items_a, items_b):
        if isinstance(pa, tuple):  # sign store: (packed bytes, length)
            np.testing.assert_array_equal(pa[0], pb[0])
            assert pa[1] == pb[1]
        else:
            np.testing.assert_array_equal(pa, pb)


# ----------------------------------------------------------------------
# erasure, then crash
# ----------------------------------------------------------------------
@pytest.mark.parametrize("seed", CHAOS_SEEDS)
def test_live_erasure_survives_server_crash(seed, tmp_path):
    """Kill the trainer after a live erasure committed; the journal
    resume must reproduce the uninterrupted (erased) run bitwise and
    must not resurrect the forgotten vehicle."""
    reference, ref_outcome = run_live_erasure(seed)
    assert ref_outcome.snapshot_watermark == ERASE_AT
    assert ref_outcome.commit_round == ERASE_AT  # no permits: empty tail
    assert ref_outcome.merge_mode == "replay"

    kill_at = ERASE_AT + 1
    journal = RoundJournal(str(tmp_path / "j"))
    _, outcome = run_live_erasure(
        seed,
        journal=journal,
        expect_kill=kill_at,
        fault_plan=FaultPlan(server_kills={kill_at}),
    )
    # The erasure committed (and was journaled) before the kill.
    assert outcome.commit_round == ref_outcome.commit_round
    assert outcome.params.tobytes() == ref_outcome.params.tobytes()

    _, survivor = build_sim(seed)
    resumed = survivor.run(NUM_ROUNDS, journal=journal)
    # Metadata does not travel through the journal; graft the erasure
    # bookkeeping so the no-resurrection check can read it uniformly.
    resumed.metadata.setdefault("erased_clients", [TARGET])
    assert_records_equal(resumed, reference)
    assert_no_resurrection(resumed, outcome)
    assert_no_resurrection(reference, ref_outcome)


@pytest.mark.parametrize("seed", CHAOS_SEEDS)
def test_crash_before_the_erasure_loses_nothing_but_the_erasure(seed, tmp_path):
    """A kill *before* any erasure leaves a journal an erasure-free
    resume completes; the erasure then applies cleanly to the resumed
    live session — crash recovery and live erasure compose."""
    kill_at = 2
    journal = RoundJournal(str(tmp_path / "j"))
    model, victim = build_sim(seed, fault_plan=FaultPlan(server_kills={kill_at}))
    session = LiveTrainingSession(victim, NUM_ROUNDS, journal=journal)
    session.start()
    with pytest.raises(ServerKilledError):
        session.result(timeout=120)

    resumed_record, outcome = run_live_erasure(seed, journal=journal)
    reference, ref_outcome = run_live_erasure(seed)
    assert outcome.params.tobytes() == ref_outcome.params.tobytes()
    assert_records_equal(resumed_record, reference)
    assert_no_resurrection(resumed_record, outcome)


def test_live_erasure_leaves_no_erased_rows_on_disk(tmp_path):
    """The first journal commit after a live erasure writes a new log:
    none of the erased vehicle's rows, nor the checkpoint the erasure
    overwrote, is left anywhere in the journal's directory."""
    seed = CHAOS_SEEDS[0]
    _, plain = build_sim(seed)
    unerased = plain.run(ERASE_AT)
    rows = [
        payload[0].tobytes()
        for (t, cid), payload in unerased.gradients.items()
        if cid == TARGET
    ]
    assert rows
    overwritten = dict(unerased.checkpoints.items())[ERASE_AT].tobytes()

    directory = tmp_path / "j"
    record, outcome = run_live_erasure(seed, journal=RoundJournal(str(directory)))
    assert_no_resurrection(record, outcome)
    assert sorted(os.listdir(directory)) == ["COMMIT", "rounds-1.log"]
    on_disk = b"".join(
        (directory / name).read_bytes() for name in os.listdir(directory)
    )
    assert not [row for row in rows if row in on_disk]
    assert overwritten not in on_disk


# ----------------------------------------------------------------------
# erasure under churn
# ----------------------------------------------------------------------
@pytest.mark.parametrize("seed", CHAOS_SEEDS)
def test_live_erasure_under_membership_churn(seed):
    """Vehicles join and leave around the live erasure: the commit is
    byte-identical to the sequential reference, the erased late-joiner
    never returns, and unrelated churn is preserved."""
    churn = dict(joins={TARGET: 2, 4: 5}, leaves={1: 6})

    def schedule():
        return ParticipationSchedule.with_events(range(NUM_CLIENTS), **churn)

    record, outcome = run_live_erasure(seed, schedule=schedule())
    assert outcome.snapshot_watermark == ERASE_AT
    assert outcome.commit_round == ERASE_AT
    assert outcome.merge_mode == "replay"

    # Byte identity against the stop-the-world reference at the commit
    # round, under the identical churn schedule.
    ref_model, ref_sim = build_sim(seed, schedule=schedule())
    ref_record = ref_sim.run(outcome.commit_round)
    reference = SignRecoveryUnlearner(clip_threshold=5.0).unlearn(
        ref_record, [TARGET], ref_model
    )
    assert outcome.params.tobytes() == reference.params.tobytes()

    assert_no_resurrection(record, outcome)
    # Unrelated churn survives the erasure: the post-commit joiner
    # arrives on schedule, the scheduled leaver still leaves.
    assert 4 not in record.ledger.participants_at(4)
    assert 4 in record.ledger.participants_at(5)
    assert 1 in record.ledger.participants_at(5)
    assert 1 not in record.ledger.participants_at(6)
