"""End-to-end chaos scenarios: crashes, corruption, rotting disks.

Every test here runs a real (small) federated simulation under
injected faults and asserts the resilience guarantees of the
``repro.faults`` subsystem:

- a simulation killed after *any* round and resumed from its journal
  produces a bitwise-identical training record;
- mangled updates (NaN/Inf/shape/scale/garbage) never reach
  aggregation — quarantined clients are recorded as round dropouts;
- truncated or bit-rotted record files surface as a single clear
  :class:`~repro.fl.persistence.RecordCorruptionError`, while a torn
  tail past the commit marker opens at the previous commit;
- a writer killed between any two writes of a commit leaves the old
  round or the new one committed, and either resumes bitwise;
- the recovery unlearner resumes from its checkpoint bitwise and
  tolerates records with missing gradient entries.

Seeds come from the ``CHAOS_SEEDS`` environment variable (comma
separated); ``make chaos`` sweeps several, the default suite runs one.
"""

import json
import os
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datasets import make_synthetic_mnist, partition_iid, train_test_split
from repro.faults import FaultPlan, RetryPolicy, ServerKilledError, UpdateValidator
from repro.fl import (
    FederatedSimulation,
    RecordCorruptionError,
    RoundJournal,
    RsuServer,
    VehicleClient,
    load_record,
    save_record,
)
from repro.faults import corrupt_update, truncate_file
from repro.fl import persistence
from repro.nn import mlp
from repro.storage import FullGradientStore, SignGradientStore
from repro.unlearning import SignRecoveryUnlearner
from repro.utils.rng import SeedSequenceTree

pytestmark = pytest.mark.chaos

CHAOS_SEEDS = [int(s) for s in os.environ.get("CHAOS_SEEDS", "7").split(",")]

NUM_ROUNDS = 8
NUM_CLIENTS = 5
IMAGE = 8
FEATURES = IMAGE * IMAGE


def build_sim(seed, store="sign", with_test_set=False, **kwargs):
    """A tiny but real FL setup, rebuilt identically from its seed."""
    tree = SeedSequenceTree(seed)
    data = make_synthetic_mnist(200, tree.rng("data"), image_size=IMAGE)
    train, test = train_test_split(data, 0.2, tree.rng("split"))
    shards = partition_iid(train, NUM_CLIENTS, tree.rng("part"))
    clients = [
        VehicleClient(i, shards[i], tree.rng(f"c{i}"), batch_size=16)
        for i in range(NUM_CLIENTS)
    ]
    model = mlp(tree.rng("model"), FEATURES, 10, hidden=8)
    gradient_store = SignGradientStore() if store == "sign" else FullGradientStore()
    if with_test_set:
        kwargs.update(test_set=test, eval_every=NUM_ROUNDS)
    return model, FederatedSimulation(
        model, clients, 2e-3, gradient_store=gradient_store, **kwargs
    )


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
# kill/resume equivalence
# ----------------------------------------------------------------------
@pytest.mark.parametrize("seed", CHAOS_SEEDS)
def test_kill_and_resume_at_every_round_is_bitwise_identical(seed, tmp_path):
    """Killing the server after any round k and resuming from the
    journal must reproduce the uninterrupted record exactly."""
    _, ref_sim = build_sim(seed)
    reference = ref_sim.run(NUM_ROUNDS)
    for k in range(NUM_ROUNDS - 1):
        journal = RoundJournal(str(tmp_path / f"j{k}"))
        _, victim = build_sim(seed, fault_plan=FaultPlan(server_kills={k}))
        with pytest.raises(ServerKilledError) as err:
            victim.run(NUM_ROUNDS, journal=journal)
        assert err.value.round_index == k
        _, survivor = build_sim(seed)
        resumed = survivor.run(NUM_ROUNDS, journal=journal)
        assert_records_equal(resumed, reference)


@pytest.mark.parametrize("seed", CHAOS_SEEDS)
def test_kill_and_resume_under_client_faults(seed, tmp_path):
    """Resume equivalence must hold with client faults active too: the
    resumed run replays the same fault schedule, corruption randomness,
    and validator decisions."""

    def plan(kills=()):
        return FaultPlan.random(
            range(NUM_CLIENTS),
            NUM_ROUNDS,
            seed=seed,
            crash_rate=0.05,
            corrupt_rate=0.15,
            flaky_rate=0.1,
            kill_rounds=kills,
        )

    _, ref_sim = build_sim(seed, fault_plan=plan(), retry_policy=RetryPolicy())
    reference = ref_sim.run(NUM_ROUNDS)
    kill_at = NUM_ROUNDS // 2
    journal = RoundJournal(str(tmp_path / "j"))
    _, victim = build_sim(
        seed, fault_plan=plan(kills={kill_at}), retry_policy=RetryPolicy()
    )
    with pytest.raises(ServerKilledError):
        victim.run(NUM_ROUNDS, journal=journal)
    _, survivor = build_sim(seed, fault_plan=plan(), retry_policy=RetryPolicy())
    resumed = survivor.run(NUM_ROUNDS, journal=journal)
    assert_records_equal(resumed, reference)
    assert survivor.fault_stats == ref_sim.fault_stats
    assert [
        (e.round_index, e.client_id) for e in survivor.server.quarantine
    ] == [(e.round_index, e.client_id) for e in ref_sim.server.quarantine]


#: The writes of one commit, in order; the round log's crash hook is
#: called after each.
COMMIT_WRITES = [
    "after-append",
    "after-log-fsync",
    "after-marker-tmp",
    "after-marker-rename",
]


@pytest.mark.parametrize("point", COMMIT_WRITES)
def test_kill_between_the_writes_of_a_commit(point, tmp_path, monkeypatch):
    """A writer killed after any write of one commit leaves the old round
    committed (or, once the marker is renamed, the new one) — never a
    mix — and resuming from either ends bitwise equal to the
    uninterrupted run."""
    seed, kill_commit = CHAOS_SEEDS[0], 4
    _, ref_sim = build_sim(seed)
    reference = ref_sim.run(NUM_ROUNDS)

    class Killed(RuntimeError):
        pass

    commits = []

    def crash(at):
        commits.append(at)
        if at == point and commits.count("after-append") == kill_commit:
            raise Killed(at)

    monkeypatch.setattr(persistence, "_crash_point", crash)
    directory = str(tmp_path / "j")
    _, victim = build_sim(seed)
    with pytest.raises(Killed):
        victim.run(NUM_ROUNDS, journal=RoundJournal(directory))
    monkeypatch.undo()

    committed = RoundJournal(directory).load()
    expected = kill_commit if point == "after-marker-rename" else kill_commit - 1
    assert committed.round_index == expected
    for t in range(expected + 1):
        np.testing.assert_array_equal(
            committed.checkpoints.get(t), reference.params_at(t)
        )
    rows = [(k, p) for k, p in reference.gradients.items() if k[0] < expected]
    assert [k for k, _ in committed.gradients.items()] == [k for k, _ in rows]
    for (_, pa), (_, pb) in zip(committed.gradients.items(), rows):
        np.testing.assert_array_equal(pa[0], pb[0])

    _, survivor = build_sim(seed)
    resumed = survivor.run(NUM_ROUNDS, journal=RoundJournal(directory))
    assert_records_equal(resumed, reference)


def test_truncated_journal_is_reported_not_resumed(tmp_path):
    journal = RoundJournal(str(tmp_path))
    _, victim = build_sim(11, fault_plan=FaultPlan(server_kills={3}))
    with pytest.raises(ServerKilledError):
        victim.run(NUM_ROUNDS, journal=journal)
    truncate_file(journal.path, keep_fraction=0.3)
    with pytest.raises(RecordCorruptionError):
        journal.load()


def test_journal_log_truncated_below_its_commit_is_reported(tmp_path):
    """The marker names a log length; a log cut short of it (a lost
    sector, a bad copy) is corruption, not a torn uncommitted tail."""
    journal = RoundJournal(str(tmp_path))
    _, victim = build_sim(11, fault_plan=FaultPlan(server_kills={3}))
    with pytest.raises(ServerKilledError):
        victim.run(NUM_ROUNDS, journal=journal)
    truncate_file(str(tmp_path / "rounds-0.log"), keep_fraction=0.5)
    with pytest.raises(RecordCorruptionError, match="rounds-0.log"):
        journal.load()


# ----------------------------------------------------------------------
# corrupted clients
# ----------------------------------------------------------------------
@pytest.mark.parametrize("seed", CHAOS_SEEDS)
def test_twenty_percent_corrupt_clients_are_quarantined(seed):
    """With 20% of (round, client) pairs corrupted the loop completes,
    every mangled update is quarantined as a dropout, and the model
    stays within noise of the clean run."""
    plan = FaultPlan.random(
        range(NUM_CLIENTS), NUM_ROUNDS, seed=seed, corrupt_rate=0.2
    )
    assert plan.counts()["corrupt"] > 0
    _, clean_sim = build_sim(seed, with_test_set=True)
    clean = clean_sim.run(NUM_ROUNDS)
    _, chaos_sim = build_sim(seed, with_test_set=True, fault_plan=plan)
    record = chaos_sim.run(NUM_ROUNDS)
    record.validate()
    quarantine = chaos_sim.server.quarantine
    assert len(quarantine) == chaos_sim.fault_stats["corrupted"]
    assert {(e.round_index, e.client_id) for e in quarantine} == {
        (t, c) for (t, c), f in plan.client_faults.items() if f.kind == "corrupt"
    }
    for event in quarantine:
        # Quarantined means dropped out: a member that round, no stored
        # gradient, not a participant.
        assert record.ledger.is_member(event.client_id, event.round_index)
        assert not record.ledger.participated(event.client_id, event.round_index)
        assert not record.gradients.has(event.round_index, event.client_id)
    drift = float(
        np.linalg.norm(record.final_params() - clean.final_params())
    ) / float(np.linalg.norm(clean.final_params()))
    assert drift < 0.25, f"corrupt run drifted {drift:.1%} from the clean run"
    assert record.accuracy_history[-1] >= clean.accuracy_history[-1] - 0.15


def test_all_quarantined_round_degrades_to_skip():
    """A round in which every update is garbage must not move the model."""
    server = RsuServer(
        initial_params=np.zeros(16),
        learning_rate=0.1,
        gradient_store=FullGradientStore(),
        validator=UpdateValidator(),
    )
    for cid in range(3):
        server.register_client(cid, 10, join_round=0)
    before = server.params.copy()
    server.run_round({cid: np.full(16, np.nan) for cid in range(3)})
    np.testing.assert_array_equal(server.params, before)
    assert server.round_index == 1
    assert len(server.quarantine) == 3


# ----------------------------------------------------------------------
# property: structurally invalid updates never move the aggregate
# ----------------------------------------------------------------------
@settings(max_examples=25, deadline=None)
@given(
    mode=st.sampled_from(["nan", "inf", "shape"]),
    corruption_seed=st.integers(0, 2**31 - 1),
    bad_clients=st.sets(st.sampled_from([0, 1, 2, 3]), min_size=1, max_size=2),
)
def test_structurally_invalid_updates_never_change_aggregate(
    mode, corruption_seed, bad_clients
):
    """However a NaN/Inf/mis-shaped update is drawn, the post-round
    parameters equal those of a round fed only the clean updates."""
    dim = 32
    rng = np.random.default_rng(99)
    clean = {cid: rng.normal(size=dim) * 0.1 for cid in range(4)}

    def fresh_server():
        server = RsuServer(
            initial_params=np.linspace(0, 1, dim),
            learning_rate=0.05,
            gradient_store=FullGradientStore(),
            validator=UpdateValidator(),
        )
        for cid in clean:
            server.register_client(cid, 10, join_round=0)
        return server

    corrupted = dict(clean)
    corruption_rng = np.random.default_rng(corruption_seed)
    for cid in bad_clients:
        corrupted[cid] = corrupt_update(clean[cid], mode, corruption_rng)

    attacked = fresh_server()
    attacked.run_round(corrupted)
    baseline = fresh_server()
    baseline.run_round({c: u for c, u in clean.items() if c not in bad_clients})
    np.testing.assert_array_equal(attacked.params, baseline.params)
    assert {e.client_id for e in attacked.quarantine} == bad_clients


# ----------------------------------------------------------------------
# disk rot
# ----------------------------------------------------------------------
def logged_array_span(log_path, name):
    """The ``(start, end)`` byte span of the first array called ``name``
    in a round log: entries are ``<payload bytes, CRC-32>`` frames whose
    payload is a length-prefixed JSON head listing the arrays, then their
    bytes in that order."""
    with open(log_path, "rb") as fh:
        buf = fh.read()
    offset = 0
    while offset < len(buf):
        size, _ = struct.unpack_from("<II", buf, offset)
        payload = offset + 8
        (head_bytes,) = struct.unpack_from("<I", buf, payload)
        pos = payload + 4 + head_bytes
        for logged, dtype, shape in json.loads(buf[payload + 4 : pos])["arrays"]:
            nbytes = np.dtype(dtype).itemsize * int(np.prod(shape))
            if logged == name:
                return pos, pos + nbytes
            pos += nbytes
        offset = payload + size
    raise KeyError(f"{name} is not in {log_path}")


class TestDamagedRecords:
    @pytest.fixture(scope="class")
    def saved(self, tmp_path_factory):
        _, sim = build_sim(CHAOS_SEEDS[0], store="full")
        record = sim.run(NUM_ROUNDS)
        path = tmp_path_factory.mktemp("records") / "rec"
        save_record(record, str(path))
        return str(path)

    def _copy(self, saved, tmp_path):
        import shutil

        dst = tmp_path / "rec"
        shutil.copytree(saved, dst)
        return str(dst)

    def test_intact_record_loads(self, saved):
        load_record(saved).validate()

    @pytest.mark.parametrize(
        "array", ["rows", "w1"], ids=["gradient-rows", "checkpoint"]
    )
    def test_truncated_arrays_raise_corruption_error(self, saved, tmp_path, array):
        path = self._copy(saved, tmp_path)
        log = os.path.join(path, "rounds-0.log")
        start, end = logged_array_span(log, array)
        with open(log, "r+b") as fh:  # torn halfway through the array's bytes
            fh.truncate((start + end) // 2)
        with pytest.raises(RecordCorruptionError, match="rounds-0.log"):
            load_record(path)

    def test_truncated_manifest_raises_corruption_error(self, saved, tmp_path):
        path = self._copy(saved, tmp_path)
        truncate_file(os.path.join(path, "COMMIT"), keep_fraction=0.5)
        with pytest.raises(RecordCorruptionError, match="COMMIT"):
            load_record(path)

    def test_bitrotted_log_entry_raises_corruption_error(self, saved, tmp_path):
        path = self._copy(saved, tmp_path)
        log = os.path.join(path, "rounds-0.log")
        with open(log, "r+b") as fh:  # a bad sector inside entry 0
            fh.seek(64)
            fh.write(np.random.default_rng(5).integers(0, 256, 16, np.uint8).tobytes())
        with pytest.raises(RecordCorruptionError, match="rounds-0.log"):
            load_record(path)

    def test_torn_tail_past_the_marker_opens_at_the_commit(self, saved, tmp_path):
        path = self._copy(saved, tmp_path)
        with open(os.path.join(path, "rounds-0.log"), "ab") as fh:
            fh.write(b"\x07" * 100)  # a killed writer's uncommitted bytes
        assert_records_equal(load_record(path), load_record(saved))

    def test_missing_checkpoint_raises_corruption_error(self, saved, tmp_path):
        record = load_record(saved)
        record.checkpoints.prune(r for r in record.checkpoints.rounds() if r != 3)
        save_record(record, str(tmp_path / "rec"))
        with pytest.raises(RecordCorruptionError, match="missing checkpoint w_3"):
            load_record(str(tmp_path / "rec"))

    def test_out_of_range_round_raises_corruption_error(self, saved, tmp_path):
        path = self._copy(saved, tmp_path)
        marker = os.path.join(path, "COMMIT")
        with open(marker, "rb") as fh:
            meta, arrays, _ = persistence._unframe(fh.read(), 0, "COMMIT")
        meta["rounds"] -= 1  # the log holds one entry past the marker's rounds
        with open(marker, "wb") as fh:
            fh.write(persistence._frame(meta, arrays))
        with pytest.raises(RecordCorruptionError, match="rounds-0.log"):
            load_record(path)

    def test_missing_record_still_file_not_found(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_record(str(tmp_path / "never-saved"))

    def test_interrupted_save_leaves_no_half_record(self, saved, tmp_path):
        """save_record commits marker-last: a directory without a
        marker reads as absent, never as a broken record."""
        record = load_record(saved)
        target = tmp_path / "fresh"
        save_record(record, str(target))
        os.remove(target / "COMMIT")  # simulate dying pre-commit
        with pytest.raises(FileNotFoundError):
            load_record(str(target))
        save_record(record, str(target))  # a rerun completes the save
        load_record(str(target)).validate()


# ----------------------------------------------------------------------
# recovery resilience
# ----------------------------------------------------------------------
@pytest.mark.parametrize("seed", CHAOS_SEEDS)
def test_recovery_resumes_from_checkpoint_bitwise(seed, tmp_path):
    model, sim = build_sim(seed)
    record = sim.run(NUM_ROUNDS)
    reference = SignRecoveryUnlearner().unlearn(record, forget_ids=[2], model=model)

    class Killed(RuntimeError):
        pass

    def die_midway(t, params):
        if t >= NUM_ROUNDS // 2:
            raise Killed

    victim = SignRecoveryUnlearner(
        round_callback=die_midway, checkpoint_dir=str(tmp_path), checkpoint_every=2
    )
    with pytest.raises(Killed):
        victim.unlearn(record, forget_ids=[2], model=model)
    assert os.path.exists(tmp_path / "recovery.npz")

    survivor = SignRecoveryUnlearner(checkpoint_dir=str(tmp_path), checkpoint_every=2)
    result = survivor.unlearn(record, forget_ids=[2], model=model)
    assert result.stats["resumed_from"] is not None
    np.testing.assert_array_equal(result.params, reference.params)
    assert not os.path.exists(tmp_path / "recovery.npz")  # cleaned up


def test_recovery_checkpoint_refuses_mismatched_request(tmp_path):
    model, sim = build_sim(13)
    record = sim.run(NUM_ROUNDS)

    class Killed(RuntimeError):
        pass

    def die(t, params):
        raise Killed

    victim = SignRecoveryUnlearner(
        round_callback=die, checkpoint_dir=str(tmp_path), checkpoint_every=1
    )
    with pytest.raises(Killed):
        victim.unlearn(record, forget_ids=[2], model=model)
    other = SignRecoveryUnlearner(checkpoint_dir=str(tmp_path))
    with pytest.raises(ValueError, match="different request"):
        other.unlearn(record, forget_ids=[3], model=model)


def test_recovery_tolerates_missing_gradient_entries():
    """Entries lost to disk rot are skipped and counted, like a
    historical dropout — recovery still completes."""
    model, sim = build_sim(17, store="full")
    record = sim.run(NUM_ROUNDS)
    pruned_store = FullGradientStore()
    removed = 0
    for (t, cid), gradient in record.gradients.items():
        if t >= 2 and cid == 1 and removed < 3:
            removed += 1
            continue
        pruned_store.put(t, cid, gradient)
    pruned = type(record)(
        checkpoints=record.checkpoints,
        gradients=pruned_store,
        ledger=record.ledger,
        client_sizes=record.client_sizes,
        num_rounds=record.num_rounds,
        learning_rate=record.learning_rate,
        aggregator=record.aggregator,
        accuracy_history=record.accuracy_history,
    )
    result = SignRecoveryUnlearner().unlearn(pruned, forget_ids=[2], model=model)
    assert result.stats["missing_entries"] == removed
    assert np.isfinite(result.params).all()
