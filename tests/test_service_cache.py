"""Amortized erasure serving: batch == singles == cold, bitwise.

The contract under test (`docs/ARCHITECTURE.md`, "Erasure serving"):
serving N queued erasure requests through
:meth:`UnlearningService.handle_erasure_batch` returns, per request,
parameters and stats **byte-identical** to

- serving the same requests one at a time on a fresh service, and
- a cache-less :class:`SignRecoveryUnlearner` replaying the request's
  cumulative forget set cold on an unpurged record —

while the prefix cache amortizes the shared replay prefix
(``cached_prefix_rounds`` > 0 for every request after the first).  The
identity must survive seeds, an active fault plan during training,
persist/restore, and the dict vs mmap sign-store backends.

:class:`ReplayForest` itself is unit-tested at the bottom:
hit/miss/rounds-saved accounting, subset reuse with the participation
divergence bound, LRU eviction, and the no-reuse conditions.
"""

import shutil

import numpy as np
import pytest

from repro.datasets import make_synthetic_mnist, partition_iid
from repro.faults import ClientFault, FaultPlan
from repro.fl import (
    FederatedSimulation,
    ParticipationSchedule,
    VehicleClient,
    with_sign_store,
)
from repro.nn import mlp
from repro.storage import FullGradientStore, MmapSignGradientStore
from repro.unlearning import ReplayForest, SignRecoveryUnlearner, UnlearningService
from repro.utils.rng import SeedSequenceTree

NUM_ROUNDS = 12
NUM_CLIENTS = 8
IMAGE = 8
FEATURES = IMAGE * IMAGE
#: Late joiners — the erasure requests.  Staggered joins make each
#: batch request's divergence round strictly later than the previous
#: one's, so amortization is visible, not incidental.
JOINS = {5: 3, 6: 6, 7: 9}
CLIP = 5.0


def build_record(
    seed,
    fault_plan=None,
    backend="dict",
    directory=None,
    num_rounds=NUM_ROUNDS,
    num_clients=NUM_CLIENTS,
    joins=JOINS,
):
    """Train a tiny but real FL run and return (sign_record, model).

    Rebuilt identically from its seed, so every comparison baseline
    replays the same history.
    """
    tree = SeedSequenceTree(seed)
    data = make_synthetic_mnist(25 * num_clients, tree.rng("data"), image_size=IMAGE)
    shards = partition_iid(data, num_clients, tree.rng("part"))
    clients = [
        VehicleClient(i, shards[i], tree.rng(f"c{i}"), batch_size=16)
        for i in range(num_clients)
    ]
    model = mlp(tree.rng("model"), FEATURES, 10, hidden=8)
    schedule = ParticipationSchedule.with_events(range(num_clients), joins=joins)
    kwargs = {} if fault_plan is None else {"fault_plan": fault_plan}
    sim = FederatedSimulation(
        model,
        clients,
        2e-3,
        schedule=schedule,
        gradient_store=FullGradientStore(),
        **kwargs,
    )
    record = sim.run(num_rounds)
    sign = with_sign_store(record, delta=1e-6, backend=backend, directory=directory)
    return sign, model


def build_service(seed, **kwargs):
    record, model = build_record(seed, **kwargs)
    return UnlearningService(record=record, model=model, clip_threshold=CLIP)


def cold_reference(seed, forget_ids, fault_plan=None):
    """Cache-less cold replay on a fresh, unpurged record.

    Ground truth for one request's cumulative forget set: no cache, no
    prior purges (purging a forgotten client's gradients cannot change
    the replay — forgotten clients never contribute to it).
    """
    record, model = build_record(seed, fault_plan=fault_plan)
    unlearner = SignRecoveryUnlearner(clip_threshold=CLIP)
    return unlearner.unlearn(record, sorted(forget_ids), model)


def assert_outcome_matches(outcome, reference):
    """Byte-identical parameters AND identical stats."""
    assert outcome.params.tobytes() == reference.params.tobytes()
    assert outcome.result.rounds_replayed == reference.rounds_replayed
    assert outcome.result.stats == reference.stats


# ----------------------------------------------------------------------
# the headline identity: batch == singles == cold
# ----------------------------------------------------------------------
@pytest.mark.parametrize("seed", [3, 11])
class TestBatchEqualsIndependent:
    def test_batch_matches_cold_references(self, seed):
        service = build_service(seed)
        outcomes = service.handle_erasure_batch([5, 6, 7])
        assert [o.forgotten for o in outcomes] == [[5], [6], [7]]
        forget = set()
        for cid, outcome in zip([5, 6, 7], outcomes):
            forget.add(cid)
            assert_outcome_matches(outcome, cold_reference(seed, forget))

    def test_batch_matches_sequential_singles(self, seed):
        batch = build_service(seed).handle_erasure_batch([5, 6, 7])
        singles_service = build_service(seed)
        singles = [singles_service.handle_erasure_request(c) for c in [5, 6, 7]]
        for b, s in zip(batch, singles):
            assert b.params.tobytes() == s.params.tobytes()
            assert b.result.stats == s.result.stats
            assert b.cached_prefix_rounds == s.cached_prefix_rounds

    def test_batch_amortizes_later_requests(self, seed):
        service = build_service(seed)
        outcomes = service.handle_erasure_batch([5, 6, 7])
        # Request 1 is cold; each later request resumes at its own
        # vehicle's join round (the trajectories are identical before
        # that client ever participated).
        assert outcomes[0].cached_prefix_rounds == 0
        assert outcomes[1].cached_prefix_rounds == JOINS[6] - JOINS[5]
        assert outcomes[2].cached_prefix_rounds == JOINS[7] - JOINS[5]
        cache = service.prefix_cache
        assert cache.misses == 1
        assert cache.hits == 2
        assert cache.rounds_saved == (JOINS[6] - JOINS[5]) + (JOINS[7] - JOINS[5])


@pytest.mark.parametrize("seed", [3])
class TestBatchUnderFaults:
    #: Non-fatal client faults during training: two upload crashes.
    #: The record then has genuine dropouts for the replay to skip over.
    PLAN = FaultPlan(
        client_faults={
            (4, 1): ClientFault("crash"),
            (8, 6): ClientFault("crash"),
        },
        seed=99,
    )

    def test_batch_matches_cold_with_fault_plan(self, seed):
        record, model = build_record(seed, fault_plan=self.PLAN)
        service = UnlearningService(record=record, model=model, clip_threshold=CLIP)
        outcomes = service.handle_erasure_batch([5, 6, 7])
        assert outcomes[1].cached_prefix_rounds > 0
        forget = set()
        for cid, outcome in zip([5, 6, 7], outcomes):
            forget.add(cid)
            assert_outcome_matches(
                outcome, cold_reference(seed, forget, fault_plan=self.PLAN)
            )


class TestBatchAfterPersistRestore:
    def test_restored_service_serves_identical_batch(self, tmp_path):
        seed = 3
        first = build_service(seed)
        first.handle_erasure_request(5)
        first.persist(str(tmp_path / "svc"))
        _, model = build_record(seed)
        restored = UnlearningService.restore(
            str(tmp_path / "svc"), model, clip_threshold=CLIP
        )
        assert restored.erased_clients == [5]
        outcomes = restored.handle_erasure_batch([6, 7])
        forget = {5}
        for cid, outcome in zip([6, 7], outcomes):
            forget.add(cid)
            assert_outcome_matches(outcome, cold_reference(seed, forget))
        # The restored service starts with a cold cache, but its second
        # batch request still amortizes against its own first.
        assert outcomes[0].cached_prefix_rounds == 0
        assert outcomes[1].cached_prefix_rounds > 0


class TestBackendIdentity:
    def test_mmap_backend_serves_byte_identical_batch(self, tmp_path):
        seed = 11
        dict_outcomes = build_service(seed).handle_erasure_batch([5, 6, 7])
        mmap_service = build_service(
            seed, backend="mmap", directory=str(tmp_path / "store")
        )
        assert isinstance(mmap_service.record.gradients, MmapSignGradientStore)
        try:
            mmap_outcomes = mmap_service.handle_erasure_batch([5, 6, 7])
            for d, m in zip(dict_outcomes, mmap_outcomes):
                assert d.params.tobytes() == m.params.tobytes()
                assert d.result.stats == m.result.stats
                assert d.cached_prefix_rounds == m.cached_prefix_rounds
                assert d.purged_records == m.purged_records
        finally:
            shutil.rmtree(mmap_service.record.gradients.directory, ignore_errors=True)


# ----------------------------------------------------------------------
# batch validation: all-upfront, nothing erased on a malformed batch
# ----------------------------------------------------------------------
class TestBatchValidation:
    def test_empty_batch_is_a_noop(self):
        service = build_service(3)
        assert service.handle_erasure_batch([]) == []
        assert service.erased_clients == []

    def test_duplicates_rejected_before_any_erasure(self):
        service = build_service(3)
        with pytest.raises(ValueError, match="duplicate"):
            service.handle_erasure_batch([5, 6, 5])
        assert service.erased_clients == []

    def test_unknown_client_rejected_before_any_erasure(self):
        service = build_service(3)
        before = service.record.gradients.nbytes()
        with pytest.raises(ValueError, match="unknown"):
            service.handle_erasure_batch([5, 42])
        assert service.erased_clients == []
        assert service.record.gradients.nbytes() == before

    def test_already_erased_skipped_idempotently(self):
        # Batch resubmission is idempotent: already-erased ids are
        # skipped (no outcome), not rejected — only single-request
        # erasure still raises on double erasure.
        service = build_service(3)
        service.handle_erasure_request(5)
        outcomes = service.handle_erasure_batch([6, 5])
        assert [o.forgotten for o in outcomes] == [[6]]
        assert service.erased_clients == [5, 6]
        with pytest.raises(ValueError, match="already erased"):
            service.handle_erasure_request(5)

    def test_fully_served_resubmission_returns_current_state(self):
        service = build_service(3)
        outcomes = service.handle_erasure_batch([5, 6])
        retry = service.handle_erasure_batch([5, 6])
        # One no-op outcome carrying the standing counterfactual
        # parameters, byte-identical to the last real erasure's.
        assert len(retry) == 1
        assert retry[0].forgotten == []
        assert retry[0].purged_records == 0
        assert retry[0].params.tobytes() == outcomes[-1].params.tobytes()
        assert service.erased_clients == [5, 6]

    def test_aborted_batch_completes_on_verbatim_resubmission(self):
        # The serving-layer scenario: a deadline abort mid-batch leaves
        # the already-committed prefix erased; resubmitting the SAME
        # batch must serve the unserved suffix instead of raising.
        service = build_service(3)

        def cancel_after_first_commit():
            if service.erased_clients:
                raise TimeoutError("deadline expired mid-batch")

        with pytest.raises(TimeoutError):
            service.handle_erasure_batch(
                [5, 6], cancel_check=cancel_after_first_commit
            )
        assert service.erased_clients == [5]
        outcomes = service.handle_erasure_batch([5, 6])
        assert [o.forgotten for o in outcomes] == [[6]]
        assert service.erased_clients == [5, 6]
        assert_outcome_matches(outcomes[-1], cold_reference(3, [5, 6]))


# ----------------------------------------------------------------------
# ReplayForest line-cache unit tests (driven through real replays)
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def replay_setup():
    record, model = build_record(3)
    return record, model


def run(cache, record, model, forget_ids):
    unlearner = SignRecoveryUnlearner(clip_threshold=CLIP, prefix_cache=cache)
    result = unlearner.unlearn(record, sorted(forget_ids), model)
    return result, unlearner.last_cached_prefix_rounds


class TestReplayPrefixCache:
    def test_rejects_bad_capacity(self):
        with pytest.raises(ValueError):
            ReplayForest(max_entries=0)

    def test_cold_run_is_a_miss_and_stores_one_entry(self, replay_setup):
        record, model = replay_setup
        cache = ReplayForest()
        _, cached = run(cache, record, model, {5})
        assert (cache.hits, cache.misses, len(cache)) == (0, 1, 1)
        assert cached == 0

    def test_superset_resumes_at_divergence_round(self, replay_setup):
        record, model = replay_setup
        cache = ReplayForest()
        cold, _ = run(cache, record, model, {5})
        superset, cached = run(cache, record, model, {5, 6})
        # Client 6 first participates at its join round: everything
        # before that is shared prefix.
        assert cached == JOINS[6] - JOINS[5]
        assert cache.hits == 1
        assert cache.rounds_saved == cached
        # And the amortized result is the true cold one.
        reference = SignRecoveryUnlearner(clip_threshold=CLIP).unlearn(
            record, [5, 6], model
        )
        assert superset.params.tobytes() == reference.params.tobytes()
        assert superset.stats == reference.stats
        assert cold.stats["resumed_from"] is None
        assert superset.stats["resumed_from"] is None

    def test_identical_repeat_replays_zero_rounds(self, replay_setup):
        record, model = replay_setup
        cache = ReplayForest()
        cold, _ = run(cache, record, model, {5})
        again, cached = run(cache, record, model, {5})
        # The final snapshot covers the whole window: nothing replays.
        assert cached == NUM_ROUNDS - JOINS[5]
        assert again.params.tobytes() == cold.params.tobytes()
        assert again.stats == cold.stats

    def test_different_backtrack_round_never_reuses(self, replay_setup):
        record, model = replay_setup
        cache = ReplayForest()
        run(cache, record, model, {5})
        # {6} alone backtracks to 6's join round — a different anchor,
        # hence a different trajectory: must miss.
        _, cached = run(cache, record, model, {6})
        assert cached == 0
        assert cache.hits == 0
        assert cache.misses == 2

    def test_different_hyperparameters_never_reuse(self, replay_setup):
        record, model = replay_setup
        cache = ReplayForest()
        run(cache, record, model, {5})
        other = SignRecoveryUnlearner(
            clip_threshold=CLIP, refresh_period=3, prefix_cache=cache
        )
        other.unlearn(record, [5], model)
        assert other.last_cached_prefix_rounds == 0
        assert cache.hits == 0

    def test_lru_eviction_at_capacity(self, replay_setup):
        record, model = replay_setup
        cache = ReplayForest(max_entries=1)
        run(cache, record, model, {5})
        run(cache, record, model, {6})  # different anchor: new entry
        assert (len(cache), cache.evictions) == (1, 1)
        # The {5} entry is gone — a {5, 6} request can only miss now
        # ({6}'s entry has the wrong backtrack round).
        _, cached = run(cache, record, model, {5, 6})
        assert cached == 0
