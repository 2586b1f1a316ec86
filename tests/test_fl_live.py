"""Unit tests for the snapshot-isolated live-traffic path.

Covers the pieces the live erasure workflow is assembled from:

- :class:`~repro.storage.snapshot.SnapshotRegistry` — epoch-based
  pinning, deferred reclamation, quiesce/drain;
- :class:`~repro.fl.live.LiveTrainingSession` — trainer-thread round
  loop, pacing permits, watermark publishing, snapshot pinning;
- :meth:`~repro.unlearning.service.UnlearningService._erase_group`
  bound to a live session — the one erasure pipeline, two-phase:
  a lock-free replay over a pinned snapshot, then a commit that folds
  in the rounds trained meanwhile.  Merge modes, commit conflicts, a
  live fused batch that lets training run through its replay, typed
  busy errors (including a prefetch drain racing a lock-free replay),
  deferred purges, persistence under pinned readers;
- the merge helpers (:mod:`repro.unlearning.merge`) and the
  ``mixed`` train/erase arrival schedule.
"""

import threading

import numpy as np
import pytest

from repro.datasets import make_synthetic_mnist, partition_iid
from repro.fl import (
    FederatedSimulation,
    LiveTrainingSession,
    RecordSnapshot,
    VehicleClient,
    load_record,
)
from repro.nn import mlp
from repro.serving.requests import DeadlineExceededError
from repro.serving.loadgen import Arrival, LoadGenerator, SCHEDULES, mixed_schedule
from repro.storage import SignGradientStore
from repro.storage.snapshot import SnapshotRegistry
from repro.unlearning import (
    DependentAbortError,
    NegatedPseudoGradientUnlearner,
    ServiceBusyError,
    SignRecoveryUnlearner,
    UnlearningService,
    conflict_projected_merge,
    negated_pseudo_gradient_tail,
)
from repro.utils.rng import SeedSequenceTree

NUM_ROUNDS = 6
NUM_CLIENTS = 4
IMAGE = 8
FEATURES = IMAGE * IMAGE


def build_sim(seed, **kwargs):
    """A tiny but real FL setup, rebuilt identically from its seed."""
    tree = SeedSequenceTree(seed)
    data = make_synthetic_mnist(120, tree.rng("data"), image_size=IMAGE)
    shards = partition_iid(data, NUM_CLIENTS, tree.rng("part"))
    clients = [
        VehicleClient(i, shards[i], tree.rng(f"c{i}"), batch_size=16)
        for i in range(NUM_CLIENTS)
    ]
    model = mlp(tree.rng("model"), FEATURES, 10, hidden=8)
    return model, FederatedSimulation(
        model, clients, 2e-3, gradient_store=SignGradientStore(), **kwargs
    )


def make_live_service(seed, merge_mode="replay", **session_kwargs):
    """(model, session, service) over a paced tiny simulation."""
    model, sim = build_sim(seed)
    session = LiveTrainingSession(sim, NUM_ROUNDS, paced=True, **session_kwargs)
    service = UnlearningService(
        record=sim.record_view(0),
        model=model,
        clip_threshold=5.0,
        prefetch_depth=0,
        merge_mode=merge_mode,
    ).bind_live(session)
    return model, session, service


def reference_erase(seed, client_ids, num_rounds):
    """Stop-the-world reference: train ``num_rounds``, then unlearn."""
    model, sim = build_sim(seed)
    record = sim.run(num_rounds)
    return SignRecoveryUnlearner(clip_threshold=5.0).unlearn(
        record, client_ids, model
    )


# ----------------------------------------------------------------------
# SnapshotRegistry
# ----------------------------------------------------------------------
class TestSnapshotRegistry:
    def test_defer_runs_immediately_without_readers(self):
        registry = SnapshotRegistry()
        ran = []
        assert registry.defer(lambda: ran.append(1)) is True
        assert ran == [1]
        assert registry.pending() == 0
        assert registry.deferred_total == 0

    def test_defer_queues_behind_active_pin(self):
        registry = SnapshotRegistry()
        ran = []
        pin = registry.pin()
        assert registry.defer(lambda: ran.append(1)) is False
        assert ran == []
        assert registry.pending() == 1
        pin.release()
        assert ran == [1]
        assert registry.pending() == 0
        assert registry.deferred_total == 1
        assert registry.flushed_total == 1

    def test_pins_after_the_barrier_never_block_the_action(self):
        registry = SnapshotRegistry()
        ran = []
        old = registry.pin()
        registry.defer(lambda: ran.append(1))
        # Taken *after* the barrier: its owner already sees the
        # post-reclaim logical state, so it must not delay the flush.
        new = registry.pin()
        assert old.epoch < new.epoch
        old.release()
        assert ran == [1]
        assert registry.active_pins() == 1
        new.release()

    def test_release_is_idempotent(self):
        registry = SnapshotRegistry()
        pin = registry.pin()
        pin.release()
        pin.release()
        assert registry.active_pins() == 0
        assert registry.pins_total == 1

    def test_pin_context_manager(self):
        registry = SnapshotRegistry()
        with registry.pin() as pin:
            assert registry.active_pins() == 1
        assert pin.released
        assert registry.active_pins() == 0

    def test_quiesce_times_out_while_pinned(self):
        registry = SnapshotRegistry()
        pin = registry.pin()
        assert registry.quiesce(timeout=0.05) is False
        pin.release()
        assert registry.quiesce(timeout=0.05) is True

    def test_drain_flushes_everything(self):
        registry = SnapshotRegistry()
        ran = []
        pin = registry.pin()
        registry.defer(lambda: ran.append("a"))
        registry.defer(lambda: ran.append("b"))
        releaser = threading.Timer(0.05, pin.release)
        releaser.start()
        try:
            assert registry.drain(timeout=5.0) is True
        finally:
            releaser.join()
        assert sorted(ran) == ["a", "b"]
        assert registry.pending() == 0
        assert registry.flushed_total == 2


# ----------------------------------------------------------------------
# LiveTrainingSession
# ----------------------------------------------------------------------
class TestLiveTrainingSession:
    def test_free_running_result_matches_run_bitwise(self):
        _, sim_a = build_sim(11)
        reference = sim_a.run(NUM_ROUNDS)
        _, sim_b = build_sim(11)
        session = LiveTrainingSession(sim_b, NUM_ROUNDS).start()
        record = session.result(timeout=120)
        np.testing.assert_array_equal(
            record.final_params(), reference.final_params()
        )
        for t in range(NUM_ROUNDS + 1):
            np.testing.assert_array_equal(
                record.params_at(t), reference.params_at(t)
            )
        assert record.ledger.to_dict() == reference.ledger.to_dict()

    def test_paced_trainer_waits_for_permits(self):
        _, sim = build_sim(12)
        session = LiveTrainingSession(sim, NUM_ROUNDS, paced=True).start()
        try:
            session.allow_rounds(2)
            assert session.wait_for_round(2, timeout=60)
            assert session.watermark == 2
            assert not session.done
        finally:
            session.release_pacing()
        record = session.result(timeout=120)
        assert record.num_rounds == NUM_ROUNDS

    def test_paced_completion_needs_exactly_num_rounds_permits(self):
        # Regression: draining the generator's StopIteration after the
        # final committed round must not consume an extra permit.
        _, sim = build_sim(13)
        session = LiveTrainingSession(sim, NUM_ROUNDS, paced=True).start()
        session.allow_rounds(NUM_ROUNDS)
        record = session.result(timeout=120)
        assert record.num_rounds == NUM_ROUNDS

    def test_stop_early_returns_committed_prefix(self):
        _, sim = build_sim(14)
        session = LiveTrainingSession(sim, NUM_ROUNDS, paced=True).start()
        session.allow_rounds(3)
        assert session.wait_for_round(3, timeout=60)
        session.stop()
        record = session.result(timeout=60)
        assert record.num_rounds == 3

    def test_pin_snapshot_freezes_the_watermark_view(self):
        _, sim = build_sim(15)
        session = LiveTrainingSession(sim, NUM_ROUNDS, paced=True).start()
        session.allow_rounds(3)
        assert session.wait_for_round(3, timeout=60)
        snap = session.pin_snapshot()
        try:
            assert isinstance(snap, RecordSnapshot)
            assert snap.watermark == 3
            assert snap.num_rounds == 3
            frozen = snap.final_params().copy()
            np.testing.assert_array_equal(snap.params_at_watermark, frozen)
            members = snap.ledger.participants_at(2)
            session.release_pacing()
            record = session.result(timeout=120)
            # Training ran to completion underneath the pin; the
            # snapshot still reads the round-3 state.
            assert snap.num_rounds == 3
            np.testing.assert_array_equal(snap.final_params(), frozen)
            np.testing.assert_array_equal(record.params_at(3), frozen)
            assert snap.ledger.participants_at(2) == members
            assert session.registry.active_pins() == 1
        finally:
            snap.release()
        assert session.registry.active_pins() == 0

    def test_snapshot_is_a_context_manager(self):
        _, sim = build_sim(16)
        session = LiveTrainingSession(sim, NUM_ROUNDS).start()
        session.result(timeout=120)
        with session.pin_snapshot() as snap:
            assert session.registry.active_pins() == 1
            assert snap.watermark == NUM_ROUNDS
        assert session.registry.active_pins() == 0

    def test_lifecycle_misuse_raises(self):
        _, sim = build_sim(17)
        session = LiveTrainingSession(sim, NUM_ROUNDS)
        with pytest.raises(RuntimeError, match="never started"):
            session.result()
        session.start()
        with pytest.raises(RuntimeError, match="already started"):
            session.start()
        session.result(timeout=120)
        with pytest.raises(ValueError):
            LiveTrainingSession(sim, 0)


# ----------------------------------------------------------------------
# two-phase live erasure
# ----------------------------------------------------------------------
class TestLiveErasure:
    def run_to(self, session, n):
        session.allow_rounds(n)
        assert session.wait_for_round(n, timeout=60)

    def advance_during_phase1(self, session, service, extra_rounds):
        """Spy on the service's replay seam so the first (phase-1)
        replay deterministically overlaps ``extra_rounds`` of training
        — the commit then has a non-empty tail to merge."""
        replay = service._replay
        fired = []

        def overlapping(view, forget_sets, checks):
            result = replay(view, forget_sets, checks)
            if not fired:
                fired.append(True)
                session.allow_rounds(extra_rounds)
                assert session.wait_for_round(
                    view.num_rounds + extra_rounds, timeout=60
                )
            return result

        service._replay = overlapping

    def test_zero_tail_commit_is_the_counterfactual(self):
        _, session, service = make_live_service(21)
        session.start()
        try:
            self.run_to(session, 4)
            outcome = service.handle_erasure_request(1)
        finally:
            session.release_pacing()
        record = session.result(timeout=120)
        assert outcome.snapshot_watermark == 4
        assert outcome.commit_round == 4
        assert outcome.merge_mode == "replay"
        assert outcome.commit_conflicts == 0
        reference = reference_erase(21, [1], 4)
        assert outcome.params.tobytes() == reference.params.tobytes()
        # The merged model was installed as the round-4 checkpoint
        # (exact at the checkpoint store's float32 precision).
        np.testing.assert_array_equal(
            np.asarray(record.params_at(4), dtype=np.float32),
            np.asarray(outcome.params, dtype=np.float32),
        )

    def test_replay_merge_with_tail_matches_sequential_reference(self):
        _, session, service = make_live_service(22)
        self.advance_during_phase1(session, service, extra_rounds=2)
        session.start()
        try:
            self.run_to(session, 3)
            outcome = service.handle_erasure_request(2)
        finally:
            session.release_pacing()
        record = session.result(timeout=120)
        assert outcome.snapshot_watermark == 3
        assert outcome.commit_round == 5
        assert outcome.merge_mode == "replay"
        reference = reference_erase(22, [2], 5)
        assert outcome.params.tobytes() == reference.params.tobytes()
        # No resurrection: the erased vehicle never re-enters training
        # after the commit round, and its stored rounds are purged.
        for t in range(outcome.commit_round, NUM_ROUNDS):
            assert 2 not in record.ledger.participants_at(t)
        for t in range(NUM_ROUNDS):
            assert not record.gradients.has(t, 2)
        assert record.metadata["erased_clients"] == [2]
        (commit,) = record.metadata["merge_commits"]
        assert commit["clients"] == [2]
        assert commit["watermark"] == 3
        assert commit["commit_round"] == 5
        assert commit["mode"] == "replay"

    @pytest.mark.parametrize("mode", ["project", "npg"])
    def test_approximate_merge_modes_commit_their_tail(self, mode):
        _, session, service = make_live_service(23, merge_mode=mode)
        self.advance_during_phase1(session, service, extra_rounds=2)
        session.start()
        try:
            self.run_to(session, 3)
            outcome = service.handle_erasure_request(1)
        finally:
            session.release_pacing()
        record = session.result(timeout=120)
        assert outcome.merge_mode == mode
        assert outcome.commit_round - outcome.snapshot_watermark == 2
        assert np.all(np.isfinite(outcome.params))
        # Approximate modes still install, exclude, and purge exactly
        # (checkpoint readback is float32, the store's precision).
        np.testing.assert_array_equal(
            np.asarray(record.params_at(outcome.commit_round), dtype=np.float32),
            np.asarray(outcome.params, dtype=np.float32),
        )
        for t in range(outcome.commit_round, NUM_ROUNDS):
            assert 1 not in record.ledger.participants_at(t)
        for t in range(NUM_ROUNDS):
            assert not record.gradients.has(t, 1)
        (commit,) = record.metadata["merge_commits"]
        assert commit["mode"] == mode

    def test_commit_conflict_retries_forest_hot(self):
        _, session, service = make_live_service(24)
        replay = service._replay
        fired = []

        def racing(view, forget_sets, checks):
            if not fired:
                fired.append(True)
                # A concurrent erasure commits while our phase-1
                # replay runs: the forget set this commit validated
                # against is stale.
                service._erased.append(3)
                service.record.metadata["erased_clients"] = [3]
            return replay(view, forget_sets, checks)

        service._replay = racing
        session.start()
        try:
            self.run_to(session, 4)
            outcome = service.handle_erasure_request(1)
        finally:
            session.release_pacing()
        session.result(timeout=120)
        assert outcome.commit_conflicts == 1
        assert outcome.forgotten == [1]
        # The retry folded the concurrently-erased client into its
        # forget set: the final model excludes both.
        reference = reference_erase(24, [1, 3], outcome.commit_round)
        assert outcome.params.tobytes() == reference.params.tobytes()

    def test_already_erased_client_raises(self):
        _, session, service = make_live_service(25)
        session.start()
        try:
            self.run_to(session, 4)
            service.handle_erasure_request(1)
            with pytest.raises(ValueError, match="already erased"):
                service.handle_erasure_request(1)
        finally:
            session.release_pacing()
        session.result(timeout=120)

    def test_purge_is_deferred_while_a_reader_is_pinned(self):
        _, session, service = make_live_service(26)
        session.start()
        try:
            self.run_to(session, 4)
            reader = session.pin_snapshot()
            try:
                outcome = service.handle_erasure_request(1)
                # The pinned reader still sees every round it could
                # read at pin time — physical reclamation waited.
                assert session.registry.pending() == 1
                assert any(
                    reader.gradients.has(t, 1) for t in range(reader.watermark)
                )
            finally:
                reader.release()
            # Last blocking pin gone: the purge ran.
            assert session.registry.pending() == 0
            assert not any(
                service.record.gradients.has(t, 1)
                for t in range(outcome.commit_round)
            )
        finally:
            session.release_pacing()
        session.result(timeout=120)

    @pytest.mark.parametrize("failing", [None, 1], ids=["all_commit", "b_aborts"])
    def test_live_fused_batch_is_two_phase(self, failing):
        # Training keeps running through a live fused batch's replay;
        # the commit replays the trained tail for every member.
        _, session, service = make_live_service(30)
        self.advance_during_phase1(session, service, extra_rounds=2)
        checks = [None, None, None]
        if failing is not None:

            def aborts():
                raise DeadlineExceededError("budget spent")

            checks[failing] = aborts
        session.start()
        try:
            self.run_to(session, 3)
            report = service.handle_erasure_batch_fused([1, 2, 3], cancel_checks=checks)
        finally:
            session.release_pacing()
        record = session.result(timeout=120)
        committed = [1, 2, 3] if failing is None else [1]
        if failing is not None:
            assert isinstance(report.errors[1], DeadlineExceededError)
            assert isinstance(report.errors[2], DependentAbortError)
            assert report.outcomes[1:] == [None, None]
        for k, cid in enumerate(committed):
            outcome = report.outcomes[k]
            assert report.errors[k] is None
            assert outcome.forgotten == [cid]
            assert (outcome.snapshot_watermark, outcome.commit_round) == (3, 5)
            reference = reference_erase(30, committed[: k + 1], 5)
            assert outcome.params.tobytes() == reference.params.tobytes()
        for cid in committed:
            for t in range(5, NUM_ROUNDS):
                assert cid not in record.ledger.participants_at(t)
            for t in range(NUM_ROUNDS):
                assert not record.gradients.has(t, cid)
        assert record.metadata["erased_clients"] == committed
        commits = record.metadata["merge_commits"]
        assert [c["clients"] for c in commits] == [[cid] for cid in committed]
        for commit in commits:
            assert (commit["watermark"], commit["commit_round"]) == (3, 5)
            assert commit["mode"] == "replay"

    @pytest.mark.parametrize("live", [True, False], ids=["live", "stop_the_world"])
    def test_prefetch_drain_racing_a_replay_is_busy(self, live):
        # A drain at the replay's second round returns at once — it
        # neither waits for the replay nor disturbs it: the replay's
        # decode threads are its own, and the rounds it holds stay
        # alive after the shared cache is dropped.
        model, sim = build_sim(29)
        if live:
            session = LiveTrainingSession(sim, NUM_ROUNDS, paced=True)
            service = UnlearningService(
                record=sim.record_view(0), model=model, clip_threshold=5.0,
                prefetch_depth=2,
            ).bind_live(session)
            session.start()
            self.run_to(session, 4)
        else:
            service = UnlearningService(
                record=sim.run(4), model=model, clip_threshold=5.0, prefetch_depth=2
            )
        owner = threading.get_ident()
        ticks, drains = [0], []

        def drain():
            service.drain_prefetch()
            drains.append(service.decode_cache)

        def tick():
            # Decode threads poll the same hook; only the replay's own
            # thread marks round boundaries.
            if threading.get_ident() != owner:
                return
            ticks[0] += 1
            if ticks[0] == 2:
                racer = threading.Thread(target=drain)
                racer.start()
                racer.join(10)
                assert not racer.is_alive()

        try:
            outcome = service.handle_erasure_request(1, cancel_check=tick)
        finally:
            if live:
                session.release_pacing()
                session.result(timeout=120)
        assert drains == [None]
        reference = reference_erase(29, [1], 4)
        assert outcome.params.tobytes() == reference.params.tobytes()

    def test_drain_prefetch_does_not_wait_for_the_service_lock(self):
        _, session, service = make_live_service(27)
        session.start()
        session.release_pacing()
        session.result(timeout=120)
        held = threading.Event()
        release = threading.Event()

        def holder():
            with service.lock:
                held.set()
                release.wait(10)

        thread = threading.Thread(target=holder)
        thread.start()
        try:
            assert held.wait(10)
            service.drain_prefetch()
            assert service.decode_cache is None
        finally:
            release.set()
            thread.join(10)

    def test_persist_raises_busy_under_pinned_reader(self, tmp_path):
        _, session, service = make_live_service(28)
        session.start()
        session.release_pacing()
        session.result(timeout=120)
        pin = session.pin_snapshot()
        try:
            with pytest.raises(ServiceBusyError) as err:
                service.persist(str(tmp_path / "busy"), drain_timeout=0.1)
            assert err.value.retry_after > 0
        finally:
            pin.release()
        service.persist(str(tmp_path / "ok"), drain_timeout=5.0)
        restored = load_record(str(tmp_path / "ok"))
        assert restored.num_rounds == NUM_ROUNDS


# ----------------------------------------------------------------------
# merge helpers
# ----------------------------------------------------------------------
class TestMergeHelpers:
    def test_projection_drops_only_the_conflicting_component(self):
        base = np.zeros(4)
        live = np.array([1.0, 0.0, 0.0, 0.0])
        # u has a negative component along v = live - base: conflict.
        counterfactual = np.array([-2.0, 1.0, 0.0, 0.0])
        merged = conflict_projected_merge(base, counterfactual, live)
        residual = merged - live
        # The surviving delta is orthogonal to training progress...
        assert abs(residual @ (live - base)) < 1e-12
        # ...and keeps the non-conflicting component untouched.
        np.testing.assert_allclose(residual, [0.0, 1.0, 0.0, 0.0])

    def test_projection_is_identity_without_conflict(self):
        base = np.zeros(3)
        live = np.array([1.0, 1.0, 0.0])
        counterfactual = np.array([0.5, 0.0, 2.0])  # <u, v> > 0
        merged = conflict_projected_merge(base, counterfactual, live)
        np.testing.assert_allclose(merged, live + counterfactual)

    def test_projection_with_no_live_progress_returns_counterfactual(self):
        base = np.array([1.0, 2.0])
        counterfactual = np.array([0.0, 5.0])
        merged = conflict_projected_merge(base, counterfactual, base)
        np.testing.assert_allclose(merged, counterfactual)

    def test_npg_tail_matches_manual_weighted_sum(self):
        _, sim = build_sim(31)
        record = sim.run(NUM_ROUNDS)
        correction = negated_pseudo_gradient_tail(record, [1], 2, 5)
        expected = np.zeros_like(record.final_params())
        for t in range(2, 5):
            participants = record.ledger.participants_at(t)
            if 1 not in participants:
                continue
            total = sum(record.weight_of(c) for c in participants)
            expected += (
                record.learning_rate
                * (record.weight_of(1) / total)
                * record.gradients.get(t, 1)
            )
        np.testing.assert_allclose(correction, expected)
        assert np.linalg.norm(correction) > 0

    def test_npg_tail_is_zero_for_empty_window_or_absent_client(self):
        _, sim = build_sim(32)
        record = sim.run(NUM_ROUNDS)
        zeros = np.zeros(record.final_params().size)
        np.testing.assert_array_equal(
            negated_pseudo_gradient_tail(record, [0], 3, 3), zeros
        )
        np.testing.assert_array_equal(
            negated_pseudo_gradient_tail(record, [99], 0, NUM_ROUNDS), zeros
        )

    def test_npg_unlearner_applies_full_history_correction(self):
        model, sim = build_sim(33)
        record = sim.run(NUM_ROUNDS)
        result = NegatedPseudoGradientUnlearner().unlearn(record, [2], model)
        expected = record.final_params() + negated_pseudo_gradient_tail(
            record, [2], 0, NUM_ROUNDS
        )
        np.testing.assert_allclose(result.params, expected)
        assert result.rounds_replayed == 0
        assert result.stats["forgotten_contributions"] > 0
        with pytest.raises(ValueError, match="unknown clients"):
            NegatedPseudoGradientUnlearner().unlearn(record, [42], model)


# ----------------------------------------------------------------------
# mixed train/erase arrival schedule
# ----------------------------------------------------------------------
class TestMixedSchedule:
    def test_registered_and_deterministic(self):
        assert SCHEDULES["mixed"] is mixed_schedule
        a = mixed_schedule(20.0, 2.0, range(6), seed=5)
        b = mixed_schedule(20.0, 2.0, range(6), seed=5)
        assert [(x.at_seconds, x.kind, x.key) for x in a] == [
            (x.at_seconds, x.kind, x.key) for x in b
        ]
        kinds = {x.kind for x in a}
        assert kinds == {"train", "erase"}
        assert all(x.client_ids == () for x in a if x.kind == "train")
        times = [x.at_seconds for x in a]
        assert times == sorted(times)

    def test_train_fraction_bounds(self):
        with pytest.raises(ValueError, match="train_fraction"):
            mixed_schedule(5.0, 1.0, range(4), train_fraction=1.5)
        only_train = mixed_schedule(30.0, 2.0, range(4), train_fraction=1.0)
        assert all(x.kind == "train" for x in only_train)

    def test_generator_dispatches_train_arrivals_to_sink(self):
        schedule = mixed_schedule(30.0, 1.0, range(4), seed=9, train_fraction=1.0)
        granted = []
        generator = LoadGenerator(
            daemon=None,
            clock=lambda: 1e9,  # every arrival is already due
            sleep=lambda s: None,
            train_sink=granted.append,
        )
        generator.run(schedule, label="mixed-test")
        assert generator.train_dispatched == len(schedule)
        assert [a.key for a in granted] == [a.key for a in schedule]

    def test_generator_requires_sink_for_train_arrivals(self):
        generator = LoadGenerator(
            daemon=None, clock=lambda: 1e9, sleep=lambda s: None
        )
        arrival = Arrival(at_seconds=0.0, client_ids=(), key="t-0", kind="train")
        with pytest.raises(ValueError, match="train_sink"):
            generator.run([arrival])
