"""Erasure serving daemon: admission, deadlines, breaker, degradation.

The robustness contracts under test (``docs/ARCHITECTURE.md``,
"Erasure serving daemon"):

- bounded admission with typed load shedding (zero capacity sheds
  everything; ``retry_after`` hints are attached);
- idempotency keys deduplicate concurrent retries onto one erasure;
- deadlines are policed at enqueue, at dequeue, and between replay
  rounds, and a mid-replay abort leaves the prefix cache holding only
  committed round snapshots — the next request recovers parameters
  byte-identical to a cold replay;
- shutdown is deterministic in both modes (drain finishes queued work,
  abort fails it with typed rejections);
- the circuit breaker trips on fault storms and the daemon degrades to
  serve-stale or queue-only instead of failing hard;
- :class:`RetryPolicy` respects a total-deadline budget;
- :class:`PrometheusFlusher` keeps the exported text in parity with
  the live registry.

Everything time-dependent runs on fake clocks or event-driven
interleaving — no sleeps-and-hope.
"""

import threading

import numpy as np
import pytest

from repro.datasets import make_synthetic_mnist, partition_iid
from repro.faults.injection import TransientClientError
from repro.faults.retry import RetryPolicy
from repro.fl import FederatedSimulation, ParticipationSchedule, VehicleClient
from repro.nn import mlp
from repro.serving import (
    CircuitBreaker,
    Deadline,
    DeadlineExceededError,
    ErasureDaemon,
    ErasureRequest,
    RejectedError,
)
from repro.serving.breaker import CLOSED, HALF_OPEN, OPEN
from repro.storage import SignGradientStore
from repro.telemetry import (
    MetricsRegistry,
    PrometheusFlusher,
    Telemetry,
    export_prometheus,
    use_telemetry,
)
from repro.unlearning import SignRecoveryUnlearner, UnlearningService
from repro.utils.rng import SeedSequenceTree

NUM_CLIENTS = 8
NUM_ROUNDS = 10
IMAGE = 8
FEATURES = IMAGE * IMAGE
CLIP = 5.0
#: Late joiners — the erasure targets (replay spans only a few rounds).
JOINS = {4: 3, 5: 5, 6: 7, 7: 8}


class FakeClock:
    """A manually advanced monotonic clock."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


def build_record(seed=5):
    tree = SeedSequenceTree(seed)
    data = make_synthetic_mnist(160, tree.rng("data"), image_size=IMAGE)
    shards = partition_iid(data, NUM_CLIENTS, tree.rng("part"))
    clients = [
        VehicleClient(i, shards[i], tree.rng(f"c{i}"), batch_size=16)
        for i in range(NUM_CLIENTS)
    ]
    model = mlp(tree.rng("model"), FEATURES, 10, hidden=8)
    schedule = ParticipationSchedule.with_events(range(NUM_CLIENTS), joins=JOINS)
    sim = FederatedSimulation(
        model, clients, 2e-3, schedule=schedule,
        gradient_store=SignGradientStore(),
    )
    return sim.run(NUM_ROUNDS), model


@pytest.fixture
def service():
    record, model = build_record()
    return UnlearningService(record=record, model=model, clip_threshold=CLIP)


def each_fusion_width(service):
    """The degraded-mode and dequeue-deadline cases run their 3-ticket
    queue as lone tickets (``fusion_width`` 1, on ``service``) and as
    one coalesced group (4, on a fresh twin): the daemon's queue-wait,
    deadline and breaker-hold preamble is shared by its two service
    calls."""
    yield 1, service
    record, model = build_record()
    yield 4, UnlearningService(record=record, model=model, clip_threshold=CLIP)


# ----------------------------------------------------------------------
# request vocabulary
# ----------------------------------------------------------------------
class TestDeadline:
    def test_remaining_and_expiry_on_fake_clock(self):
        clock = FakeClock()
        deadline = Deadline(2.0, clock=clock)
        assert deadline.remaining() == pytest.approx(2.0)
        assert not deadline.expired()
        clock.advance(1.5)
        assert deadline.remaining() == pytest.approx(0.5)
        clock.advance(0.5)
        assert deadline.expired()
        with pytest.raises(DeadlineExceededError):
            deadline.check()

    def test_check_passes_before_expiry(self):
        deadline = Deadline(60.0)
        deadline.check()  # must not raise

    def test_request_validation(self):
        with pytest.raises(ValueError):
            ErasureRequest(client_ids=())
        assert ErasureRequest(client_ids=(1,)).kind == "single"
        assert ErasureRequest(client_ids=(1, 2)).kind == "batch"

    def test_rejected_error_carries_hint(self):
        err = RejectedError("queue_full", retry_after=1.25)
        assert err.reason == "queue_full"
        assert err.retry_after == 1.25
        assert "1.250" in str(err)


# ----------------------------------------------------------------------
# circuit breaker (fake clock throughout)
# ----------------------------------------------------------------------
class TestCircuitBreaker:
    def make(self, clock, threshold=3, cooldown=10.0):
        return CircuitBreaker(
            failure_threshold=threshold, window=8,
            cooldown_seconds=cooldown, clock=clock,
        )

    def test_trips_at_threshold(self):
        breaker = self.make(FakeClock())
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.state == CLOSED and breaker.allow()
        breaker.record_failure()
        assert breaker.state == OPEN
        assert not breaker.allow()
        assert breaker.cooldown_remaining() == pytest.approx(10.0)

    def test_successes_age_failures_out_of_window(self):
        breaker = self.make(FakeClock())
        for _ in range(2):
            breaker.record_failure()
        for _ in range(8):  # window is 8: successes push failures out
            breaker.record_success()
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.state == CLOSED

    def test_half_open_probe_success_closes(self):
        clock = FakeClock()
        breaker = self.make(clock)
        for _ in range(3):
            breaker.record_failure()
        clock.advance(10.0)
        assert breaker.state == HALF_OPEN
        assert breaker.allow()      # the single probe
        assert not breaker.allow()  # second caller must wait
        breaker.record_success()
        assert breaker.state == CLOSED
        assert breaker.transitions == [OPEN, HALF_OPEN, CLOSED]

    def test_half_open_probe_failure_reopens(self):
        clock = FakeClock()
        breaker = self.make(clock)
        for _ in range(3):
            breaker.record_failure()
        clock.advance(10.0)
        assert breaker.allow()
        breaker.record_failure()
        assert breaker.state == OPEN
        assert breaker.cooldown_remaining() == pytest.approx(10.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            CircuitBreaker(failure_threshold=0)
        with pytest.raises(ValueError):
            CircuitBreaker(failure_threshold=5, window=3)
        with pytest.raises(ValueError):
            CircuitBreaker(cooldown_seconds=-1)

    def test_release_probe_reopens_the_probe_slot(self):
        # A probe that ends without a substrate verdict (deadline
        # abort, client error) must return its slot, or the breaker
        # wedges half-open rejecting everything forever.
        clock = FakeClock()
        breaker = self.make(clock)
        for _ in range(3):
            breaker.record_failure()
        clock.advance(10.0)
        assert breaker.allow()       # the single probe
        assert not breaker.allow()
        breaker.release_probe()      # probe ended undecided
        assert breaker.state == HALF_OPEN
        assert breaker.allow()       # slot reopened for the next request
        breaker.record_success()
        assert breaker.state == CLOSED

    def test_release_probe_outside_half_open_is_a_noop(self):
        breaker = self.make(FakeClock())
        breaker.release_probe()
        assert breaker.state == CLOSED and breaker.allow()


# ----------------------------------------------------------------------
# admission control edge cases
# ----------------------------------------------------------------------
class TestAdmission:
    def test_zero_capacity_sheds_everything(self, service):
        daemon = ErasureDaemon(service, capacity=0, workers=1)
        with pytest.raises(RejectedError) as exc:
            daemon.submit(4)
        assert exc.value.reason == "queue_full"
        assert exc.value.retry_after >= 0.0
        assert daemon.counts["rejected"] == 1
        assert service.erased_clients == []

    def test_full_queue_hint_scales_with_depth(self, service):
        daemon = ErasureDaemon(service, capacity=2, workers=1)
        daemon.submit(4)
        daemon.submit(5)
        with pytest.raises(RejectedError) as exc:
            daemon.submit(6)
        assert exc.value.reason == "queue_full"
        assert exc.value.retry_after > 0.0
        daemon.stop(mode="abort")

    def test_deadline_already_expired_at_enqueue(self, service):
        clock = FakeClock()
        daemon = ErasureDaemon(service, capacity=4, workers=1, clock=clock)
        expired = Deadline(1.0, clock=clock)
        clock.advance(2.0)
        with pytest.raises(DeadlineExceededError):
            daemon.submit(4, deadline=expired)
        assert daemon.counts["deadline"] == 1
        assert service.erased_clients == []

    def test_duplicate_keys_racing_erase_once(self, service):
        # Workers never started: every submission races purely on the
        # admission lock, then a deterministic inline drain serves the
        # queue.  All racers must share one future and one erasure.
        daemon = ErasureDaemon(service, capacity=64, workers=1)
        futures = [None] * 16
        barrier = threading.Barrier(16)

        def racer(i):
            barrier.wait()
            futures[i] = daemon.submit(4, key="erase-4")

        threads = [threading.Thread(target=racer, args=(i,)) for i in range(16)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert all(f is futures[0] for f in futures)
        daemon.stop(mode="drain")
        response = futures[0].result(timeout=5)
        assert response.status == "ok"
        assert service.erased_clients == [4]
        assert daemon.counts["ok"] == 1

    def test_submit_after_stop_is_shutdown_rejection(self, service):
        daemon = ErasureDaemon(service, capacity=4, workers=1)
        daemon.stop(mode="drain")
        with pytest.raises(RejectedError) as exc:
            daemon.submit(4)
        assert exc.value.reason == "shutdown"

    def test_failed_outcome_drops_its_idempotency_key(self, service):
        for fusion_width, service in each_fusion_width(service):
            # Only in-flight and successful outcomes are cached: a request
            # that ends in a deadline abort must drop its key, or the
            # keyed retry replays the stored exception instead of
            # re-executing the erasure.
            clock = FakeClock()
            daemon = ErasureDaemon(
                service, capacity=8, workers=1, clock=clock, fusion_width=fusion_width
            )
            futures = [
                daemon.submit(cid, key=f"k{cid}", deadline=Deadline(1.0, clock=clock))
                for cid in (4, 5, 6)
            ]
            clock.advance(2.0)  # expires while queued
            daemon.stop(mode="drain")
            for future in futures:
                with pytest.raises(DeadlineExceededError, match="while queued"):
                    future.result(timeout=1)
            assert not daemon._keys
            assert service.erased_clients == []

    def test_keyed_retry_after_failure_reexecutes(self, service):
        calls = {"n": 0}
        original = service.handle_erasure_request

        def flaky_once(client_id, cancel_check=None):
            calls["n"] += 1
            if calls["n"] == 1:
                raise TransientClientError("transient substrate fault")
            return original(client_id, cancel_check=cancel_check)

        service.handle_erasure_request = flaky_once
        daemon = ErasureDaemon(service, capacity=8, workers=1).start()
        try:
            first = daemon.submit(4, key="k")
            with pytest.raises(TransientClientError):
                first.result(timeout=10)
            # The key was dropped before the failure resolved, so the
            # retry gets a fresh submission, not the cached exception.
            second = daemon.submit(4, key="k")
            assert second is not first
            assert second.result(timeout=10).status == "ok"
        finally:
            daemon.stop(mode="drain")
        assert calls["n"] == 2
        assert service.erased_clients == [4]


# ----------------------------------------------------------------------
# shutdown: drain vs abort, both deterministic
# ----------------------------------------------------------------------
class TestShutdown:
    def test_drain_finishes_queued_work(self, service):
        daemon = ErasureDaemon(service, capacity=8, workers=1)
        futures = [daemon.submit(c) for c in (4, 5, 6)]
        daemon.stop(mode="drain")
        for future, cid in zip(futures, (4, 5, 6)):
            assert future.result(timeout=1).outcomes[0].forgotten == [cid]
        assert service.erased_clients == [4, 5, 6]

    def test_abort_fails_queued_work_with_typed_rejections(self, service):
        daemon = ErasureDaemon(service, capacity=8, workers=1)
        futures = [daemon.submit(c) for c in (4, 5, 6)]
        daemon.stop(mode="abort")
        for future in futures:
            with pytest.raises(RejectedError) as exc:
                future.result(timeout=1)
            assert exc.value.reason == "shutdown"
        assert service.erased_clients == []
        assert daemon.counts["rejected"] == 3

    def test_started_daemon_drains_on_stop(self, service):
        daemon = ErasureDaemon(service, capacity=8, workers=2).start()
        futures = [daemon.submit(c) for c in (4, 5)]
        daemon.stop(mode="drain")
        assert {f.result(timeout=5).status for f in futures} == {"ok"}
        assert daemon.status()["queue_depth"] == 0


# ----------------------------------------------------------------------
# deadline aborts mid-replay: cache stays byte-identical
# ----------------------------------------------------------------------
class TestDeadlineAbort:
    def test_mid_replay_abort_salvages_committed_prefix(self):
        record, model = build_record()
        reference = SignRecoveryUnlearner(clip_threshold=CLIP).unlearn(
            record, [4], model
        )
        service = UnlearningService(record=record, model=model, clip_threshold=CLIP)
        calls = {"n": 0}

        def cancel_after_two_rounds():
            calls["n"] += 1
            if calls["n"] > 2:
                raise DeadlineExceededError("expired mid-replay")

        with pytest.raises(DeadlineExceededError):
            service.handle_erasure_request(4, cancel_check=cancel_after_two_rounds)
        # Nothing committed: not erased, nothing purged.
        assert service.erased_clients == []
        # The salvaged prefix makes the retry cheaper AND byte-identical.
        outcome = service.handle_erasure_request(4)
        assert outcome.cached_prefix_rounds > 0
        assert outcome.params.tobytes() == reference.params.tobytes()
        assert outcome.result.stats == reference.stats

    def test_daemon_deadline_abort_then_clean_retry(self, service):
        daemon = ErasureDaemon(service, capacity=4, workers=1).start()
        try:
            try:
                daemon.submit(4, deadline=0.0005).result()
            except DeadlineExceededError:
                pass
            response = daemon.submit(4).result()
            assert response.status == "ok"
            assert response.outcomes[0].forgotten == [4]
        finally:
            daemon.stop(mode="drain")


# ----------------------------------------------------------------------
# degraded modes under an open breaker
# ----------------------------------------------------------------------
class TestDegradedModes:
    def test_serve_stale_answers_with_last_known_good(self, service):
        for fusion_width, service in each_fusion_width(service):
            breaker = CircuitBreaker(failure_threshold=1, window=4, cooldown_seconds=60.0)
            daemon = ErasureDaemon(
                service, capacity=8, workers=1, breaker=breaker,
                degraded_mode="serve_stale", fusion_width=fusion_width,
            )
            daemon.signal_fault(kind="quarantine")
            assert breaker.state == OPEN
            futures = [daemon.submit(cid) for cid in (4, 5, 6)]
            daemon.stop(mode="drain")
            for future in futures:
                response = future.result(timeout=1)
                assert response.status == "stale"
                assert response.retry_after > 0.0
                # No erasure ran; the answer is the last known-good
                # parameters (no prior success: the trained final model).
                assert (
                    response.params.tobytes()
                    == service.record.final_params().tobytes()
                )
            assert service.erased_clients == []

    def test_queue_only_holds_until_cooldown_then_serves(self, service):
        for fusion_width, service in each_fusion_width(service):
            breaker = CircuitBreaker(failure_threshold=1, window=4, cooldown_seconds=0.05)
            daemon = ErasureDaemon(
                service, capacity=8, workers=1, breaker=breaker,
                degraded_mode="queue_only", fusion_width=fusion_width,
            )
            try:
                daemon.signal_fault()
                # Queue before starting the worker so one dequeue sees all three.
                futures = [daemon.submit(cid) for cid in (4, 5, 6)]
                daemon.start()
                for future in futures:
                    assert future.result(timeout=10).status == "ok"
                assert breaker.state == CLOSED
                assert breaker.transitions == [OPEN, HALF_OPEN, CLOSED]
            finally:
                daemon.stop(mode="drain")
            assert service.erased_clients == [4, 5, 6]

    def test_queue_only_polices_deadline_while_held(self, service):
        for fusion_width, service in each_fusion_width(service):
            clock = FakeClock()
            breaker = CircuitBreaker(
                failure_threshold=1, window=4, cooldown_seconds=1e9, clock=clock
            )
            daemon = ErasureDaemon(
                service, capacity=8, workers=1, breaker=breaker,
                degraded_mode="queue_only", clock=clock, fusion_width=fusion_width,
            )
            daemon.signal_fault()
            futures = [
                daemon.submit(cid, deadline=Deadline(5.0, clock=clock))
                for cid in (4, 5, 6)
            ]
            clock.advance(6.0)  # expires while held by the open breaker
            daemon.stop(mode="drain")
            for future in futures:
                with pytest.raises(DeadlineExceededError):
                    future.result(timeout=1)
            assert service.erased_clients == []

    def test_invalid_degraded_mode_rejected(self, service):
        with pytest.raises(ValueError):
            ErasureDaemon(service, degraded_mode="pray")

    def test_breaker_reopens_after_failed_probe_storm(self, service):
        breaker = CircuitBreaker(failure_threshold=2, window=4, cooldown_seconds=60.0)
        daemon = ErasureDaemon(service, capacity=8, workers=1, breaker=breaker)
        daemon.signal_fault(kind="quarantine")
        daemon.signal_fault(kind="corruption")
        assert breaker.state == OPEN
        assert daemon.status()["breaker_state"] == OPEN

    def test_client_error_probe_releases_the_slot(self, service):
        for fusion_width, service in each_fusion_width(service):
            # Half-open probe granted to a request that ends in a client
            # error: the slot must be released so the NEXT request probes —
            # otherwise the breaker wedges half-open and (in serve_stale
            # mode) every future request is answered stale forever.  A
            # coalesced group is one verdict: its committed members close
            # the breaker, and the client error joins no member's chain.
            service.handle_erasure_request(4)  # makes a later 4 a client error
            breaker = CircuitBreaker(failure_threshold=1, window=4, cooldown_seconds=0.0)
            daemon = ErasureDaemon(
                service, capacity=8, workers=1, breaker=breaker,
                fusion_width=fusion_width,
            )
            daemon.signal_fault()  # trip; zero cooldown → next allow() probes
            probe = daemon.submit(4)   # holds the probe, ends in ValueError
            follow = daemon.submit(5)  # must become the next probe, not stale
            last = daemon.submit(6)
            daemon.stop(mode="drain")
            with pytest.raises(ValueError):
                probe.result(timeout=1)
            for future in (follow, last):
                assert future.result(timeout=1).status == "ok"
            assert breaker.state == CLOSED
            assert service.erased_clients == [4, 5, 6]

    def test_deadline_abort_probe_releases_the_slot(self, service):
        for fusion_width, service in each_fusion_width(service):
            # The probe is a two-vehicle request, so it is served alone at
            # either width; the two single-vehicle followers then form the
            # next probe — one coalesced group at fusion width 4.
            clock = FakeClock()
            breaker = CircuitBreaker(
                failure_threshold=1, window=4, cooldown_seconds=0.0, clock=clock
            )
            daemon = ErasureDaemon(
                service, capacity=8, workers=1, breaker=breaker, clock=clock,
                fusion_width=fusion_width,
            )
            replay = service._replay
            calls = {"n": 0}

            def slow_once(view, forget_sets, checks):
                calls["n"] += 1
                if calls["n"] == 1:
                    clock.advance(5.0)  # the replay outlives the deadline
                return replay(view, forget_sets, checks)

            service._replay = slow_once
            daemon.signal_fault()
            probe = daemon.submit((4, 6), deadline=Deadline(1.0, clock=clock))
            follow = daemon.submit(5)
            last = daemon.submit(7)
            daemon.stop(mode="drain")
            with pytest.raises(DeadlineExceededError):
                probe.result(timeout=1)
            for future in (follow, last):
                assert future.result(timeout=1).status == "ok"
            assert breaker.state == CLOSED
            assert service.erased_clients == [5, 7]

    def test_client_errors_do_not_feed_the_breaker(self, service):
        daemon = ErasureDaemon(service, capacity=8, workers=1)
        future = daemon.submit(4, key="a")
        daemon.stop(mode="drain")
        future.result(timeout=1)
        daemon2 = ErasureDaemon(service, capacity=8, workers=1)
        future = daemon2.submit(4)  # already erased: a client error
        daemon2.stop(mode="drain")
        with pytest.raises(ValueError):
            future.result(timeout=1)
        assert daemon2.breaker.state == CLOSED
        assert daemon2.counts["error"] == 1


# ----------------------------------------------------------------------
# retry budget
# ----------------------------------------------------------------------
class TestRetryBudget:
    def failing(self):
        def fn():
            raise TransientClientError("flaky")
        return fn

    def test_budget_stops_retries_early(self):
        policy = RetryPolicy(max_attempts=5, base_delay=1.0, max_delay=8.0)
        outcome = policy.call(self.failing(), budget=0.5)
        assert outcome.attempts == 1
        assert not outcome.succeeded
        assert outcome.budget_exhausted
        assert outcome.total_delay == 0.0

    def test_ample_budget_changes_nothing(self):
        policy = RetryPolicy(max_attempts=3, base_delay=0.1, max_delay=1.0)
        outcome = policy.call(self.failing(), budget=100.0)
        assert outcome.attempts == 3
        assert not outcome.budget_exhausted

    def test_partial_budget_allows_some_retries(self):
        policy = RetryPolicy(
            max_attempts=4, base_delay=1.0, max_delay=8.0, backoff_factor=2.0
        )
        # Schedule is [1, 2, 4]: a budget of 1.5 affords the first
        # retry but not the second.
        outcome = policy.call(self.failing(), budget=1.5)
        assert outcome.attempts == 2
        assert outcome.budget_exhausted
        assert outcome.total_delay == pytest.approx(1.0)

    def test_no_budget_is_the_old_behaviour(self):
        policy = RetryPolicy(max_attempts=2, base_delay=0.1)
        outcome = policy.call(self.failing())
        assert outcome.attempts == 2
        assert not outcome.budget_exhausted

    def test_success_never_reports_exhaustion(self):
        policy = RetryPolicy(max_attempts=3, base_delay=1.0)
        attempts = {"n": 0}

        def sometimes():
            attempts["n"] += 1
            if attempts["n"] < 2:
                raise TransientClientError("once")
            return "fine"

        outcome = policy.call(sometimes, budget=10.0)
        assert outcome.succeeded and outcome.value == "fine"
        assert not outcome.budget_exhausted

    def test_daemon_wires_deadline_into_retry_budget(self, service):
        # A retry policy whose first backoff (10 s) exceeds the request
        # deadline's remaining budget: one transient failure must fail
        # the request immediately instead of backing off past the
        # deadline.
        calls = {"n": 0}
        original = service.handle_erasure_request

        def flaky_once(client_id, cancel_check=None):
            calls["n"] += 1
            if calls["n"] == 1:
                raise TransientClientError("transient substrate fault")
            return original(client_id, cancel_check=cancel_check)

        service.handle_erasure_request = flaky_once
        policy = RetryPolicy(max_attempts=3, base_delay=10.0, max_delay=10.0)
        daemon = ErasureDaemon(
            service, capacity=4, workers=1, retry_policy=policy,
            default_deadline_seconds=1.0,
        )
        future = daemon.submit(4)
        daemon.stop(mode="drain")
        with pytest.raises(TransientClientError):
            future.result(timeout=1)
        assert calls["n"] == 1  # no retry was attempted
        assert service.erased_clients == []


# ----------------------------------------------------------------------
# persist/restore under a service with requests in flight
# ----------------------------------------------------------------------
class TestPersistUnderLoad:
    def test_snapshot_waits_for_inflight_erasure(self, tmp_path):
        record, model = build_record()
        service = UnlearningService(record=record, model=model, clip_threshold=CLIP)
        started = threading.Event()

        def notify_started():
            started.set()

        worker = threading.Thread(
            target=service.handle_erasure_request,
            args=(4,),
            kwargs={"cancel_check": notify_started},
        )
        worker.start()
        started.wait(timeout=10)
        # The erasure holds the service lock: persist must block until
        # it commits, so the snapshot can only be the post-erasure state.
        service.persist(str(tmp_path / "svc"))
        worker.join(timeout=10)
        _, model2 = build_record()
        restored = UnlearningService.restore(
            str(tmp_path / "svc"), model2, clip_threshold=CLIP
        )
        assert restored.erased_clients == [4]
        assert restored.record.num_rounds == NUM_ROUNDS

    def test_snapshot_under_mmap_backend_with_daemon_traffic(self, tmp_path):
        from repro.fl import with_sign_store

        record, model = build_record()
        mmap_record = with_sign_store(
            record, delta=1e-6, backend="mmap",
            directory=str(tmp_path / "store"),
        )
        service = UnlearningService(
            record=mmap_record, model=model, clip_threshold=CLIP
        )
        daemon = ErasureDaemon(service, capacity=8, workers=2).start()
        try:
            futures = [daemon.submit(c) for c in (4, 5, 6)]
            # Snapshot while requests are in flight: the lock serializes
            # against whichever erasure is running, so the manifest is
            # never half-written.
            service.persist(str(tmp_path / "svc"))
            for future in futures:
                future.result(timeout=30)
        finally:
            daemon.stop(mode="drain")
        restored = UnlearningService.restore(
            str(tmp_path / "svc"), model, clip_threshold=CLIP
        )
        # The snapshot is some committed prefix of the erasure stream.
        erased = restored.erased_clients
        assert set(erased).issubset({4, 5, 6})
        assert restored.record.num_rounds == NUM_ROUNDS
        # And the post-drain snapshot holds the full stream.
        service.persist(str(tmp_path / "svc-final"))
        final = UnlearningService.restore(
            str(tmp_path / "svc-final"), model, clip_threshold=CLIP
        )
        assert final.erased_clients == [4, 5, 6]


# ----------------------------------------------------------------------
# telemetry: serving metrics + flusher parity
# ----------------------------------------------------------------------
class TestServingTelemetry:
    def test_daemon_emits_serving_metrics(self, service):
        telemetry = Telemetry()
        with use_telemetry(telemetry):
            daemon = ErasureDaemon(service, capacity=1, workers=1)
            daemon.submit(4, key="a")
            daemon.submit(4, key="a")  # idempotent hit
            with pytest.raises(RejectedError):
                daemon.submit(5)  # second distinct request: queue full
            daemon.stop(mode="drain")
        snapshot = telemetry.registry.snapshot()
        counters = snapshot["counters"]
        assert counters["serving_idempotent_hits_total"][0]["value"] == 1
        assert counters["serving_shed_total"][0]["value"] == 1
        series = {
            (s["labels"]["kind"], s["labels"]["status"]): s["value"]
            for s in counters["serving_requests_total"]
        }
        assert series[("single", "ok")] == 1
        assert series[("single", "rejected")] == 1
        assert snapshot["histograms"]["serving_request_seconds"][0]["count"] == 1

    def test_flusher_keeps_file_in_parity_with_registry(self, tmp_path):
        registry = MetricsRegistry()
        registry.inc("fl_rounds_total", 3)
        registry.set_gauge("fl_participants", 5)
        path = str(tmp_path / "live.prom")
        flusher = PrometheusFlusher(registry, path, interval_seconds=0.01)
        flusher.flush_now()
        first = open(path).read()
        assert "fl_rounds_total 3" in first
        registry.inc("fl_rounds_total", 2)
        flusher.flush_now()
        second = open(path).read()
        assert "fl_rounds_total 5" in second
        # Parity: the file is exactly the live export, including the
        # flush counter accounting for its own writes.
        assert second == export_prometheus(registry)
        assert flusher.flushes == 2
        assert "telemetry_flushes_total 2" in second

    def test_flusher_background_thread_and_final_flush(self, tmp_path):
        registry = MetricsRegistry()
        path = str(tmp_path / "bg.prom")
        flusher = PrometheusFlusher(registry, path, interval_seconds=0.005)
        flusher.start()
        registry.inc("fl_rounds_total", 7)
        flusher.stop(final_flush=True)
        content = open(path).read()
        assert "fl_rounds_total 7" in content
        assert content == export_prometheus(registry)
        assert flusher.flushes >= 1

    def test_flusher_validates_interval(self):
        with pytest.raises(ValueError):
            PrometheusFlusher(MetricsRegistry(), "x.prom", interval_seconds=0)

    def test_daemon_starts_and_stops_flusher(self, service, tmp_path):
        telemetry = Telemetry()
        path = str(tmp_path / "daemon.prom")
        flusher = PrometheusFlusher(telemetry.registry, path, interval_seconds=60.0)
        with use_telemetry(telemetry):
            daemon = ErasureDaemon(
                service, capacity=4, workers=1, flusher=flusher
            ).start()
            daemon.submit(4).result(timeout=30)
            daemon.stop(mode="drain")
        content = open(path).read()
        assert 'serving_requests_total{kind="single",status="ok"} 1' in content
