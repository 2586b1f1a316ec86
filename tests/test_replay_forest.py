"""Replay forest + fused branch execution: tree sharing, byte identity.

The contracts under test (``docs/REPLAY.md``):

- :class:`BranchArena`'s stacked step is **bitwise identical** per row
  to the serial :meth:`SGD.step_` it replaces — the numeric fact the
  whole fusion leans on.
- The forest shares prefixes between *incomparable* overlapping forget
  sets (neither contains the other), which the old linear cache could
  not serve, resuming at the effective-set divergence frontier.
- :func:`fused_unlearn` / :meth:`handle_erasure_batch_fused` return
  results **byte-identical** to K cold serial replays — across store
  backends, under an active fault plan, and with sibling branches
  forking mid-replay.
- Byte-budget LRU eviction only deepens later replays; it never
  corrupts a sibling's results.
- An aborted replay salvages the round its abort landed on; the retry
  resumes there.
- Retirement at commit keeps the forest as small as what a later
  request can still resume from — a chain of erasures holds a handful
  of nodes, not one per replayed round — and drops roots no later
  request can anchor at.
- Daemon fusion (``fusion_width > 1``): one coalesced execution, one
  branch deadline-aborted, the other tickets still byte-identical.
"""

import copy

import numpy as np
import pytest

from repro.nn.arena import BranchArena
from repro.nn.optim import SGD
from repro.serving.daemon import ErasureDaemon
from repro.serving.requests import Deadline, DeadlineExceededError
from repro.telemetry.core import Telemetry, use_telemetry
from repro.unlearning import (
    DependentAbortError,
    ReplayForest,
    SignRecoveryUnlearner,
    UnlearningService,
    fused_unlearn,
)

from tests.test_service_cache import (
    CLIP,
    JOINS,
    NUM_ROUNDS,
    build_record,
    build_service,
    cold_reference,
)
from repro.faults import ClientFault, FaultPlan


def fresh_unlearner():
    return SignRecoveryUnlearner(clip_threshold=CLIP, prefix_cache=ReplayForest())


def assert_result_matches(result, reference):
    assert result.params.tobytes() == reference.params.tobytes()
    assert result.rounds_replayed == reference.rounds_replayed
    assert result.stats == reference.stats


# ----------------------------------------------------------------------
# BranchArena: allocation determinism and bitwise step identity
# ----------------------------------------------------------------------
class TestBranchArena:
    def test_acquire_release_lowest_first(self):
        arena = BranchArena(4, 3)
        assert [arena.acquire() for _ in range(3)] == [0, 1, 2]
        arena.release(1)
        assert arena.acquire() == 1
        assert arena.active == 3

    def test_acquire_copies_initial(self):
        arena = BranchArena(2, 4)
        row = arena.acquire(np.arange(4.0))
        arena.row(row)[0] = 99.0
        other = arena.acquire(np.arange(4.0))
        assert arena.row(other)[0] == 0.0  # rows are independent

    def test_exhaustion_and_double_release(self):
        arena = BranchArena(1, 2)
        row = arena.acquire()
        with pytest.raises(RuntimeError):
            arena.acquire()
        arena.release(row)
        with pytest.raises(ValueError):
            arena.release(row)

    def test_step_rows_bitwise_matches_serial_sgd(self):
        rng = np.random.default_rng(7)
        k, d, lr = 5, 257, 2e-3
        start = rng.standard_normal((k, d))
        grads = rng.standard_normal((k, d))
        arena = BranchArena(k, d)
        rows = [arena.acquire(start[i]) for i in range(k)]
        arena.step_rows(rows, grads, lr)
        for i in range(k):
            serial = start[i].copy()
            SGD(lr=lr).step_(serial, grads[i])
            assert arena.row(rows[i]).tobytes() == serial.tobytes()

    def test_step_rows_shape_validation(self):
        arena = BranchArena(2, 3)
        rows = [arena.acquire(), arena.acquire()]
        with pytest.raises(ValueError):
            arena.step_rows(rows, np.zeros((1, 3)), 0.1)


# ----------------------------------------------------------------------
# forest sharing between incomparable overlapping forget sets
# ----------------------------------------------------------------------
class TestIncomparableOverlap:
    def test_overlap_resumes_at_divergence_frontier(self):
        """{5,6} then {5,7}: neither contains the other, but they share
        every round until client 6 (their symmetric difference) first
        participates — the linear prefix cache could never serve this."""
        record, model = build_record(3)
        unlearner = fresh_unlearner()
        unlearner.unlearn(record, [5, 6], model)
        assert unlearner.prefix_cache.hits == 0

        result = unlearner.unlearn(record, [5, 7], model)
        forest = unlearner.prefix_cache
        assert forest.hits == 1
        # Both requests backtrack to F=3 (client 5's join); client 6
        # joins at round 6, so the shared segment is [3, 6) — resume
        # depth 3 rounds past the backtrack round.
        assert unlearner.last_cached_prefix_rounds == JOINS[6] - JOINS[5]
        assert forest.rounds_saved == JOINS[6] - JOINS[5]
        assert_result_matches(result, cold_reference(3, {5, 7}))

    def test_forest_accumulates_sibling_nodes(self):
        record, model = build_record(3)
        unlearner = fresh_unlearner()
        unlearner.unlearn(record, [5, 6], model)
        nodes_before = unlearner.prefix_cache.node_count
        unlearner.unlearn(record, [5, 7], model)
        # The divergent tail stores sibling nodes under the same root.
        assert len(unlearner.prefix_cache) == 1
        assert unlearner.prefix_cache.node_count > nodes_before


# ----------------------------------------------------------------------
# fused == K cold serial replays, byte-identical
# ----------------------------------------------------------------------
FUSED_SETS = [
    frozenset({5}),
    frozenset({5, 6}),
    frozenset({5, 7}),      # incomparable with {5, 6}
    frozenset({5, 6, 7}),
    frozenset({6, 7}),      # different backtrack round (F=6)
]


class TestFusedByteIdentity:
    @pytest.mark.parametrize("backend", ["dict", "mmap"])
    def test_fused_matches_cold_serial(self, backend, tmp_path):
        directory = str(tmp_path / "mmap") if backend == "mmap" else None
        record, model = build_record(3, backend=backend, directory=directory)
        unlearner = fresh_unlearner()
        outcomes, stats = fused_unlearn(unlearner, record, FUSED_SETS)
        assert stats.requests == len(FUSED_SETS)
        assert stats.forks > 0                      # branches really diverged
        assert stats.shared_rounds > 0              # and really shared work
        assert stats.executed_node_rounds < stats.member_rounds
        for forget, outcome in zip(FUSED_SETS, outcomes):
            assert outcome.error is None
            assert_result_matches(outcome.result, cold_reference(3, set(forget)))

    def test_fused_matches_cold_serial_under_faults(self):
        plan = FaultPlan(
            client_faults={
                (4, 1): ClientFault("crash"),
                (8, 6): ClientFault("crash"),
                (5, 4): ClientFault("flaky", failures=1),
            },
            seed=99,
        )
        record, model = build_record(11, fault_plan=plan)
        unlearner = fresh_unlearner()
        outcomes, _ = fused_unlearn(unlearner, record, FUSED_SETS)
        for forget, outcome in zip(FUSED_SETS, outcomes):
            assert outcome.error is None
            assert_result_matches(
                outcome.result, cold_reference(11, set(forget), fault_plan=plan)
            )

    def test_warm_forest_skips_all_rounds(self):
        record, model = build_record(3)
        unlearner = fresh_unlearner()
        fused_unlearn(unlearner, record, FUSED_SETS)
        outcomes, stats = fused_unlearn(unlearner, record, FUSED_SETS)
        assert stats.executed_node_rounds == 0      # everything resumed
        for forget, outcome in zip(FUSED_SETS, outcomes):
            assert outcome.error is None
            assert outcome.cached_prefix_rounds == NUM_ROUNDS - min(
                JOINS[c] for c in forget
            )
            assert_result_matches(outcome.result, cold_reference(3, set(forget)))

    def test_invalid_request_fails_its_slot_only(self):
        record, model = build_record(3)
        unlearner = fresh_unlearner()
        outcomes, _ = fused_unlearn(
            unlearner, record, [frozenset({5}), frozenset({99}), frozenset({6})]
        )
        assert outcomes[0].error is None
        assert isinstance(outcomes[1].error, ValueError)
        assert outcomes[2].error is None
        assert_result_matches(outcomes[2].result, cold_reference(3, {6}))


# ----------------------------------------------------------------------
# byte-budget eviction never corrupts siblings
# ----------------------------------------------------------------------
class TestNodeEviction:
    def test_starved_forest_stays_byte_identical(self):
        # One byte: every store evicts down to the node it touched last.
        forest = ReplayForest(max_entries=8, max_bytes=1)
        record, model = build_record(3)
        unlearner = SignRecoveryUnlearner(clip_threshold=CLIP, prefix_cache=forest)
        outcomes, _ = fused_unlearn(unlearner, record, FUSED_SETS)
        assert forest.node_count == 1
        assert forest.node_evictions > 0
        assert forest.recount_nbytes() == forest.nbytes
        for forget, outcome in zip(FUSED_SETS, outcomes):
            assert outcome.error is None
            assert_result_matches(outcome.result, cold_reference(3, set(forget)))
        # Re-serving against the starved forest still matches cold.
        for forget in FUSED_SETS:
            result = unlearner.unlearn(record, sorted(forget), model)
            assert_result_matches(result, cold_reference(3, set(forget)))


# ----------------------------------------------------------------------
# abort salvage: the retry resumes at the round the abort landed on
# ----------------------------------------------------------------------
def abort_at_tick(k):
    """A ``cancel_check`` that raises on its (k+1)-th poll — when ``k``
    rounds have been replayed."""
    polls = {"n": 0}

    def check():
        polls["n"] += 1
        if polls["n"] > k:
            raise DeadlineExceededError("budget spent")

    return check


# F=3; 6 and 9 are rounds a late joiner first takes part in, the rest not.
@pytest.mark.parametrize("k", [1, 3, 4, 8])
class TestAbortSalvage:
    def test_serial_retry_resumes_where_the_abort_landed(self, k):
        record, model = build_record(3)
        forest = ReplayForest()
        aborting = SignRecoveryUnlearner(
            clip_threshold=CLIP, prefix_cache=forest, cancel_check=abort_at_tick(k)
        )
        with pytest.raises(DeadlineExceededError):
            aborting.unlearn(record, [5], model)
        retry = SignRecoveryUnlearner(clip_threshold=CLIP, prefix_cache=forest)
        result = retry.unlearn(record, [5], model)
        assert retry.last_cached_prefix_rounds == k
        assert_result_matches(result, cold_reference(3, {5}))

    def test_fused_retry_resumes_where_the_abort_landed(self, k):
        record, model = build_record(3)
        unlearner = fresh_unlearner()
        (aborted,), stats = fused_unlearn(
            unlearner, record, [frozenset({5})], cancel_checks=[abort_at_tick(k)]
        )
        assert isinstance(aborted.error, DeadlineExceededError)
        assert stats.aborted == 1
        (retried,), _ = fused_unlearn(unlearner, record, [frozenset({5})])
        assert retried.cached_prefix_rounds == k
        assert_result_matches(retried.result, cold_reference(3, {5}))


# ----------------------------------------------------------------------
# retirement: the forest holds what a later request can resume from
# ----------------------------------------------------------------------
CHAIN_ROUNDS = 200
CHAIN_JOINS = {2 + k: 10 * (k + 1) for k in range(19)}  # client -> join round


class TestRetirement:
    def test_chain_of_erasures_holds_a_handful_of_nodes(self):
        # A long history with one late joiner every 10 rounds.
        record, model = build_record(
            5, num_rounds=CHAIN_ROUNDS, num_clients=21, joins=CHAIN_JOINS
        )
        pristine = copy.deepcopy(record)  # cold references replay unpurged
        service = UnlearningService(record=record, model=model, clip_threshold=CLIP)
        forest = service.prefix_cache
        erased = []
        for done, cid in enumerate(sorted(CHAIN_JOINS, key=CHAIN_JOINS.get), 1):
            outcome = service.handle_erasure_request(cid)
            erased.append(cid)
            cold = SignRecoveryUnlearner(clip_threshold=CLIP).unlearn(
                pristine, erased, model
            )
            assert_result_matches(outcome.result, cold)
            # Everything up to this vehicle's join was shared with the
            # previous request's trajectory.
            assert outcome.cached_prefix_rounds == CHAIN_JOINS[cid] - CHAIN_JOINS[2]
            assert forest.node_count <= (len(CHAIN_JOINS) - done) + 2
            assert forest.recount_nbytes() == forest.nbytes
        assert forest.node_evictions == 0
        assert forest.nodes_retired > 0

    def test_root_no_later_request_can_anchor_at_is_dropped(self):
        service = build_service(3)
        forest = service.prefix_cache
        service.handle_erasure_request(6)  # anchors a root at F=6
        assert [r.forget_round for r in forest._roots] == [JOINS[6]]
        kept = forest.node_count
        # Every later request forgets 5 too, so backtracks to F=3 at the
        # latest: the commit that erases 5 strands the F=6 root.
        outcome = service.handle_erasure_request(5)
        assert [r.forget_round for r in forest._roots] == [JOINS[5]]
        assert forest.nodes_retired >= kept
        assert forest.recount_nbytes() == forest.nbytes
        assert outcome.params.tobytes() == cold_reference(3, {5, 6}).params.tobytes()

    def test_raw_forest_users_keep_every_snapshot_they_stored(self):
        # No commit, no retire: incomparable sets keep sharing.
        record, model = build_record(3)
        unlearner = fresh_unlearner()
        for forget in ([5, 6], [5, 7], [5]):
            unlearner.unlearn(record, forget, model)
        assert unlearner.prefix_cache.nodes_retired == 0
        unlearner.unlearn(record, [5, 6], model)
        assert unlearner.last_cached_prefix_rounds == NUM_ROUNDS - JOINS[5]


# ----------------------------------------------------------------------
# service fused batch: cumulative commit, cascade abort
# ----------------------------------------------------------------------
class TestServiceFusedBatch:
    def test_fused_batch_matches_serial_batch(self):
        fused = build_service(3).handle_erasure_batch_fused([5, 6, 7])
        serial = build_service(3).handle_erasure_batch([5, 6, 7])
        assert fused.errors == [None, None, None]
        for fo, so in zip(fused.outcomes, serial):
            assert fo.forgotten == so.forgotten
            assert fo.params.tobytes() == so.params.tobytes()
            assert fo.result.stats == so.result.stats
        assert fused.stats.shared_rounds > 0

    def test_aborted_member_cascades_and_earlier_members_commit(self):
        service = build_service(11)
        polls = {"n": 0}

        def cancel_second():
            polls["n"] += 1
            if polls["n"] >= 2:
                raise DeadlineExceededError("budget spent")

        report = service.handle_erasure_batch_fused(
            [5, 6, 7], cancel_checks=[None, cancel_second, None]
        )
        assert report.outcomes[0] is not None
        assert isinstance(report.errors[1], DeadlineExceededError)
        assert isinstance(report.errors[2], DependentAbortError)
        assert service.erased_clients == [5]
        solo = build_service(11).handle_erasure_request(5)
        assert report.outcomes[0].params.tobytes() == solo.params.tobytes()
        # Resubmitting the unserved suffix completes it, byte-identical
        # to an uninterrupted cumulative batch.
        retry = service.handle_erasure_batch_fused([6, 7])
        assert retry.errors == [None, None]
        full = build_service(11).handle_erasure_batch([5, 6, 7])
        assert retry.outcomes[1].params.tobytes() == full[2].params.tobytes()

    def test_invalid_ids_fail_slots_without_joining_chain(self):
        service = build_service(3)
        service.handle_erasure_request(5)
        report = service.handle_erasure_batch_fused([5, 99, 6])
        assert isinstance(report.errors[0], ValueError)   # already erased
        assert isinstance(report.errors[1], ValueError)   # unknown
        assert report.outcomes[2] is not None
        # slot 2's cumulative set is {5, 6} — invalid ids contributed nothing
        reference = build_service(3).handle_erasure_batch([5, 6])[1]
        assert report.outcomes[2].params.tobytes() == reference.params.tobytes()


# ----------------------------------------------------------------------
# daemon fusion: coalesced tickets, per-ticket deadlines
# ----------------------------------------------------------------------
class CountingClock:
    """Deterministic clock: every call advances one microsecond."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        self.now += 1e-6
        return self.now


class TestDaemonFusion:
    def run_daemon(self, seed, fusion_width, deadlines=(None, None, None)):
        clock = CountingClock()
        telemetry = Telemetry()
        with use_telemetry(telemetry):
            service = build_service(seed)
            daemon = ErasureDaemon(
                service, workers=1, fusion_width=fusion_width, clock=clock
            )
            # Queue before starting the single worker so the whole
            # backlog is visible to one coalescing dequeue.
            futures = [
                daemon.submit(cid, deadline=dl)
                for cid, dl in zip((5, 6, 7), deadlines)
            ]
            daemon.start()
            results = []
            for future in futures:
                try:
                    results.append(future.result(timeout=60))
                except Exception as exc:  # noqa: BLE001 - collected for asserts
                    results.append(exc)
            daemon.stop()
        return results, daemon, telemetry

    def test_fused_daemon_matches_serial_daemon(self):
        fused, daemon, telemetry = self.run_daemon(3, fusion_width=4)
        serial, _, _ = self.run_daemon(3, fusion_width=1)
        for f, s in zip(fused, serial):
            assert f.status == "ok" and s.status == "ok"
            assert f.params.tobytes() == s.params.tobytes()
        assert (
            telemetry.registry.counter_value("serving_fused_tickets_total") == 3
        )
        assert daemon.counts["ok"] == 3

    def test_deadline_aborts_one_branch_others_byte_identical(self):
        # 1 µs/clock call: a 12 µs budget survives dequeue bookkeeping
        # but expires during the branch's per-round cancel polls
        # (serving_deadline_aborts_total == 1 proves mid-replay, not
        # at-dequeue).
        clock_budget = 12e-6
        results, daemon, telemetry = self.run_daemon(
            11, fusion_width=4, deadlines=(None, None, clock_budget)
        )
        serial, _, _ = self.run_daemon(11, fusion_width=1)
        assert results[0].status == "ok"
        assert results[1].status == "ok"
        assert isinstance(results[2], DeadlineExceededError)
        for k in range(2):
            assert results[k].params.tobytes() == serial[k].params.tobytes()
        assert daemon.counts["deadline"] == 1
        assert daemon.service.erased_clients == [5, 6]
        assert (
            telemetry.registry.counter_value("serving_deadline_aborts_total") == 1
        )
