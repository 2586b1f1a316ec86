"""High-level unlearning service — the RSU operator's API.

The lower layers expose each mechanism separately (stores, ledger,
recovery, detection, persistence).  :class:`UnlearningService` ties
them into the three workflows of §IV-A, each one call:

- :meth:`handle_erasure_request` — a vehicle exercises its right to be
  forgotten (scenario 1);
- :meth:`handle_departed_vehicle` — erase a vehicle that dropped out or
  left FL (scenario 2);
- :meth:`scan_and_purge_attackers` — detect poisoners from the stored
  history and erase them (scenario 3).

All three run entirely server-side on the stored record, return the
recovered parameters, and purge the forgotten clients' stored updates
(the erasure is not complete while their gradients sit in the store).
The service can be checkpointed to disk and resumed
(:meth:`persist` / :meth:`UnlearningService.restore`), because erasure
requests arrive long after training.

Amortized serving: every service owns a
:class:`~repro.unlearning.forest.ReplayForest`, so successive
requests reuse the replay prefix their forget sets share — each
request's forget set is a superset of the previous one's (erased
clients stay excluded), which is exactly the cache's reuse condition,
and what lets every commit retire the snapshots no later request can
resume from (:meth:`~repro.unlearning.forest.ReplayForest.retire`).

Every entry point — single, departed vehicle, attacker scan, serial
batch, fused batch; stop-the-world or bound to a live training session
— runs the same pipeline (:meth:`UnlearningService._erase_group`):
**plan** (validate, build the cumulative forget sets, pin a view),
**replay** (one :func:`~repro.unlearning.engine.fused_unlearn` call —
lock-free when live, so training keeps running, a live batch
included), **commit** (conflict check, fold in the rounds trained past
the pinned watermark, purge, bookkeeping, install).  Outcomes report
the amortization (``ErasureOutcome.cached_prefix_rounds``) and every
request feeds ``service_erasure_requests_total`` (labelled
single/batch/fused) — the recovered parameters are byte-identical to
serving each request cold.
"""

from __future__ import annotations

import threading
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.defenses import DetectionReport, detect_malicious_clients
from repro.fl.history import TrainingRecord
from repro.fl.persistence import load_record, save_record
from repro.nn.model import Sequential
from repro.storage.prefetch import RoundDecodeCache
from repro.telemetry.core import current_telemetry
from repro.unlearning.base import UnlearnResult
from repro.unlearning.engine import fused_unlearn
from repro.unlearning.forest import ReplayForest
from repro.unlearning.merge import (
    conflict_projected_merge,
    negated_pseudo_gradient_tail,
)
from repro.unlearning.recovery import SignRecoveryUnlearner
from repro.utils.logging import get_logger

if TYPE_CHECKING:  # pragma: no cover - typing only (avoids an fl<->unlearning cycle)
    from repro.fl.live import LiveTrainingSession

__all__ = [
    "DependentAbortError",
    "ErasureOutcome",
    "FusedBatchReport",
    "MERGE_MODES",
    "ServiceBusyError",
    "UnlearningService",
]

#: Merge-back strategies for live erasures — see :mod:`repro.unlearning.merge`.
MERGE_MODES = ("replay", "project", "npg")

_log = get_logger("unlearning.service")


@dataclass
class ErasureOutcome:
    """What one erasure workflow produced.

    Attributes
    ----------
    forgotten:
        The erased client ids.
    params:
        The recovered global model parameters.
    result:
        The underlying :class:`~repro.unlearning.base.UnlearnResult`.
    purged_records:
        Stored gradient records deleted for the forgotten clients.
    detection:
        The detection report, when the workflow was attacker-driven.
    cached_prefix_rounds:
        Replay rounds this request skipped by resuming from the
        service's prefix cache (0 for a cold replay).  Observability
        only — the returned parameters are byte-identical either way.
    snapshot_watermark:
        Live path only: the round watermark ``W`` the lock-free replay
        was pinned at (``None`` on the stop-the-world path).
    commit_round:
        Live path only: the round ``T'`` the merge committed at —
        ``commit_round - snapshot_watermark`` rounds were trained while
        the erasure was in flight.
    merge_mode:
        Live path only: which merge-back strategy folded the
        counterfactual into the live model (see
        :data:`MERGE_MODES`).
    commit_conflicts:
        Live path only: commit attempts lost to a concurrent erasure
        changing the forget set (each retried forest-hot).
    """

    forgotten: List[int]
    params: np.ndarray
    result: UnlearnResult
    purged_records: int
    detection: Optional[DetectionReport] = None
    cached_prefix_rounds: int = 0
    snapshot_watermark: Optional[int] = None
    commit_round: Optional[int] = None
    merge_mode: Optional[str] = None
    commit_conflicts: int = 0


class ServiceBusyError(RuntimeError):
    """A non-blocking service operation found the service busy.

    Raised instead of silently returning ``False`` so callers can
    distinguish "busy, retry later" from a completed no-op.
    ``retry_after`` is the suggested back-off in seconds.
    """

    def __init__(self, message: str, retry_after: float = 0.05):
        super().__init__(message)
        self.retry_after = float(retry_after)


class DependentAbortError(RuntimeError):
    """A fused-batch member could not commit because an *earlier* member
    of the same batch aborted.

    Batch semantics are cumulative — member ``k``'s forget set includes
    every earlier member's vehicle — so once member ``j`` fails to
    erase, the counterfactual models computed for members ``k > j`` no
    longer describe a reachable service state.  Their replay work is
    still salvaged into the forest; resubmitting is cheap.
    """


@dataclass
class FusedBatchReport:
    """Per-request results of one :meth:`~UnlearningService.handle_erasure_batch_fused` call.

    ``outcomes[k]`` and ``errors[k]`` align with the submitted
    ``client_ids``; exactly one of the two is set per slot.  ``stats``
    is the fused executor's work accounting
    (:class:`~repro.unlearning.engine.FusedReplayStats`).
    """

    outcomes: List[Optional[ErasureOutcome]]
    errors: List[Optional[BaseException]]
    stats: object = None


@dataclass
class UnlearningService:
    """Server-side unlearning operations over one training record.

    Parameters
    ----------
    record:
        The RSU's stored history (typically sign-store backed).
    model:
        Scratch model of the trained architecture.
    clip_threshold, buffer_size, refresh_period:
        Recovery hyperparameters (Eq. 7 ``L``, ``s``, refresh).
    cache_max_entries:
        LRU capacity of the service's replay prefix cache.
    prefetch_depth:
        Replay data-path look-ahead (:mod:`repro.storage.prefetch`)
        applied to every replay this service runs; ``0`` (the default)
        is the synchronous path.  Recovered parameters are
        byte-identical at every depth.
    decode_cache_bytes:
        Byte budget of the service's shared per-round decode cache, so
        successive/concurrent requests over the same record resolve
        each round's decode once.  Only allocated once a prefetching
        replay actually runs.
    merge_mode:
        How a *live* erasure folds its counterfactual into rounds
        trained past its snapshot watermark: ``"replay"`` (exact
        tail-delta replay, default), ``"project"`` (FedOSD
        conflict-projected merge) or ``"npg"`` (negated pseudo-gradient
        correction) — see :mod:`repro.unlearning.merge`.  Ignored on
        the stop-the-world path.
    max_commit_retries:
        Commit races a live erasure tolerates (each retry is
        forest-hot) before giving up.
    live_session:
        Optional :class:`~repro.fl.live.LiveTrainingSession` switching
        the service to the snapshot-isolated live path — use
        :meth:`bind_live`.
    """

    record: TrainingRecord
    model: Sequential
    clip_threshold: float = 1.0
    buffer_size: int = 2
    refresh_period: int = 21
    cache_max_entries: int = 8
    prefetch_depth: int = 0
    decode_cache_bytes: int = 64 * 1024 * 1024
    merge_mode: str = "replay"
    max_commit_retries: int = 8
    live_session: Optional["LiveTrainingSession"] = field(
        default=None, repr=False, compare=False
    )
    _erased: List[int] = field(default_factory=list)
    _prefix_cache: Optional[ReplayForest] = field(default=None, repr=False)
    _decode_cache: Optional[RoundDecodeCache] = field(
        default=None, repr=False, compare=False
    )
    _prefetch_executor: Optional[ThreadPoolExecutor] = field(
        default=None, repr=False, compare=False
    )
    _lock: threading.RLock = field(
        default_factory=threading.RLock, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if self.prefetch_depth < 0:
            raise ValueError("prefetch_depth must be >= 0")
        if self._prefix_cache is None:
            self._prefix_cache = ReplayForest(
                max_entries=self.cache_max_entries
            )
        if self.merge_mode not in MERGE_MODES:
            raise ValueError(
                f"unknown merge_mode {self.merge_mode!r}; choose from "
                f"{MERGE_MODES}"
            )
        # Guards the lazy prefetch-resource build (live replays run
        # outside the service lock, so two can race into first use) and
        # counts the replays in flight for drain_prefetch.
        self._replay_cond = threading.Condition(threading.Lock())
        self._replays = 0

    def bind_live(self, session: "LiveTrainingSession") -> "UnlearningService":
        """Attach a :class:`~repro.fl.live.LiveTrainingSession`.

        Switches every erasure workflow to the snapshot-isolated live
        path: replays pin a :meth:`~repro.fl.live.LiveTrainingSession.pin_snapshot`
        and run lock-free; commits merge into the live model under the
        train gate (see :meth:`_erase_group`).  ``record`` is repointed
        at the session's live view so bookkeeping (active clients,
        storage bytes) tracks training.  Returns self for chaining.
        """
        self.live_session = session
        self.record = session.live_record
        return self

    @property
    def lock(self) -> threading.RLock:
        """The service-level lock serializing erasures and snapshots.

        Every mutating workflow (:meth:`handle_erasure_request`,
        :meth:`handle_erasure_batch`, :meth:`scan_and_purge_attackers`)
        and :meth:`persist` take it, so a checkpoint written while
        requests are in flight always captures a committed state —
        never a record whose store is mid-purge.  Reentrant, so batch
        workflows can nest single erasures.
        """
        return self._lock

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    @property
    def prefix_cache(self) -> ReplayForest:
        """The replay prefix cache shared by this service's requests."""
        return self._prefix_cache

    @property
    def decode_cache(self) -> Optional[RoundDecodeCache]:
        """The shared round decode cache (``None`` until a prefetching
        replay has run — it is allocated lazily)."""
        return self._decode_cache

    def drain_prefetch(self, blocking: bool = True) -> bool:
        """Tear down the shared prefetch resources (decode thread pool
        and round cache).  Safe to call with no replay in flight — the
        daemon calls this from :meth:`~repro.serving.daemon.ErasureDaemon.stop`
        after its workers have drained.  The next replay lazily rebuilds
        both, so the service stays usable afterwards.

        A replay in flight — under the service lock or, live, lock-free —
        holds the prefetch resources: ``blocking=True`` waits for it,
        ``blocking=False`` raises :class:`ServiceBusyError` (carrying a
        suggested ``retry_after``) — a timed-out daemon ``stop`` must
        not hang behind an in-flight request, but the caller deserves to
        know the drain did not happen."""
        busy = ServiceBusyError(
            "a replay is in flight; prefetch drain skipped", retry_after=0.05
        )
        if not self._lock.acquire(blocking=blocking):
            raise busy
        try:
            with self._replay_cond:
                if self._replays and not blocking:
                    raise busy
                self._replay_cond.wait_for(lambda: not self._replays)
                if self._prefetch_executor is not None:
                    self._prefetch_executor.shutdown()
                    self._prefetch_executor = None
                if self._decode_cache is not None:
                    self._decode_cache.clear()
                    self._decode_cache = None
            return True
        finally:
            self._lock.release()

    def _replay(
        self,
        view: TrainingRecord,
        forget_sets: Sequence[frozenset],
        checks: Sequence[Optional[Callable[[], None]]],
    ):
        """The service's one replay call: every forget set through one
        :func:`~repro.unlearning.engine.fused_unlearn` execution over
        ``view``.  Counted in flight, so :meth:`drain_prefetch` never
        tears the decode pool down under a replay — live replays hold
        no service lock."""
        depth = self.prefetch_depth
        with self._replay_cond:
            self._replays += 1
            if depth > 0:
                # Built lazily on first use and shared by every replay.
                if self._decode_cache is None:
                    self._decode_cache = RoundDecodeCache(
                        max_bytes=self.decode_cache_bytes
                    )
                if self._prefetch_executor is None:
                    # Readahead-queue sizing: several in-flight rounds
                    # may block on storage concurrently (cold blocks,
                    # remote tiers).
                    self._prefetch_executor = ThreadPoolExecutor(min(depth, 4))
        try:
            unlearner = SignRecoveryUnlearner(
                clip_threshold=self.clip_threshold,
                buffer_size=self.buffer_size,
                refresh_period=self.refresh_period,
                prefix_cache=self._prefix_cache,
                prefetch_depth=depth,
                decode_cache=self._decode_cache if depth > 0 else None,
                prefetch_executor=self._prefetch_executor if depth > 0 else None,
            )
            return fused_unlearn(unlearner, view, forget_sets, checks)
        finally:
            with self._replay_cond:
                self._replays -= 1
                self._replay_cond.notify_all()

    def _pin(self) -> TrainingRecord:
        """The view a replay reads: a pinned snapshot of the live
        session, or the record itself, whose watermark is its last
        round.  Pair with :meth:`_unpin`."""
        session = self.live_session
        if session is None:
            return self.record
        snap = session.pin_snapshot()
        telemetry = current_telemetry()
        if telemetry.enabled:
            telemetry.inc("service_snapshot_pins_total")
            telemetry.set_gauge(
                "service_snapshot_active", session.registry.active_pins()
            )
            telemetry.set_gauge("service_snapshot_watermark", snap.watermark)
        return snap

    def _unpin(self, view: TrainingRecord) -> None:
        if view is self.record:
            return
        view.release()
        telemetry = current_telemetry()
        if telemetry.enabled:
            telemetry.set_gauge(
                "service_snapshot_active", self.live_session.registry.active_pins()
            )

    def _plan(
        self, members: List[List[int]], view: TrainingRecord
    ) -> Tuple[List[Optional[BaseException]], List[int], List[frozenset]]:
        """Validate each member against the erased set and ``view``'s
        ledger; returns the per-slot errors, the valid slots, and their
        cumulative forget sets (erased set plus every valid member up to
        and including this one)."""
        known = set(view.ledger.known_clients())
        erased = set(self._erased)
        taken = set(erased)
        errors: List[Optional[BaseException]] = [None] * len(members)
        slots: List[int] = []
        sets: List[frozenset] = []
        for k, ids in enumerate(members):
            mine = set(ids)
            if mine & erased:
                errors[k] = ValueError(f"clients {sorted(mine & erased)} were already erased")
            elif mine & taken:
                errors[k] = ValueError(f"duplicate clients in batch: {sorted(mine & taken)}")
            elif mine - known:
                errors[k] = ValueError(f"unknown clients {sorted(mine - known)}")
            else:
                taken |= mine
                slots.append(k)
                sets.append(frozenset(taken))
        return errors, slots, sets

    @staticmethod
    def _cut(
        members: List[List[int]],
        slots: List[int],
        failures: Sequence[Optional[BaseException]],
        errors: List[Optional[BaseException]],
    ) -> int:
        """Record the first failure among ``slots`` and fail every later
        slot with :class:`DependentAbortError`; returns how many slots
        precede the failure (all of them when none failed)."""
        for j, error in enumerate(failures):
            if error is not None:
                errors[slots[j]] = error
                for k in slots[j + 1:]:
                    errors[k] = DependentAbortError(
                        f"request for clients {members[k]} depended on aborted "
                        f"request for clients {members[slots[j]]}"
                    )
                return j
        return len(failures)

    def _purge(self, members: List[List[int]], num_rounds: int) -> List[int]:
        """Delete the committed members' stored updates; returns each
        member's purged record count.  Live, reclamation is deferred
        behind the snapshot registry, so a still-pinned reader never
        loses rounds below its watermark mid-replay."""
        store = self.record.gradients
        cache = self._decode_cache

        def drop(cid: int) -> int:
            dropped = store.drop_client(cid)
            if cache is not None:
                # Keep the shared decode cache coherent with the purge.
                cache.discard_client(store, cid)
            return dropped

        session = self.live_session
        if session is None:
            return [sum(drop(cid) for cid in ids) for ids in members]
        counts = [
            sum(1 for t in range(num_rounds) for cid in ids if store.has(t, cid))
            for ids in members
        ]
        cids = [cid for ids in members for cid in ids]
        if not session.registry.defer(lambda: [drop(cid) for cid in cids]):
            telemetry = current_telemetry()
            if telemetry.enabled:
                telemetry.inc("service_snapshot_deferred_drops_total", len(cids))
        return counts

    def _erase_group(
        self,
        members: Sequence[Sequence[int]],
        checks: Sequence[Optional[Callable[[], None]]],
        mode: str,
    ) -> FusedBatchReport:
        """The one erasure pipeline: plan → replay → commit.

        ``members[k]`` is one request's client ids and ``checks[k]`` its
        cooperative cancel hook.  Member ``k``'s forget set is
        cumulative: its ids, every valid earlier member's, and the
        already-erased set.

        1. **Plan** (service lock): pin a view, validate every member
           (an already-erased, duplicate or unknown id fails that slot
           with ``ValueError``), build the cumulative forget sets.
        2. **Replay**: one :meth:`_replay` over the view.  Live, this
           runs lock-free while training keeps committing rounds past
           the pinned watermark ``W``; stop-the-world it runs under the
           service lock, which is held across all three stages.
        3. **Commit** (service lock + train gate): if the erased set
           changed since the plan, start over (up to
           ``max_commit_retries``, forest-hot).  When rounds were trained
           past ``W``, fold them in per ``merge_mode``: ``"replay"``
           re-runs the members over a fresh pin at the commit round
           ``T'`` — the forest serves ``[F, W)``, only ``[W, T')``
           executes under the gate, byte-identical to stopping the world
           at ``T'`` — while ``"project"`` (FedOSD) and ``"npg"`` merge
           each member with its own cumulative new ids.  Members commit
           in order up to the first failure; later ones get
           :class:`DependentAbortError`.  Then purge, bookkeeping and,
           live, install the deepest member's model and exclude every
           committed vehicle from future rounds.
        """
        session = self.live_session
        members = [sorted(set(int(c) for c in ids)) for ids in members]
        n = len(members)
        conflicts = 0
        with self._lock if session is None else nullcontext():
            while True:
                # ---- plan ------------------------------------------
                with self._lock:
                    base = list(self._erased)
                    view = self._pin()
                    errors, slots, sets = self._plan(members, view)
                report = FusedBatchReport(outcomes=[None] * n, errors=errors)
                if not slots:
                    self._unpin(view)
                    return report
                # ---- replay ----------------------------------------
                slot_checks = [checks[k] for k in slots]
                try:
                    branches, report.stats = self._replay(view, sets, slot_checks)
                finally:
                    self._unpin(view)
                good = self._cut(members, slots, [b.error for b in branches], errors)
                if not good:
                    return report
                slots, sets, slot_checks = slots[:good], sets[:good], slot_checks[:good]
                # ---- commit ----------------------------------------
                with self._lock:
                    telemetry = current_telemetry()
                    if self._erased != base:
                        conflicts += 1
                        if telemetry.enabled:
                            telemetry.inc("service_snapshot_conflicts_total")
                        if conflicts > self.max_commit_retries:
                            raise RuntimeError(
                                f"erasure of {members} lost {conflicts} commit "
                                "races; giving up"
                            )
                        continue  # forest-hot retry from the plan stage
                    # Live: the train gate yields the commit round T'.
                    # Stop-the-world the commit round is the last round.
                    merge, gate = (
                        (nullcontext(), nullcontext(self.record.num_rounds))
                        if session is None
                        else (telemetry.span("service_merge_seconds"),
                              session.commit_gate())
                    )
                    with merge, gate as commit_round:
                        folded, merged, mode_used = self._fold_tail(
                            view, commit_round, sets, slot_checks,
                            branches[:good], set(base),
                        )
                        good = self._cut(members, slots, [b.error for b in folded], errors)
                        committed = slots[:good]
                        if session is not None and committed:
                            session.install_params(merged[good - 1])
                            session.exclude([c for k in committed for c in members[k]])
                    if not committed:
                        return report
                    purged = self._purge([members[k] for k in committed], commit_round)
                    self._erased.extend(c for k in committed for c in members[k])
                    self._prefix_cache.retire(self.record, self._erased)
                    self.record.metadata["erased_clients"] = sorted(self._erased)
                    if session is not None:
                        self.record.metadata.setdefault("merge_commits", []).extend(
                            {
                                "clients": list(members[k]),
                                "watermark": int(view.num_rounds),
                                "commit_round": int(commit_round),
                                "mode": mode_used,
                                "conflicts": int(conflicts),
                            }
                            for k in committed
                        )
                break
        live = session is not None
        watermark = view.num_rounds
        for j, k in enumerate(committed):
            report.outcomes[k] = ErasureOutcome(
                forgotten=members[k],
                params=merged[j],
                result=folded[j].result,
                purged_records=purged[j],
                cached_prefix_rounds=branches[j].cached_prefix_rounds,
                snapshot_watermark=watermark if live else None,
                commit_round=commit_round if live else None,
                merge_mode=mode_used if live else None,
                commit_conflicts=conflicts,
            )
            if telemetry.enabled:
                telemetry.inc("service_erasure_requests_total", 1, mode=mode)
                if live:
                    telemetry.inc("service_merge_commits_total", 1, mode=mode_used)
                    telemetry.observe(
                        "service_merge_tail_rounds", float(commit_round - watermark)
                    )
        _log.info(
            "erased %s (%s): %d/%d requests committed at round %d, purged %s "
            "records, %d commit conflicts",
            [members[k] for k in committed], mode, len(committed), n,
            commit_round, purged, conflicts,
        )
        return report

    def _fold_tail(
        self,
        view: TrainingRecord,
        commit_round: int,
        sets: List[frozenset],
        checks: List[Optional[Callable[[], None]]],
        branches: list,
        erased: set,
    ):
        """Fold the rounds trained past ``view``'s watermark ``W`` into
        each member's phase-1 branch, per ``merge_mode``; train gate
        held.  Returns ``(branches, params, mode)`` — in ``"replay"``
        mode the tail replay's branches, whose errors cut the commit."""
        watermark = view.num_rounds
        if commit_round == watermark:
            # Nothing trained past the watermark: the counterfactual
            # *is* the merge.
            return branches, [b.result.params for b in branches], "replay"
        fresh = self.live_session.pin_snapshot()
        try:
            if self.merge_mode == "replay":
                # Exact: [F, W) is served from the phase-1 nodes, only
                # [W, T') executes here.
                tail, _ = self._replay(fresh, sets, checks)
                params = [b.result.params if b.error is None else None for b in tail]
                return tail, params, "replay"
            base, live = view.params_at_watermark, fresh.final_params()
            merged = []
            for branch, forget in zip(branches, sets):
                if self.merge_mode == "project":
                    merged.append(
                        conflict_projected_merge(base, branch.result.params, live)
                    )
                else:  # "npg": each member's own cumulative new ids
                    merged.append(
                        branch.result.params
                        + (live - base)
                        + negated_pseudo_gradient_tail(
                            fresh, forget - erased, watermark, commit_round
                        )
                    )
            return branches, merged, self.merge_mode
        finally:
            fresh.release()

    def _erase_one(
        self,
        client_ids: Sequence[int],
        cancel_check: Optional[Callable[[], None]],
        mode: str = "single",
    ) -> ErasureOutcome:
        """One request as a one-member group; raises its slot's error."""
        report = self._erase_group([client_ids], [cancel_check], mode)
        if report.errors[0] is not None:
            raise report.errors[0]
        return report.outcomes[0]

    # ------------------------------------------------------------------
    # the three §IV-A workflows
    # ------------------------------------------------------------------
    def handle_erasure_request(
        self,
        client_id: int,
        cancel_check: Optional[Callable[[], None]] = None,
    ) -> ErasureOutcome:
        """Scenario 1: a vehicle invokes its right to be forgotten.

        ``cancel_check`` (optional) is called between replay rounds; it
        may raise to abort cooperatively — see
        :class:`~repro.unlearning.recovery.SignRecoveryUnlearner`.
        """
        return self._erase_one([client_id], cancel_check)

    def handle_erasure_batch(
        self,
        client_ids: Sequence[int],
        cancel_check: Optional[Callable[[], None]] = None,
    ) -> List[ErasureOutcome]:
        """Serve N queued right-to-be-forgotten requests as one batch.

        Requests are validated together upfront (duplicates, unknown
        vehicles — nothing is erased if any request is malformed), then
        served in arrival order, each as its own erasure against the
        shared prefix cache: request ``k``'s forget set extends request
        ``k−1``'s by one vehicle, so its replay resumes where the
        trajectories diverge.  Each outcome is **byte-identical** to
        serving its request alone on a fresh service; only the work is
        amortized, as ``cached_prefix_rounds`` reports.  Against a live
        session training keeps running: each request commits its own
        tail under the train gate, like a single live erasure.

        ``cancel_check`` (optional) aborts cooperatively between replay
        rounds; already-completed requests stay erased.  Ids the service
        has already erased are skipped (no outcome), so resubmitting an
        aborted batch verbatim completes its unserved suffix; a fully
        served resubmission returns one no-op outcome carrying the
        current counterfactual parameters (``forgotten == []``).
        """
        ids = [int(c) for c in client_ids]
        if not ids:
            return []
        # Hold the lock across validation and every request, so the
        # upfront validation stays true for the whole batch.
        with self._lock:
            erased = set(self._erased)
            fresh = [c for c in ids if c not in erased]
            if len(fresh) < len(ids):
                _log.info(
                    "batch erasure: skipping already-erased clients %s "
                    "(idempotent resubmission)", sorted(set(ids) & erased),
                )
            view = self._pin()
            try:
                if fresh:
                    errors, _, _ = self._plan([[c] for c in fresh], view)
                    error = next((e for e in errors if e is not None), None)
                    if error is not None:
                        raise error
                else:
                    # The whole batch was already served (a retry of a
                    # completed batch whose response was lost): answer
                    # with the current counterfactual state — a
                    # cache-hot replay of the standing forget set,
                    # nothing new erased.
                    (branch,), _ = self._replay(
                        view, [frozenset(erased)], [cancel_check]
                    )
            finally:
                self._unpin(view)
            if fresh:
                return [self._erase_one([cid], cancel_check, "batch") for cid in fresh]
            if branch.error is not None:
                raise branch.error
            return [
                ErasureOutcome(
                    forgotten=[],
                    params=branch.result.params,
                    result=branch.result,
                    purged_records=0,
                    cached_prefix_rounds=branch.cached_prefix_rounds,
                )
            ]

    def handle_erasure_batch_fused(
        self,
        client_ids: Sequence[int],
        cancel_checks: Optional[Sequence[Optional[Callable[[], None]]]] = None,
    ) -> FusedBatchReport:
        """Serve N queued erasure requests as **one fused forest replay**.

        Like :meth:`handle_erasure_batch`, request ``k``'s forget set is
        cumulative and every result is byte-identical to serving that
        request alone — but all requests replay through one shared
        execution tree (:func:`repro.unlearning.engine.fused_unlearn`):
        common prefix segments execute once and branches fork only at
        divergence.  Live, the tree replays lock-free and the commit
        folds in the rounds trained meanwhile.

        Slots are never silently dropped (this is the daemon's fusion
        substrate): ``outcomes[k]`` carries the committed erasure, or
        ``errors[k]`` a ``ValueError`` (already erased / unknown /
        duplicate), the member's own cancellation (nothing committed,
        prefix salvaged), or a :class:`DependentAbortError` when an
        earlier member aborted — members before it stay committed.
        ``cancel_checks`` (optional, aligned with ``client_ids``) are
        polled between the rounds each member's branch executes.
        """
        ids = [int(c) for c in client_ids]
        checks: List[Optional[Callable[[], None]]] = (
            list(cancel_checks) if cancel_checks is not None else [None] * len(ids)
        )
        if len(checks) != len(ids):
            raise ValueError("cancel_checks must align with client_ids")
        return self._erase_group([[cid] for cid in ids], checks, "fused")

    def handle_departed_vehicle(
        self,
        client_id: int,
        cancel_check: Optional[Callable[[], None]] = None,
    ) -> ErasureOutcome:
        """Scenario 2: erase a vehicle that dropped out of / left FL.

        Works whether or not the ledger shows a leave — a vehicle that
        silently dropped out for good looks identical to the server.
        """
        return self._erase_one([client_id], cancel_check)

    def scan_and_purge_attackers(
        self, z_threshold: float = 1.5
    ) -> Optional[ErasureOutcome]:
        """Scenario 3: detect poisoners from the stored history and
        erase them.  Returns ``None`` when nothing is flagged."""
        with self.live_session.gate if self.live_session is not None else nullcontext():
            report = detect_malicious_clients(self.record, z_threshold=z_threshold)
        if not report.flagged:
            _log.info("attacker scan: nothing flagged")
            return None
        candidates = [c for c in report.flagged if c not in self._erased]
        if not candidates:
            return None
        outcome = self._erase_one(candidates, None)
        outcome.detection = report
        return outcome

    # ------------------------------------------------------------------
    # bookkeeping
    # ------------------------------------------------------------------
    @property
    def erased_clients(self) -> List[int]:
        """Clients erased so far (sorted)."""
        return sorted(self._erased)

    def active_clients(self) -> List[int]:
        """Known clients not yet erased."""
        erased = set(self._erased)
        return [c for c in self.record.ledger.known_clients() if c not in erased]

    def storage_bytes(self) -> Dict[str, int]:
        """Current server storage footprint."""
        return self.record.storage_bytes()

    def persist(self, directory: str, drain_timeout: float = 30.0) -> None:
        """Checkpoint the (possibly already-purged) record to disk.

        Snapshots under the service lock: a checkpoint taken while
        erasure requests are in flight waits for the current request to
        commit, so the written record (and its manifest) is always a
        consistent post-erasure state — never a store mid-purge.

        Against a live session the snapshot registry is drained first —
        the written record must not contain payloads a committed
        erasure already logically deleted — and the train gate is held
        for the write.  Raises :class:`ServiceBusyError` when pinned
        readers do not drain within ``drain_timeout`` seconds.
        """
        session = self.live_session
        if session is None:
            with self._lock:
                save_record(self.record, directory)
            return
        # Best-effort flush outside the locks (never wait for pinned
        # readers while holding the lock their commit needs).
        session.registry.drain(timeout=drain_timeout)
        with self._lock:
            with session.commit_gate():
                # No new pin can be taken while the gate is held, and
                # in-flight phase-1 readers release without the lock —
                # this drain terminates or times out cleanly.
                if not session.registry.drain(timeout=drain_timeout):
                    raise ServiceBusyError(
                        "snapshot readers still active; retry persist",
                        retry_after=1.0,
                    )
                save_record(self.record, directory)

    @classmethod
    def restore(
        cls,
        directory: str,
        model: Sequential,
        clip_threshold: float = 1.0,
        buffer_size: int = 2,
        refresh_period: int = 21,
        prefetch_depth: int = 0,
    ) -> "UnlearningService":
        """Resume a service from a persisted record."""
        record = load_record(directory)
        service = cls(
            record=record,
            model=model,
            clip_threshold=clip_threshold,
            buffer_size=buffer_size,
            refresh_period=refresh_period,
            prefetch_depth=prefetch_depth,
        )
        service._erased = [int(c) for c in record.metadata.get("erased_clients", [])]
        return service
