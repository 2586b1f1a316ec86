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
:class:`~repro.unlearning.recovery.ReplayForest`, so successive
requests reuse the replay prefix their forget sets share — each
request's forget set is a superset of the previous one's (erased
clients stay excluded), which is exactly the cache's reuse condition,
and what lets every commit retire the snapshots no later request can
resume from (:meth:`~repro.unlearning.recovery.ReplayForest.retire`).
:meth:`handle_erasure_batch` serves N queued requests in one call:
all-upfront validation, then one merged replay plan in which request
``k`` replays only the rounds its own vehicle's history actually
perturbs.  Outcomes report the amortization
(``ErasureOutcome.cached_prefix_rounds``) and every request feeds
``service_erasure_requests_total`` (labelled single/batch) — the
recovered parameters are byte-identical to serving each request cold.
"""

from __future__ import annotations

import threading
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Sequence

import numpy as np

from repro.defenses import DetectionReport, detect_malicious_clients
from repro.fl.history import TrainingRecord
from repro.fl.persistence import load_record, save_record
from repro.nn.model import Sequential
from repro.parallel.executor import Executor, make_executor
from repro.storage.prefetch import RoundDecodeCache, default_prefetch_depth
from repro.telemetry.core import current_telemetry
from repro.unlearning.base import UnlearnResult, resolve_forget_round
from repro.unlearning.merge import (
    conflict_projected_merge,
    negated_pseudo_gradient_tail,
)
from repro.unlearning.recovery import ReplayForest, SignRecoveryUnlearner
from repro.utils.logging import get_logger

if TYPE_CHECKING:  # pragma: no cover - typing only (avoids an fl<->unlearning cycle)
    from repro.fl.live import LiveTrainingSession, RecordSnapshot

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
    (:class:`~repro.unlearning.forest.FusedReplayStats`).
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
        applied to every replay this service runs.  ``None`` (default)
        defers to :func:`repro.storage.prefetch.default_prefetch_depth`;
        ``0`` forces the synchronous path.  Recovered parameters are
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
    prefetch_depth: Optional[int] = None
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
    _prefetch_executor: Optional[Executor] = field(
        default=None, repr=False, compare=False
    )
    _lock: threading.RLock = field(
        default_factory=threading.RLock, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if self._prefix_cache is None:
            self._prefix_cache = ReplayForest(
                max_entries=self.cache_max_entries
            )
        if self.merge_mode not in MERGE_MODES:
            raise ValueError(
                f"unknown merge_mode {self.merge_mode!r}; choose from "
                f"{MERGE_MODES}"
            )
        # Guards the lazy prefetch-resource build: live-path replays run
        # outside the service lock, so two can race into first use.
        self._config_lock = threading.Lock()

    def bind_live(self, session: "LiveTrainingSession") -> "UnlearningService":
        """Attach a :class:`~repro.fl.live.LiveTrainingSession`.

        Switches every erasure workflow to the snapshot-isolated live
        path: replays pin a :meth:`~repro.fl.live.LiveTrainingSession.pin_snapshot`
        and run lock-free; commits merge into the live model under the
        train gate (see :meth:`_erase_live`).  ``record`` is repointed
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

    def _effective_prefetch_depth(self) -> int:
        if self.prefetch_depth is not None:
            return self.prefetch_depth
        return default_prefetch_depth()

    def _prefetch_config(self):
        """Resolve (depth, cache, executor) for one replay, lazily
        building the shared cache and decode thread pool on first use."""
        depth = self._effective_prefetch_depth()
        if depth <= 0:
            return 0, None, None
        with self._config_lock:
            if self._decode_cache is None:
                self._decode_cache = RoundDecodeCache(
                    max_bytes=self.decode_cache_bytes
                )
            if self._prefetch_executor is None:
                # Readahead-queue sizing: several in-flight rounds may
                # block on storage concurrently (cold blocks, remote
                # tiers).
                self._prefetch_executor = make_executor("thread", min(depth, 4))
            return depth, self._decode_cache, self._prefetch_executor

    def drain_prefetch(self, blocking: bool = True) -> bool:
        """Tear down the shared prefetch resources (decode thread pool
        and round cache).  Safe to call with no replay in flight — the
        daemon calls this from :meth:`~repro.serving.daemon.ErasureDaemon.stop`
        after its workers have drained.  The next replay lazily rebuilds
        both, so the service stays usable afterwards.

        With ``blocking=False``, a replay currently holding the service
        lock raises :class:`ServiceBusyError` (carrying a suggested
        ``retry_after``) — a timed-out daemon ``stop`` must not hang
        behind an in-flight request, but the caller deserves to know the
        drain did not happen."""
        if not self._lock.acquire(blocking=blocking):
            raise ServiceBusyError(
                "a replay holds the service lock; prefetch drain skipped",
                retry_after=0.05,
            )
        try:
            if self._prefetch_executor is not None:
                self._prefetch_executor.close()
                self._prefetch_executor = None
            if self._decode_cache is not None:
                self._decode_cache.clear()
                self._decode_cache = None
            return True
        finally:
            self._lock.release()

    def _unlearner(
        self, cancel_check: Optional[Callable[[], None]] = None
    ) -> SignRecoveryUnlearner:
        depth, cache, executor = self._prefetch_config()
        return SignRecoveryUnlearner(
            clip_threshold=self.clip_threshold,
            buffer_size=self.buffer_size,
            refresh_period=self.refresh_period,
            prefix_cache=self._prefix_cache,
            cancel_check=cancel_check,
            prefetch_depth=depth,
            decode_cache=cache,
            prefetch_executor=executor,
        )

    def _erase(
        self,
        client_ids: Sequence[int],
        mode: str = "single",
        cancel_check: Optional[Callable[[], None]] = None,
    ) -> ErasureOutcome:
        if self.live_session is not None:
            return self._erase_live(client_ids, mode=mode, cancel_check=cancel_check)
        with self._lock:
            client_ids = sorted(set(int(c) for c in client_ids))
            already = set(self._erased) & set(client_ids)
            if already:
                raise ValueError(f"clients {sorted(already)} were already erased")
            # Previously erased clients stay in the forget set: their
            # gradients are purged, and the counterfactual model must keep
            # excluding them.
            forget = sorted(set(client_ids) | set(self._erased))
            unlearner = self._unlearner(cancel_check)
            # An abort here (deadline, cancellation) propagates before any
            # state below mutates: nothing is purged, nobody is marked
            # erased, and the partial replay lives on in the prefix cache.
            result = unlearner.unlearn(self.record, forget, self.model)
            purged = sum(self.record.gradients.drop_client(cid) for cid in client_ids)
            if self._decode_cache is not None:
                # Keep the shared decode cache coherent with the purge.
                # (Belt and braces: erased clients stay in every later
                # forget set, so a stale entry could never be consumed
                # on this path anyway.)
                for cid in client_ids:
                    self._decode_cache.discard_client(self.record.gradients, cid)
            self._erased.extend(client_ids)
            self._prefix_cache.retire(self.record, self._erased)
            self.record.metadata["erased_clients"] = sorted(self._erased)
        telemetry = current_telemetry()
        if telemetry.enabled:
            telemetry.inc("service_erasure_requests_total", 1, mode=mode)
        _log.info(
            "erased clients %s: replayed %d rounds (%d from cache), "
            "purged %d stored records",
            client_ids,
            result.rounds_replayed,
            unlearner.last_cached_prefix_rounds,
            purged,
        )
        return ErasureOutcome(
            forgotten=client_ids,
            params=result.params,
            result=result,
            purged_records=purged,
            cached_prefix_rounds=unlearner.last_cached_prefix_rounds,
        )

    def _count_stored(self, client_ids: Sequence[int], num_rounds: int) -> int:
        """Stored gradient records the given clients hold in rounds
        ``[0, num_rounds)`` — the count a purge will delete."""
        store = self.record.gradients
        return sum(
            1
            for t in range(num_rounds)
            for cid in client_ids
            if store.has(t, cid)
        )

    def _erase_live(
        self,
        client_ids: Sequence[int],
        mode: str = "single",
        cancel_check: Optional[Callable[[], None]] = None,
    ) -> ErasureOutcome:
        """Snapshot-isolated erasure against a live training session.

        Two-phase optimistic scheme:

        **Phase 1 (lock-free)** — validate and pin a
        :class:`~repro.fl.live.RecordSnapshot` under a short service
        lock, then replay the counterfactual against the pinned view
        with *no* lock held: training rounds keep committing past the
        watermark ``W`` while the replay runs, and the replay forest
        caches the resulting ``[F, W)`` trajectory.

        **Phase 2 (commit)** — under the service lock and the session's
        train gate, detect conflicts (a concurrent erasure changed the
        forget set: retry phase 1, forest-hot), then fold the
        counterfactual into the rounds trained past ``W`` per
        ``merge_mode``:

        - ``"replay"`` (exact, default): re-run the unlearner over the
          live record at the commit round ``T'`` — the forest serves
          the cached prefix, so only the ``[W, T')`` tail executes
          under the gate.  Byte-identical to stopping the world at
          ``T'``.
        - ``"project"``: FedOSD conflict-projected task-vector merge.
        - ``"npg"``: negated pseudo-gradient tail correction.

        The merged model is installed as the live global model (and the
        checkpoint at ``T'``), the erased clients are excluded from all
        future rounds, and their stored gradients are purged — deferred
        through the snapshot registry until the last pinned reader
        drains.
        """
        session = self.live_session
        assert session is not None
        telemetry = current_telemetry()
        conflicts = 0
        while True:
            # ---- phase 1: validate + pin (short lock) ----------------
            with self._lock:
                ids = sorted(set(int(c) for c in client_ids))
                already = set(self._erased) & set(ids)
                if already:
                    raise ValueError(
                        f"clients {sorted(already)} were already erased"
                    )
                snap = session.pin_snapshot()
                base_erased = tuple(sorted(self._erased))
                forget = sorted(set(ids) | set(base_erased))
            if telemetry.enabled:
                telemetry.inc("service_snapshot_pins_total")
                telemetry.set_gauge(
                    "service_snapshot_active", session.registry.active_pins()
                )
                telemetry.set_gauge("service_snapshot_watermark", snap.watermark)
            try:
                # Lock-free replay over the pinned view; an abort
                # (deadline, cancellation) propagates before anything
                # mutates, and the partial trajectory stays in the
                # forest.
                unlearner = self._unlearner(cancel_check)
                phase1 = unlearner.unlearn(snap, forget, self.model)
                watermark = snap.watermark
                base_params = snap.params_at_watermark
            finally:
                snap.release()
                if telemetry.enabled:
                    telemetry.set_gauge(
                        "service_snapshot_active", session.registry.active_pins()
                    )
            # ---- phase 2: conflict check + merge commit --------------
            with self._lock:
                if tuple(sorted(self._erased)) != base_erased:
                    conflicts += 1
                    if telemetry.enabled:
                        telemetry.inc("service_snapshot_conflicts_total")
                    if conflicts > self.max_commit_retries:
                        raise RuntimeError(
                            f"erasure of {ids} lost {conflicts} commit races; "
                            f"giving up"
                        )
                    _log.info(
                        "live erasure of %s: forget set changed during replay, "
                        "retrying (attempt %d)", ids, conflicts + 1,
                    )
                    continue
                with telemetry.span("service_merge_seconds"):
                    with session.commit_gate() as commit_round:
                        fresh = session.pin_snapshot()
                        try:
                            tail_rounds = commit_round - watermark
                            if tail_rounds == 0:
                                # Nothing trained past the watermark:
                                # the counterfactual *is* the merge.
                                final, merged = phase1, phase1.params
                                mode_used = "replay"
                            elif self.merge_mode == "replay":
                                # Exact: tail-delta replay through the
                                # forest — [F, W) is served from the
                                # phase-1 node, only [W, T') executes
                                # here under the gate.
                                tail = self._unlearner(cancel_check)
                                final = tail.unlearn(fresh, forget, self.model)
                                merged = final.params
                                mode_used = "replay"
                            elif self.merge_mode == "project":
                                merged = conflict_projected_merge(
                                    base_params,
                                    phase1.params,
                                    fresh.final_params(),
                                )
                                final, mode_used = phase1, "project"
                            else:  # "npg"
                                merged = (
                                    phase1.params
                                    + (fresh.final_params() - base_params)
                                    + negated_pseudo_gradient_tail(
                                        fresh, ids, watermark, commit_round
                                    )
                                )
                                final, mode_used = phase1, "npg"
                            session.install_params(merged)
                            session.exclude(ids)
                        finally:
                            fresh.release()
                # Physical reclamation: defer behind the snapshot
                # registry so a still-pinned reader never loses rounds
                # below its watermark mid-replay.
                purged = self._count_stored(ids, commit_round)
                store = self.record.gradients
                decode_cache = self._decode_cache

                def _purge(cids=tuple(ids)):
                    for cid in cids:
                        store.drop_client(cid)
                        if decode_cache is not None:
                            decode_cache.discard_client(store, cid)

                ran_now = session.registry.defer(_purge)
                if not ran_now and telemetry.enabled:
                    telemetry.inc(
                        "service_snapshot_deferred_drops_total", len(ids)
                    )
                self._erased.extend(ids)
                self._prefix_cache.retire(self.record, self._erased)
                self.record.metadata["erased_clients"] = sorted(self._erased)
                self.record.metadata.setdefault("merge_commits", []).append(
                    {
                        "clients": list(ids),
                        "watermark": int(watermark),
                        "commit_round": int(commit_round),
                        "mode": mode_used,
                        "conflicts": int(conflicts),
                    }
                )
            if telemetry.enabled:
                telemetry.inc("service_erasure_requests_total", 1, mode=mode)
                telemetry.inc("service_merge_commits_total", 1, mode=mode_used)
                telemetry.observe(
                    "service_merge_tail_rounds", float(commit_round - watermark)
                )
            _log.info(
                "live-erased clients %s: pinned at round %d, committed at %d "
                "(%s merge, %d tail rounds, %d conflicts), purged %d records%s",
                ids,
                watermark,
                commit_round,
                mode_used,
                commit_round - watermark,
                conflicts,
                purged,
                "" if ran_now else " (deferred)",
            )
            return ErasureOutcome(
                forgotten=ids,
                params=merged,
                result=final,
                purged_records=purged,
                cached_prefix_rounds=unlearner.last_cached_prefix_rounds,
                snapshot_watermark=watermark,
                commit_round=commit_round,
                merge_mode=mode_used,
                commit_conflicts=conflicts,
            )

    def _plan_batch(self, client_ids: Sequence[int]) -> List[int]:
        """Validate a batch upfront and log its merged replay plan.

        Returns the per-request backtrack rounds.  All requests are
        checked before any replay starts, so a malformed batch raises
        without erasing anyone.
        """
        ids = [int(c) for c in client_ids]
        dupes = sorted({c for c in ids if ids.count(c) > 1})
        if dupes:
            raise ValueError(f"duplicate clients in batch: {dupes}")
        already = sorted(set(self._erased) & set(ids))
        if already:
            raise ValueError(f"clients {already} were already erased")
        known = set(self.record.ledger.known_clients())
        unknown = sorted(set(ids) - known)
        if unknown:
            raise ValueError(f"unknown clients in batch: {unknown}")
        forget = set(self._erased)
        plan: List[int] = []
        for cid in ids:
            forget.add(cid)
            plan.append(resolve_forget_round(self.record, sorted(forget)))
        _log.info(
            "batch erasure plan for %s: backtrack rounds %s over %d total rounds",
            ids, plan, self.record.num_rounds,
        )
        return plan

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
        return self._erase([client_id], cancel_check=cancel_check)

    def handle_erasure_batch(
        self,
        client_ids: Sequence[int],
        cancel_check: Optional[Callable[[], None]] = None,
    ) -> List[ErasureOutcome]:
        """Serve N queued right-to-be-forgotten requests as one batch.

        Requests are validated together upfront (duplicates, already
        erased, unknown vehicles — nothing is erased if any request is
        malformed), then served in arrival order against the shared
        prefix cache: request ``k``'s forget set extends request
        ``k−1``'s by one vehicle, so its replay resumes where the
        trajectories diverge — typically that vehicle's join round —
        instead of from the batch's earliest backtrack round.  Each
        outcome is **byte-identical** to serving its request alone on a
        fresh service (``tests/test_service_cache.py``); only the work
        is amortized, as ``cached_prefix_rounds`` reports.

        ``cancel_check`` (optional) aborts cooperatively between replay
        rounds; already-completed requests in the batch stay erased (an
        abort never rolls back committed erasures).

        Batches are **idempotent over already-erased ids**: ids the
        service has already erased are skipped (with no outcome) rather
        than rejected, so resubmitting an aborted batch verbatim
        completes its unserved suffix — a deadline abort after request
        ``k`` commits leaves ``k`` ids erased, and the retry serves only
        the rest.  A fully-served resubmission returns one no-op outcome
        carrying the current counterfactual parameters
        (``forgotten == []``).  Single-request erasure keeps rejecting
        double erasure with ``ValueError``.
        """
        ids = [int(c) for c in client_ids]
        if not ids:
            return []
        # Hold the lock across plan + serve so the upfront validation
        # stays true for the whole batch (no interleaved erasure can
        # invalidate the plan mid-batch).  Against a live session the
        # train gate is held too: batch semantics are cumulative, so the
        # whole batch commits against one frozen record (single live
        # erasures — the latency-sensitive path — stay lock-free).
        gate = (
            self.live_session.gate if self.live_session is not None
            else nullcontext()
        )
        with self._lock, gate:
            erased = set(self._erased)
            fresh = [c for c in ids if c not in erased]
            skipped = sorted(set(ids) & erased)
            if skipped:
                _log.info(
                    "batch erasure: skipping already-erased clients %s "
                    "(idempotent resubmission)", skipped,
                )
            if not fresh:
                # The whole batch was already served (a retry of a
                # completed batch whose response was lost): answer with
                # the current counterfactual state — a cache-hot replay
                # of the standing forget set, nothing new erased.
                unlearner = self._unlearner(cancel_check)
                result = unlearner.unlearn(self.record, sorted(erased), self.model)
                return [
                    ErasureOutcome(
                        forgotten=[],
                        params=result.params,
                        result=result,
                        purged_records=0,
                        cached_prefix_rounds=unlearner.last_cached_prefix_rounds,
                    )
                ]
            self._plan_batch(fresh)
            return [
                self._erase([cid], mode="batch", cancel_check=cancel_check)
                for cid in fresh
            ]

    def handle_erasure_batch_fused(
        self,
        client_ids: Sequence[int],
        cancel_checks: Optional[Sequence[Optional[Callable[[], None]]]] = None,
    ) -> FusedBatchReport:
        """Serve N queued erasure requests as **one fused forest replay**.

        Like :meth:`handle_erasure_batch`, request ``k``'s forget set is
        cumulative (its vehicle plus every valid earlier one plus the
        already-erased set) and every result is byte-identical to
        serving that request alone — but instead of N sequential
        replays against the cache, all requests replay through one
        shared execution tree (:func:`repro.unlearning.forest.fused_unlearn`):
        common prefix segments execute once and branches fork only at
        divergence, so the amortized cost *falls* as the batch grows.

        Per-request semantics (this is the daemon's fusion substrate,
        so slots are never silently dropped): ``outcomes[k]`` carries
        the committed erasure, or ``errors[k]`` carries a ``ValueError``
        (already erased / unknown / duplicate — single-request
        semantics, unlike the skip-and-continue of the serial batch
        path), the member's own cancellation (e.g. a deadline abort:
        nothing committed, prefix salvaged), or a
        :class:`DependentAbortError` when an earlier member aborted —
        committed members before the first abort stay erased, exactly
        like the serial batch path.

        ``cancel_checks`` (optional, aligned with ``client_ids``) are
        the per-request cooperative cancellation hooks, polled between
        replay rounds for every round the member's branch executes.
        """
        ids = [int(c) for c in client_ids]
        n = len(ids)
        checks: List[Optional[Callable[[], None]]] = (
            list(cancel_checks) if cancel_checks is not None else [None] * n
        )
        if len(checks) != n:
            raise ValueError("cancel_checks must align with client_ids")
        report = FusedBatchReport(outcomes=[None] * n, errors=[None] * n)
        if not ids:
            return report
        from repro.unlearning.forest import fused_unlearn

        gate = (
            self.live_session.gate if self.live_session is not None
            else nullcontext()
        )
        with self._lock, gate:
            known = set(self.record.ledger.known_clients())
            seen = set(self._erased)
            cumulative = set(self._erased)
            members: List[int] = []
            member_sets: List[frozenset] = []
            for k, cid in enumerate(ids):
                if cid in seen:
                    report.errors[k] = ValueError(
                        f"clients [{cid}] were already erased"
                    )
                    continue
                if cid not in known:
                    report.errors[k] = ValueError(f"unknown clients in batch: [{cid}]")
                    continue
                seen.add(cid)
                cumulative.add(cid)
                members.append(k)
                member_sets.append(frozenset(cumulative))
            if not members:
                return report
            unlearner = self._unlearner(None)
            branch_outcomes, stats = fused_unlearn(
                unlearner,
                self.record,
                member_sets,
                cancel_checks=[checks[k] for k in members],
            )
            report.stats = stats
            telemetry = current_telemetry()
            # Commit in batch order up to the first aborted/failed
            # member; later members' forget sets include its un-erased
            # vehicle, so their (valid, salvaged) results describe an
            # unreachable state and must not commit.
            first_failure: Optional[int] = None
            for j, k in enumerate(members):
                branch = branch_outcomes[j]
                if first_failure is not None:
                    report.errors[k] = DependentAbortError(
                        f"request for client {ids[k]} depended on aborted "
                        f"request for client {ids[members[first_failure]]}"
                    )
                    continue
                if branch.error is not None:
                    report.errors[k] = branch.error
                    first_failure = j
                    continue
                if self.live_session is not None:
                    # Deferred reclamation, same as the single live
                    # path: a phase-1 reader pinned before this batch
                    # took the gate may still be replaying.
                    purged = self._count_stored([ids[k]], self.record.num_rounds)
                    store = self.record.gradients
                    cache = self._decode_cache

                    def _purge(cid=ids[k], store=store, cache=cache):
                        store.drop_client(cid)
                        if cache is not None:
                            cache.discard_client(store, cid)

                    if not self.live_session.registry.defer(_purge):
                        if telemetry.enabled:
                            telemetry.inc("service_snapshot_deferred_drops_total")
                else:
                    purged = self.record.gradients.drop_client(ids[k])
                    if self._decode_cache is not None:
                        self._decode_cache.discard_client(
                            self.record.gradients, ids[k]
                        )
                self._erased.append(ids[k])
                self.record.metadata["erased_clients"] = sorted(self._erased)
                if telemetry.enabled:
                    telemetry.inc("service_erasure_requests_total", 1, mode="fused")
                report.outcomes[k] = ErasureOutcome(
                    forgotten=[ids[k]],
                    params=branch.result.params,
                    result=branch.result,
                    purged_records=purged,
                    cached_prefix_rounds=branch.cached_prefix_rounds,
                )
            committed = sum(1 for o in report.outcomes if o is not None)
            if committed:
                self._prefix_cache.retire(self.record, self._erased)
            if self.live_session is not None and committed:
                # The gate froze training for the whole fused call, so
                # the deepest committed counterfactual *is* the merge.
                last = next(
                    o for o in reversed(report.outcomes) if o is not None
                )
                self.live_session.install_params(last.params)
                self.live_session.exclude(
                    [c for o in report.outcomes if o is not None
                     for c in o.forgotten]
                )
                if telemetry.enabled:
                    telemetry.inc(
                        "service_merge_commits_total", committed, mode="replay"
                    )
            _log.info(
                "fused batch: %d/%d committed (%d node-rounds for %d member-"
                "rounds, %d forks)",
                committed,
                n,
                stats.executed_node_rounds,
                stats.member_rounds,
                stats.forks,
            )
        return report

    def handle_departed_vehicle(
        self,
        client_id: int,
        cancel_check: Optional[Callable[[], None]] = None,
    ) -> ErasureOutcome:
        """Scenario 2: erase a vehicle that dropped out of / left FL.

        Works whether or not the ledger shows a leave — a vehicle that
        silently dropped out for good looks identical to the server.
        """
        return self._erase([client_id], cancel_check=cancel_check)

    def scan_and_purge_attackers(
        self, z_threshold: float = 1.5
    ) -> Optional[ErasureOutcome]:
        """Scenario 3: detect poisoners from the stored history and
        erase them.  Returns ``None`` when nothing is flagged."""
        gate = (
            self.live_session.gate if self.live_session is not None
            else nullcontext()
        )
        with gate:
            report = detect_malicious_clients(self.record, z_threshold=z_threshold)
        if not report.flagged:
            _log.info("attacker scan: nothing flagged")
            return None
        candidates = [c for c in report.flagged if c not in self._erased]
        if not candidates:
            return None
        outcome = self._erase(candidates)
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
        prefetch_depth: Optional[int] = None,
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
