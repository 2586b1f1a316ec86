"""The federated training loop.

:class:`FederatedSimulation` wires clients, server, and a participation
schedule into the round loop of §III-A, producing the
:class:`~repro.fl.history.TrainingRecord` the unlearning methods
consume.

One scratch model computes each round's whole cohort in stacked passes
(:func:`repro.fl.client.cohort_updates`, chunked under a fixed byte
bound, so memory stays bounded in the number of vehicles), and the
server takes the resulting gradient block as it is.  With ``workers >
1`` the round's vehicles split into ``workers`` contiguous chunks, each
passed on its own scratch model (the simulation's own plus
``workers - 1`` clones) on one thread pool; every row is bitwise the
vehicle's own update, so the record is **bitwise identical to the
one-pass run**.  The heavy kernels release the GIL, so the chunks
overlap on the BLAS work.

The loop is resilient by construction (the IoV premise is that things
fail *constantly*):

- a :class:`~repro.faults.plan.FaultPlan` injects client crashes,
  corrupted updates, stragglers, flaky computes and server kills,
  deterministically per seed;
- transient client failures are retried through a
  :class:`~repro.faults.retry.RetryPolicy` with capped exponential
  backoff; clients that crash, straggle past the V2I deadline, or
  exhaust their retries are recorded as dropouts, never exceptions;
- corrupted updates are quarantined by the server's
  :class:`~repro.faults.validation.UpdateValidator` gate before they
  can touch aggregation or the gradient store;
- with a :class:`~repro.fl.journal.RoundJournal`, every completed round
  is appended to a round log and committed, so a killed process resumes
  exactly where it died and the final record is bitwise identical to an
  uninterrupted run.

Telemetry: the loop emits per-round wall time (``fl_round_seconds``),
per-client compute time and update size (``fl_client_update_seconds`` /
``fl_client_update_bytes``), participation and dropout counters, the
latest eval accuracy, and per-kind fault-injection counts — see
``docs/METRICS.md``.  With the default null telemetry all of it is
skipped at near-zero cost.  With ``workers > 1`` the pool's size and
busy fraction are reported too (``fl_parallel_*``).
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Dict, Generator, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.datasets.base import ArrayDataset
from repro.faults.injection import (
    FAULT_STAT_KEYS,
    ServerKilledError,
    apply_fault,
    flaky_attempts,
)
from repro.faults.plan import FaultPlan
from repro.faults.retry import RetryPolicy
from repro.faults.validation import QuarantineEvent, UpdateValidator
from repro.fl.client import VehicleClient, cohort_updates
from repro.fl.events import ParticipationSchedule
from repro.fl.history import TrainingRecord
from repro.fl.journal import JournalSnapshot, RoundJournal
from repro.fl.server import RsuServer
from repro.nn.metrics import accuracy
from repro.nn.model import Sequential
from repro.storage.store import GradientStore, RoundRows
from repro.telemetry.core import current_telemetry
from repro.utils.logging import get_logger

__all__ = ["FederatedSimulation"]

_log = get_logger("fl.simulation")


class FederatedSimulation:
    """Run FL over a participation schedule and record history.

    Parameters
    ----------
    model:
        Scratch model defining the architecture; its initial parameters
        become ``w_0``.
    clients:
        All vehicles that will ever participate (the schedule decides
        when each is active).
    learning_rate:
        η for the server update (Eq. 2).
    schedule:
        Join/leave/dropout plan; defaults to everyone-always-on.
    gradient_store:
        Server-side update store; defaults to the paper's sign store.
    aggregator:
        Aggregation rule name.
    test_set:
        Optional held-out set; when given, test accuracy is recorded
        every ``eval_every`` rounds into the training record.
    fault_plan:
        Optional fault schedule (chaos experiments).  When set and no
        ``validator`` is given, a default
        :class:`~repro.faults.validation.UpdateValidator` is installed
        so injected corruption cannot reach aggregation.
    retry_policy:
        Backoff policy for transient client failures; defaults to a
        single attempt (no retries).
    validator:
        Update-validation gate handed to the server; see
        :class:`~repro.fl.server.RsuServer`.
    workers:
        Threads splitting each round's cohort pass (default 1: one
        pass, no pool).  Every count produces a bitwise-identical
        record.
    """

    def __init__(
        self,
        model: Sequential,
        clients: Sequence[VehicleClient],
        learning_rate: float,
        schedule: Optional[ParticipationSchedule] = None,
        gradient_store: Optional[GradientStore] = None,
        aggregator: str = "fedavg",
        test_set: Optional[ArrayDataset] = None,
        eval_every: int = 10,
        fault_plan: Optional[FaultPlan] = None,
        retry_policy: Optional[RetryPolicy] = None,
        validator: Optional[UpdateValidator] = None,
        workers: int = 1,
    ):
        if not clients:
            raise ValueError("need at least one client")
        ids = [c.client_id for c in clients]
        if len(set(ids)) != len(ids):
            raise ValueError("client ids must be unique")
        self.model = model
        self.clients: Dict[int, VehicleClient] = {c.client_id: c for c in clients}
        self.schedule = schedule or ParticipationSchedule.always_on(ids)
        unknown = set(self.schedule.client_ids()) - set(ids)
        if unknown:
            raise ValueError(f"schedule references unknown clients {sorted(unknown)}")
        if fault_plan is not None and validator is None:
            validator = UpdateValidator()
        self.server = RsuServer(
            initial_params=model.get_flat_params_view(),
            learning_rate=learning_rate,
            gradient_store=gradient_store,
            aggregator=aggregator,
            validator=validator,
        )
        self.test_set = test_set
        if eval_every <= 0:
            raise ValueError("eval_every must be positive")
        self.eval_every = eval_every
        self.fault_plan = fault_plan
        self.retry_policy = retry_policy or RetryPolicy(max_attempts=1)
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.workers = workers
        self.fault_stats: Dict[str, int] = {k: 0 for k in FAULT_STAT_KEYS}
        self._registered: set = set()
        self._left: set = set()
        # Clients erased mid-run (live-traffic path): the schedule may
        # still select them, but they never train or store again.
        self._excluded: set = set()

    # ------------------------------------------------------------------
    def _sync_membership(self, round_index: int) -> List[int]:
        """Apply this round's join/leave/dropout events to the server;
        return the ids contributing a gradient this round."""
        participants: List[int] = []
        for cid in self.schedule.client_ids():
            join = self.schedule.join_rounds[cid]
            if join == round_index and cid not in self._registered:
                self.server.register_client(
                    cid, self.clients[cid].num_samples, join_round=round_index
                )
                self._registered.add(cid)
            leave = self.schedule.leave_rounds.get(cid)
            if (
                leave is not None
                and leave == round_index
                and cid in self._registered
                and cid not in self._left
            ):
                self.server.client_left(cid, round_index)
                self._left.add(cid)
            if cid in self._excluded:
                # Erased mid-run: the schedule still lists the client,
                # but it must never contribute again.  Normally the
                # exclusion already recorded a ledger leave; when that
                # was impossible (erased the round it joined) a dropout
                # keeps the ledger consistent with the empty store.
                if cid in self._registered and self.server.ledger.is_member(
                    cid, round_index
                ):
                    self.server.client_dropped_out(cid, round_index)
                continue
            if cid in self._registered and self.schedule.is_member(cid, round_index):
                if (round_index, cid) in self.schedule.dropouts:
                    self.server.client_dropped_out(cid, round_index)
                else:
                    participants.append(cid)
        return participants

    def exclude_clients(self, client_ids: Sequence[int], round_index: int) -> None:
        """Permanently drop ``client_ids`` from all rounds >= ``round_index``.

        The merge commit of a live erasure calls this (under the train
        gate) so forgotten vehicles never re-enter training.  A ledger
        leave is recorded when one is still possible, making the
        exclusion durable across journal resume and visible to every
        later membership query — no resurrected clients.
        """
        for cid in sorted(set(int(c) for c in client_ids)):
            self._excluded.add(cid)
            if (
                cid in self._registered
                and cid not in self._left
                and round_index > self.server.ledger.join_round(cid)
            ):
                self.server.client_left(cid, round_index)
                self._left.add(cid)

    def record_view(self, num_rounds: int = 0) -> TrainingRecord:
        """A :class:`TrainingRecord` over the *live* server state.

        The stores, ledger, and size map are the server's own objects —
        the view tracks training as it happens; only ``num_rounds``
        freezes how deep a reader may look.  The live-traffic session
        advances it after each committed round.
        """
        return TrainingRecord(
            checkpoints=self.server.checkpoints,
            gradients=self.server.gradients,
            ledger=self.server.ledger,
            client_sizes=self.server.client_sizes,
            num_rounds=num_rounds,
            learning_rate=self.server.learning_rate,
            aggregator=self.server.aggregator_name,
        )

    # ------------------------------------------------------------------
    # per-round update collection
    # ------------------------------------------------------------------
    def _round_faults(self, t: int, participants: List[int]) -> List[Tuple]:
        """Per participant ``(cid, fault, straggle deadline, corruption
        generator)`` for round ``t``, counting the injected faults."""
        telemetry = current_telemetry()
        out: List[Tuple] = []
        deadline: Optional[float] = None
        for cid in participants:
            fault = (
                self.fault_plan.fault_at(t, cid)
                if self.fault_plan is not None
                else None
            )
            if fault is None:
                out.append((cid, None, None, None))
                continue
            if telemetry.enabled:
                telemetry.inc("fl_faults_injected_total", 1, kind=fault.kind)
            if fault.kind == "straggle" and deadline is None:
                # members_at depends only on join/leave events, so the
                # V2I deadline is round-invariant: compute it once.
                deadline = self.fault_plan.deadline(
                    max(1, len(self.server.ledger.members_at(t))),
                    self.model.num_params,
                )
            corruption_rng = None
            if fault.kind == "corrupt":
                corruption_rng = self.fault_plan.corruption_rng(t, cid)
            straggle = deadline if fault.kind == "straggle" else None
            out.append((cid, fault, straggle, corruption_rng))
        return out

    def _account(
        self,
        t: int,
        cid: int,
        update: Optional[np.ndarray],
        stats: Dict[str, int],
        seconds: float,
    ) -> None:
        """Book one client's round outcome: fault stats, per-client
        telemetry, and a dropout when its update was lost."""
        telemetry = current_telemetry()
        for key, delta in stats.items():
            self.fault_stats[key] += delta
        if telemetry.enabled:
            telemetry.observe("fl_client_update_seconds", seconds)
            if stats["retries"]:
                telemetry.inc("faults_retries_total", stats["retries"])
            if stats["gave_up"]:
                telemetry.inc("faults_giveups_total", stats["gave_up"])
        if update is None:
            _log.debug("round %d: client %d update lost", t, cid)
            self.server.client_dropped_out(cid, t)
            if telemetry.enabled:
                telemetry.inc("fl_dropouts_total")
        elif telemetry.enabled:
            telemetry.observe("fl_client_update_bytes", update.nbytes)

    def _cohort_pass(
        self,
        clients: List[VehicleClient],
        global_params: np.ndarray,
        models: List[Sequential],
        pool: Optional[ThreadPoolExecutor],
    ) -> Tuple[np.ndarray, List[float]]:
        """The cohort's ``(K, d)`` update block and each row's share of
        its pass time.  With a ``pool``, ``clients`` split into
        ``len(models)`` contiguous chunks, chunk ``i`` passed on
        ``models[i]``; the chunks' blocks stack in client order."""

        def timed(part: List[VehicleClient], model: Sequential):
            started = time.perf_counter()
            block = cohort_updates(part, global_params, model)
            return block, time.perf_counter() - started

        n, k = len(clients), len(models)
        chunks = [clients[n * i // k : n * (i + 1) // k] for i in range(k)]
        if pool is None:
            results = [timed(clients, models[0])]
        else:
            started = time.perf_counter()
            results = list(pool.map(timed, chunks, models))
            wall = time.perf_counter() - started
            telemetry = current_telemetry()
            if telemetry.enabled and wall > 0.0:
                busy = sum(seconds for _, seconds in results)
                telemetry.set_gauge(
                    "fl_parallel_utilization", min(1.0, busy / (k * wall))
                )
        shares = [
            seconds / len(part)
            for part, (_, seconds) in zip(chunks, results)
            for _ in part
        ]
        blocks = [block for block, _ in results]
        return (blocks[0] if k == 1 else np.concatenate(blocks)), shares

    def _collect_updates(
        self,
        t: int,
        participants: List[int],
        global_params: np.ndarray,
        models: List[Sequential],
        pool: Optional[ThreadPoolExecutor],
    ) -> Mapping[int, np.ndarray]:
        """The round's updates: the cohort in one pass, or one pass per
        chunk on ``pool``.

        Flaky retries run per client first (they draw no random
        numbers); the survivors' gradients come from
        :meth:`_cohort_pass` — stacked passes, each row bitwise the
        client's own ``compute_update`` — and crash, straggle and
        corrupt then apply per row.  Each client's
        ``fl_client_update_seconds`` is its share of its pass.  Returns
        a :class:`~repro.storage.store.RoundRows` over the pass's block
        when no fault touched it, else a dict.
        """
        stats = {cid: dict.fromkeys(FAULT_STAT_KEYS, 0) for cid in participants}
        ready = [
            case
            for case in self._round_faults(t, participants)
            if flaky_attempts(case[1], self.retry_policy, stats[case[0]])
        ]
        block, shares = self._cohort_pass(
            [self.clients[case[0]] for case in ready], global_params, models, pool
        )
        updates: Dict[int, np.ndarray] = {}
        seconds = dict.fromkeys(participants, 0.0)
        intact = True  # no fault dropped or replaced a row of the block
        for row, share, (cid, fault, deadline, corruption_rng) in zip(
            block, shares, ready
        ):
            update = apply_fault(fault, row, stats[cid], deadline, corruption_rng)
            intact &= update is row
            seconds[cid] = share
            if update is not None:
                updates[cid] = update
        for cid in participants:
            self._account(t, cid, updates.get(cid), stats[cid], seconds[cid])
        return RoundRows(list(updates), block) if intact else updates

    # ------------------------------------------------------------------
    # journal plumbing
    # ------------------------------------------------------------------
    def _snapshot(self, accuracy_history: List[float]) -> JournalSnapshot:
        """Capture the complete post-round state for the journal."""
        validator = self.server.validator
        return JournalSnapshot(
            round_index=self.server.round_index,
            params=self.server.params,
            checkpoints=self.server.checkpoints,
            gradients=self.server.gradients,
            ledger=self.server.ledger,
            client_sizes=dict(self.server.client_sizes),
            excluded=sorted(self._excluded),
            accuracy_history=list(accuracy_history),
            rng_states={
                cid: c.rng.bit_generator.state for cid, c in self.clients.items()
            },
            quarantine=[
                (e.round_index, e.client_id, e.reason) for e in self.server.quarantine
            ],
            fault_stats=dict(self.fault_stats),
            validator_norms=(
                validator.observed_norms() if validator is not None else None
            ),
            learning_rate=self.server.learning_rate,
            aggregator=self.server.aggregator_name,
        )

    def _restore(self, snapshot: JournalSnapshot) -> int:
        """Reinstate a journaled state; returns the round to resume at."""
        server = self.server
        if type(server.gradients) is not type(snapshot.gradients):
            raise ValueError(
                f"journal holds a {type(snapshot.gradients).__name__} but the "
                f"simulation was configured with a "
                f"{type(server.gradients).__name__}"
            )
        server.params = np.asarray(snapshot.params, dtype=np.float64).copy()
        server.round_index = snapshot.round_index
        server.checkpoints = snapshot.checkpoints
        server.gradients = snapshot.gradients
        server.ledger = snapshot.ledger
        server.client_sizes = dict(snapshot.client_sizes)
        server.quarantine = [QuarantineEvent(*e) for e in snapshot.quarantine]
        # Registration and leaves are the ledger's joins and leaves.
        self._registered = set(snapshot.ledger.known_clients())
        self._left = {
            c for c, rec in snapshot.ledger.items() if rec.leave_round is not None
        }
        self._excluded = set(snapshot.excluded)
        for key in FAULT_STAT_KEYS:
            self.fault_stats[key] = snapshot.fault_stats.get(key, 0)
        unknown = set(snapshot.rng_states) - set(self.clients)
        if unknown:
            raise ValueError(f"journal references unknown clients {sorted(unknown)}")
        for cid, state in snapshot.rng_states.items():
            self.clients[cid].rng.bit_generator.state = state
        if server.validator is not None and snapshot.validator_norms is not None:
            server.validator.restore_norms(snapshot.validator_norms)
        _log.info("resumed from journal at round %d", snapshot.round_index)
        return snapshot.round_index

    # ------------------------------------------------------------------
    def run(
        self,
        num_rounds: int,
        round_callback: Optional[Callable[[int, np.ndarray], None]] = None,
        journal: Optional[RoundJournal] = None,
    ) -> TrainingRecord:
        """Execute ``num_rounds`` and return the training record.

        With ``journal`` given, each completed round is committed to its
        round log; if the journal already holds committed rounds (a
        previous process died), the run resumes after the last one
        instead of starting over.  A scheduled server kill raises
        :class:`~repro.faults.injection.ServerKilledError` *after* the
        round's commit, so nothing is lost.
        """
        gen = self.stream(num_rounds, round_callback=round_callback, journal=journal)
        while True:
            try:
                next(gen)
            except StopIteration as stop:
                return stop.value

    def stream(
        self,
        num_rounds: int,
        round_callback: Optional[Callable[[int, np.ndarray], None]] = None,
        journal: Optional[RoundJournal] = None,
    ) -> Generator[Tuple[int, np.ndarray], None, TrainingRecord]:
        """Round-by-round generator form of :meth:`run`.

        Yields ``(round_index, new_params)`` after each completed round
        — after the journal commit and any scheduled kill check, so a
        yielded round is durable.  All mutation happens inside
        ``next()``: the live-traffic session drives this under its train
        gate and publishes a fresh watermark between rounds, while
        erasure replays read the committed prefix lock-free.  Draining
        the generator is bitwise identical to :meth:`run`; the record is
        the ``StopIteration`` value.
        """
        if num_rounds <= 0:
            raise ValueError("num_rounds must be positive")
        accuracy_history: List[float] = []
        start_round = 0
        if journal is not None and journal.exists():
            snapshot = journal.load()
            if snapshot.round_index > num_rounds:
                raise ValueError(
                    f"journal is at round {snapshot.round_index}, beyond the "
                    f"requested {num_rounds}"
                )
            start_round = self._restore(snapshot)
            accuracy_history = list(snapshot.accuracy_history)
        telemetry = current_telemetry()
        workers = self.workers
        models = [self.model]
        pool: Optional[ThreadPoolExecutor] = None
        try:
            if workers > 1:
                models += [self.model.clone() for _ in range(workers - 1)]
                pool = ThreadPoolExecutor(max_workers=workers)
                if telemetry.enabled:
                    telemetry.set_gauge("fl_parallel_workers", workers)
            for t in range(start_round, num_rounds):
                with telemetry.span("fl_round_seconds"):
                    participants = self._sync_membership(t)
                    updates = self._collect_updates(
                        t, participants, self.server.params, models, pool
                    )
                    if updates:
                        new_params = self.server.run_round(updates)
                    else:
                        # Sparse IoV rounds with no surviving update: the RSU idles.
                        _log.debug("round %d: no usable updates, skipping", t)
                        new_params = self.server.skip_round()
                    if telemetry.enabled:
                        telemetry.inc("fl_rounds_total")
                        telemetry.set_gauge("fl_participants", len(updates))
                if self.test_set is not None and (
                    (t + 1) % self.eval_every == 0 or t + 1 == num_rounds
                ):
                    self.model.set_flat_params(new_params)
                    acc = accuracy(
                        self.model.predict(self.test_set.x), self.test_set.y
                    )
                    accuracy_history.append(acc)
                    if telemetry.enabled:
                        telemetry.set_gauge("fl_eval_accuracy", acc)
                    _log.info(
                        "round %d/%d test accuracy %.4f", t + 1, num_rounds, acc
                    )
                if round_callback is not None:
                    round_callback(t, new_params)
                if journal is not None:
                    journal.commit(self._snapshot(accuracy_history))
                if self.fault_plan is not None and self.fault_plan.kill_after(t):
                    raise ServerKilledError(t)
                yield t, new_params
        finally:
            if pool is not None:
                pool.shutdown()
        return TrainingRecord(
            checkpoints=self.server.checkpoints,
            gradients=self.server.gradients,
            ledger=self.server.ledger,
            client_sizes=dict(self.server.client_sizes),
            num_rounds=num_rounds,
            learning_rate=self.server.learning_rate,
            aggregator=self.server.aggregator_name,
            accuracy_history=accuracy_history,
        )
