"""Live-traffic training session — train and erase concurrently.

The stop-the-world serving model (finish training, then serve erasures
over the frozen :class:`~repro.fl.history.TrainingRecord`) does not
match the IoV premise: vehicles keep uploading while others exercise
their right to be forgotten.  :class:`LiveTrainingSession` runs the
federated round loop on a dedicated trainer thread and publishes an
MVCC-style view of the growing history:

- after every committed round the session advances a **round
  watermark** under the *train gate*;
- an erasure request pins a :class:`RecordSnapshot` — the `(watermark,
  membership view, params-at-watermark)` triple — and replays against
  it **without any lock**: rounds below the watermark are immutable
  (stores are append-only per round; physical reclamation is deferred
  through the session's :class:`~repro.storage.snapshot.SnapshotRegistry`
  until the last pinned reader drains);
- only the short merge/commit section of an erasure re-enters the
  train gate, folding the counterfactual model into the rounds trained
  past the watermark (see
  :meth:`repro.unlearning.service.UnlearningService` merge modes).

The snapshot's ledger is a deep copy (cheap — membership metadata, not
payloads) so concurrent join/leave/dropout bookkeeping on the live
ledger can never tear a replay's membership view.  Stores and
checkpoints are shared by reference: a pinned reader only ever looks at
rounds below its watermark.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Iterator, Optional, Sequence

import numpy as np

from repro.fl.history import TrainingRecord
from repro.fl.journal import RoundJournal
from repro.fl.membership import MembershipLedger
from repro.fl.simulation import FederatedSimulation
from repro.storage.snapshot import SnapshotPin, SnapshotRegistry
from repro.utils.logging import get_logger

__all__ = ["LiveTrainingSession", "RecordSnapshot"]

_log = get_logger("fl.live")


@dataclass
class RecordSnapshot(TrainingRecord):
    """A pinned, immutable-prefix view of a live training record.

    Behaves exactly like a :class:`~repro.fl.history.TrainingRecord`
    whose run stopped at the snapshot's watermark (``num_rounds``), so
    every unlearning method consumes it unchanged.  Extra state:

    Attributes
    ----------
    forest_anchor:
        The session's stable live view.  The replay forest keys its
        roots on this object (not on the snapshot), so nodes cached by
        one erasure are reachable from every later snapshot of the same
        live history regardless of watermark.
    pin:
        The :class:`~repro.storage.snapshot.SnapshotPin` deferring
        physical reclamation while this view is readable.  Release via
        :meth:`release` (or use the snapshot as a context manager).
    params_at_watermark:
        ``w_W`` — the global model at the watermark, copied at pin
        time.  The approximate merge modes use it as the common
        ancestor of the counterfactual and live branches.
    """

    forest_anchor: Optional[TrainingRecord] = None
    pin: Optional[SnapshotPin] = None
    params_at_watermark: Optional[np.ndarray] = None

    @property
    def watermark(self) -> int:
        """The pinned round watermark (alias of ``num_rounds``)."""
        return self.num_rounds

    def release(self) -> None:
        """Drop the reclamation pin (idempotent)."""
        if self.pin is not None:
            self.pin.release()

    def __enter__(self) -> "RecordSnapshot":
        return self

    def __exit__(self, *exc) -> None:
        self.release()


class LiveTrainingSession:
    """Drives :meth:`FederatedSimulation.stream` on a trainer thread and
    mediates concurrent snapshot readers.

    Parameters
    ----------
    simulation:
        The simulation to run.  The session owns its round loop once
        :meth:`start` is called — no other caller may run it.
    num_rounds:
        Total rounds to train.
    journal:
        Optional :class:`~repro.fl.journal.RoundJournal` for crash-safe
        rounds (same semantics as :meth:`FederatedSimulation.run`).
    round_callback:
        Forwarded to the stream — runs inside the round, under the
        train gate (a slow callback lengthens the gate hold).
    paced:
        When True the trainer waits for :meth:`allow_rounds` permits
        before each round — the serving load generator uses this to
        model train-request arrivals.  Default free-running.

    Locking: the *train gate* (an :class:`threading.RLock`) serializes
    round execution against snapshot pinning and merge commits.  The
    trainer holds it for the duration of one round; :meth:`pin_snapshot`
    and :meth:`commit_gate` hold it briefly between rounds.  Callers
    that also hold the unlearning service lock must acquire it *before*
    the gate (service lock → gate), never the reverse — the trainer
    itself never touches the service lock, so this ordering is safe.
    """

    def __init__(
        self,
        simulation: FederatedSimulation,
        num_rounds: int,
        *,
        journal: Optional[RoundJournal] = None,
        round_callback: Optional[Callable[[int, np.ndarray], None]] = None,
        paced: bool = False,
    ):
        if num_rounds <= 0:
            raise ValueError("num_rounds must be positive")
        self.simulation = simulation
        self.num_rounds = int(num_rounds)
        self.registry = SnapshotRegistry()
        #: The train gate (see the class docstring for lock ordering).
        self.gate = threading.RLock()
        self._cond = threading.Condition(self.gate)
        self._watermark = 0
        # Stable identity for the replay forest: refreshed in place each
        # round (journal resume may swap the server's store objects).
        self._anchor = simulation.record_view(num_rounds=0)
        self._journal = journal
        self._round_callback = round_callback
        self._paced = paced
        self._permits = threading.Semaphore(0)
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None
        self._result: Optional[TrainingRecord] = None
        self._error: Optional[BaseException] = None
        self._finished = False
        self.rounds_trained = 0

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "LiveTrainingSession":
        """Launch the trainer thread.  Returns self for chaining."""
        if self._thread is not None:
            raise RuntimeError("session already started")
        self._thread = threading.Thread(
            target=self._train_loop, name="live-trainer", daemon=True
        )
        self._thread.start()
        return self

    def stop(self, timeout: Optional[float] = 30.0) -> None:
        """Ask the trainer to stop after the current round and join it.

        Already-committed rounds stay committed; :meth:`result` then
        returns the record of the trained prefix.
        """
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout)

    def result(self, timeout: Optional[float] = None) -> TrainingRecord:
        """Join the trainer and return the final training record.

        Re-raises the trainer's exception if it failed (e.g. a
        scheduled :class:`~repro.faults.injection.ServerKilledError`).
        """
        if self._thread is None:
            raise RuntimeError("session was never started")
        self._thread.join(timeout)
        if self._thread.is_alive():
            raise TimeoutError("trainer still running")
        if self._error is not None:
            raise self._error
        assert self._result is not None
        return self._result

    def _await_permit(self) -> bool:
        while not self._stop.is_set():
            if not self._paced:
                return True
            if self._permits.acquire(timeout=0.05):
                return True
        return False

    def _train_loop(self) -> None:
        sim = self.simulation
        gen = sim.stream(
            self.num_rounds,
            round_callback=self._round_callback,
            journal=self._journal,
        )
        try:
            while not self._stop.is_set():
                # Permits gate round *execution*; once every round is
                # committed the only work left is draining the
                # generator's StopIteration, which needs none.
                if self._watermark < self.num_rounds and not self._await_permit():
                    break
                with self.gate:
                    try:
                        t, _ = next(gen)
                    except StopIteration as stop:
                        self._result = stop.value
                        return
                    self._publish(t + 1)
        except BaseException as exc:  # surfaced via result()
            self._error = exc
        finally:
            gen.close()
            with self.gate:
                if self._result is None and self._error is None:
                    # Stopped early: the committed prefix is the record.
                    self._result = sim.record_view(num_rounds=self._watermark)
                if self._result is not None:
                    # Annotations written through the live view during
                    # the run (merge commits, erased clients) belong on
                    # the final record too.
                    self._result.metadata.update(self._anchor.metadata)
                self._finished = True
                self._cond.notify_all()

    def _publish(self, watermark: int) -> None:
        """Advance the live view to ``watermark``.  Gate held."""
        server = self.simulation.server
        anchor = self._anchor
        anchor.checkpoints = server.checkpoints
        anchor.gradients = server.gradients
        anchor.ledger = server.ledger
        anchor.client_sizes = server.client_sizes
        anchor.num_rounds = watermark
        self._watermark = watermark
        self.rounds_trained += 1
        self._cond.notify_all()

    # ------------------------------------------------------------------
    # pacing (serving load generator hooks)
    # ------------------------------------------------------------------
    def allow_rounds(self, n: int = 1) -> None:
        """Grant ``n`` training-round permits (paced mode only)."""
        for _ in range(int(n)):
            self._permits.release()

    def release_pacing(self) -> None:
        """Switch to free-running: remaining rounds need no permits."""
        self._paced = False
        self._permits.release()

    # ------------------------------------------------------------------
    # concurrency surface
    # ------------------------------------------------------------------
    @property
    def watermark(self) -> int:
        """Rounds committed and published so far."""
        with self.gate:
            return self._watermark

    @property
    def done(self) -> bool:
        with self.gate:
            return self._finished

    @property
    def error(self) -> Optional[BaseException]:
        return self._error

    @property
    def live_record(self) -> TrainingRecord:
        """The stable live view (the forest anchor).  Reading it while
        the trainer runs is only safe under the gate."""
        return self._anchor

    def wait_for_round(self, n: int, timeout: Optional[float] = None) -> bool:
        """Block until the watermark reaches ``n`` (or training ends)."""
        with self.gate:
            return self._cond.wait_for(
                lambda: self._watermark >= n
                or self._finished
                or self._error is not None,
                timeout=timeout,
            )

    def pin_snapshot(self) -> RecordSnapshot:
        """Pin the current committed history as a
        :class:`RecordSnapshot`.  The caller must :meth:`~RecordSnapshot.release`
        it when the lock-free read section ends."""
        with self.gate:
            if self._error is not None:
                raise RuntimeError("trainer thread failed") from self._error
            server = self.simulation.server
            pin = self.registry.pin()
            watermark = self._watermark
            if server.checkpoints.has(watermark):
                base = np.asarray(
                    server.checkpoints.get(watermark), dtype=np.float64
                ).copy()
            else:  # watermark 0 before w_0 exists (never after start)
                base = np.asarray(server.params, dtype=np.float64).copy()
            snap = RecordSnapshot(
                checkpoints=server.checkpoints,
                gradients=server.gradients,
                ledger=MembershipLedger.from_dict(server.ledger.to_dict()),
                client_sizes=dict(server.client_sizes),
                num_rounds=watermark,
                learning_rate=server.learning_rate,
                aggregator=server.aggregator_name,
                forest_anchor=self._anchor,
                pin=pin,
                params_at_watermark=base,
            )
            return snap

    @contextmanager
    def commit_gate(self) -> Iterator[int]:
        """Hold the train gate for a merge commit; yields the current
        watermark (the commit round ``T'``).  Training is paused only
        for the duration of the ``with`` body."""
        with self.gate:
            yield self._watermark

    def exclude(self, client_ids: Sequence[int]) -> None:
        """Drop erased clients from all future rounds (gate held
        internally; reentrant from :meth:`commit_gate`)."""
        with self.gate:
            self.simulation.exclude_clients(client_ids, self._watermark)

    def install_params(self, params: np.ndarray) -> int:
        """Replace the live global model with the merged post-erasure
        parameters; overwrites the checkpoint at the commit watermark so
        later replays see the counterfactual history.  Returns the
        commit round."""
        with self.gate:
            merged = np.asarray(params, dtype=np.float64).copy()
            server = self.simulation.server
            server.params = merged
            server.checkpoints.put(self._watermark, merged)
            return self._watermark
