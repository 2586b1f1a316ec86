"""The erasure service daemon — robust serving over the batch path.

The lower layers already make one erasure fast (prefix cache, mmap
store, parallel replay); this module makes a *stream* of them safe.
:class:`ErasureDaemon` fronts one
:class:`~repro.unlearning.service.UnlearningService` with a thread-pool
request loop built for sustained load:

- **Bounded admission** — a fixed-capacity queue; a full queue sheds
  the request *at submission* with a typed
  :class:`~repro.serving.requests.RejectedError` carrying a
  ``retry_after`` hint (queue depth × the live service-time estimate),
  so overload degrades into fast, honest rejections instead of
  unbounded queue growth.
- **Deadlines** — per-request (or daemon-default) budgets checked at
  admission, at dequeue, and *between replay rounds* via the recovery
  loop's cooperative ``cancel_check``; an expired request aborts at a
  committed round boundary, and the partially replayed prefix is
  salvaged into the service's prefix cache — the next request resumes
  it and still recovers byte-identical parameters.
- **Circuit breaking** — executions that fail on substrate faults
  (corrupt records, transient-failure storms) and external
  :meth:`signal_fault` bursts (e.g. validator quarantines from
  :mod:`repro.faults`) feed a
  :class:`~repro.serving.breaker.CircuitBreaker`; while it is open the
  daemon degrades to ``serve_stale`` (answer with the last known-good
  parameters, nothing erased) or ``queue_only`` (hold admitted work
  until the cooldown) instead of failing hard.
- **Batch fusion** — with ``fusion_width > 1``, a worker coalesces
  consecutive single-vehicle requests from the queue front and serves
  them as ONE replay-forest execution
  (:func:`repro.unlearning.engine.fused_unlearn`): shared prefix
  rounds run once, branches fork only at divergence, and every ticket
  still gets its own deadline, its own response, and byte-identical
  parameters.  See ``docs/REPLAY.md`` for the cost model.
- **Idempotency** — requests carrying a key are deduplicated: a
  retried submission attaches to the original's response future, so
  client retries never double-erase.  Only in-flight and successful
  outcomes are cached; a request that ends in rejection, deadline, or
  error drops its key, so the keyed retry re-executes (picking up any
  salvaged replay prefix) instead of replaying the stored failure.

Every dequeued group — a lone ticket or a coalesced one — takes one
path: queue-wait accounting, deadline and breaker checks, one service
call, one breaker verdict.  Erasure execution is serialized by the
service (stop-the-world by its lock; against a live session only the
commits are); the worker pool buys concurrency for everything around
it — admission, deadline policing, degraded-mode answers, and shutdown.

Shutdown is explicit: ``stop(mode="drain")`` finishes queued work,
``stop(mode="abort")`` fails it with typed rejections; both are
deterministic and exercised by the tests.

Every lifecycle edge feeds the ``serving_*`` metric family — see
``docs/METRICS.md``.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict, deque
from typing import Callable, Deque, Dict, List, Optional, Sequence, Tuple, Union

from concurrent.futures import Future

from repro.faults.injection import TransientClientError
from repro.faults.retry import RetryPolicy
from repro.serving.breaker import CircuitBreaker
from repro.serving.requests import (
    Deadline,
    DeadlineExceededError,
    ErasureRequest,
    RejectedError,
    ServiceResponse,
)
from repro.telemetry.core import current_telemetry
from repro.unlearning.service import DependentAbortError, UnlearningService
from repro.utils.logging import get_logger

__all__ = ["ErasureDaemon", "DEGRADED_MODES"]

_log = get_logger("serving.daemon")

DEGRADED_MODES = ("serve_stale", "queue_only")
"""What an open breaker degrades to: answer stale or hold the queue."""

#: Exception types that mean *the client asked for something invalid*
#: (double erasure, unknown vehicle) — they fail the request but do not
#: feed the breaker, which only watches substrate health.
_CLIENT_ERRORS = (ValueError,)

#: How many request keys the idempotency table remembers (LRU).
_IDEMPOTENCY_CAPACITY = 4096


class _Ticket:
    """One admitted request riding the queue: request + future + clock marks."""

    __slots__ = ("request", "future", "enqueued_at")

    def __init__(self, request: ErasureRequest, future: Future, enqueued_at: float):
        self.request = request
        self.future = future
        self.enqueued_at = enqueued_at


class ErasureDaemon:
    """Long-running erasure server over one :class:`UnlearningService`.

    Parameters
    ----------
    service:
        The unlearning service executing admitted requests.
    capacity:
        Admission-queue bound (``0`` sheds everything — useful as the
        hard-maintenance mode and exercised by the tests).
    workers:
        Worker threads pulling from the queue.
    default_deadline_seconds:
        Deadline applied to requests that do not bring their own
        (``None`` — the default — means no deadline).
    breaker:
        Circuit breaker; a default 5-failures/1 s-cooldown breaker is
        built when omitted.
    degraded_mode:
        ``"serve_stale"`` or ``"queue_only"`` — behaviour while the
        breaker is open.
    retry_policy:
        Optional :class:`~repro.faults.retry.RetryPolicy` wrapped
        around request execution; its backoff budget is capped by the
        request's remaining deadline, so retrying never outlives the
        request.
    flusher:
        Optional :class:`~repro.telemetry.exporters.PrometheusFlusher`
        started/stopped with the daemon, keeping the exported metrics
        file live for long-running processes.
    clock:
        Monotonic time source (injectable for deterministic tests).
    fusion_width:
        When ``> 1``, a worker that dequeues a *single-vehicle* request
        also takes up to ``fusion_width - 1`` consecutive single-vehicle
        requests from the queue front and serves the group as one
        fused replay-forest execution
        (:meth:`~repro.unlearning.service.UnlearningService.handle_erasure_batch_fused`)
        — shared prefix rounds execute once, so throughput under a
        backlog grows with the group size.  Each ticket keeps its own
        deadline (polled as that branch's cancel check) and its own
        response; ``1`` (the default) disables coalescing.  The fused
        path bypasses ``retry_policy`` — a transient fault fails the
        group's remaining members, and client retries re-execute
        against the salvaged forest.
    """

    def __init__(
        self,
        service: UnlearningService,
        capacity: int = 64,
        workers: int = 2,
        default_deadline_seconds: Optional[float] = None,
        breaker: Optional[CircuitBreaker] = None,
        degraded_mode: str = "serve_stale",
        retry_policy: Optional[RetryPolicy] = None,
        flusher=None,
        clock: Callable[[], float] = time.monotonic,
        fusion_width: int = 1,
    ):
        if capacity < 0:
            raise ValueError("capacity must be >= 0")
        if workers < 1:
            raise ValueError("workers must be >= 1")
        if fusion_width < 1:
            raise ValueError("fusion_width must be >= 1")
        if degraded_mode not in DEGRADED_MODES:
            raise ValueError(
                f"degraded_mode must be one of {DEGRADED_MODES}, got {degraded_mode!r}"
            )
        self.service = service
        self.capacity = capacity
        self.workers = workers
        self.default_deadline_seconds = default_deadline_seconds
        self.breaker = breaker if breaker is not None else CircuitBreaker(clock=clock)
        self.degraded_mode = degraded_mode
        self.retry_policy = retry_policy
        self.fusion_width = fusion_width
        self.flusher = flusher
        self._clock = clock
        self._cond = threading.Condition()
        self._queue: Deque[_Ticket] = deque()
        self._keys: "OrderedDict[str, Future]" = OrderedDict()
        self._threads: list = []
        self._accepting = True
        self._stopping = False
        self._inflight = 0
        self._ema_service_seconds = 0.0
        #: Response counts by status (``ok``/``stale``/``rejected``/
        #: ``deadline``/``error``) — the daemon-local mirror of
        #: ``serving_requests_total``.
        self.counts: Dict[str, int] = {
            "ok": 0, "stale": 0, "rejected": 0, "deadline": 0, "error": 0
        }
        self._last_params = None

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "ErasureDaemon":
        """Spawn the worker pool (idempotent); returns self for chaining."""
        with self._cond:
            if self._stopping:
                raise RuntimeError("daemon already stopped")
            missing = self.workers - len(self._threads)
        for _ in range(max(0, missing)):
            thread = threading.Thread(target=self._worker_loop, daemon=True)
            thread.start()
            self._threads.append(thread)
        if self.flusher is not None:
            self.flusher.start()
        return self

    def stop(self, mode: str = "drain", timeout: Optional[float] = None) -> None:
        """Stop the daemon.

        ``mode="drain"`` finishes all queued work first (executing it
        inline when no workers were ever started, so the drain contract
        holds deterministically either way); ``mode="abort"`` fails
        every queued request with ``RejectedError("shutdown")``.
        In-flight requests always run to completion.  Once the workers
        exit, the service's shared round decode cache is dropped, so a
        stopped daemon holds no decoded rounds (each replay's decode
        threads already ended with that replay).
        """
        if mode not in ("drain", "abort"):
            raise ValueError(f"mode must be 'drain' or 'abort', got {mode!r}")
        with self._cond:
            self._accepting = False
            if mode == "abort":
                aborted = list(self._queue)
                self._queue.clear()
            else:
                aborted = []
            self._cond.notify_all()
        for ticket in aborted:
            self._finish(ticket, "rejected", error=RejectedError("shutdown"))
        if mode == "drain" and not self._threads:
            while True:
                with self._cond:
                    if not self._queue:
                        break
                    batch = self._take()
                self._process(batch)
        deadline = None if timeout is None else self._clock() + timeout
        with self._cond:
            while self._queue or self._inflight:
                remaining = None if deadline is None else deadline - self._clock()
                if remaining is not None and remaining <= 0:
                    break
                self._cond.wait(timeout=0.01 if remaining is None else min(0.01, remaining))
            self._stopping = True
            self._cond.notify_all()
        for thread in self._threads:
            thread.join(timeout=1.0)
        self._threads = []
        # Never waits: a straggler still replaying after a timed-out
        # stop keeps the rounds it holds and only stops sharing them.
        self.service.drain_prefetch()
        if self.flusher is not None:
            self.flusher.stop()

    # ------------------------------------------------------------------
    # submission
    # ------------------------------------------------------------------
    def _resolve_deadline(
        self, deadline: Union[None, float, Deadline]
    ) -> Optional[Deadline]:
        if isinstance(deadline, Deadline):
            return deadline
        if deadline is not None:
            return Deadline(float(deadline), clock=self._clock)
        if self.default_deadline_seconds is not None:
            return Deadline(self.default_deadline_seconds, clock=self._clock)
        return None

    def retry_after_hint(self) -> float:
        """Suggested client backoff: queue depth × live service time."""
        with self._cond:
            return (len(self._queue) + self._inflight) * max(
                self._ema_service_seconds, 1e-3
            )

    def submit(
        self,
        client_ids: Union[int, Sequence[int]],
        key: Optional[str] = None,
        deadline: Union[None, float, Deadline] = None,
    ) -> Future:
        """Admit one erasure request; returns its response future.

        Raises synchronously — before anything is queued — when the
        request cannot be admitted: :class:`RejectedError` on a full
        queue or shutdown, :class:`DeadlineExceededError` when the
        deadline is already expired at enqueue.  A duplicate ``key``
        returns the original submission's future (no second erasure)
        while that submission is in flight or succeeded; failed
        outcomes are not cached, so retrying a failed key re-executes.
        """
        if isinstance(client_ids, int):
            ids = (client_ids,)
        else:
            ids = tuple(int(c) for c in client_ids)
        resolved = self._resolve_deadline(deadline)
        request = ErasureRequest(client_ids=ids, key=key, deadline=resolved)
        telemetry = current_telemetry()
        with self._cond:
            if key is not None and key in self._keys:
                self._keys.move_to_end(key)
                if telemetry.enabled:
                    telemetry.inc("serving_idempotent_hits_total")
                return self._keys[key]
            if not self._accepting:
                self._count(request, "rejected", locked=True)
                raise RejectedError("shutdown")
            if resolved is not None and resolved.expired():
                self._count(request, "deadline", locked=True)
                raise DeadlineExceededError(
                    f"deadline of {resolved.budget_seconds:.3f}s already "
                    "expired at enqueue"
                )
            if len(self._queue) >= self.capacity:
                self._count(request, "rejected", locked=True)
                if telemetry.enabled:
                    telemetry.inc("serving_shed_total")
                raise RejectedError("queue_full", retry_after=self.retry_after_hint())
            future: Future = Future()
            ticket = _Ticket(request, future, self._clock())
            self._queue.append(ticket)
            if key is not None:
                self._keys[key] = future
                while len(self._keys) > _IDEMPOTENCY_CAPACITY:
                    self._keys.popitem(last=False)
            self._set_queue_gauge()
            self._cond.notify()
        return future

    def request(
        self,
        client_ids: Union[int, Sequence[int]],
        key: Optional[str] = None,
        deadline: Union[None, float, Deadline] = None,
        timeout: Optional[float] = None,
    ) -> ServiceResponse:
        """Blocking convenience: :meth:`submit` then wait for the response."""
        return self.submit(client_ids, key=key, deadline=deadline).result(
            timeout=timeout
        )

    # ------------------------------------------------------------------
    # external fault signals (repro.faults wiring)
    # ------------------------------------------------------------------
    def signal_fault(self, kind: str = "quarantine") -> None:
        """Feed one external fault signal into the breaker.

        Hook this to the fault side-channels the RSU already watches —
        validator quarantine events, retry give-ups, storage corruption
        detections — so a fault storm trips the circuit *before* the
        queue fills with doomed work.
        """
        telemetry = current_telemetry()
        if telemetry.enabled:
            telemetry.inc("serving_fault_signals_total", 1, kind=kind)
        self.breaker.record_failure()

    # ------------------------------------------------------------------
    # status
    # ------------------------------------------------------------------
    def status(self) -> Dict[str, object]:
        """Live snapshot: queue depth, breaker state, counts, estimates."""
        with self._cond:
            return {
                "queue_depth": len(self._queue),
                "inflight": self._inflight,
                "accepting": self._accepting,
                "breaker_state": self.breaker.state,
                "counts": dict(self.counts),
                "ema_service_seconds": self._ema_service_seconds,
                "erased_clients": list(self.service.erased_clients),
            }

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _set_queue_gauge(self) -> None:
        """Publish the queue depth; caller holds ``_cond``."""
        telemetry = current_telemetry()
        if telemetry.enabled:
            telemetry.set_gauge("serving_queue_depth", len(self._queue))

    def _count(self, request: ErasureRequest, status: str, locked: bool = False) -> None:
        telemetry = current_telemetry()
        if telemetry.enabled:
            telemetry.inc(
                "serving_requests_total", 1, kind=request.kind, status=status
            )
        if locked:
            self.counts[status] += 1
        else:
            with self._cond:
                self.counts[status] += 1

    def _finish(
        self,
        ticket: _Ticket,
        status: str,
        response: Optional[ServiceResponse] = None,
        error: Optional[BaseException] = None,
    ) -> None:
        """Resolve a ticket's future and account the outcome."""
        self._count(ticket.request, status)
        telemetry = current_telemetry()
        if telemetry.enabled and status in ("ok", "stale"):
            telemetry.observe(
                "serving_request_seconds", self._clock() - ticket.enqueued_at
            )
        if error is not None:
            # Failures are not cached: drop the key (before resolving,
            # so a retry never races onto a future already known dead)
            # and the client's retry re-executes the erasure — e.g. a
            # deadline-aborted request's salvaged prefix makes the
            # keyed retry cheap instead of replaying the stored error.
            key = ticket.request.key
            if key is not None:
                with self._cond:
                    if self._keys.get(key) is ticket.future:
                        del self._keys[key]
            ticket.future.set_exception(error)
        else:
            ticket.future.set_result(response)

    def _take(self) -> List[_Ticket]:
        """Dequeue the head ticket; with fusion on, a single-vehicle head
        also takes the consecutive single-vehicle tickets behind it.
        Caller holds ``_cond``."""
        batch = [self._queue.popleft()]
        if self.fusion_width > 1 and len(batch[0].request.client_ids) == 1:
            while (
                len(batch) < self.fusion_width
                and self._queue
                and len(self._queue[0].request.client_ids) == 1
            ):
                batch.append(self._queue.popleft())
        self._set_queue_gauge()
        return batch

    def _worker_loop(self) -> None:
        while True:
            with self._cond:
                while not self._queue and not self._stopping:
                    self._cond.wait(timeout=0.05)
                if self._stopping and not self._queue:
                    return
                batch = self._take()
                self._inflight += len(batch)
            try:
                self._process(batch)
            finally:
                with self._cond:
                    self._inflight -= len(batch)
                    self._cond.notify_all()

    def _expired(self, ticket: _Ticket, where: str) -> bool:
        """Fail ``ticket`` with a deadline error if its deadline passed."""
        deadline = ticket.request.deadline
        if deadline is None or not deadline.expired():
            return False
        self._finish(
            ticket,
            "deadline",
            error=DeadlineExceededError(
                f"deadline of {deadline.budget_seconds:.3f}s expired {where}"
            ),
        )
        return True

    def _execute(self, tickets: List[_Ticket]) -> List[Tuple[list, Optional[Exception]]]:
        """Run the admitted tickets; one ``(outcomes, error)`` per ticket.
        A coalesced group is one fused forest execution, each deadline
        its own branch's cancel check, outside ``retry_policy``; a lone
        ticket is a single or serial-batch erasure under it."""
        if len(tickets) > 1:
            report = self.service.handle_erasure_batch_fused(
                [t.request.client_ids[0] for t in tickets],
                cancel_checks=[
                    t.request.deadline.check if t.request.deadline else None
                    for t in tickets
                ],
            )
            return [([o] if o is not None else None, e)
                    for o, e in zip(report.outcomes, report.errors)]
        request = tickets[0].request
        deadline = request.deadline
        cancel_check = deadline.check if deadline is not None else None

        def run():
            if len(request.client_ids) == 1:
                return [
                    self.service.handle_erasure_request(
                        request.client_ids[0], cancel_check=cancel_check
                    )
                ]
            return self.service.handle_erasure_batch(
                request.client_ids, cancel_check=cancel_check
            )

        if self.retry_policy is None:
            return [(run(), None)]
        budget = deadline.remaining() if deadline is not None else None
        retried = self.retry_policy.call(run, budget=budget)
        if not retried.succeeded:
            raise TransientClientError("transient failures exhausted the retry budget")
        return [(retried.value, None)]

    def _process(self, tickets: List[_Ticket]) -> None:
        """Serve one dequeued group (a lone ticket or a coalesced one).

        Per ticket: queue-wait accounting and the dequeue-time deadline
        check.  While the breaker refuses service, ``serve_stale``
        answers every ticket stale and ``queue_only`` holds them (the
        deadline still polices the wait) until a probe slot opens.  The
        survivors run through :meth:`_execute`; the group is one breaker
        verdict — any committed ticket proves the substrate healthy,
        any non-client failure feeds the breaker, and a group that only
        hit deadlines, aborts or client errors leaves the probe slot
        undecided.
        """
        telemetry = current_telemetry()
        admitted = []
        for ticket in tickets:
            queue_seconds = self._clock() - ticket.enqueued_at
            if telemetry.enabled:
                telemetry.observe("serving_queue_wait_seconds", queue_seconds)
            if not self._expired(ticket, "while queued"):
                admitted.append((ticket, queue_seconds))
        while admitted and not self.breaker.allow():
            if self.degraded_mode == "serve_stale":
                # Answer with the last known-good parameters (before any
                # success: the trained model); nothing is erased.
                params = self._last_params
                if params is None:
                    params = self.service.record.final_params()
                for ticket, queue_seconds in admitted:
                    self._finish(ticket, "stale", response=ServiceResponse(
                        status="stale",
                        params=params,
                        queue_seconds=queue_seconds,
                        retry_after=max(self.breaker.cooldown_remaining(), 1e-3),
                    ))
                return
            admitted = [
                (ticket, queue_seconds)
                for ticket, queue_seconds in admitted
                if not self._expired(ticket, "while held by the open breaker")
            ]
            with self._cond:
                if self._stopping or not admitted:
                    for ticket, _ in admitted:
                        self._finish(ticket, "rejected", error=RejectedError("shutdown"))
                    return
                self._cond.wait(timeout=0.005)
        if not admitted:
            return

        if len(tickets) > 1 and telemetry.enabled:
            telemetry.inc("serving_fused_tickets_total", len(admitted))
        started = self._clock()
        try:
            results = self._execute([ticket for ticket, _ in admitted])
        except Exception as exc:  # the whole execution failed
            results = [(None, exc)] * len(admitted)
        service_seconds = self._clock() - started

        committed = substrate_fault = False
        for (ticket, queue_seconds), (outcomes, error) in zip(admitted, results):
            if error is None:
                committed = True
                self._last_params = outcomes[-1].params
                self._finish(
                    ticket,
                    "ok",
                    response=ServiceResponse(
                        status="ok",
                        params=outcomes[-1].params,
                        outcomes=list(outcomes),
                        queue_seconds=queue_seconds,
                        service_seconds=service_seconds,
                    ),
                )
            elif isinstance(error, DeadlineExceededError):
                # The replay aborted at a committed round boundary; the
                # salvaged prefix stays in the service's cache.
                if telemetry.enabled:
                    telemetry.inc("serving_deadline_aborts_total")
                self._finish(ticket, "deadline", error=error)
            elif isinstance(error, DependentAbortError):
                # Nothing wrong with this request — its predecessor
                # aborted.  Reject so the client resubmits (cheap: the
                # prefix is salvaged in the forest).
                self._finish(ticket, "rejected", error=error)
            elif isinstance(error, _CLIENT_ERRORS):
                self._finish(ticket, "error", error=error)
            else:
                substrate_fault = True
                _log.warning("erasure request failed: %s", error)
                self._finish(ticket, "error", error=error)

        if committed:
            self.breaker.record_success()
        elif substrate_fault:
            self.breaker.record_failure()
        else:
            # Deadlines and client errors say nothing about substrate
            # health: return a held half-open probe slot undecided so
            # the next request can probe instead of the breaker wedging.
            self.breaker.release_probe()
        with self._cond:
            # EMA over per-ticket service time drives the retry-after
            # hint handed to shed clients.
            per_ticket = service_seconds / len(admitted)
            ema = self._ema_service_seconds
            self._ema_service_seconds = (
                per_ticket if ema == 0.0 else 0.8 * ema + 0.2 * per_ticket
            )
