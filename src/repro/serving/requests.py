"""Request vocabulary of the erasure daemon.

Everything a client hands the daemon — which vehicles to erase, an
idempotency key, a deadline — and everything the daemon hands back,
lives here so the daemon, the load generator, and the tests speak one
typed language.

Deadlines are *cooperative*: a :class:`Deadline` is checked at
admission, again at dequeue, and between replay rounds inside the
recovery loop (see :class:`~repro.unlearning.recovery.SignRecoveryUnlearner`'s
``cancel_check``), so an expired request aborts at a committed round
boundary instead of being killed mid-update.  The clock is injectable —
tests drive the whole deadline/breaker machinery on a fake clock.

Rejections are *typed*: :class:`RejectedError` (load shed, breaker
open in queue-only mode, shutdown abort) carries a ``retry_after``
hint derived from the daemon's live service-time estimate, so a
well-behaved client backs off by exactly the advertised amount instead
of hammering a saturated RSU.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Optional, Tuple

import numpy as np

__all__ = [
    "Deadline",
    "DeadlineExceededError",
    "ErasureRequest",
    "RejectedError",
    "ServiceResponse",
    "ServingError",
]


class ServingError(RuntimeError):
    """Base class of every typed failure the daemon reports."""


class RejectedError(ServingError):
    """The request was not admitted (load shed, breaker, or shutdown).

    Attributes
    ----------
    reason:
        Machine-readable cause: ``"queue_full"``, ``"breaker_open"``,
        or ``"shutdown"``.
    retry_after:
        Suggested client backoff in seconds before retrying, derived
        from the daemon's current queue depth and service-time
        estimate (0.0 when retrying immediately is fine, e.g. after a
        drain-mode shutdown handed off to a replacement daemon).
    """

    def __init__(self, reason: str, retry_after: float = 0.0):
        super().__init__(
            f"request rejected ({reason}); retry after {retry_after:.3f}s"
        )
        self.reason = reason
        self.retry_after = float(retry_after)


class DeadlineExceededError(ServingError):
    """The request's deadline expired before a result was produced.

    Raised synchronously at submission when the deadline is already
    dead on arrival, and asynchronously (through the response future)
    when it expires while queued or between replay rounds.
    """


class Deadline:
    """A monotonic-clock budget for one request.

    Parameters
    ----------
    budget_seconds:
        Wall-clock seconds from construction until expiry.
    clock:
        Monotonic time source; injectable for deterministic tests.
    """

    __slots__ = ("budget_seconds", "expires_at", "_clock")

    def __init__(
        self,
        budget_seconds: float,
        clock: Callable[[], float] = time.monotonic,
    ):
        self.budget_seconds = float(budget_seconds)
        self._clock = clock
        self.expires_at = clock() + self.budget_seconds

    def remaining(self) -> float:
        """Seconds left before expiry (negative once expired)."""
        return self.expires_at - self._clock()

    def expired(self) -> bool:
        """True once the budget is spent."""
        return self.remaining() <= 0.0

    def check(self) -> None:
        """Raise :class:`DeadlineExceededError` if expired.

        This is the cooperative cancellation checkpoint the daemon
        installs between replay rounds.
        """
        if self.expired():
            raise DeadlineExceededError(
                f"deadline of {self.budget_seconds:.3f}s exceeded"
            )


@dataclass(frozen=True)
class ErasureRequest:
    """One erasure request as the admission queue carries it.

    Attributes
    ----------
    client_ids:
        Vehicles to forget; one id is a single request, several are a
        batch (served through
        :meth:`~repro.unlearning.service.UnlearningService.handle_erasure_batch`).
    key:
        Optional idempotency key.  Two submissions with the same key
        are the same logical request: the second returns the first's
        response instead of erasing twice.
    deadline:
        Optional per-request deadline; ``None`` means the daemon's
        default (which may also be ``None`` — no deadline).
    """

    client_ids: Tuple[int, ...]
    key: Optional[str] = None
    deadline: Optional[Deadline] = None

    def __post_init__(self) -> None:
        if not self.client_ids:
            raise ValueError("an erasure request needs at least one client id")

    @property
    def kind(self) -> str:
        """``"single"`` or ``"batch"`` — the telemetry arrival-mode label."""
        return "single" if len(self.client_ids) == 1 else "batch"


@dataclass
class ServiceResponse:
    """What the daemon returns for one admitted request.

    Attributes
    ----------
    status:
        ``"ok"`` (erasure performed) or ``"stale"`` (breaker open in
        serve-stale mode: the last recovered parameters are returned,
        nothing was erased, retry later).
    params:
        The recovered global model parameters — fresh for ``"ok"``,
        the most recent known-good vector for ``"stale"``.
    outcomes:
        Per-request :class:`~repro.unlearning.service.ErasureOutcome`
        list (empty for stale responses).
    queue_seconds:
        Time the request spent waiting for a worker.
    service_seconds:
        Time the erasure itself took (0.0 for stale responses).
    retry_after:
        For stale responses, the suggested wait before retrying the
        real erasure; 0.0 otherwise.
    """

    status: str
    params: Optional[np.ndarray] = None
    outcomes: list = field(default_factory=list)
    queue_seconds: float = 0.0
    service_seconds: float = 0.0
    retry_after: float = 0.0
