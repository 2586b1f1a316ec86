"""Per-client training-round tasks for the parallel engine.

:func:`run_client_round` is the worker-side body of one client's round:
exactly the fault-aware compute that
:meth:`repro.fl.simulation.FederatedSimulation` runs inline on the
serial path — flaky retries, crash/straggle/corrupt injection — but
phrased as a pure function over an explicit task payload, so the result
is bitwise identical no matter which worker runs it or when.

Determinism contract:

- the client's private RNG state travels *in* the task and the
  post-compute state travels *out* in the result, so the parent can
  round-trip it back onto its own client object (process workers
  mutate a copy);
- every worker borrows a scratch model from a worker-private
  :class:`ModelPool` — no two concurrent tasks ever share a model;
- faults never raise across the pool boundary: a lost update is a
  ``result.update is None`` with the fault-stat deltas attached;
- workers emit **no telemetry** (a process worker has the null
  telemetry anyway); the parent re-emits per-client metrics from the
  returned stats so serial and parallel runs produce the same counters.

Static state (client table, model pool, retry policy) is installed once
per worker as a :class:`TrainingContext` via the executor's context
mechanism; the task carries only the round-varying payload.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from copy import deepcopy
from dataclasses import dataclass
from queue import SimpleQueue
from typing import Any, Dict, Optional

import numpy as np

from repro.faults.injection import corrupt_update
from repro.faults.plan import ClientFault
from repro.faults.retry import RetryPolicy
from repro.parallel.executor import get_context

__all__ = [
    "FAULT_STAT_KEYS",
    "ClientRoundResult",
    "ClientRoundTask",
    "ModelPool",
    "TrainingContext",
    "apply_fault",
    "build_training_context",
    "flaky_attempts",
    "run_client_round",
]

FAULT_STAT_KEYS = (
    "crashes",
    "corrupted",
    "stragglers_dropped",
    "stragglers_met",
    "retries",
    "gave_up",
)
"""Fault-bookkeeping keys; mirrors the simulation's ``fault_stats``."""


class ModelPool:
    """Thread-safe pool of scratch models, one per concurrent task.

    The thread engine builds one pool with ``workers`` deep copies (so
    worker threads never touch the simulation's own model); each
    process-pool worker builds its own single-model pool from its
    private copy of the pickled/forked model.
    """

    def __init__(self, models) -> None:
        models = list(models)
        if not models:
            raise ValueError("ModelPool needs at least one model")
        self._queue: SimpleQueue = SimpleQueue()
        for model in models:
            self._queue.put(model)

    @contextmanager
    def borrow(self):
        """Check a model out for the duration of the block."""
        model = self._queue.get()
        try:
            yield model
        finally:
            self._queue.put(model)


@dataclass
class TrainingContext:
    """Worker-side static state for training rounds.

    Attributes
    ----------
    clients:
        ``client_id -> VehicleClient`` table (worker-private under the
        process engine; the live objects under serial/thread).
    models:
        Scratch-model pool sized to the engine's concurrency.
    retry_policy:
        The simulation's policy for flaky computes.
    """

    clients: Dict[int, Any]
    models: ModelPool
    retry_policy: RetryPolicy


def build_training_context(
    clients: Dict[int, Any], model: Any, num_models: int, retry_policy: RetryPolicy
) -> TrainingContext:
    """Context factory handed to :func:`repro.parallel.executor.make_executor`.

    Clones ``model`` ``num_models`` times so no scratch model is shared
    — with the parent's model (thread engine) or across concurrent
    tasks.  :meth:`repro.nn.model.Sequential.clone` rebuilds each copy's
    parameter arena (the clone's layers adopt views into its *own* flat
    buffers, with empty scratch workspaces); plain ``deepcopy`` is the
    fallback for model types without ``clone``.
    """
    clone = getattr(model, "clone", None)
    models = ModelPool(
        [clone() if clone is not None else deepcopy(model) for _ in range(num_models)]
    )
    return TrainingContext(clients=clients, models=models, retry_policy=retry_policy)


@dataclass
class ClientRoundTask:
    """One client's round-varying payload.

    ``deadline`` is the parent-computed V2I straggler deadline (only
    set when the fault is a straggle); ``corruption_rng`` is the
    parent-built deterministic generator for a corrupt fault.
    """

    client_id: int
    round_index: int
    global_params: np.ndarray
    rng_state: Dict
    fault: Optional[ClientFault] = None
    deadline: Optional[float] = None
    corruption_rng: Optional[np.random.Generator] = None


@dataclass
class ClientRoundResult:
    """What comes back: the update (or None for a dropout), the
    client's advanced RNG state, fault-stat deltas, and the worker-side
    compute duration (feeds ``fl_client_update_seconds``)."""

    client_id: int
    update: Optional[np.ndarray]
    rng_state: Dict
    stats: Dict[str, int]
    duration_seconds: float


def flaky_attempts(
    fault: Optional[ClientFault], policy: RetryPolicy, stats: Dict[str, int]
) -> bool:
    """Whether a client gets to its gradient pass: a flaky fault fails
    ``fault.failures`` attempts first, retried under ``policy`` (the
    failures draw no random numbers, so only the attempt that succeeds
    consumes the client's RNG stream).  Retries and give-ups are counted
    into ``stats``; no telemetry, no backoff wait."""
    failures = fault.failures if fault is not None and fault.kind == "flaky" else 0
    stats["retries"] += min(failures, policy.max_attempts - 1)
    if failures < policy.max_attempts:
        return True
    stats["gave_up"] += 1
    return False


def apply_fault(
    fault: Optional[ClientFault],
    update: np.ndarray,
    stats: Dict[str, int],
    deadline: Optional[float] = None,
    corruption_rng: Optional[np.random.Generator] = None,
) -> Optional[np.ndarray]:
    """``update`` after its crash, straggle (past ``deadline``) or
    corrupt fault, counted into ``stats``: None when the update is lost,
    ``update`` itself unless corrupted."""
    if fault is None or fault.kind == "flaky":
        return update
    if fault.kind == "crash":
        stats["crashes"] += 1
        return None
    if fault.kind == "straggle":
        assert deadline is not None
        if fault.delay_seconds > deadline:
            stats["stragglers_dropped"] += 1
            return None
        stats["stragglers_met"] += 1
        return update
    if fault.kind == "corrupt":
        stats["corrupted"] += 1
        assert fault.mode is not None and corruption_rng is not None
        return corrupt_update(update, fault.mode, corruption_rng)
    raise AssertionError(f"unhandled fault kind {fault.kind}")  # pragma: no cover


def run_client_round(context_key: str, task: ClientRoundTask) -> ClientRoundResult:
    """Worker body: one client's fault-aware update for one round —
    :func:`flaky_attempts`, the client's pass, :func:`apply_fault`, as
    the serial round runs them, reading static state from the installed
    :class:`TrainingContext`.
    """
    ctx: TrainingContext = get_context(context_key)
    client = ctx.clients[task.client_id]
    client.rng.bit_generator.state = task.rng_state
    stats = {key: 0 for key in FAULT_STAT_KEYS}
    start = time.perf_counter()
    update: Optional[np.ndarray] = None
    if flaky_attempts(task.fault, ctx.retry_policy, stats):
        with ctx.models.borrow() as model:
            update = client.compute_update(task.global_params, model)
        update = apply_fault(
            task.fault, update, stats, task.deadline, task.corruption_rng
        )
    return ClientRoundResult(
        client_id=task.client_id,
        update=update,
        rng_state=client.rng.bit_generator.state,
        stats=stats,
        duration_seconds=time.perf_counter() - start,
    )
