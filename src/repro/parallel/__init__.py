"""Parallel execution engine for training.

The training loop's per-round client updates in
:class:`~repro.fl.simulation.FederatedSimulation` are an embarrassingly
parallel map over clients, and the replay prefetcher decodes rounds on
the thread engine.  (Replay estimation itself runs as one stacked
kernel per replay node, :mod:`repro.unlearning.estimator`; a per-client
fan-out of it was slower at every measured shape.)  This package
supplies the engine:

- :mod:`repro.parallel.policy` — the process-wide default
  backend/workers policy (``serial``/1 unless changed; the CLI's
  ``--workers N --backend X`` sets it);
- :mod:`repro.parallel.executor` — the pluggable ``serial`` /
  ``thread`` / ``process`` executors with per-worker static contexts
  and in-task-order result gathering;
- :mod:`repro.parallel.rounds` — the picklable worker-side task
  bodies.

The determinism guarantee: for the same seed, every backend produces
**bitwise identical** training records.  Each
client computes on its own RNG stream (state round-tripped through the
task), each concurrent task borrows a private scratch model, and the
parent merges results in a fixed client order — so completion order
can never leak into the numerics.  ``tests/test_parallel.py`` asserts
this across backends, seeds, and active fault plans.
"""

from repro.parallel.executor import (
    Executor,
    PoolStats,
    get_context,
    make_executor,
    pool_utilization,
)
from repro.parallel.policy import (
    BACKENDS,
    ExecutionPolicy,
    default_execution,
    resolve_execution,
    set_default_execution,
)
from repro.parallel.rounds import (
    ClientRoundResult,
    ClientRoundTask,
    ModelPool,
    TrainingContext,
    build_training_context,
    run_client_round,
)

__all__ = [
    "BACKENDS",
    "ClientRoundResult",
    "ClientRoundTask",
    "ExecutionPolicy",
    "Executor",
    "ModelPool",
    "PoolStats",
    "TrainingContext",
    "build_training_context",
    "default_execution",
    "get_context",
    "make_executor",
    "pool_utilization",
    "resolve_execution",
    "run_client_round",
    "set_default_execution",
]
