"""Process-wide default execution policy.

The simulation takes ``backend``/``workers`` constructor arguments,
but most callers reach it through layers of experiment runners that
should not have to thread execution knobs through every signature.
Mirroring the telemetry pattern
(:func:`repro.telemetry.core.set_telemetry`), the policy lives in one
process-wide slot: ``python -m repro.eval --workers N --backend X``
sets it, and every :class:`~repro.fl.simulation.FederatedSimulation`
constructed with ``backend=None``/``workers=None`` resolves against
it.  (It is training-only: replay runs one stacked kernel per node.)

The default is ``serial`` with one worker — the guard tests assert
this stays true, so seed-sensitive and chaos tests are unaffected by
the existence of the parallel engine.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

__all__ = [
    "BACKENDS",
    "ExecutionPolicy",
    "default_execution",
    "resolve_execution",
    "set_default_execution",
]

BACKENDS = ("serial", "thread", "process")
"""Recognized executor backends, in increasing isolation order."""


@dataclass(frozen=True)
class ExecutionPolicy:
    """How per-client work is dispatched: which backend, how many workers.

    ``workers`` is ignored by the ``serial`` backend (the round loop
    runs inline); for ``thread``/``process`` it is the pool size.
    """

    backend: str = "serial"
    workers: int = 1

    def __post_init__(self) -> None:
        if self.backend not in BACKENDS:
            raise ValueError(
                f"unknown execution backend {self.backend!r}; choose from {BACKENDS}"
            )
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")


_default = ExecutionPolicy()


def default_execution() -> ExecutionPolicy:
    """The process-wide default policy (``serial``/1 unless changed)."""
    return _default


def set_default_execution(backend: str = "serial", workers: int = 1) -> ExecutionPolicy:
    """Install a new process-wide default; returns the previous policy.

    Used by the CLI (``--workers``/``--backend``) so experiment runners
    pick up the requested engine without signature changes.  Callers
    should restore the returned previous policy when done.
    """
    global _default
    previous = _default
    _default = ExecutionPolicy(backend=backend, workers=workers)
    return previous


def resolve_execution(
    backend: Optional[str] = None, workers: Optional[int] = None
) -> ExecutionPolicy:
    """Fill unset (None) knobs from the process default and validate."""
    current = _default
    return ExecutionPolicy(
        backend=current.backend if backend is None else backend,
        workers=current.workers if workers is None else workers,
    )
