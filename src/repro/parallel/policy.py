"""Process-wide default training worker count.

The simulation takes a ``workers`` constructor argument, but most
callers reach it through layers of experiment runners that should not
have to thread it through every signature.  Mirroring the telemetry
pattern (:func:`repro.telemetry.core.set_telemetry`), the default lives
in one process-wide slot: ``python -m repro.eval --workers N`` sets it,
and every :class:`~repro.fl.simulation.FederatedSimulation` constructed
with ``workers=None`` resolves against it.

The default is one worker — the guard tests assert this stays true, so
seed-sensitive and chaos tests never build a thread pool.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

__all__ = [
    "ExecutionPolicy",
    "default_execution",
    "resolve_execution",
    "set_default_execution",
]


@dataclass(frozen=True)
class ExecutionPolicy:
    """How many threads split a training round's cohort pass (1: none)."""

    workers: int = 1

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")


_default = ExecutionPolicy()


def default_execution() -> ExecutionPolicy:
    """The process-wide default policy (one worker unless changed)."""
    return _default


def set_default_execution(workers: int = 1) -> ExecutionPolicy:
    """Install a new process-wide default; returns the previous policy.

    Used by the CLI (``--workers``) so experiment runners pick it up
    without signature changes.  Callers should restore the returned
    previous policy when done.
    """
    global _default
    previous = _default
    _default = ExecutionPolicy(workers=workers)
    return previous


def resolve_execution(workers: Optional[int] = None) -> ExecutionPolicy:
    """The process default when ``workers`` is None, else ``workers``;
    validated either way."""
    return _default if workers is None else ExecutionPolicy(workers=workers)
