"""Lightweight wall-clock timers used by the benchmark harness."""

from __future__ import annotations

import time
from typing import Dict, List

__all__ = ["Timer"]


class Timer:
    """Accumulating named timer.

    Use as a context manager for one-shot timing, or via
    :meth:`start` / :meth:`stop` pairs to accumulate across phases.

    Examples
    --------
    >>> t = Timer()
    >>> with t.section("train"):
    ...     _ = sum(range(1000))
    >>> t.total("train") >= 0.0
    True
    """

    def __init__(self) -> None:
        self._totals: Dict[str, float] = {}
        self._starts: Dict[str, float] = {}

    def start(self, name: str) -> None:
        """Begin timing ``name``; raises if already running."""
        if name in self._starts:
            raise RuntimeError(f"timer section {name!r} already started")
        self._starts[name] = time.perf_counter()

    def stop(self, name: str) -> float:
        """Stop timing ``name`` and return the elapsed seconds for this span."""
        if name not in self._starts:
            raise RuntimeError(f"timer section {name!r} was not started")
        elapsed = time.perf_counter() - self._starts.pop(name)
        self._totals[name] = self._totals.get(name, 0.0) + elapsed
        return elapsed

    def section(self, name: str) -> "_Section":
        """Context manager timing one span of ``name``."""
        return _Section(self, name)

    def total(self, name: str) -> float:
        """Total accumulated seconds for ``name`` (0.0 if never timed)."""
        return self._totals.get(name, 0.0)

    def names(self) -> List[str]:
        """Names with at least one completed span, sorted."""
        return sorted(self._totals)


class _Section:
    def __init__(self, timer: Timer, name: str) -> None:
        self._timer = timer
        self._name = name

    def __enter__(self) -> "_Section":
        self._timer.start(self._name)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self._timer.stop(self._name)
