"""Pluggable executors for per-client fan-out.

One round of training is an embarrassingly parallel map over
clients: every task reads the same global state and
returns an independent result.  :func:`make_executor` builds one of
three interchangeable engines:

- ``serial`` — runs tasks inline, in order (the reference semantics);
- ``thread`` — a :class:`~concurrent.futures.ThreadPoolExecutor`; the
  heavy NumPy kernels release the GIL, so this already overlaps BLAS
  work without any pickling cost;
- ``process`` — a :class:`~concurrent.futures.ProcessPoolExecutor`;
  full CPU parallelism at the cost of pickling each task payload.

Determinism is the caller's contract, and the executor keeps its side
of it: :meth:`Executor.run` always returns results **in task order**,
regardless of completion order.  The caller (the simulation) keeps
its side by shipping each client's own RNG state with the task and
merging results by client id.

Worker context
--------------
Per-task payloads must stay small, so static state (the client table,
a scratch model pool) is installed once per worker as a *context*: a
``(factory, args)`` pair run in-parent for serial/thread engines and as
the pool initializer for the process engine (so each worker process
builds its own private copy exactly once).  Tasks fetch it back with
:func:`get_context` via the executor's :attr:`Executor.context_key`.

Start method: the process engine uses the platform default
(``fork`` on Linux); set ``REPRO_MP_START=spawn`` to override.
"""

from __future__ import annotations

import itertools
import multiprocessing
import os
import time
from concurrent.futures import Future, ProcessPoolExecutor, ThreadPoolExecutor
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.parallel.policy import BACKENDS

__all__ = [
    "Executor",
    "PoolStats",
    "get_context",
    "make_executor",
    "pool_utilization",
]

# Worker-side registry of installed contexts.  In the parent process it
# also serves the serial/thread engines (shared memory); each process-
# pool worker fills its own copy through the pool initializer.
_CONTEXTS: Dict[str, Any] = {}
_KEY_COUNTER = itertools.count()


def _install_context(key: str, factory: Callable[..., Any], args: Tuple) -> None:
    _CONTEXTS[key] = factory(*args)


def get_context(key: str) -> Any:
    """Fetch the worker-side context installed under ``key``.

    Called by task functions at the top of every task; raises if the
    executor that owns ``key`` never installed a context here (e.g. a
    task function invoked outside its pool).
    """
    try:
        return _CONTEXTS[key]
    except KeyError:
        raise RuntimeError(
            f"no worker context installed under {key!r}; task functions must "
            "run inside the executor that owns the key"
        ) from None


@dataclass(frozen=True)
class PoolStats:
    """Timing of one :meth:`Executor.run` call.

    ``dispatch_seconds`` covers payload submission, ``gather_seconds``
    the in-order wait for (and collection of) every result.  For the
    serial engine all work lands in ``gather_seconds``.
    """

    dispatch_seconds: float
    gather_seconds: float

    @property
    def wall_seconds(self) -> float:
        """Total wall time of the run call."""
        return self.dispatch_seconds + self.gather_seconds


class Executor:
    """Uniform engine API over serial / thread / process execution.

    Not constructed directly — use :func:`make_executor`.  The engine
    is reusable across many :meth:`run` calls (one per round) and must
    be :meth:`close`\\ d when done; it is also a context manager.
    """

    backend = "serial"

    def __init__(
        self,
        workers: int,
        context: Optional[Tuple[Callable[..., Any], Tuple]] = None,
    ):
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self.workers = workers
        self.context_key: Optional[str] = None
        if context is not None:
            factory, args = context
            self.context_key = (
                f"{factory.__name__}-{os.getpid()}-{next(_KEY_COUNTER)}"
            )
        self._context = context
        self._closed = False

    # ------------------------------------------------------------------
    def run(self, fn: Callable[[Any], Any], tasks: Sequence[Any]):
        """Execute ``fn(task)`` for every task; results in task order.

        Returns ``(results, PoolStats)``.  Exceptions raised by tasks
        propagate to the caller (nothing in the deterministic round
        protocol is supposed to raise — faults travel inside results).
        """
        raise NotImplementedError

    def submit(self, fn: Callable[..., Any], *args: Any) -> "Future":
        """Dispatch one ``fn(*args)`` call; returns its Future.

        The streaming counterpart of :meth:`run` for pipelines that
        overlap background work with the caller's own compute (the
        replay prefetcher).  The serial engine runs the call inline and
        returns an already-resolved future, so ``submit`` degenerates
        to the synchronous path with no thread involved.
        """
        raise NotImplementedError

    def close(self) -> None:
        """Release pool threads/processes and the installed context."""
        raise NotImplementedError

    def __enter__(self) -> "Executor":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False


class _SerialExecutor(Executor):
    backend = "serial"

    def __init__(self, workers, context=None):
        super().__init__(workers, context)
        if context is not None:
            factory, args = context
            _install_context(self.context_key, factory, args)

    def run(self, fn, tasks):
        start = time.perf_counter()
        results = [fn(task) for task in tasks]
        return results, PoolStats(0.0, time.perf_counter() - start)

    def submit(self, fn, *args):
        future: Future = Future()
        try:
            future.set_result(fn(*args))
        except BaseException as exc:  # delivered through future.result()
            future.set_exception(exc)
        return future

    def close(self):
        if not self._closed and self.context_key is not None:
            _CONTEXTS.pop(self.context_key, None)
        self._closed = True


class _ThreadExecutor(Executor):
    backend = "thread"

    def __init__(self, workers, context=None):
        super().__init__(workers, context)
        if context is not None:
            factory, args = context
            _install_context(self.context_key, factory, args)
        self._pool = ThreadPoolExecutor(max_workers=workers)

    def run(self, fn, tasks):
        t0 = time.perf_counter()
        futures = [self._pool.submit(fn, task) for task in tasks]
        t1 = time.perf_counter()
        results = [f.result() for f in futures]
        t2 = time.perf_counter()
        return results, PoolStats(t1 - t0, t2 - t1)

    def submit(self, fn, *args):
        return self._pool.submit(fn, *args)

    def close(self):
        if not self._closed:
            self._pool.shutdown(wait=True)
            if self.context_key is not None:
                _CONTEXTS.pop(self.context_key, None)
        self._closed = True


class _ProcessExecutor(Executor):
    backend = "process"

    def __init__(self, workers, context=None):
        super().__init__(workers, context)
        method = os.environ.get("REPRO_MP_START") or None
        mp_context = multiprocessing.get_context(method) if method else None
        kwargs: Dict[str, Any] = {"max_workers": workers}
        if mp_context is not None:
            kwargs["mp_context"] = mp_context
        if context is not None:
            factory, args = context
            kwargs["initializer"] = _install_context
            kwargs["initargs"] = (self.context_key, factory, args)
        self._pool = ProcessPoolExecutor(**kwargs)

    def run(self, fn, tasks):
        t0 = time.perf_counter()
        futures = [self._pool.submit(fn, task) for task in tasks]
        t1 = time.perf_counter()
        results = [f.result() for f in futures]
        t2 = time.perf_counter()
        return results, PoolStats(t1 - t0, t2 - t1)

    def submit(self, fn, *args):
        return self._pool.submit(fn, *args)

    def close(self):
        if not self._closed:
            self._pool.shutdown(wait=True)
        self._closed = True


_ENGINES = {
    "serial": _SerialExecutor,
    "thread": _ThreadExecutor,
    "process": _ProcessExecutor,
}


def make_executor(
    backend: str,
    workers: int,
    context: Optional[Tuple[Callable[..., Any], Tuple]] = None,
) -> Executor:
    """Build an executor for ``backend`` with ``workers`` slots.

    ``context`` is an optional ``(factory, args)`` pair of static
    worker state; for the process engine both must be picklable
    (top-level factory, plain-data args).  Close the executor (or use
    it as a context manager) to release pool resources.
    """
    if backend not in BACKENDS:
        raise ValueError(f"unknown backend {backend!r}; choose from {BACKENDS}")
    return _ENGINES[backend](workers, context)


def pool_utilization(
    busy_seconds: float, workers: int, wall_seconds: float
) -> float:
    """Fraction of the pool's capacity spent on task work.

    ``sum(task durations) / (workers × wall)``, clamped to [0, 1]; 0.0
    when the wall time is too small to measure.
    """
    if wall_seconds <= 0.0 or workers < 1:
        return 0.0
    return min(1.0, busy_seconds / (workers * wall_seconds))
