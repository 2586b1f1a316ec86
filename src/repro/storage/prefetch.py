"""Pipelined replay data path: round prefetcher + shared decode cache.

Every replay step of the recovery loop needs round ``t``'s decoded
cohort before any estimator/SGD work can start, and until this module
that read was synchronous: an mmap page-in + LUT sign decode, or a
whole-block zlib inflate on the tiered store's cold tier, sitting
serially inside the hot loop.  Two cooperating pieces overlap that
latency with compute:

:class:`RoundPrefetcher`
    A bounded look-ahead pipeline: while the replay loop computes round
    ``t``, rounds ``t+1 .. t+depth`` decode on a background executor
    (a :class:`~concurrent.futures.ThreadPoolExecutor`).
    ``depth=0`` degenerates to the synchronous path — callers skip the
    prefetcher entirely, so the default behaviour is byte-for-byte the
    pre-pipeline code.  The prefetcher is cooperatively cancelled
    through the same ``cancel_check`` path the serving daemon uses for
    deadlines: a deadline abort closes it at a committed round
    boundary, cancelling queued decodes and releasing every cache pin.

:class:`RoundDecodeCache`
    A shared per-``(store, round)`` decode cache, LRU-bounded in bytes
    and refcounted: concurrent daemon tickets and forest branches
    replaying overlapping round windows resolve each round's decode
    once instead of once per request.  Consumers receive **read-only**
    views (the decoded arrays are flagged non-writeable), so a cached
    round can never be corrupted by one consumer and observed by
    another.  Entries pinned by an active prefetcher are never evicted;
    eviction of an unpinned entry only forces a re-decode.

Bitwise identity is the contract: ``get_round`` is a deterministic
pure read, so the pipeline changes *when* decoding happens, never what
it produces.  A decode failure is reported as ``None`` (not cached),
and the replay loop falls back to its per-client damage-isolating
reads exactly as the synchronous path does.

The depth is a constructor argument of
:class:`~repro.unlearning.recovery.SignRecoveryUnlearner` and
:class:`~repro.unlearning.service.UnlearningService` (``python -m
repro.eval --prefetch-depth`` passes it down); the default is ``0``
(off).

Telemetry (see ``docs/METRICS.md``): ``storage_prefetch_hits_total`` /
``storage_prefetch_misses_total`` / ``storage_prefetch_stall_seconds``
/ ``storage_prefetch_cancelled_total`` for the pipeline, and
``storage_prefetch_cache_{hits,misses,evictions}_total`` plus the
``storage_prefetch_cache_bytes`` gauge for the shared cache.
"""

from __future__ import annotations

import threading
import weakref
from collections import OrderedDict
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.storage.store import RoundRows
from repro.telemetry.core import current_telemetry

__all__ = [
    "PrefetchStats",
    "RoundDecodeCache",
    "RoundPrefetcher",
]


def _freeze(decoded: RoundRows) -> RoundRows:
    """Flag the decoded rows read-only (views stay zero-copy)."""
    for array in decoded.arrays():
        try:
            array.setflags(write=False)
        except ValueError:
            # A view of a read-only base (mmap) is already frozen.
            pass
    return decoded


def _held_bytes(decoded: RoundRows) -> int:
    """Bytes of the distinct buffers ``decoded`` keeps alive.

    A bulk decode's rows are one block, which stays whole while any row
    is held; summing row sizes would undercount it once
    :meth:`RoundDecodeCache.discard_client` drops some of the rows.
    """
    owners: Dict[int, int] = {}
    for array in decoded.arrays():
        while isinstance(array.base, np.ndarray):
            array = array.base
        owners[id(array)] = int(array.nbytes)
    return sum(owners.values())


class _CacheEntry:
    __slots__ = ("value", "nbytes", "refs")

    def __init__(self, value: RoundRows, nbytes: int):
        self.value = value
        self.nbytes = nbytes
        self.refs = 0


class RoundDecodeCache:
    """Shared ``(store, round) -> decoded cohort`` cache.

    Keys are store *identities* (held weakly: a store being garbage
    collected purges its entries), values are the exact
    :class:`~repro.storage.store.RoundRows` ``store.get_round(t)``
    returned, with its rows flagged read-only.  :meth:`acquire` pins the entry
    (refcount) so an active prefetch window can never have its rounds
    evicted under it; :meth:`release` unpins.  Eviction is LRU over
    unpinned entries once ``nbytes`` exceeds ``max_bytes``.

    ``drop_client`` coherence: the owning service calls
    :meth:`discard_client` after purging an erased client, which
    replaces affected entries with rounds that omit the client (new
    values over the same decoded block, so consumers already holding
    the old one are unaffected).

    Thread-safe; decodes run outside the lock, and a lost decode race
    adopts the winner's entry so all consumers share one value.
    """

    def __init__(self, max_bytes: int = 64 * 1024 * 1024):
        if max_bytes <= 0:
            raise ValueError("max_bytes must be positive")
        self.max_bytes = int(max_bytes)
        self._lock = threading.Lock()
        self._entries: "OrderedDict[Tuple[int, int], _CacheEntry]" = OrderedDict()
        self._nbytes = 0
        self._finalizers: Dict[int, object] = {}
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    # ------------------------------------------------------------------
    def _purge_store(self, store_id: int) -> None:
        with self._lock:
            self._finalizers.pop(store_id, None)
            dead = [k for k in self._entries if k[0] == store_id]
            for key in dead:
                self._nbytes -= self._entries.pop(key).nbytes
            self._set_bytes_gauge()

    def _set_bytes_gauge(self) -> None:
        telemetry = current_telemetry()
        if telemetry.enabled:
            telemetry.set_gauge("storage_prefetch_cache_bytes", self._nbytes)

    def _evict_over_budget(self) -> None:
        # Called under the lock.  Pinned entries are skipped: an active
        # prefetch window keeps its rounds resident by contract.
        telemetry = current_telemetry()
        while self._nbytes > self.max_bytes:
            victim = next(
                (k for k, e in self._entries.items() if e.refs == 0), None
            )
            if victim is None:
                break
            self._nbytes -= self._entries.pop(victim).nbytes
            self.evictions += 1
            if telemetry.enabled:
                telemetry.inc("storage_prefetch_cache_evictions_total")

    # ------------------------------------------------------------------
    def acquire(
        self, store: object, round_index: int
    ) -> Tuple[Optional[RoundRows], bool]:
        """``(decoded cohort, was_hit)`` for ``store``'s ``round_index``.

        Pins the entry; callers must :meth:`release` it exactly once.
        A failed decode returns ``(None, False)`` without caching or
        pinning — failures stay retryable, matching the synchronous
        path where every request re-attempts the bulk read.
        """
        key = (id(store), int(round_index))
        telemetry = current_telemetry()
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                self._entries.move_to_end(key)
                entry.refs += 1
                self.hits += 1
                if telemetry.enabled:
                    telemetry.inc("storage_prefetch_cache_hits_total")
                return entry.value, True
        try:
            decoded = RoundRows.of(store.get_round(round_index))
        except Exception:
            with self._lock:
                self.misses += 1
            if telemetry.enabled:
                telemetry.inc("storage_prefetch_cache_misses_total")
            return None, False
        decoded = _freeze(decoded)
        nbytes = _held_bytes(decoded)
        with self._lock:
            self.misses += 1
            entry = self._entries.get(key)
            if entry is None:
                if key[0] not in self._finalizers:
                    try:
                        self._finalizers[key[0]] = weakref.finalize(
                            store, self._purge_store, key[0]
                        )
                    except TypeError:
                        # Store type without weakref support: entries
                        # live until invalidate()/clear().
                        self._finalizers[key[0]] = None
                entry = _CacheEntry(decoded, nbytes)
                self._entries[key] = entry
                self._nbytes += nbytes
                self._evict_over_budget()
            # else: lost a decode race — adopt the winner's value so
            # every consumer shares one materialization.
            self._entries.move_to_end(key)
            entry.refs += 1
            self._set_bytes_gauge()
        if telemetry.enabled:
            telemetry.inc("storage_prefetch_cache_misses_total")
        return entry.value, False

    def release(self, store: object, round_index: int) -> None:
        """Unpin one :meth:`acquire`; the entry becomes evictable."""
        key = (id(store), int(round_index))
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None and entry.refs > 0:
                entry.refs -= 1
            self._evict_over_budget()

    # ------------------------------------------------------------------
    def discard_client(self, store: object, client_id: int) -> int:
        """Drop ``client_id`` from every cached round of ``store``.

        The cache-side mirror of ``store.drop_client``: affected
        entries are *replaced* with :meth:`RoundRows.without
        <repro.storage.store.RoundRows.without>` the client, so rounds
        already handed to consumers are untouched.  Returns the number
        of entries rewritten.
        """
        store_id = id(store)
        rewritten = 0
        with self._lock:
            for key in list(self._entries):
                if key[0] != store_id:
                    continue
                entry = self._entries[key]
                if client_id not in entry.value:
                    continue
                value = entry.value.without(client_id)
                nbytes = _held_bytes(value)
                self._nbytes += nbytes - entry.nbytes
                replacement = _CacheEntry(value, nbytes)
                replacement.refs = entry.refs
                self._entries[key] = replacement
                rewritten += 1
            self._set_bytes_gauge()
        return rewritten

    def invalidate(self, store: object) -> int:
        """Drop every entry of ``store``; returns the count removed."""
        store_id = id(store)
        with self._lock:
            dead = [k for k in self._entries if k[0] == store_id]
            for key in dead:
                self._nbytes -= self._entries.pop(key).nbytes
            self._set_bytes_gauge()
        return len(dead)

    def clear(self) -> None:
        """Drop every entry (counters are cumulative and survive)."""
        with self._lock:
            self._entries.clear()
            self._nbytes = 0
            self._set_bytes_gauge()

    # ------------------------------------------------------------------
    @property
    def nbytes(self) -> int:
        """Bytes of decoded buffers currently cached, each shared
        block counted once."""
        with self._lock:
            return self._nbytes

    @property
    def entries(self) -> int:
        """Number of cached rounds."""
        with self._lock:
            return len(self._entries)

    @property
    def pinned_entries(self) -> int:
        """Entries currently pinned by active prefetch windows."""
        with self._lock:
            return sum(1 for e in self._entries.values() if e.refs > 0)

    def hit_rate(self) -> float:
        """``hits / (hits + misses)``; 0.0 before any traffic."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


@dataclass
class PrefetchStats:
    """Counters of one :class:`RoundPrefetcher`'s lifetime.

    ``hits`` — fetches whose decode had already completed in the
    background; ``stalls`` — fetches that waited on an in-flight decode
    (partially overlapped; the wait lands in
    ``storage_prefetch_stall_seconds``); ``misses`` — fetches decoded
    inline because the round was never scheduled; ``cancelled`` —
    scheduled decodes abandoned by :meth:`RoundPrefetcher.close`.
    """

    hits: int = 0
    misses: int = 0
    stalls: int = 0
    cancelled: int = 0
    stall_seconds: float = 0.0
    failed: int = 0
    extra: Dict[str, float] = field(default_factory=dict)


#: Background-task result meaning "abandoned before decoding".
_CANCELLED = object()


class RoundPrefetcher:
    """Bounded look-ahead decoder for one replay's round sequence.

    Parameters
    ----------
    store:
        The gradient store (must support bulk ``get_round``; callers
        gate on ``supports_bulk_round`` exactly like the synchronous
        path).
    rounds:
        The ascending round indices this replay will read, in order.
        Rounds the consumer ends up skipping are cancelled (or their
        completed decodes released) when :meth:`fetch` passes them.
    depth:
        Look-ahead window: up to ``depth`` rounds decode ahead of the
        consumer.  Must be >= 1 — depth 0 means "don't build a
        prefetcher" (the callers' synchronous path).
    cache:
        Optional shared :class:`RoundDecodeCache`.  When present, every
        background decode resolves through it (pinned for the life of
        the window) so concurrent replays share materializations.
    cancel_check:
        The replay's cooperative-cancellation hook (the daemon's
        deadline poll).  Polled on the background thread before each
        decode: once it raises, remaining scheduled rounds are
        abandoned, so a deadline abort stops paying for look-ahead it
        will never consume.
    executor:
        Optional externally-owned
        :class:`~concurrent.futures.ThreadPoolExecutor` (the service's
        shared pool).  When omitted, a private pool is built and shut
        down with the prefetcher.
    workers:
        Thread count for the private pool (ignored with ``executor``).
        ``None`` (default) sizes it like a readahead queue —
        ``min(depth, 4)`` — so several in-flight rounds can block on
        storage concurrently when the backend's reads actually wait
        (cold-device blocks, remote tiers).
    """

    def __init__(
        self,
        store: object,
        rounds: Sequence[int],
        depth: int,
        cache: Optional[RoundDecodeCache] = None,
        cancel_check=None,
        executor: Optional[ThreadPoolExecutor] = None,
        workers: Optional[int] = None,
    ):
        if depth < 1:
            raise ValueError(
                "depth must be >= 1 (depth 0 is the synchronous path; "
                "don't construct a prefetcher for it)"
            )
        self.store = store
        self.depth = int(depth)
        self.cache = cache
        self.cancel_check = cancel_check
        self._seq: List[int] = [int(t) for t in rounds]
        self._next_idx = 0
        self._futures: "OrderedDict[int, object]" = OrderedDict()
        self._lock = threading.Lock()
        self._pins: Dict[int, int] = {}
        self._handed: Optional[int] = None
        # Two distinct stop signals: ``_stopped`` means the replay's
        # cancel_check fired — schedule no further look-ahead, but the
        # consumer may still fetch (inline) until its own poll raises.
        # ``_cancelled`` means close() ran — the window is dead and any
        # racing decode must give its pin straight back.
        self._stopped = False
        self._cancelled = False
        self._closed = False
        self.stats = PrefetchStats()
        if executor is not None:
            self._executor = executor
            self._owns_executor = False
        else:
            if workers is None:
                workers = min(self.depth, 4)
            self._executor = ThreadPoolExecutor(max(1, int(workers)))
            self._owns_executor = True
        self._top_up()

    # ------------------------------------------------------------------
    def _decode(self, t: int) -> Optional[RoundRows]:
        """One round's cohort via the cache (pinning) or the store."""
        if self.cache is not None:
            value, _ = self.cache.acquire(self.store, t)
            with self._lock:
                if value is not None:
                    if self._cancelled:
                        # close() ran while we were decoding: the window
                        # is dead, give the pin back immediately.
                        self.cache.release(self.store, t)
                        return None
                    self._pins[t] = self._pins.get(t, 0) + 1
            return value
        try:
            return RoundRows.of(self.store.get_round(t))
        except Exception:
            return None

    def _task(self, t: int):
        if self._cancelled or self._stopped:
            return _CANCELLED
        if self.cancel_check is not None:
            try:
                self.cancel_check()
            except BaseException:
                # The replay loop's own poll raises authoritatively on
                # its thread; here it only stops further look-ahead.
                self._stopped = True
                return _CANCELLED
        return self._decode(t)

    def _top_up(self) -> None:
        while (
            not self._cancelled
            and not self._stopped
            and len(self._futures) < self.depth
            and self._next_idx < len(self._seq)
        ):
            t = self._seq[self._next_idx]
            self._next_idx += 1
            self._futures[t] = self._executor.submit(self._task, t)

    def _release_pin(self, t: int) -> None:
        with self._lock:
            count = self._pins.pop(t, 0)
        if self.cache is not None:
            for _ in range(count):
                self.cache.release(self.store, t)

    def _discard_future(self, t: int, future) -> None:
        """Abandon a scheduled round the consumer will never fetch."""
        if future.cancel():
            self.stats.cancelled += 1
            telemetry = current_telemetry()
            if telemetry.enabled:
                telemetry.inc("storage_prefetch_cancelled_total")
        else:
            try:
                future.result()
            except BaseException:
                pass
        self._release_pin(t)

    # ------------------------------------------------------------------
    def fetch(self, t: int) -> Optional[RoundRows]:
        """Round ``t``'s decoded cohort, or ``None`` on decode failure.

        Identical in value to ``store.get_round(t)`` (with the
        synchronous path's try/except semantics: a failed bulk decode
        returns ``None`` and the caller falls back to per-client
        reads).  Consumes the background decode when one is scheduled,
        decodes inline otherwise, then tops the look-ahead window up.
        The previous round's cache pin is released here, so a consumer
        only ever pins its active window.
        """
        if self._closed:
            raise RuntimeError("prefetcher is closed")
        t = int(t)
        if self._handed is not None and self._handed != t:
            self._release_pin(self._handed)
        self._handed = None
        # Rounds scheduled but skipped by the consumer (e.g. a damaged
        # checkpoint skipped the round before its gradient read).
        for skipped in [k for k in self._futures if k < t]:
            self._discard_future(skipped, self._futures.pop(skipped))
        telemetry = current_telemetry()
        future = self._futures.pop(t, None)
        if future is None:
            self.stats.misses += 1
            if telemetry.enabled:
                telemetry.inc("storage_prefetch_misses_total")
            if self._next_idx < len(self._seq) and self._seq[self._next_idx] == t:
                self._next_idx += 1
            value = self._decode(t)
        else:
            if future.done():
                self.stats.hits += 1
                if telemetry.enabled:
                    telemetry.inc("storage_prefetch_hits_total")
                value = future.result()
            else:
                self.stats.stalls += 1
                self.stats.hits += 1
                if telemetry.enabled:
                    telemetry.inc("storage_prefetch_hits_total")
                with telemetry.span("storage_prefetch_stall_seconds"):
                    value = future.result()
            if value is _CANCELLED:
                # Look-ahead stopped (deadline poll); decode inline so
                # the consumer still observes synchronous semantics.
                value = self._decode(t)
        if value is None:
            self.stats.failed += 1
        self._handed = t
        self._top_up()
        return value

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Cancel queued decodes, release every pin, join owned threads.

        Idempotent, and the only teardown callers need: after it, no
        future is pending and no cache entry is pinned by this
        prefetcher — asserted by the deadline-abort tests.
        """
        if self._closed:
            return
        self._cancelled = True
        telemetry = current_telemetry()
        for t, future in list(self._futures.items()):
            if future.cancel():
                self.stats.cancelled += 1
                if telemetry.enabled:
                    telemetry.inc("storage_prefetch_cancelled_total")
            else:
                try:
                    future.result()
                except BaseException:
                    pass
            self._release_pin(t)
        self._futures.clear()
        if self._handed is not None:
            self._release_pin(self._handed)
            self._handed = None
        # Belt and braces: a racing _decode may have recorded a pin
        # between the future sweep and here.
        for t in list(self._pins):
            self._release_pin(t)
        if self._owns_executor:
            self._executor.shutdown()
        self._closed = True

    def __enter__(self) -> "RoundPrefetcher":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False
