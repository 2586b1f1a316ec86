"""Pipelined replay data path: round prefetcher + shared decode cache.

Every replay step of the recovery loop needs round ``t``'s decoded
cohort before any estimator/SGD work can start, and until this module
that read was synchronous: an mmap page-in + LUT sign decode, or a
whole-block zlib inflate on the tiered store's cold tier, sitting
serially inside the hot loop.  Two cooperating pieces overlap that
latency with compute:

:class:`RoundPrefetcher`
    A bounded look-ahead pipeline: while the replay loop computes round
    ``t``, rounds ``t+1 .. t+depth`` decode on the prefetcher's own
    ``min(depth, 4)``-thread pool, which :meth:`~RoundPrefetcher.close`
    shuts down — no decode thread outlives the replay that started it.
    ``depth=0`` degenerates to the synchronous path — callers skip the
    prefetcher entirely, so the default behaviour is byte-for-byte the
    pre-pipeline code.  The prefetcher is cooperatively cancelled
    through the same ``cancel_check`` path the serving daemon uses for
    deadlines: a deadline abort closes it at a committed round
    boundary, cancelling queued decodes.

:class:`RoundDecodeCache`
    A shared per-``(store, round)`` decode cache, an LRU bounded in
    bytes: concurrent daemon tickets, forest branches and successive
    replays over overlapping round windows resolve each round's decode
    once instead of once per request.  A decoded round is an immutable
    value — its arrays are flagged non-writeable, so a cached round can
    never be corrupted by one consumer and observed by another — and a
    consumer's reference alone keeps it alive, so eviction never
    touches a round in use: it only forces the next request to decode
    it again.

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
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.storage.store import RoundRows
from repro.telemetry.core import current_telemetry

__all__ = [
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


class RoundDecodeCache:
    """Shared ``(store, round) -> decoded cohort`` cache.

    Keys are store *identities* (held weakly: a store being garbage
    collected purges its entries), values are the exact
    :class:`~repro.storage.store.RoundRows` ``store.get_round(t)``
    returned, with its rows flagged read-only.  The cache is a plain
    LRU: :meth:`get` evicts the least recently used rounds once
    ``nbytes`` would exceed ``max_bytes``, and a round larger than the
    whole budget is returned but not kept, so ``nbytes <= max_bytes``
    holds after every call.

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
        # (store id, round) -> (decoded round, held bytes)
        self._entries: "OrderedDict[Tuple[int, int], Tuple[RoundRows, int]]" = (
            OrderedDict()
        )
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
                self._nbytes -= self._entries.pop(key)[1]
            self._set_bytes_gauge()

    def _set_bytes_gauge(self) -> None:
        telemetry = current_telemetry()
        if telemetry.enabled:
            telemetry.set_gauge("storage_prefetch_cache_bytes", self._nbytes)

    def _keep(
        self, store: object, key: Tuple[int, int], value: RoundRows, nbytes: int
    ) -> None:
        """Insert a fresh decode and evict LRU entries back under the
        budget (called under the lock, with ``nbytes <= max_bytes``)."""
        if key[0] not in self._finalizers:
            try:
                self._finalizers[key[0]] = weakref.finalize(
                    store, self._purge_store, key[0]
                )
            except TypeError:
                # Store type without weakref support: entries live
                # until they are evicted or clear() runs.
                self._finalizers[key[0]] = None
        self._entries[key] = (value, nbytes)
        self._nbytes += nbytes
        telemetry = current_telemetry()
        while self._nbytes > self.max_bytes:
            _, (_, dropped) = self._entries.popitem(last=False)
            self._nbytes -= dropped
            self.evictions += 1
            if telemetry.enabled:
                telemetry.inc("storage_prefetch_cache_evictions_total")
        self._set_bytes_gauge()

    # ------------------------------------------------------------------
    def get(
        self, store: object, round_index: int
    ) -> Tuple[Optional[RoundRows], bool]:
        """``(decoded cohort, was_hit)`` for ``store``'s ``round_index``.

        A failed decode returns ``(None, False)`` without caching —
        failures stay retryable, matching the synchronous path where
        every request re-attempts the bulk read.
        """
        key = (id(store), int(round_index))
        telemetry = current_telemetry()
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                self._entries.move_to_end(key)
                self.hits += 1
                if telemetry.enabled:
                    telemetry.inc("storage_prefetch_cache_hits_total")
                return entry[0], True
        try:
            decoded = _freeze(RoundRows.of(store.get_round(round_index)))
        except Exception:
            decoded = None
        nbytes = 0 if decoded is None else _held_bytes(decoded)
        with self._lock:
            self.misses += 1
            entry = None if decoded is None else self._entries.get(key)
            if entry is not None:
                # Lost a decode race: adopt the winner's value so every
                # consumer shares one materialization.
                self._entries.move_to_end(key)
                decoded = entry[0]
            elif decoded is not None and nbytes <= self.max_bytes:
                self._keep(store, key, decoded, nbytes)
        if telemetry.enabled:
            telemetry.inc("storage_prefetch_cache_misses_total")
        return decoded, False

    # ------------------------------------------------------------------
    def discard_client(self, store: object, client_id: int) -> int:
        """Drop ``client_id`` from every cached round of ``store``.

        The cache-side mirror of ``store.drop_client``: affected
        entries are *replaced* with :meth:`RoundRows.without
        <repro.storage.store.RoundRows.without>` the client, so rounds
        already handed to consumers are untouched.  A replacement holds
        no more bytes than the entry it replaces, so the budget still
        holds.  Returns the number of entries rewritten.
        """
        store_id = id(store)
        rewritten = 0
        with self._lock:
            for key, (value, nbytes) in list(self._entries.items()):
                if key[0] != store_id or client_id not in value:
                    continue
                value = value.without(client_id)
                held = _held_bytes(value)
                self._nbytes += held - nbytes
                self._entries[key] = (value, held)
                rewritten += 1
            self._set_bytes_gauge()
        return rewritten

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

    def hit_rate(self) -> float:
        """``hits / (hits + misses)``; 0.0 before any traffic."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


#: Background-task result meaning "abandoned before decoding".
_CANCELLED = object()


class RoundPrefetcher:
    """Bounded look-ahead decoder for one replay's round sequence.

    Decodes run on the prefetcher's own ``min(depth, 4)``-thread pool —
    sized like a readahead queue, so several in-flight rounds can block
    on storage concurrently when the backend's reads actually wait
    (cold-device blocks, remote tiers) — and :meth:`close` shuts it
    down.

    Parameters
    ----------
    store:
        The gradient store (must support bulk ``get_round``; callers
        gate on ``supports_bulk_round`` exactly like the synchronous
        path).
    rounds:
        The ascending round indices this replay will read, in order.
        Rounds the consumer ends up skipping are cancelled when
        :meth:`fetch` passes them.
    depth:
        Look-ahead window: up to ``depth`` rounds decode ahead of the
        consumer.  Must be >= 1 — depth 0 means "don't build a
        prefetcher" (the callers' synchronous path).
    cache:
        Optional shared :class:`RoundDecodeCache`.  When present, every
        decode resolves through it so concurrent and successive replays
        share materializations.
    cancel_check:
        The replay's cooperative-cancellation hook (the daemon's
        deadline poll).  Polled on the background thread before each
        decode: once it raises, remaining scheduled rounds are
        abandoned, so a deadline abort stops paying for look-ahead it
        will never consume.
    """

    def __init__(
        self,
        store: object,
        rounds: Sequence[int],
        depth: int,
        cache: Optional[RoundDecodeCache] = None,
        cancel_check=None,
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
        # Two distinct stop signals: ``_stopped`` means the replay's
        # cancel_check fired — schedule no further look-ahead, but the
        # consumer may still fetch (inline) until its own poll raises.
        # ``_closed`` means close() ran — the window is dead.
        self._stopped = False
        self._closed = False
        self._executor = ThreadPoolExecutor(min(self.depth, 4))
        self._top_up()

    # ------------------------------------------------------------------
    def _decode(self, t: int) -> Optional[RoundRows]:
        """One round's cohort via the cache or the store."""
        if self.cache is not None:
            return self.cache.get(self.store, t)[0]
        try:
            return RoundRows.of(self.store.get_round(t))
        except Exception:
            return None

    def _task(self, t: int):
        if self._closed or self._stopped:
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
            not self._closed
            and not self._stopped
            and len(self._futures) < self.depth
            and self._next_idx < len(self._seq)
        ):
            t = self._seq[self._next_idx]
            self._next_idx += 1
            self._futures[t] = self._executor.submit(self._task, t)

    @staticmethod
    def _cancel(future) -> None:
        """Abandon a scheduled round the consumer will never fetch; one
        already decoding just finishes into the cache."""
        if future.cancel():
            telemetry = current_telemetry()
            if telemetry.enabled:
                telemetry.inc("storage_prefetch_cancelled_total")

    # ------------------------------------------------------------------
    def fetch(self, t: int) -> Optional[RoundRows]:
        """Round ``t``'s decoded cohort, or ``None`` on decode failure.

        Identical in value to ``store.get_round(t)`` (with the
        synchronous path's try/except semantics: a failed bulk decode
        returns ``None`` and the caller falls back to per-client
        reads).  Consumes the background decode when one is scheduled,
        decodes inline otherwise, then tops the look-ahead window up.
        """
        if self._closed:
            raise RuntimeError("prefetcher is closed")
        t = int(t)
        # Rounds scheduled but skipped by the consumer (e.g. a damaged
        # checkpoint skipped the round before its gradient read).
        for skipped in [k for k in self._futures if k < t]:
            self._cancel(self._futures.pop(skipped))
        telemetry = current_telemetry()
        future = self._futures.pop(t, None)
        if future is None:
            if telemetry.enabled:
                telemetry.inc("storage_prefetch_misses_total")
            if self._next_idx < len(self._seq) and self._seq[self._next_idx] == t:
                self._next_idx += 1
            value = self._decode(t)
        else:
            if telemetry.enabled:
                telemetry.inc("storage_prefetch_hits_total")
            if future.done():
                value = future.result()
            else:
                with telemetry.span("storage_prefetch_stall_seconds"):
                    value = future.result()
            if value is _CANCELLED:
                # Look-ahead stopped (deadline poll); decode inline so
                # the consumer still observes synchronous semantics.
                value = self._decode(t)
        self._top_up()
        return value

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Cancel queued decodes and shut the thread pool down.

        Idempotent, and the only teardown callers need: after it, no
        decode is pending and no thread this prefetcher started is
        alive — asserted by the deadline-abort tests.
        """
        if self._closed:
            return
        self._closed = True
        for future in self._futures.values():
            self._cancel(future)
        self._futures.clear()
        self._executor.shutdown()

    def __enter__(self) -> "RoundPrefetcher":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False
