"""Server-side history stores.

During FL training the RSU records, per round:

- the global model parameters ``w_t`` (a :class:`ModelCheckpointStore`),
- each participating client's update (a :class:`GradientStore`).

The paper's scheme stores only the 2-bit gradient *direction*
(:class:`SignGradientStore`); the FedRecover baseline stores full
float32 gradients (:class:`FullGradientStore`).  Both implement the
same interface so the unlearning algorithms are backend-agnostic, and
both account their exact byte usage for the storage benchmark.

Telemetry: every ``put``/``get`` times the codec work
(``storage_encode_seconds`` / ``storage_decode_seconds`` spans), counts
elements and bytes for throughput (``storage_*_elements_total``,
``storage_put_bytes_total`` vs ``storage_raw_bytes_total``), and sets
the ``storage_compression_ratio`` gauge, all labelled by backend
(``sign``/``full``) — see ``docs/METRICS.md``.  With the default null
telemetry the instrumentation short-circuits to nothing.
"""

from __future__ import annotations

import threading
from collections.abc import Mapping
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

import numpy as np

from repro.storage.sign_codec import (
    decode_gradient,
    decode_round,
    encode_gradient,
    encode_round,
    packed_size_bytes,
    unpack_signs,
)
from repro.telemetry.core import current_telemetry

__all__ = [
    "GradientStore",
    "RoundRows",
    "round_block",
    "FullGradientStore",
    "SignGradientStore",
    "ModelCheckpointStore",
    "make_gradient_store",
]

# Backends of a derived sign-store view
# (:func:`repro.fl.history.with_sign_store`): ``"dict"`` (in-memory
# SignGradientStore), or the on-disk sign layout read-only (``"mmap"``,
# MmapSignGradientStore) or appendable (``"tiered"``,
# TieredSignGradientStore).  ``python -m repro.eval --store`` picks one
# per run.
SIGN_BACKENDS = ("dict", "mmap", "tiered")


class RoundRows(Mapping):
    """One decoded round: ``client_id -> row``, with the rows as one block.

    ``cids`` holds the round's client ids ascending (int64) and row ``i``
    of :attr:`block` is client ``cids[i]``'s stored direction — int8
    from the sign stores' LUT decode, float64 from per-client ``get``.
    As a mapping it is what ``get_round`` always returned: ``len()``,
    ``.get(cid)`` and iteration (ascending ids) are unchanged, and each
    value is a row view of the decoded block.  A round whose rows differ
    in length has no block (``block`` is None) and keeps its rows apart.

    :meth:`without` drops a client without copying a row: the decoded
    block stays whole and the rows left are picked from it when read.
    """

    __slots__ = ("cids", "_base", "_at", "_ragged")

    def __init__(self, cids, base: Optional[np.ndarray], at=None, ragged=None):
        self.cids = np.asarray(cids, dtype=np.int64)
        self._base = base
        self._at = at  # block row i is _base[_at[i]]; None: _base[i]
        self._ragged = ragged

    @classmethod
    def of(cls, rows: "Mapping[int, np.ndarray]") -> "RoundRows":
        """``rows`` as a :class:`RoundRows` (itself when it is one): one
        stacked block when every row is flat and of one length."""
        if isinstance(rows, RoundRows):
            return rows
        cids = sorted(rows)
        vectors = [np.asarray(rows[cid]) for cid in cids]
        if not vectors:
            return cls(cids, np.empty((0, 0), dtype=np.int8))
        if len({v.shape for v in vectors}) == 1 and vectors[0].ndim == 1:
            return cls(cids, np.stack(vectors))
        return cls(cids, None, ragged=vectors)

    @property
    def block(self) -> Optional[np.ndarray]:
        """The ``(len(cids), d)`` row block; None for a ragged round."""
        if self._base is None or self._at is None:
            return self._base
        return np.take(self._base, self._at, axis=0)

    def rows_at(self, positions: np.ndarray) -> Optional[np.ndarray]:
        """The block rows at ascending ``positions`` into :attr:`cids`:
        a view when they are contiguous in the decoded block, else one
        ``take``.  None for a ragged round."""
        if self._base is None:
            return None
        rows = positions if self._at is None else self._at[positions]
        if not rows.size:
            return self._base[:0]
        first = int(rows[0])
        if rows[-1] - first + 1 == rows.size:
            return self._base[first : first + rows.size]
        return np.take(self._base, rows, axis=0)

    def without(self, client_id: int) -> "RoundRows":
        """This round minus ``client_id``'s row (itself when absent)."""
        try:
            i = self._position(client_id)
        except KeyError:
            return self
        if self._base is None:
            return RoundRows.of({c: row for c, row in self.items() if c != client_id})
        at = np.arange(len(self.cids)) if self._at is None else self._at
        return RoundRows(np.delete(self.cids, i), self._base, at=np.delete(at, i))

    def arrays(self) -> List[np.ndarray]:
        """The arrays holding the rows (the decoded block, or each row)."""
        return self._ragged if self._base is None else [self._base]

    def _position(self, client_id) -> int:
        i = int(np.searchsorted(self.cids, client_id))
        if i < len(self.cids) and self.cids[i] == client_id:
            return i
        raise KeyError(client_id)

    def __getitem__(self, client_id) -> np.ndarray:
        i = self._position(client_id)
        if self._base is None:
            return self._ragged[i]
        return self._base[i if self._at is None else self._at[i]]

    def __iter__(self) -> Iterator[int]:
        return iter(self.cids.tolist())

    def __len__(self) -> int:
        return len(self.cids)


def round_block(updates: Mapping[int, np.ndarray]) -> Optional[np.ndarray]:
    """A round's updates as one ``(n, d)`` block, rows in the mapping's
    order: a :class:`RoundRows` block as it is, any other mapping's flat
    rows stacked; None when the rows differ in length."""
    if isinstance(updates, RoundRows):
        return updates.block
    vectors = [np.asarray(g).ravel() for g in updates.values()]
    if len({v.size for v in vectors}) != 1:
        return None
    return np.stack(vectors)


class GradientStore:
    """Interface for per-round, per-client gradient records."""

    #: True when :meth:`get_round` is a genuine batched implementation
    #: with per-entry semantics safe for replay (missing records are
    #: simply absent from the result).  Wrappers that inject per-record
    #: faults leave this False so the recovery loop keeps its
    #: per-client error isolation.
    supports_bulk_round = False

    #: ``backend`` label the base :meth:`get_round` fallback stamps on
    #: its decode telemetry.
    telemetry_backend = "sign"

    def put(self, round_index: int, client_id: int, gradient: np.ndarray) -> None:
        """Record ``gradient`` for ``client_id`` at ``round_index``."""
        raise NotImplementedError

    def put_round(
        self, round_index: int, updates: Dict[int, np.ndarray]
    ) -> None:
        """Record one whole round of ``client_id -> gradient`` updates.

        Equivalent to calling :meth:`put` per client in the dict's
        iteration order; backends may override it with a batched encode
        (see :meth:`SignGradientStore.put_round`).  The server's round
        commit goes through here.
        """
        for client_id, gradient in updates.items():
            self.put(round_index, client_id, gradient)

    def get(self, round_index: int, client_id: int) -> np.ndarray:
        """Retrieve the stored representation as a float64 vector.

        For a sign store this is the *direction* vector in
        ``{-1, 0, +1}``; for a full store it is the gradient itself.
        Always float64, so callers may do float arithmetic on it (the
        L-BFGS seeding's ``get(j) - g_anchor``); only the bulk
        :meth:`get_round` hands out int8 sign rows.
        """
        raise NotImplementedError

    def encoded_round(
        self, round_index: int
    ) -> "Optional[Dict[int, Tuple[np.ndarray, int]]]":
        """One round's raw ``{client_id: (packed, length)}`` payloads.

        Optional codec hook: sign backends return their 2-bit payloads
        without decoding, which lets the base :meth:`get_round`
        fallback batch the whole cohort through one
        :func:`~repro.storage.sign_codec.decode_round` LUT pass even
        when the backend does not advertise ``supports_bulk_round``.
        The base implementation returns ``None`` (no encoded view
        available); backends without sign payloads leave it that way.
        """
        return None

    def get_round(self, round_index: int) -> RoundRows:
        """Decode one whole round as ``{client_id: vector}`` rows of one
        block (:class:`RoundRows`; empty for a round with no records).

        The base implementation batches the round through one
        :func:`~repro.storage.sign_codec.decode_round` pass when the
        backend exposes :meth:`encoded_round` payloads (per-row
        :func:`~repro.storage.sign_codec.unpack_signs` when payload
        lengths differ); sign rows come back as **int8**, equal in
        value to per-client :meth:`get`, which returns float64.  A
        backend without encoded payloads falls back to a per-client
        :meth:`get` loop.  Backends with a genuinely batched read path
        set ``supports_bulk_round``.
        """
        try:
            encoded = self.encoded_round(round_index)
        except Exception:
            encoded = None
        if not encoded:
            ids = self.clients_at(round_index)
            return RoundRows.of({cid: self.get(round_index, cid) for cid in ids})
        cids = sorted(encoded)
        entries = [encoded[cid] for cid in cids]
        telemetry = current_telemetry()
        backend = getattr(self, "telemetry_backend", "sign")
        lengths = {length for _, length in entries}
        with telemetry.span("storage_decode_seconds"):
            if len(lengths) == 1:
                block = np.stack([np.ravel(packed) for packed, _ in entries])
                out = RoundRows(cids, decode_round(block, lengths.pop()))
            else:
                out = RoundRows.of(
                    {
                        cid: unpack_signs(np.ravel(packed), length)
                        for cid, (packed, length) in zip(cids, entries)
                    }
                )
        if telemetry.enabled:
            telemetry.inc(
                "storage_decoded_elements_total",
                sum(length for _, length in entries),
                backend=backend,
            )
            telemetry.inc(
                "storage_bulk_decode_rounds_total", 1, backend=backend
            )
        return out

    def has(self, round_index: int, client_id: int) -> bool:
        """Whether a record exists."""
        raise NotImplementedError

    def rounds(self) -> List[int]:
        """Sorted list of rounds with at least one record."""
        raise NotImplementedError

    def clients_at(self, round_index: int) -> List[int]:
        """Sorted client ids recorded at ``round_index``."""
        raise NotImplementedError

    def items(self) -> List[Tuple[Tuple[int, int], object]]:
        """All records as ``((round, client_id), payload)`` pairs, sorted.

        The payload is backend-native — the float32 gradient for a full
        store, the ``(packed, length)`` tuple for a sign store — which
        is what persistence and the round journal need to serialize a
        store without reaching into its internals.  Payloads are the
        stored objects; treat them as read-only.
        """
        raise NotImplementedError

    def nbytes(self) -> int:
        """Total payload bytes currently stored."""
        raise NotImplementedError

    def drop_client(self, client_id: int) -> int:
        """Delete every record of ``client_id``; returns records removed.

        Called after unlearning: once a client is forgotten the server
        must also purge its stored updates.
        """
        raise NotImplementedError


class _FreshMutexOnCopy:
    """``copy.deepcopy``/``pickle`` support for the in-memory stores: a
    ``threading.Lock`` can be neither copied nor pickled, so the state
    travels without ``_mutex`` and the copy gets a new one."""

    def __getstate__(self) -> Dict:
        state = self.__dict__.copy()
        del state["_mutex"]
        return state

    def __setstate__(self, state: Dict) -> None:
        self.__dict__.update(state)
        self._mutex = threading.Lock()


class FullGradientStore(_FreshMutexOnCopy, GradientStore):
    """Float32 full-gradient store — the FedRecover/FedEraser baseline."""

    supports_bulk_round = True
    telemetry_backend = "full"

    def __init__(self) -> None:
        self._records: Dict[Tuple[int, int], np.ndarray] = {}
        self._nbytes = 0
        # Index + mutex make concurrent replay reads safe against the
        # live round loop's writes (see SignGradientStore for the full
        # rationale — the two stores share the scheme).
        self._mutex = threading.Lock()
        self._round_clients: Dict[int, List[int]] = {}
        self._client_rounds: Dict[int, List[int]] = {}

    def put(self, round_index: int, client_id: int, gradient: np.ndarray) -> None:
        telemetry = current_telemetry()
        with telemetry.span("storage_encode_seconds"):
            stored = np.asarray(gradient, dtype=np.float32).copy()
        key = (round_index, client_id)
        with self._mutex:
            previous = self._records.get(key)
            if previous is not None:
                self._nbytes -= previous.nbytes
            else:
                self._round_clients.setdefault(round_index, []).append(client_id)
                self._client_rounds.setdefault(client_id, []).append(round_index)
            self._records[key] = stored
            self._nbytes += stored.nbytes
        if telemetry.enabled:
            telemetry.inc(
                "storage_encoded_elements_total", stored.size, backend="full"
            )
            telemetry.inc("storage_put_bytes_total", stored.nbytes, backend="full")
            telemetry.inc("storage_raw_bytes_total", stored.nbytes, backend="full")
            telemetry.set_gauge("storage_compression_ratio", 1.0, backend="full")

    def get(self, round_index: int, client_id: int) -> np.ndarray:
        key = (round_index, client_id)
        if key not in self._records:
            raise KeyError(f"no gradient for client {client_id} at round {round_index}")
        telemetry = current_telemetry()
        with telemetry.span("storage_decode_seconds"):
            decoded = self._records[key].astype(np.float64)
        if telemetry.enabled:
            telemetry.inc(
                "storage_decoded_elements_total", decoded.size, backend="full"
            )
        return decoded

    def has(self, round_index: int, client_id: int) -> bool:
        return (round_index, client_id) in self._records

    def rounds(self) -> List[int]:
        with self._mutex:
            return sorted(t for t, ids in self._round_clients.items() if ids)

    def clients_at(self, round_index: int) -> List[int]:
        with self._mutex:
            return sorted(self._round_clients.get(round_index, ()))

    def items(self) -> List[Tuple[Tuple[int, int], np.ndarray]]:
        """Sorted ``((round, client), float32 gradient)`` pairs."""
        with self._mutex:
            return sorted(self._records.items())

    def nbytes(self) -> int:
        # Maintained incrementally at put/drop time: O(1) instead of a
        # full scan, which matters once per-round journaling polls it.
        return int(self._nbytes)

    def recount_nbytes(self) -> int:
        """Recompute the byte total from the records — the accounting
        oracle the incremental ``nbytes`` cache is tested against."""
        with self._mutex:
            return int(sum(g.nbytes for g in self._records.values()))

    def drop_client(self, client_id: int) -> int:
        with self._mutex:
            rounds = self._client_rounds.pop(client_id, [])
            for t in rounds:
                self._nbytes -= self._records.pop((t, client_id)).nbytes
                ids = self._round_clients.get(t)
                if ids is not None:
                    ids.remove(client_id)
                    if not ids:
                        del self._round_clients[t]
            return len(rounds)


class SignGradientStore(_FreshMutexOnCopy, GradientStore):
    """The paper's store: δ-thresholded direction, 2 bits per element.

    Parameters
    ----------
    delta:
        Sign threshold δ (paper default 1e-6).  Elements with
        ``|g| <= delta`` are stored as 0.
    """

    supports_bulk_round = True

    def __init__(self, delta: float = 1e-6):
        if delta < 0:
            raise ValueError(f"delta must be non-negative, got {delta}")
        self.delta = delta
        self._records: Dict[Tuple[int, int], Tuple[np.ndarray, int]] = {}
        self._nbytes = 0
        # Concurrent-read support for the live-traffic path: a pinned
        # replay reads rounds below its watermark while the round loop
        # keeps appending new rounds (and an erasure commit may drop a
        # client).  Readers resolve cohorts through these indexes and
        # per-key dict gets instead of iterating ``_records``, and every
        # structural mutation happens under ``_mutex`` — so a reader
        # never observes a dict mid-resize or an index mid-edit.
        self._mutex = threading.Lock()
        self._round_clients: Dict[int, List[int]] = {}
        self._client_rounds: Dict[int, List[int]] = {}

    def _store(self, key: Tuple[int, int], packed: np.ndarray, length: int) -> None:
        # Single choke point for payload normalization and byte
        # accounting.  Payloads are stored flat (1-D contiguous uint8):
        # a reshaped or padded payload slipped in through put_encoded
        # would otherwise make the incremental nbytes cache diverge
        # from a recount after a drop-then-reinsert of the same key.
        packed = np.ascontiguousarray(packed, dtype=np.uint8).reshape(-1)
        with self._mutex:
            previous = self._records.pop(key, None)
            if previous is not None:
                self._nbytes -= previous[0].nbytes
            else:
                self._round_clients.setdefault(key[0], []).append(key[1])
                self._client_rounds.setdefault(key[1], []).append(key[0])
            self._records[key] = (packed, length)
            self._nbytes += packed.nbytes

    def put(self, round_index: int, client_id: int, gradient: np.ndarray) -> None:
        telemetry = current_telemetry()
        with telemetry.span("storage_encode_seconds"):
            packed, length = encode_gradient(np.asarray(gradient).ravel(), self.delta)
        self._store((round_index, client_id), packed, length)
        if telemetry.enabled:
            raw_bytes = length * 4  # float32 equivalent — the §IV baseline
            telemetry.inc("storage_encoded_elements_total", length, backend="sign")
            telemetry.inc("storage_put_bytes_total", packed.nbytes, backend="sign")
            telemetry.inc("storage_raw_bytes_total", raw_bytes, backend="sign")
            if raw_bytes:
                telemetry.set_gauge(
                    "storage_compression_ratio", packed.nbytes / raw_bytes,
                    backend="sign",
                )

    def put_round(self, round_index: int, updates: Dict[int, np.ndarray]) -> None:
        """Batched round commit: one vectorized ternarize+pack pass.

        Encodes the round's ``(num_clients, d)`` matrix (a
        :class:`RoundRows` block as it is; other mappings are stacked)
        through :func:`repro.storage.sign_codec.encode_round` — each stored row
        is bitwise identical to what per-client :meth:`put` calls would
        produce, and the telemetry counters advance by the same totals
        (under a single ``storage_encode_seconds`` span).  Falls back to
        per-client puts when the updates differ in length.
        """
        if not updates:
            return
        block = round_block(updates)
        if block is None:
            for client_id, gradient in updates.items():
                self.put(round_index, client_id, gradient)
            return
        telemetry = current_telemetry()
        with telemetry.span("storage_encode_seconds"):
            packed_rows, length = encode_round(block, self.delta)
        for client_id, row in zip(updates, packed_rows):
            # Row copies detach from the (n, bytes) batch matrix so a
            # later drop_client actually frees the payload.
            self._store((round_index, client_id), row.copy(), length)
        if telemetry.enabled:
            n = len(block)
            raw_bytes = length * 4 * n  # float32 equivalent — the §IV baseline
            telemetry.inc(
                "storage_encoded_elements_total", length * n, backend="sign"
            )
            telemetry.inc(
                "storage_put_bytes_total", packed_rows.nbytes, backend="sign"
            )
            telemetry.inc("storage_raw_bytes_total", raw_bytes, backend="sign")
            if raw_bytes:
                telemetry.set_gauge(
                    "storage_compression_ratio",
                    packed_rows.nbytes / raw_bytes,
                    backend="sign",
                )

    def put_encoded(
        self, round_index: int, client_id: int, packed: np.ndarray, length: int
    ) -> None:
        """Insert an already-encoded ``(packed, length)`` payload verbatim.

        Used when deserializing a persisted record: re-encoding a
        decoded direction through :meth:`put` would re-threshold against
        ``delta`` and is needlessly lossy for ``delta >= 1``.
        """
        packed = np.asarray(packed, dtype=np.uint8)
        if length < 0:
            raise ValueError("length must be non-negative")
        if packed.size != packed_size_bytes(length):
            raise ValueError(
                f"packed payload of {packed.size} bytes cannot hold {length} "
                "2-bit elements"
            )
        # reshape(-1) flattens multi-dimensional payloads; the copy
        # detaches from the caller's array either way.
        self._store((round_index, client_id), packed.reshape(-1).copy(), int(length))

    def get(self, round_index: int, client_id: int) -> np.ndarray:
        key = (round_index, client_id)
        if key not in self._records:
            raise KeyError(f"no gradient for client {client_id} at round {round_index}")
        packed, length = self._records[key]
        telemetry = current_telemetry()
        with telemetry.span("storage_decode_seconds"):
            decoded = decode_gradient(packed, length)
        if telemetry.enabled:
            telemetry.inc("storage_decoded_elements_total", length, backend="sign")
        return decoded

    def encoded_round(
        self, round_index: int
    ) -> Optional[Dict[int, Tuple[np.ndarray, int]]]:
        """Raw ``{client: (packed, length)}`` payloads of one round."""
        with self._mutex:
            ids = list(self._round_clients.get(round_index, ()))
        out: Dict[int, Tuple[np.ndarray, int]] = {}
        for cid in ids:
            # Per-key get is atomic; a concurrent drop just makes the
            # entry absent, same as a historical dropout.
            rec = self._records.get((round_index, cid))
            if rec is not None:
                out[cid] = rec
        return out

    def has(self, round_index: int, client_id: int) -> bool:
        return (round_index, client_id) in self._records

    def rounds(self) -> List[int]:
        with self._mutex:
            return sorted(t for t, ids in self._round_clients.items() if ids)

    def clients_at(self, round_index: int) -> List[int]:
        with self._mutex:
            return sorted(self._round_clients.get(round_index, ()))

    def items(self) -> List[Tuple[Tuple[int, int], Tuple[np.ndarray, int]]]:
        """Sorted ``((round, client), (packed, length))`` pairs."""
        with self._mutex:
            return sorted(self._records.items())

    def nbytes(self) -> int:
        # Maintained incrementally by _store/drop_client: O(1) instead
        # of a scan over every packed payload.
        return int(self._nbytes)

    def recount_nbytes(self) -> int:
        """Recompute the byte total from the records — the accounting
        oracle the incremental ``nbytes`` cache is tested against."""
        with self._mutex:
            return int(
                sum(packed.nbytes for packed, _ in self._records.values())
            )

    def drop_client(self, client_id: int) -> int:
        with self._mutex:
            rounds = self._client_rounds.pop(client_id, [])
            for t in rounds:
                self._nbytes -= self._records.pop((t, client_id))[0].nbytes
                ids = self._round_clients.get(t)
                if ids is not None:
                    ids.remove(client_id)
                    if not ids:
                        del self._round_clients[t]
            return len(rounds)


class ModelCheckpointStore:
    """Per-round global-model checkpoints ``w_t``.

    Every compared method needs these (the paper's scheme backtracks to
    ``w_F``; FedRecover/retraining need the initial state).  Stored as
    float32 — parameter precision, unlike gradient *direction*, matters
    for backtracking fidelity but float32 matches what a PyTorch server
    would hold.
    """

    def __init__(self) -> None:
        self._checkpoints: Dict[int, np.ndarray] = {}
        self._nbytes = 0

    def put(self, round_index: int, params: np.ndarray) -> None:
        """Record global model parameters at the *start* of ``round_index``."""
        stored = np.array(params, dtype=np.float32)  # one owned copy
        previous = self._checkpoints.get(round_index)
        if previous is not None:
            self._nbytes -= previous.nbytes
        self._checkpoints[round_index] = stored
        self._nbytes += stored.nbytes

    def get(self, round_index: int) -> np.ndarray:
        """Return ``w_t`` as float64; raises KeyError when absent."""
        if round_index not in self._checkpoints:
            raise KeyError(f"no checkpoint for round {round_index}")
        return self._checkpoints[round_index].astype(np.float64)

    def has(self, round_index: int) -> bool:
        """Whether a checkpoint exists for ``round_index``."""
        return round_index in self._checkpoints

    def rounds(self) -> List[int]:
        """Sorted rounds with a stored checkpoint."""
        return sorted(self._checkpoints)

    def latest(self) -> Tuple[int, np.ndarray]:
        """``(round, params)`` of the newest checkpoint."""
        if not self._checkpoints:
            raise KeyError("checkpoint store is empty")
        r = max(self._checkpoints)
        return r, self._checkpoints[r].astype(np.float64)

    def nbytes(self) -> int:
        """Total checkpoint payload bytes (maintained incrementally)."""
        return int(self._nbytes)

    def prune(self, keep: Iterable[int]) -> int:
        """Drop all checkpoints except ``keep``; returns count removed."""
        keep_set = set(keep)
        drop = [r for r in self._checkpoints if r not in keep_set]
        for r in drop:
            self._nbytes -= self._checkpoints[r].nbytes
            del self._checkpoints[r]
        return len(drop)


def make_gradient_store(kind: str, delta: float = 1e-6) -> GradientStore:
    """Factory: ``kind`` is ``"sign"`` (the paper) or ``"full"`` (baselines)."""
    if kind == "sign":
        return SignGradientStore(delta=delta)
    if kind == "full":
        return FullGradientStore()
    raise ValueError(f"unknown gradient store kind {kind!r}; use 'sign' or 'full'")
