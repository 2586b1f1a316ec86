"""Server-side history stores.

During FL training the RSU records, per round:

- the global model parameters ``w_t`` (a :class:`ModelCheckpointStore`),
- each participating client's update (a :class:`GradientStore`).

The paper's scheme stores only the 2-bit gradient *direction*
(:class:`SignGradientStore`); the FedRecover baseline stores full
float32 gradients (:class:`FullGradientStore`).  Both are one
round-major container — per round an ascending id array and one block
of rows — behind the interface the unlearning algorithms share, and
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
from typing import Dict, Iterable, Iterator, List, Optional, Set, Tuple

import numpy as np

from repro.storage.sign_codec import (
    decode_round,
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


def _encoded_row(packed: np.ndarray, length: int) -> np.ndarray:
    """A ``(packed, length)`` payload checked, as a flat copy detached
    from the caller's array (``put_encoded`` on every sign backend)."""
    packed = np.asarray(packed, dtype=np.uint8)
    if length < 0:
        raise ValueError("length must be non-negative")
    if packed.size != packed_size_bytes(length):
        raise ValueError(
            f"packed payload of {packed.size} bytes cannot hold {length} "
            "2-bit elements"
        )
    return packed.reshape(-1).copy()


def _positions(cids: np.ndarray, client_ids: List[int]) -> List[int]:
    """Ascending positions in the sorted ``cids`` of the ``client_ids``
    present there."""
    index = cids.searchsorted(client_ids).tolist()
    return sorted({i for i, c in zip(index, client_ids) if i < len(cids) and cids.item(i) == c})


#: A stored round: ``(cids, block, length)``, or for a round whose rows
#: differ in length ``(cids, [row, ...], [length, ...])``; ids ascending.
_Block = Tuple[np.ndarray, object, object]


def _entries(block: _Block) -> Iterator[Tuple[int, np.ndarray, int]]:
    """A stored round's ``(cid, row, length)`` triples, ids ascending."""
    cids, rows, length = block
    lengths = length if isinstance(length, list) else [length] * len(cids)
    return zip(cids.tolist(), rows, lengths)


def _assemble(rows: Dict[int, Tuple[np.ndarray, int]]) -> _Block:
    """``{client: (row, length)}`` as a stored round: one stacked block
    when the rows share one length, else lists."""
    ids = sorted(rows)
    payload = [rows[c][0] for c in ids]
    lengths = [rows[c][1] for c in ids]
    cids = np.array(ids, dtype=np.int64)
    cids.flags.writeable = False
    if len(set(lengths)) == 1 and len({p.shape for p in payload}) == 1:
        return cids, np.stack(payload), lengths[0]
    return cids, payload, lengths


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
        (the in-memory stores keep the encoded block as the round).  The
        server's round commit goes through here.
        """
        for client_id, gradient in updates.items():
            self.put(round_index, client_id, gradient)

    def get(self, round_index: int, client_id: int) -> np.ndarray:
        """Retrieve the stored representation as a float64 vector.

        For a sign store this is the *direction* vector in
        ``{-1, 0, +1}``; for a full store it is the gradient itself.
        Always float64, so callers may do float arithmetic on it (the
        L-BFGS seeding's ``get(j) - g_anchor``); only the bulk
        :meth:`get_round` hands out int8 sign rows.  The base
        implementation decodes the stored row :meth:`_row` gives.
        """
        entry = self._row(round_index, client_id)
        if entry is None:
            raise KeyError(f"no gradient for client {client_id} at round {round_index}")
        row, length = entry
        telemetry = current_telemetry()
        with telemetry.span("storage_decode_seconds"):
            decoded = self._decode(row, length).astype(np.float64, copy=False)
        if telemetry.enabled:
            telemetry.inc(
                "storage_decoded_elements_total", length, backend=self.telemetry_backend
            )
        return decoded

    def _row(self, t: int, cid: int) -> Optional[Tuple[np.ndarray, int]]:
        """The stored ``(row, length)`` of one record, or None."""
        raise NotImplementedError

    def get_round(self, round_index: int) -> RoundRows:
        """Decode one whole round as ``{client_id: vector}`` rows of one
        block (:class:`RoundRows`; empty for a round with no records).

        The stored round (:meth:`_stored_round`) decodes in one
        :func:`~repro.storage.sign_codec.decode_round` pass (per-row
        :func:`~repro.storage.sign_codec.unpack_signs` when lengths
        differ); sign rows come back as **int8**, equal in value to
        per-client :meth:`get`, which returns float64.  A backend with
        no stored round to give falls back to a per-client :meth:`get`
        loop.  Backends with a genuinely batched read path set
        ``supports_bulk_round``.
        """
        block = self._stored_round(round_index)
        if block is None:
            ids = self.clients_at(round_index)
            return RoundRows.of({cid: self.get(round_index, cid) for cid in ids})
        cids, rows, length = block
        telemetry = current_telemetry()
        with telemetry.span("storage_decode_seconds"):
            if isinstance(rows, np.ndarray):
                out = RoundRows(cids, self._decode(rows, length))
                elements = length * len(cids)
            else:
                decoded = [self._decode(r, n) for r, n in zip(rows, length)]
                out = RoundRows(cids, None, ragged=decoded)
                elements = sum(length)
        if telemetry.enabled:
            backend = self.telemetry_backend
            telemetry.inc("storage_decoded_elements_total", elements, backend=backend)
            telemetry.inc("storage_bulk_decode_rounds_total", 1, backend=backend)
        return out

    def _stored_round(self, round_index: int) -> Optional[_Block]:
        """The round as stored rows for :meth:`get_round`; None when the
        backend keeps none to give (or the round is empty)."""
        return None

    def _decode(self, rows: np.ndarray, length: int) -> np.ndarray:
        """A stored sign row (1-D) or block (2-D) as int8 directions."""
        if rows.ndim == 2:
            return decode_round(rows, length)
        return unpack_signs(rows, length)

    def _count_encode(self, elements: int, stored_bytes: int) -> None:
        """Put telemetry: elements and stored bytes, against their float32
        equivalent (the §IV baseline)."""
        telemetry = current_telemetry()
        if not telemetry.enabled:
            return
        backend = self.telemetry_backend
        raw_bytes = elements * 4
        telemetry.inc("storage_encoded_elements_total", elements, backend=backend)
        telemetry.inc("storage_put_bytes_total", stored_bytes, backend=backend)
        telemetry.inc("storage_raw_bytes_total", raw_bytes, backend=backend)
        if raw_bytes:
            telemetry.set_gauge(
                "storage_compression_ratio", stored_bytes / raw_bytes, backend=backend
            )

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
        is what a caller needs to compare or copy a store without
        reaching into its internals.  Payloads are the
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


class _RoundMajorStore(GradientStore):
    """The in-memory stores' one container: the record kept round-major.

    A round is an ascending read-only int64 id array and one block of
    rows sharing one ``length`` (lists when lengths differ).
    :meth:`put_round` keeps its encoded block as it is; a row written
    alone waits in the round's pending map until the round's next read.
    A client → rounds index answers :meth:`has` and names the blocks
    :meth:`drop_client` rebuilds without the client's row.  Writes hold
    ``_mutex`` and replace a round's entry rather than edit it, so a
    reader never holds a torn round.  ``get`` and ``has`` take no lock:
    a merged block is published before its pending map goes, a row is
    stored before its index entry, and a drop removes the entry first.
    """

    supports_bulk_round = True

    def __init__(self) -> None:
        self._blocks: Dict[int, _Block] = {}
        self._pending: Dict[int, Dict[int, Tuple[np.ndarray, int]]] = {}
        self._client_rounds: Dict[int, Set[int]] = {}
        self._nbytes = 0
        self._mutex = threading.Lock()

    # A lock can be neither copied nor pickled: ``copy.deepcopy`` and
    # ``pickle`` move the state without it and the copy makes its own.
    def __getstate__(self) -> Dict:
        state = self.__dict__.copy()
        del state["_mutex"]
        return state

    def __setstate__(self, state: Dict) -> None:
        self.__dict__.update(state)
        self._mutex = threading.Lock()

    # The codec (with ``_decode``): a (n, d) block to stored rows and
    # their length; a stored row as ``items`` hands it out.
    def _encode(self, block: np.ndarray) -> Tuple[np.ndarray, int]:
        raise NotImplementedError

    def _payload(self, row: np.ndarray, length: int) -> object:
        return row, length

    def put(self, round_index: int, client_id: int, gradient: np.ndarray) -> None:
        self.put_round(round_index, {client_id: np.ravel(gradient)})

    def put_round(self, round_index: int, updates: Dict[int, np.ndarray]) -> None:
        """The round's updates encoded (:meth:`_encoded`), stored as the
        round's block when the round is new; each row is bitwise what a
        per-client :meth:`put` stores."""
        for ids, rows, length in self._encoded(updates):
            self._put_block(round_index, ids, rows, length)

    def _encoded(
        self, updates: Dict[int, np.ndarray]
    ) -> Iterator[Tuple[List[int], np.ndarray, int]]:
        """``(ids, rows, length)`` from one encode pass over the round's
        stacked updates (a :class:`RoundRows` block as it is); updates
        that differ in length are encoded one by one."""
        if not updates:
            return
        block = round_block(updates)
        if block is None:
            for client_id, gradient in updates.items():
                yield from self._encoded({client_id: np.ravel(gradient)})
            return
        with current_telemetry().span("storage_encode_seconds"):
            rows, length = self._encode(block)
        self._count_encode(block.size, rows.nbytes)
        yield list(updates), rows, length

    def _put_block(self, t: int, ids, block: np.ndarray, length: int) -> None:
        """``block`` (row ``i`` is client ``ids[i]``) as round ``t``'s
        block when the round is new, else into its pending map."""
        cids = np.array(ids, dtype=np.int64)
        with self._mutex:
            if t in self._blocks or t in self._pending:
                pending = self._pending.setdefault(t, {})
                for cid, row in zip(cids.tolist(), block):
                    if t in self._client_rounds.get(cid, ()):  # a re-put
                        self._nbytes -= self._row(t, cid)[0].nbytes
                    pending[cid] = (row, length)
                    self._client_rounds.setdefault(cid, set()).add(t)
            else:
                if not (cids[1:] > cids[:-1]).all():
                    order = np.argsort(cids)
                    cids, block = cids[order], block[order]
                cids.flags.writeable = False
                self._blocks[t] = (cids, block, length)
                for cid in cids.tolist():
                    self._client_rounds.setdefault(cid, set()).add(t)
            self._nbytes += block.nbytes

    def _row(self, t: int, cid: int) -> Optional[Tuple[np.ndarray, int]]:
        """``cid``'s ``(row, length)`` at ``t`` or None, lock-free."""
        entry = self._pending.get(t, {}).get(cid)
        block = self._blocks.get(t)
        if entry is not None or block is None:
            return entry
        cids, rows, length = block
        i = int(cids.searchsorted(cid))
        if i == len(cids) or cids[i] != cid:
            return None
        return rows[i], (length[i] if isinstance(length, list) else length)

    def _settle(self, t: int) -> Optional[_Block]:
        """Round ``t`` with its pending rows merged in (mutex held)."""
        pending = self._pending.get(t)
        block = self._blocks.get(t)
        if pending is None:
            return block
        rows = {} if block is None else {c: (r, n) for c, r, n in _entries(block)}
        rows.update(pending)
        block = self._blocks[t] = _assemble(rows)
        del self._pending[t]  # only once the block holds the rows
        return block

    def _stored_round(self, t: int) -> Optional[_Block]:
        with self._mutex:
            return self._settle(t)

    def has(self, round_index: int, client_id: int) -> bool:
        return round_index in self._client_rounds.get(client_id, ())

    def rounds(self) -> List[int]:
        with self._mutex:
            return sorted(set(self._blocks) | set(self._pending))

    def clients_at(self, round_index: int) -> List[int]:
        block = self._stored_round(round_index)
        return [] if block is None else block[0].tolist()

    def _rows(self) -> Iterator[Tuple[Tuple[int, int], np.ndarray, int]]:
        """Every ``((round, client), row, length)``, sorted (mutex held)."""
        for t in sorted(set(self._blocks) | set(self._pending)):
            for cid, row, n in _entries(self._settle(t)):
                yield (t, cid), row, n

    def items(self) -> List[Tuple[Tuple[int, int], object]]:
        with self._mutex:
            return [(key, self._payload(row, n)) for key, row, n in self._rows()]

    def nbytes(self) -> int:
        # Kept at put/drop time: O(1), for the tiered hot budget's polls.
        return int(self._nbytes)

    def recount_nbytes(self) -> int:
        """The byte total recounted from the rows — the oracle the
        incremental ``nbytes`` is tested against."""
        with self._mutex:
            return int(sum(row.nbytes for _, row, _ in self._rows()))

    def drop_client(self, client_id: int) -> int:
        with self._mutex:
            rounds = self._client_rounds.pop(client_id, set())
            for t in rounds:
                self._drop_at(t, [int(self._settle(t)[0].searchsorted(client_id))])
            return len(rounds)

    def drop_rows(self, round_index: int, client_ids: List[int]) -> int:
        """Delete the rows of ``client_ids`` at ``round_index``; returns
        the rows removed."""
        with self._mutex:
            block = self._settle(round_index)
            if block is None:
                return 0
            at = _positions(block[0], client_ids)
            for i in at:
                rounds = self._client_rounds[int(block[0][i])]
                rounds.discard(round_index)
                if not rounds:
                    del self._client_rounds[int(block[0][i])]
            return self._drop_at(round_index, at)

    def _drop_at(self, t: int, at: List[int]) -> int:
        """Settled round ``t`` rebuilt without its rows at ascending
        positions ``at`` (mutex held, their index entries already gone);
        the round goes when no row is left."""
        if not at:
            return 0
        block = self._blocks[t]
        cids, rows, length = block
        self._nbytes -= sum(rows[i].nbytes for i in at)
        if len(at) == len(cids):
            del self._blocks[t]
        elif isinstance(rows, np.ndarray):
            kept = np.delete(cids, at)
            kept.flags.writeable = False
            self._blocks[t] = (kept, np.delete(rows, at, axis=0), length)
        else:
            gone = set(at)
            rest = {c: (r, n) for i, (c, r, n) in enumerate(_entries(block)) if i not in gone}
            self._blocks[t] = _assemble(rest)
        return len(at)


class FullGradientStore(_RoundMajorStore):
    """Float32 full-gradient store — the FedRecover/FedEraser baseline;
    a round is one float32 ``(n, d)`` block."""

    telemetry_backend = "full"

    def _encode(self, block: np.ndarray) -> Tuple[np.ndarray, int]:
        return block.astype(np.float32), block.shape[1]  # a copy: ours

    def _decode(self, rows: np.ndarray, length: int) -> np.ndarray:
        return rows.astype(np.float64)

    def _payload(self, row: np.ndarray, length: int) -> np.ndarray:
        return row


class SignGradientStore(_RoundMajorStore):
    """The paper's store: δ-thresholded direction, 2 bits per element; a
    round is one packed uint8 ``(n, ⌈d/4⌉)`` block from
    :func:`~repro.storage.sign_codec.encode_round`.

    Parameters
    ----------
    delta:
        Sign threshold δ (paper default 1e-6).  Elements with
        ``|g| <= delta`` are stored as 0.
    """

    def __init__(self, delta: float = 1e-6):
        if delta < 0:
            raise ValueError(f"delta must be non-negative, got {delta}")
        super().__init__()
        self.delta = delta

    def _encode(self, block: np.ndarray) -> Tuple[np.ndarray, int]:
        return encode_round(block, self.delta)

    def put_encoded(
        self, round_index: int, client_id: int, packed: np.ndarray, length: int
    ) -> None:
        """Insert an already-encoded ``(packed, length)`` payload verbatim.

        Used when deserializing a persisted record: re-encoding a
        decoded direction through :meth:`put` would re-threshold against
        ``delta`` and is needlessly lossy for ``delta >= 1``.
        """
        row = _encoded_row(packed, length)
        self._put_block(round_index, [client_id], row[None, :], int(length))


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

    def items(self) -> List[Tuple[int, np.ndarray]]:
        """``(round, params)`` pairs, sorted, as stored (float32).  A
        ``put`` always stores a new array, so the round log tells a
        changed checkpoint by identity; treat them as read-only."""
        return sorted(self._checkpoints.items())

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
