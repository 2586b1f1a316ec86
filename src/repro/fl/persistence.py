"""Disk persistence of the server's training record: one round log.

Unlearning requests arrive long after training finishes, so the RSU
keeps its history across restarts in a record directory::

    COMMIT           # marker: log name, committed length, rounds, float64 params
    rounds-<n>.log   # append-only, one CRC-32-framed entry per round

Entry ``t`` (a JSON head, then raw array bytes — no pickle) holds round
``t``'s rows as the block the store keeps (``_stored_round``, for every
backend), ``w_{t+1}`` as float32, any other checkpoint changed since the
previous commit (``w_0`` in a new log) and the changes to the small
state.  :func:`save_record` appends every round to a fresh log, swaps
the marker, then unlinks the old log;
:class:`~repro.fl.journal.RoundJournal` appends one round per commit,
and writes a fresh log the same way when a live erasure has excluded a
client, leaving out every row of an excluded client: an erased
vehicle's rows and the checkpoint its erasure overwrote do not outlive
that commit on disk.
:func:`load_record`, ``UnlearningService.restore`` and journal resume
share one :func:`fold`.

A commit appends, fsyncs the log, writes ``COMMIT.tmp``, fsyncs it and
renames it over ``COMMIT``: a writer killed between any two writes
leaves the previous commit, and bytes past its length are ignored.
Damage to committed bytes — a log shorter than committed, a torn or
garbled marker, a CRC-32 mismatch, a missing checkpoint, an out-of-range
round — raises one :class:`RecordCorruptionError` naming the file; a
missing marker raises ``FileNotFoundError``.
"""

from __future__ import annotations

import json
import os
import re
import struct
import zlib
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.fl.history import TrainingRecord
from repro.fl.membership import MembershipLedger
from repro.storage.store import (
    FullGradientStore,
    GradientStore,
    ModelCheckpointStore,
    SignGradientStore,
    _assemble,
    _entries,
    make_gradient_store,
)
from repro.storage.tiered import TieredSignGradientStore
from repro.utils.serialization import fsync_dir

__all__ = ["save_record", "load_record", "RecordCorruptionError"]

MARKER = "COMMIT"
_FORMAT = 2
_FRAME = struct.Struct("<II")  # payload bytes, CRC-32 of the payload
_HEAD = struct.Struct("<I")  # JSON head bytes, at the payload's start
_LOG = re.compile(r"rounds-(\d+)\.log$")


class RecordCorruptionError(RuntimeError):
    """A persisted record is damaged; the message names the file."""


def _crash_point(point: str) -> None:
    """Called between a commit's writes; tests replace it to kill there."""


def _frame(head: Dict[str, Any], arrays: Dict[str, np.ndarray]) -> bytes:
    """One framed entry: length and CRC-32, then the JSON head (which
    lists each array's name, dtype and shape) and the arrays' bytes."""
    head = dict(head, arrays=[[n, a.dtype.str, a.shape] for n, a in arrays.items()])
    text = json.dumps(head, default=lambda v: v.tolist()).encode()
    payload = b"".join(
        [_HEAD.pack(len(text)), text, *(a.tobytes() for a in arrays.values())]
    )
    return _FRAME.pack(len(payload), zlib.crc32(payload)) + payload


def _unframe(buf: bytes, offset: int, source: str) -> Tuple[dict, dict, int]:
    """The ``(head, arrays, end)`` of the entry framed at ``offset``;
    the arrays are read-only views into ``buf``."""
    try:
        size, crc = _FRAME.unpack_from(buf, offset)
        start = offset + _FRAME.size
        payload = memoryview(buf)[start : start + size]
        if len(payload) != size or zlib.crc32(payload) != crc:
            raise ValueError("CRC-32 mismatch")
        (n,) = _HEAD.unpack_from(payload)
        head = json.loads(bytes(payload[_HEAD.size : _HEAD.size + n]))
        pos = _HEAD.size + n
        arrays = {}
        for name, dtype, shape in head.pop("arrays"):
            count = int(np.prod(shape))
            arrays[name] = np.frombuffer(payload, dtype, count, pos).reshape(shape)
            pos += arrays[name].nbytes
    except (struct.error, ValueError, KeyError, TypeError, AttributeError) as exc:
        raise RecordCorruptionError(
            f"{source}: damaged entry at byte {offset} ({exc})"
        ) from exc
    return head, arrays, start + size


def _without(block: tuple, drop: set) -> Optional[tuple]:
    """A stored round without the rows of the clients in ``drop``;
    ``None`` when no row is left."""
    kept = {cid: (row, n) for cid, row, n in _entries(block) if cid not in drop}
    return _assemble(kept) if kept else None


def _place(checkpoints: ModelCheckpointStore, arrays: dict, rounds: int) -> None:
    """Put the ``w<t>`` arrays of one entry into ``checkpoints``."""
    for key, w in arrays.items():
        if key[0] == "w":
            if not 0 <= int(key[1:]) <= rounds:
                raise ValueError(f"checkpoint {key} outside 0..{rounds}")
            checkpoints.put(int(key[1:]), w)


def record_state(
    ledger: MembershipLedger, client_sizes: Dict[int, int], accuracy: List[float]
) -> Dict[str, Any]:
    """A record's small state as the flat mapping the log diffs."""
    state: Dict[str, Any] = {f"ledger.{c}": v for c, v in ledger.to_dict().items()}
    state.update({f"size.{c}": int(n) for c, n in client_sizes.items()})
    state["accuracy"] = [float(a) for a in accuracy]
    return state


def record_fields(
    state: Dict[str, Any],
) -> Tuple[MembershipLedger, Dict[int, int], List[float]]:
    """The ledger, client sizes and accuracy trace of a folded state."""
    ledger = MembershipLedger.from_dict(
        {k[7:]: v for k, v in state.items() if k.startswith("ledger.")}
    )
    sizes = {int(k[5:]): int(v) for k, v in state.items() if k.startswith("size.")}
    return ledger, sizes, [float(a) for a in state.get("accuracy", [])]


class RoundLog:
    """The writer of a record directory.  It tracks what the log holds —
    committed length, rounds, the small state and the checkpoint arrays
    logged — so a commit writes only what changed since the last one.
    A writer with no ``log`` starts a new one."""

    def __init__(
        self,
        directory: str,
        log: Optional[str] = None,
        length: int = 0,
        rounds: int = 0,
        state: Optional[dict] = None,
        written: Optional[dict] = None,
    ):
        self.directory = directory
        self.log = log
        self.length = length
        self.rounds = rounds
        self.state = state or {}
        self.written = written or {}

    def commit(
        self,
        rounds: int,
        checkpoints: ModelCheckpointStore,
        gradients: GradientStore,
        state: Dict[str, Any],
        params: np.ndarray,
        meta: Dict[str, Any],
    ) -> None:
        """Append rounds ``self.rounds … rounds - 1`` and swap the marker
        to name them; ``meta`` rides in the marker.

        No row of a client ``state["excluded"]`` lists is written.  A new
        log is renamed in by the marker swap and the old logs are then
        unlinked; a record of no rounds is the marker alone, holding
        ``w_0`` and the state.
        """
        fresh = self.log is None
        if rounds < self.rounds or (rounds == self.rounds and not fresh):
            raise ValueError(f"nothing to commit: the log holds {self.rounds} rounds")
        if not isinstance(
            gradients, (FullGradientStore, SignGradientStore, TieredSignGradientStore)
        ):
            raise TypeError(f"cannot persist a {type(gradients).__name__}")
        if fresh:
            os.makedirs(self.directory, exist_ok=True)
            matches = map(_LOG.match, os.listdir(self.directory))
            gens = [int(m.group(1)) for m in matches if m]
            self.log = f"rounds-{max(gens, default=-1) + 1}.log"
        drop = set(state.get("excluded", ()))
        changed = {
            t: w for t, w in checkpoints.items() if self.written.get(t) is not w
        }
        unplaced = dict(changed)
        diff = {
            k: v for k, v in state.items() if k not in self.state or self.state[k] != v
        }
        path = os.path.join(self.directory, self.log)
        with open(path, "wb" if fresh else "r+b") as fh:
            fh.seek(self.length)
            fh.truncate()  # an uncommitted tail a killed writer left
            for t in range(self.rounds, rounds):
                head: Dict[str, Any] = {"round": t}
                arrays = {}
                if t + 1 in unplaced:
                    arrays[f"w{t + 1}"] = unplaced.pop(t + 1)
                if t == rounds - 1:
                    arrays.update((f"w{r}", w) for r, w in unplaced.items())
                    head["state"] = diff
                block = gradients._stored_round(t)
                if block is not None and drop and drop.intersection(block[0].tolist()):
                    block = _without(block, drop)
                if block is not None:
                    cids, rows, length = block
                    arrays["cids"] = cids
                    if isinstance(length, list):
                        arrays.update((f"rows{i}", row) for i, row in enumerate(rows))
                    else:
                        arrays["rows"] = rows
                    head["length"] = length
                fh.write(_frame(head, arrays))
            _crash_point("after-append")
            fh.flush()
            os.fsync(fh.fileno())
            length = fh.tell()
        _crash_point("after-log-fsync")
        marker = dict(
            meta,
            format=_FORMAT,
            log=self.log,
            length=length,
            rounds=rounds,
            sign_delta=getattr(gradients, "delta", None),
            store_kind="full" if isinstance(gradients, FullGradientStore) else "sign",
        )
        arrays = {"params": np.asarray(params, dtype=np.float64)}
        if rounds == 0:  # no entry to hold them
            marker["state"] = diff
            arrays.update((f"w{r}", w) for r, w in unplaced.items())
        path = os.path.join(self.directory, MARKER)
        with open(path + ".tmp", "wb") as fh:
            fh.write(_frame(marker, arrays))
            fh.flush()
            os.fsync(fh.fileno())
        _crash_point("after-marker-tmp")
        os.replace(path + ".tmp", path)
        fsync_dir(self.directory)
        _crash_point("after-marker-rename")
        self.written.update(changed)
        self.state.update(diff)
        self.length = length
        self.rounds = rounds
        if fresh:  # logs no marker names any more
            for name in os.listdir(self.directory):
                if _LOG.match(name) and name != self.log:
                    os.remove(os.path.join(self.directory, name))


def fold(
    directory: str,
) -> Tuple[RoundLog, Dict[str, Any], np.ndarray, ModelCheckpointStore, GradientStore]:
    """Read a record directory up to its committed length: the writer
    positioned after it (``log.state`` is the folded small state), the
    marker, the last round's params and the in-memory stores."""
    with open(os.path.join(directory, MARKER), "rb") as fh:
        marker, arrays, _ = _unframe(fh.read(), 0, MARKER)
    if marker.get("format") != _FORMAT:
        raise ValueError(f"unsupported record format {marker.get('format')!r}")
    checkpoints = ModelCheckpointStore()
    try:
        name = marker["log"]
        length = int(marker["length"])
        rounds = int(marker["rounds"])
        delta = marker["sign_delta"]
        gradients = make_gradient_store(
            marker["store_kind"], 1e-6 if delta is None else delta
        )
        params = arrays["params"].copy()
        _place(checkpoints, arrays, rounds)
        state = dict(marker.get("state", {}))
    except (KeyError, TypeError, ValueError) as exc:
        raise RecordCorruptionError(f"{MARKER}: bad marker ({exc!r})") from exc
    try:
        with open(os.path.join(directory, name), "rb") as fh:
            data = fh.read(length)
    except OSError as exc:
        raise RecordCorruptionError(f"{name}: cannot read ({exc})") from exc
    if len(data) < length:
        raise RecordCorruptionError(
            f"{name}: truncated to {len(data)} of {length} bytes"
        )
    offset = 0
    for t in range(rounds):
        head, arrays, offset = _unframe(data, offset, name)
        try:
            if head["round"] != t:
                raise ValueError(f"entry {t} holds round {head['round']}")
            _place(checkpoints, arrays, rounds)
            if "cids" in arrays:
                cids = arrays["cids"].tolist()
                n = head["length"]
                if isinstance(n, list):
                    for i, cid in enumerate(cids):
                        row = arrays[f"rows{i}"][None].copy()
                        gradients._put_block(t, [cid], row, n[i])
                else:
                    gradients._put_block(t, cids, arrays["rows"].copy(), n)
            state.update(head.get("state", {}))
        except (KeyError, TypeError, ValueError) as exc:
            raise RecordCorruptionError(f"{name}: round {t}: {exc}") from exc
    if offset != length:
        raise RecordCorruptionError(
            f"{name}: entries past the {rounds} committed rounds"
        )
    missing = [t for t in range(rounds + 1) if not checkpoints.has(t)]
    if missing:
        raise RecordCorruptionError(f"{name}: missing checkpoint w_{missing[0]}")
    log = RoundLog(directory, name, length, rounds, state, dict(checkpoints.items()))
    return log, marker, params, checkpoints, gradients


def save_record(record: TrainingRecord, directory: str) -> None:
    """Write ``record`` into ``directory`` (created if missing).

    One entry per round into a fresh log, then one marker swap: a writer
    killed mid-save leaves the previous record (or none) committed, and
    a re-run completes the save.
    """
    state = record_state(record.ledger, record.client_sizes, record.accuracy_history)
    meta = {
        "learning_rate": record.learning_rate,
        "aggregator": record.aggregator,
        "metadata": dict(record.metadata),
    }
    RoundLog(directory).commit(
        record.num_rounds,
        record.checkpoints,
        record.gradients,
        state,
        record.checkpoints.get(record.num_rounds),
        meta,
    )


def load_record(directory: str) -> TrainingRecord:
    """Load a record previously written by :func:`save_record`.

    Raises ``FileNotFoundError`` when no record exists (no marker)
    and :class:`RecordCorruptionError` when one exists but is damaged.
    """
    log, marker, _, checkpoints, gradients = fold(directory)
    try:
        ledger, client_sizes, accuracy = record_fields(log.state)
        return TrainingRecord(
            checkpoints,
            gradients,
            ledger,
            client_sizes,
            log.rounds,
            float(marker["learning_rate"]),
            marker["aggregator"],
            accuracy,
            dict(marker["metadata"]),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise RecordCorruptionError(f"{MARKER}: bad record fields ({exc!r})") from exc
