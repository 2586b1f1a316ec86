"""Round-major on-disk sign store, served through ``np.memmap``.

The dict-backed :class:`~repro.storage.store.SignGradientStore` keys
payloads by ``(round, client)`` — ideal while training appends, but an
erasure replay reads *whole rounds in order*, and reloading the dict
store from a persisted record costs a full npz decompress before the
first round can be served.  :class:`MmapSignGradientStore` is the
serving-side layout: one contiguous packed block per round, rounds laid
out consecutively across a few large shards, plus a small JSON manifest
of offsets.  Opening is a manifest parse and a handful of ``np.memmap``
calls — no payload is touched until a round is read, and a round read
is one contiguous slice feeding
:func:`repro.storage.sign_codec.decode_round` in a single LUT pass.

Layout::

    <dir>/
      manifest.json      # format, delta, shard list, per-round offsets
      shard_00000.bin    # concatenated round blocks (2-bit payloads)
      tombstones.json    # forgotten clients (sidecar, written by drop_client)

The store is read-only over the training history (``put`` raises):
history is immutable once training ends, and erasure removes clients
*logically* via tombstones so the shards never need rewriting.  Every
read — ``get``, ``get_round``, ``items`` — is bitwise identical to the
dict store holding the same records (float64 from ``get``, int8 rows
from ``get_round``), which is what keeps recovered parameters
byte-identical across backends.

Telemetry: ``storage_mmap_open_seconds`` spans the open path,
``storage_mmap_round_reads_total`` counts round blocks served, and the
shared decode counters advance with ``backend="mmap"``.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import tempfile
from typing import Dict, List, Tuple

import numpy as np

from repro.storage.sign_codec import (
    decode_gradient,
    decode_round,
    packed_size_bytes,
)
from repro.storage.store import GradientStore, RoundRows, SignGradientStore
from repro.telemetry.core import current_telemetry
from repro.utils.serialization import fsync_dir

__all__ = ["MmapSignGradientStore"]

_MANIFEST = "manifest.json"
_TOMBSTONES = "tombstones.json"
_SHARD_FMT = "shard_{:05d}.bin"
_COMPACT_SHARD_FMT = "shard_{gen:05d}_{seq:05d}.bin"
#: Both shard name shapes (original and generation-numbered compaction
#: output) — what the open()-time garbage sweep recognizes as ours.
_SHARD_FILE_RE = re.compile(r"^shard_\d{5}(?:_\d{5})?\.bin$")
#: Prefixes of this module's temporary files/dirs (mkstemp/mkdtemp);
#: a crash can leave them behind, the open() sweep removes them.
_TMP_PREFIXES = (".manifest-", ".tombstones-", ".staging-", ".compact-")
_FORMAT_VERSION = 1
_DEFAULT_SHARD_BYTES = 64 * 1024 * 1024


class MmapSignGradientStore(GradientStore):
    """Read-only sign store over a round-major mmap layout.

    Construct with :meth:`from_store` (write a dict store's records out
    as the on-disk layout) or :meth:`open` (map an existing layout,
    e.g. after a server restart).  The training history is immutable:
    ``put``/``put_round`` raise, and :meth:`drop_client` records a
    tombstone in a sidecar file instead of rewriting shards.
    """

    supports_bulk_round = True
    telemetry_backend = "mmap"

    def __init__(self) -> None:
        raise TypeError(
            "use MmapSignGradientStore.from_store(...) or .open(...) — the "
            "layout lives on disk, not in this process"
        )

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def _blank(cls) -> "MmapSignGradientStore":
        self = object.__new__(cls)
        self.directory = ""
        self.delta = 0.0
        self._shards: List[np.memmap] = []
        self._shard_names: List[str] = []
        # round -> (shard_idx, offset, [client_ids], [lengths])
        self._rounds: Dict[int, Tuple[int, int, List[int], List[int]]] = {}
        self._tombstones: set = set()
        self._generation = 0
        self._nbytes = 0  # live payload bytes; recount_nbytes() is the oracle
        return self

    @classmethod
    def from_store(
        cls,
        store: SignGradientStore,
        directory: str,
        shard_bytes: int = _DEFAULT_SHARD_BYTES,
    ) -> "MmapSignGradientStore":
        """Write ``store``'s records into ``directory`` and open the result.

        Rounds are laid out in ascending order, each as one contiguous
        block of its clients' packed payloads (ascending client id — the
        :meth:`clients_at` order).  A round block never spans shards; a
        new shard starts when the current one would exceed
        ``shard_bytes`` (blocks larger than ``shard_bytes`` get a shard
        of their own).  The write is crash-safe in the persistence
        idiom: shards and tombstones land first, ``manifest.json`` — the
        commit marker — last, all via ``os.replace``.
        """
        if not isinstance(store, SignGradientStore):
            raise TypeError(
                f"from_store expects a SignGradientStore, got {type(store).__name__}"
            )
        if shard_bytes <= 0:
            raise ValueError("shard_bytes must be positive")
        os.makedirs(directory, exist_ok=True)

        records = store.items()
        by_round: Dict[int, List[Tuple[int, np.ndarray, int]]] = {}
        for (t, cid), (packed, length) in records:
            by_round.setdefault(t, []).append((cid, packed, length))

        staging = tempfile.mkdtemp(prefix=".staging-", dir=directory)
        try:
            manifest_rounds: Dict[str, Dict[str, object]] = {}
            shard_names: List[str] = []
            shard_file = None
            shard_offset = 0
            for t in sorted(by_round):
                entries = sorted(by_round[t])
                block = b"".join(bytes(packed) for _, packed, _ in entries)
                if shard_file is None or (
                    shard_offset and shard_offset + len(block) > shard_bytes
                ):
                    if shard_file is not None:
                        shard_file.close()
                    shard_names.append(_SHARD_FMT.format(len(shard_names)))
                    shard_file = open(os.path.join(staging, shard_names[-1]), "wb")
                    shard_offset = 0
                shard_file.write(block)
                manifest_rounds[str(t)] = {
                    "shard": len(shard_names) - 1,
                    "offset": shard_offset,
                    "clients": [cid for cid, _, _ in entries],
                    "lengths": [length for _, _, length in entries],
                }
                shard_offset += len(block)
            if shard_file is not None:
                shard_file.close()

            manifest = {
                "format_version": _FORMAT_VERSION,
                "delta": store.delta,
                "shards": shard_names,
                "rounds": manifest_rounds,
            }
            tomb_path = os.path.join(staging, _TOMBSTONES)
            with open(tomb_path, "w", encoding="utf-8") as fh:
                json.dump({"clients": []}, fh)
            manifest_path = os.path.join(staging, _MANIFEST)
            with open(manifest_path, "w", encoding="utf-8") as fh:
                json.dump(manifest, fh)
            for name in (*shard_names, _TOMBSTONES, _MANIFEST):
                os.replace(os.path.join(staging, name), os.path.join(directory, name))
            fsync_dir(directory)
        finally:
            shutil.rmtree(staging, ignore_errors=True)
        return cls.open(directory)

    @classmethod
    def open(cls, directory: str) -> "MmapSignGradientStore":
        """Map an existing layout read-only; raises on a damaged manifest.

        ``FileNotFoundError`` when no manifest exists; ``ValueError``
        when the manifest or shards are structurally inconsistent (bad
        format version, offsets past a shard's end, clients/lengths
        mismatch).
        """
        telemetry = current_telemetry()
        with telemetry.span("storage_mmap_open_seconds"):
            manifest_path = os.path.join(directory, _MANIFEST)
            if not os.path.exists(manifest_path):
                raise FileNotFoundError(f"no {_MANIFEST} in {directory!r}")
            with open(manifest_path, "r", encoding="utf-8") as fh:
                manifest = json.load(fh)
            if manifest.get("format_version") != _FORMAT_VERSION:
                raise ValueError(
                    f"{_MANIFEST}: unsupported format "
                    f"{manifest.get('format_version')!r}"
                )

            self = cls._blank()
            self.directory = directory
            self.delta = float(manifest["delta"])
            self._generation = int(manifest.get("generation", 0))
            self._shard_names = [str(name) for name in manifest["shards"]]
            for name in manifest["shards"]:
                path = os.path.join(directory, name)
                if not os.path.exists(path):
                    raise ValueError(f"{_MANIFEST}: shard {name!r} is missing")
                size = os.path.getsize(path)
                self._shards.append(
                    np.memmap(path, dtype=np.uint8, mode="r")
                    if size
                    else np.empty(0, dtype=np.uint8)
                )
            for key, spec in manifest["rounds"].items():
                t = int(key)
                clients = [int(c) for c in spec["clients"]]
                lengths = [int(n) for n in spec["lengths"]]
                if len(clients) != len(lengths):
                    raise ValueError(
                        f"{_MANIFEST}: round {t}: clients/lengths mismatch"
                    )
                shard, offset = int(spec["shard"]), int(spec["offset"])
                if not 0 <= shard < len(self._shards):
                    raise ValueError(f"{_MANIFEST}: round {t}: bad shard {shard}")
                total = sum(packed_size_bytes(n) for n in lengths)
                if offset < 0 or offset + total > self._shards[shard].size:
                    raise ValueError(
                        f"{_MANIFEST}: round {t}: block [{offset}, "
                        f"{offset + total}) past shard end"
                    )
                self._rounds[t] = (shard, offset, clients, lengths)

            tomb_path = os.path.join(directory, _TOMBSTONES)
            if os.path.exists(tomb_path):
                with open(tomb_path, "r", encoding="utf-8") as fh:
                    self._tombstones = {int(c) for c in json.load(fh)["clients"]}
            self._nbytes = self.recount_nbytes()
            self._sweep_garbage()
        return self

    def _sweep_garbage(self) -> None:
        """Remove unreferenced shard/tmp files a crashed compaction left.

        A crash between :meth:`compact`'s shard ``os.replace`` loop and
        its manifest swap leaves new-generation shard files (and
        possibly a staging dir or manifest tmp) that no manifest
        references; without this sweep they would leak disk across
        repeated crashes.  Only files matching this module's naming
        patterns are touched.
        """
        referenced = set(self._shard_names)
        for name in os.listdir(self.directory):
            if name in referenced or name in (_MANIFEST, _TOMBSTONES):
                continue
            if not (_SHARD_FILE_RE.match(name) or name.startswith(_TMP_PREFIXES)):
                continue
            path = os.path.join(self.directory, name)
            try:
                if os.path.isdir(path):
                    shutil.rmtree(path, ignore_errors=True)
                else:
                    os.unlink(path)
            except OSError:
                pass

    # ------------------------------------------------------------------
    # reads
    # ------------------------------------------------------------------
    def _row_span(self, t: int, client_id: int) -> Tuple[int, int, int]:
        """(shard, byte offset, length) of one live record; KeyError if absent."""
        if client_id in self._tombstones or t not in self._rounds:
            raise KeyError(f"no gradient for client {client_id} at round {t}")
        shard, offset, clients, lengths = self._rounds[t]
        for cid, length in zip(clients, lengths):
            if cid == client_id:
                return shard, offset, length
            offset += packed_size_bytes(length)
        raise KeyError(f"no gradient for client {client_id} at round {t}")

    def put(self, round_index: int, client_id: int, gradient: np.ndarray) -> None:
        raise NotImplementedError(
            "MmapSignGradientStore is a read-only serving layout; write new "
            "records through SignGradientStore and re-run from_store"
        )

    def get(self, round_index: int, client_id: int) -> np.ndarray:
        shard, offset, length = self._row_span(round_index, client_id)
        telemetry = current_telemetry()
        with telemetry.span("storage_decode_seconds"):
            row = self._shards[shard][offset : offset + packed_size_bytes(length)]
            decoded = decode_gradient(row, length)
        if telemetry.enabled:
            telemetry.inc("storage_decoded_elements_total", length, backend="mmap")
        return decoded

    def get_round(self, round_index: int) -> RoundRows:
        """One contiguous slice of the shard, bulk-decoded in one pass.

        For the common round (one row length, no tombstoned client) the
        block is a zero-copy ``(rows, row_bytes)`` view of the memmap
        handed straight to :func:`~repro.storage.sign_codec.decode_round`;
        any other round goes through the base class's batched
        :meth:`encoded_round` decode.  Rows are int8 either way, equal in
        value to the float64 per-client :meth:`get`.
        """
        if round_index not in self._rounds:
            return RoundRows.of({})
        shard, offset, clients, lengths = self._rounds[round_index]
        if len(set(lengths)) != 1 or not self._tombstones.isdisjoint(clients):
            return GradientStore.get_round(self, round_index)
        telemetry = current_telemetry()
        length, n = lengths[0], len(clients)
        width = packed_size_bytes(length)
        with telemetry.span("storage_decode_seconds"):
            block = self._shards[shard][offset : offset + width * n]
            out = RoundRows(clients, decode_round(block.reshape(n, width), length))
        if telemetry.enabled:
            telemetry.inc("storage_mmap_round_reads_total", 1)
            telemetry.inc(
                "storage_decoded_elements_total", length * n, backend="mmap"
            )
            telemetry.inc("storage_bulk_decode_rounds_total", 1, backend="mmap")
        return out

    def encoded_round(self, round_index):
        """Raw ``{client: (packed view, length)}`` payloads of one round.

        Zero-copy memmap views (read-only), tombstoned clients
        filtered — the codec hook the base-class ``get_round`` fallback
        batches through one LUT pass.
        """
        if round_index not in self._rounds:
            return {}
        telemetry = current_telemetry()
        if telemetry.enabled:
            telemetry.inc("storage_mmap_round_reads_total", 1)
        shard, offset, clients, lengths = self._rounds[round_index]
        out = {}
        for cid, length in zip(clients, lengths):
            width = packed_size_bytes(length)
            if cid not in self._tombstones:
                out[cid] = (self._shards[shard][offset : offset + width], length)
            offset += width
        return out

    def has(self, round_index: int, client_id: int) -> bool:
        if client_id in self._tombstones or round_index not in self._rounds:
            return False
        return client_id in self._rounds[round_index][2]

    def rounds(self) -> List[int]:
        return sorted(
            t
            for t, (_, _, clients, _) in self._rounds.items()
            if any(c not in self._tombstones for c in clients)
        )

    def clients_at(self, round_index: int) -> List[int]:
        if round_index not in self._rounds:
            return []
        return sorted(
            c
            for c in self._rounds[round_index][2]
            if c not in self._tombstones
        )

    def items(self) -> List[Tuple[Tuple[int, int], Tuple[np.ndarray, int]]]:
        """Sorted ``((round, client), (packed, length))`` pairs.

        Payloads are read-only memmap views — the same shape a dict
        store's :meth:`~repro.storage.store.SignGradientStore.items`
        returns, so persistence serializes both identically.
        """
        out = []
        for t in sorted(self._rounds):
            shard, offset, clients, lengths = self._rounds[t]
            for cid, length in zip(clients, lengths):
                width = packed_size_bytes(length)
                if cid not in self._tombstones:
                    row = self._shards[shard][offset : offset + width]
                    out.append(((t, cid), (row, length)))
                offset += width
        return out

    def nbytes(self) -> int:
        """Payload bytes of *live* (non-tombstoned) records, O(1) cached.

        The cache is seeded by a full recount at :meth:`open` and
        decremented by :meth:`drop_client`; :meth:`recount_nbytes` is
        the scan-based oracle the regression tests compare against.
        """
        return self._nbytes

    def recount_nbytes(self) -> int:
        """Recompute live payload bytes by scanning every round index."""
        total = 0
        for _, _, clients, lengths in self._rounds.values():
            total += sum(
                packed_size_bytes(n)
                for c, n in zip(clients, lengths)
                if c not in self._tombstones
            )
        return total

    def disk_bytes(self) -> int:
        """Bytes the shard files occupy on disk (tombstoned rows included
        until :meth:`compact` physically reclaims them)."""
        total = 0
        for name in self._shard_names:
            path = os.path.join(self.directory, name)
            if os.path.exists(path):
                total += os.path.getsize(path)
        return total

    def drop_client(self, client_id: int) -> int:
        """Tombstone every record of ``client_id``; shards stay untouched.

        The tombstone sidecar is rewritten atomically so the logical
        deletion survives a restart — :meth:`open` re-applies it.
        Returns the number of records logically removed.  Bytes stay on
        disk until :meth:`compact` rewrites the shards.
        """
        if client_id in self._tombstones:
            return 0
        removed = 0
        for _, _, clients, lengths in self._rounds.values():
            for c, n in zip(clients, lengths):
                if c == client_id:
                    removed += 1
                    self._nbytes -= packed_size_bytes(n)
        self._tombstones.add(client_id)
        self._write_tombstones()
        return removed

    def _write_tombstones(self) -> None:
        payload = {"clients": sorted(self._tombstones)}
        fd, tmp = tempfile.mkstemp(prefix=".tombstones-", dir=self.directory)
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                json.dump(payload, fh)
                fh.flush()
                os.fsync(fh.fileno())
            os.replace(tmp, os.path.join(self.directory, _TOMBSTONES))
            fsync_dir(self.directory)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise

    def compact(self, shard_bytes: int = _DEFAULT_SHARD_BYTES) -> Dict[str, int]:
        """Rewrite shards without tombstoned rows, reclaiming disk bytes.

        Crash-safe via the manifest commit point: new shards are written
        under fresh generation-numbered names, ``manifest.json`` is
        swapped last with ``os.replace``, and only then are the old
        shard files unlinked and the tombstone sidecar emptied.  A crash
        before the manifest swap leaves the old layout fully intact (the
        new files are unreferenced garbage, removed by the next
        :meth:`open`); a crash after it leaves the
        new layout with stale-but-harmless tombstones naming rows that
        no longer exist.  Returns ``{"rounds", "removed_rows",
        "reclaimed_bytes"}``.
        """
        if shard_bytes <= 0:
            raise ValueError("shard_bytes must be positive")
        old_names = list(self._shard_names)
        old_disk = self.disk_bytes()
        generation = self._generation + 1

        staging = tempfile.mkdtemp(prefix=".compact-", dir=self.directory)
        removed_rows = 0
        try:
            manifest_rounds: Dict[str, Dict[str, object]] = {}
            new_names: List[str] = []
            shard_file = None
            shard_offset = 0
            new_rounds: Dict[int, Tuple[int, int, List[int], List[int]]] = {}
            for t in sorted(self._rounds):
                shard, offset, clients, lengths = self._rounds[t]
                rows: List[bytes] = []
                live_clients: List[int] = []
                live_lengths: List[int] = []
                for cid, length in zip(clients, lengths):
                    width = packed_size_bytes(length)
                    if cid in self._tombstones:
                        removed_rows += 1
                    else:
                        rows.append(bytes(self._shards[shard][offset : offset + width]))
                        live_clients.append(cid)
                        live_lengths.append(length)
                    offset += width
                if not live_clients:
                    continue
                block = b"".join(rows)
                if shard_file is None or (
                    shard_offset and shard_offset + len(block) > shard_bytes
                ):
                    if shard_file is not None:
                        shard_file.flush()
                        os.fsync(shard_file.fileno())
                        shard_file.close()
                    new_names.append(
                        _COMPACT_SHARD_FMT.format(gen=generation, seq=len(new_names))
                    )
                    shard_file = open(os.path.join(staging, new_names[-1]), "wb")
                    shard_offset = 0
                shard_file.write(block)
                manifest_rounds[str(t)] = {
                    "shard": len(new_names) - 1,
                    "offset": shard_offset,
                    "clients": live_clients,
                    "lengths": live_lengths,
                }
                new_rounds[t] = (
                    len(new_names) - 1,
                    shard_offset,
                    live_clients,
                    live_lengths,
                )
                shard_offset += len(block)
            if shard_file is not None:
                shard_file.flush()
                os.fsync(shard_file.fileno())
                shard_file.close()

            manifest = {
                "format_version": _FORMAT_VERSION,
                "delta": self.delta,
                "generation": generation,
                "shards": new_names,
                "rounds": manifest_rounds,
            }
            for name in new_names:
                os.replace(
                    os.path.join(staging, name), os.path.join(self.directory, name)
                )
            fd, tmp = tempfile.mkstemp(prefix=".manifest-", dir=self.directory)
            try:
                with os.fdopen(fd, "w", encoding="utf-8") as fh:
                    json.dump(manifest, fh)
                    fh.flush()
                    os.fsync(fh.fileno())
                os.replace(tmp, os.path.join(self.directory, _MANIFEST))
            except BaseException:
                if os.path.exists(tmp):
                    os.unlink(tmp)
                raise
            # make the manifest rename (and the shard renames before
            # it) durable across power loss, not just process crash
            fsync_dir(self.directory)
        finally:
            shutil.rmtree(staging, ignore_errors=True)

        # Committed: swap in the new layout, then clean up the old one.
        self._generation = generation
        self._shard_names = new_names
        self._rounds = new_rounds
        self._shards = []
        for name in new_names:
            path = os.path.join(self.directory, name)
            size = os.path.getsize(path)
            self._shards.append(
                np.memmap(path, dtype=np.uint8, mode="r")
                if size
                else np.empty(0, dtype=np.uint8)
            )
        self._tombstones = set()
        self._write_tombstones()
        for name in old_names:
            path = os.path.join(self.directory, name)
            if os.path.exists(path):
                os.unlink(path)
        return {
            "rounds": len(new_rounds),
            "removed_rows": removed_rows,
            "reclaimed_bytes": old_disk - self.disk_bytes(),
        }
