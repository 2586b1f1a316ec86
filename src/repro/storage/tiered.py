"""The on-disk sign store: hot dict → warm mmap shards → cold zlib.

The paper's recovery method only works because the RSU retains every
client's sign-compressed update for every round.  At IoV scale that
historical archive — not the model — is the dominant resource: one
in-memory dict (:class:`~repro.storage.store.SignGradientStore`) per
record cannot hold a million vehicles times thousands of rounds.
:class:`TieredSignGradientStore` is the capacity answer — a single
:class:`~repro.storage.store.GradientStore` whose records live in one
of three tiers:

hot
    A bounded in-memory dict holding the rounds currently being
    ingested.  Writes (``put`` / ``put_round``) always land here.  When
    the hot tier exceeds ``hot_budget_bytes``, sealed rounds (every
    round older than the newest, plus rounds committed whole through
    ``put_round``) spill to the warm tier in the writing thread.
warm
    Round-major on-disk shards: one contiguous block of packed 2-bit
    rows per round, served through ``np.memmap`` with a per-round
    offset index (sorted client ids + ``np.searchsorted``) — no read
    ever scans a shard.
cold
    Rounds older than ``cold_after`` rounds (measured from the newest
    round seen) are demoted during :meth:`compact`: the round's packed
    block is deflated in one piece with zlib's RLE strategy (see
    :func:`_deflate`).  Reads decompress the whole round block (a tiny
    LRU keeps the hottest decompressed blocks), so bulk replay reads
    stay one-pass.

The warm/cold shard set is the only on-disk sign layout in the
package: :meth:`TieredSignGradientStore.from_store` writes a whole dict
store as one warm generation, and :class:`MmapSignGradientStore` is
the read-only view of such a layout (writes raise; reads,
``drop_client`` and ``compact`` are the tiered store's).

Durability follows the RoundJournal discipline — every commit marker is
written tmp + ``fsync`` + ``os.replace``, and the containing directory
is fsynced after the rename so the commit survives power loss, not
just a process crash:

- a spill (or :meth:`~TieredSignGradientStore.from_store`) writes new
  immutable shard (``.bin``) and index (``.idx.npz``) files, fsyncs
  them, then atomically rewrites ``MANIFEST.json`` — the single commit
  point — to reference them.  The shard I/O happens outside the store
  lock (snapshot → write → publish), so concurrent writers and readers
  are never blocked on disk;
- :meth:`compact` writes a complete new shard generation the same way
  and only then unlinks the old one (a round with no dead rows that
  keeps its codec is copied into it byte for byte);
- a SIGKILL at *any* point leaves either the previous manifest (new
  files are unreferenced garbage, removed on :meth:`open`) or the new
  one — never a torn shard set.  ``tests/test_chaos_storage.py``
  injects crashes at every commit point and asserts exactly that.

``drop_client`` removes hot rows immediately and *logically* deletes
disk rows from the in-memory per-round index (persisted as exact
``(client, round)`` pairs in ``tombstones.json`` so the deletion
survives a restart).  Disk rows whose index entry was already removed
by a hot overlay are tracked as *shadowed* pairs and tombstoned too —
their bytes are still on disk, and a crash before the round respills
must not resurrect a dropped client.  :meth:`compact` rewrites shards
without the dead rows, clearing the tombstones — bytes on disk
actually shrink.  A
client dropped and later re-``put`` behaves like the dict store: the
new record is visible (the rare crash window between a re-put's spill
and the tombstone rewrite can lose the re-put, never resurrect dropped
data).

Every read surface (``get`` / ``get_round`` / ``clients_at`` / ``has``
/ ``items``) is bitwise identical to a dict store holding the same
records, which keeps recovered parameters byte-identical across
backends — the conformance suite (``tests/test_storage_conformance.py``)
and the replay identity tests assert this.

Capacity model (bytes per client per round, ``d`` gradient elements):

=====  ==============================================================
tier   stored bytes / client / round
=====  ==============================================================
hot    ``ceil(d/4)`` payload + ~100 B dict/ndarray overhead
warm   ``ceil(d/4)`` in the shard + ~16 B index (id + length)
cold   ``ceil(d/4) / r`` where ``r`` is the zlib RLE ratio on the packed
       block — ≥2× for the sparse sign patterns δ-thresholding yields
       (measured in ``make bench-storage-scale``)
=====  ==============================================================

Telemetry (``docs/METRICS.md``): ``storage_tier_spills_total`` /
``storage_tier_demotions_total`` / ``storage_tier_compactions_total``
count tier transitions, ``storage_tier_hits_total`` (label ``tier``)
counts lookups by serving tier, ``storage_tier_bytes`` (label ``tier``)
gauges live bytes, and the ``storage_tier_spill_seconds`` /
``storage_tier_compact_seconds`` spans time the two maintenance paths.
"""

from __future__ import annotations

import json
import os
import re
import threading
import zlib
from collections import OrderedDict
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Tuple

import numpy as np

from repro.storage.sign_codec import (
    encode_gradient,
    encode_round,
    packed_size_bytes,
)
from repro.storage.store import (
    GradientStore,
    SignGradientStore,
    _encoded_row,
    round_block,
)
from repro.telemetry.core import current_telemetry
from repro.utils.serialization import fsync_dir, load_state, save_state_atomic

__all__ = [
    "MmapSignGradientStore",
    "TieredSignGradientStore",
    "TIER_HOT",
    "TIER_WARM",
    "TIER_COLD",
]

TIER_HOT = "hot"
TIER_WARM = "warm"
TIER_COLD = "cold"

_MANIFEST = "MANIFEST.json"
_TOMBSTONES = "tombstones.json"
_SHARD_FMT = "shard_{gen:06d}_{seq:05d}.bin"
_IDX_SUFFIX = ".idx.npz"
_SHARD_RE = re.compile(r"^shard_(\d{6})_(\d{5})\.bin$")
_FORMAT_VERSION = 1
_DEFAULT_SHARD_BYTES = 64 * 1024 * 1024
_DEFAULT_HOT_BUDGET = 64 * 1024 * 1024
_CODEC_RAW = "raw"
_CODEC_ZLIB = "zlib"

#: Whole decompressed cold round blocks kept resident by default.
_DEFAULT_COLD_CACHE_BLOCKS = 4

#: Spill/compaction commit points at which tests may inject a
#: SIGKILL-style crash (see ``_maybe_crash``).  "manifest-tmp-written"
#: sits exactly between the tmp write and the ``os.replace`` rename.
CRASH_POINTS = (
    "after-shard-write",
    "manifest-tmp-written",
    "after-manifest-replace",
)


class _DiskRound:
    """Offset index of one on-disk round block.

    ``clients`` is sorted, and ``starts[i]`` is the byte offset of
    client ``clients[i]``'s packed row inside the (raw) round block —
    every lookup is ``np.searchsorted`` + a slice, never a scan.
    Logical deletion (``drop_client``, hot-overlay shadowing) removes
    entries from the three aligned arrays; the block bytes themselves
    are reclaimed by compaction.
    """

    __slots__ = (
        "shard", "offset", "stored_bytes", "raw_bytes", "codec",
        "clients", "lengths", "starts",
    )

    def __init__(self, shard, offset, stored_bytes, raw_bytes, codec,
                 clients, lengths, starts):
        self.shard = shard
        self.offset = offset
        self.stored_bytes = stored_bytes
        self.raw_bytes = raw_bytes
        self.codec = codec
        self.clients = clients
        self.lengths = lengths
        self.starts = starts

    @property
    def tier(self) -> str:
        return TIER_COLD if self.codec == _CODEC_ZLIB else TIER_WARM

    def live_payload_bytes(self) -> int:
        """Stored bytes attributed to live rows.

        Warm rows are individually addressable, so dead rows stop
        counting the moment they are deleted; a cold block is one zlib
        stream, so it counts fully until compaction rewrites it (or its
        last row dies).
        """
        if not len(self.clients):
            return 0
        if self.codec == _CODEC_ZLIB:
            return int(self.stored_bytes)
        widths = (self.lengths + 3) // 4
        return int(widths.sum())

    def position_of(self, client_id: int) -> int:
        """Index of ``client_id`` in the round; -1 when absent."""
        pos = int(np.searchsorted(self.clients, client_id))
        if pos < len(self.clients) and int(self.clients[pos]) == client_id:
            return pos
        return -1

    def delete_position(self, pos: int) -> None:
        self.clients = np.delete(self.clients, pos)
        self.lengths = np.delete(self.lengths, pos)
        self.starts = np.delete(self.starts, pos)


def _deflate(block: bytes) -> bytes:
    """A cold block as a zlib stream, RLE strategy: packed ternary codes
    offer runs and a skewed byte histogram, not LZ77 matches (~10× less
    CPU than the default strategy; the output is level-independent)."""
    deflater = zlib.compressobj(strategy=zlib.Z_RLE)
    return deflater.compress(block) + deflater.flush()


def _starts_of(lengths: np.ndarray) -> np.ndarray:
    """Per-row byte offsets inside a round block, from element counts."""
    widths = (np.asarray(lengths, dtype=np.int64) + 3) // 4
    starts = np.zeros(len(widths), dtype=np.int64)
    if len(widths) > 1:
        np.cumsum(widths[:-1], out=starts[1:])
    return starts


def _seal_shard(fh, path: str, arrays: Dict[str, np.ndarray], meta_rounds) -> None:
    """Make a finished shard and its index durable (still unreferenced)."""
    fh.flush()
    os.fsync(fh.fileno())
    fh.close()
    save_state_atomic(path + _IDX_SUFFIX, arrays, {"rounds": meta_rounds})


def _round_specs(store: SignGradientStore) -> Iterator[dict]:
    """One warm block spec per round of ``store``, built as it is asked for."""
    for t in store.rounds():
        rows = store.encoded_round(t)
        if not rows:
            continue
        cids = sorted(rows)
        stored = b"".join(bytes(rows[c][0]) for c in cids)
        yield {
            "round": t,
            "clients": np.array(cids, dtype=np.int64),
            "lengths": np.array([rows[c][1] for c in cids], dtype=np.int64),
            "raw_bytes": len(stored),
            "codec": _CODEC_RAW,
            "stored": stored,
        }


class TieredSignGradientStore(GradientStore):
    """Hot/warm/cold sign store under one ``GradientStore`` contract.

    Parameters
    ----------
    directory:
        On-disk home of the warm/cold tiers (created if missing).  A
        directory already holding a layout is loaded — the constructor
        doubles as :meth:`open` with knob overrides.
    delta:
        Sign threshold δ; must match the existing layout's when one is
        loaded.
    hot_budget_bytes:
        Hot-tier payload budget.  Exceeding it spills sealed rounds;
        an in-flight round larger than the whole budget is spilled as
        a last resort, so ingestion memory stays bounded regardless of
        cohort size.
    cold_after:
        Demotion horizon: during :meth:`compact`, rounds older than
        this many rounds behind the newest are deflated into the cold
        tier and younger cold rounds are inflated back to warm.
        ``None`` (default) disables demotion: every round keeps its
        current tier.
    shard_bytes:
        Target shard file size; a round block never spans shards.
    cold_cache_blocks:
        Capacity (in whole round blocks) of the cold-tier
        decompression LRU; ``0`` disables it.  Hit/miss/evict traffic
        feeds the ``storage_tier_cold_cache_*`` telemetry and
        :meth:`stats`.
    """

    supports_bulk_round = True
    telemetry_backend = "tiered"

    def __init__(
        self,
        directory: str,
        delta: float = 1e-6,
        hot_budget_bytes: int = _DEFAULT_HOT_BUDGET,
        cold_after: Optional[int] = None,
        shard_bytes: int = _DEFAULT_SHARD_BYTES,
        cold_cache_blocks: int = _DEFAULT_COLD_CACHE_BLOCKS,
    ) -> None:
        if delta < 0:
            raise ValueError(f"delta must be non-negative, got {delta}")
        if hot_budget_bytes <= 0:
            raise ValueError("hot_budget_bytes must be positive")
        if shard_bytes <= 0:
            raise ValueError("shard_bytes must be positive")
        if cold_after is not None and cold_after < 1:
            raise ValueError("cold_after must be >= 1 (or None)")
        if cold_cache_blocks < 0:
            raise ValueError(
                f"cold_cache_blocks must be >= 0, got {cold_cache_blocks}"
            )
        self.directory = directory
        self.delta = float(delta)
        self.hot_budget_bytes = int(hot_budget_bytes)
        self.cold_after = cold_after
        self.shard_bytes = int(shard_bytes)
        self.cold_cache_blocks = int(cold_cache_blocks)

        self._lock = threading.RLock()
        #: Serializes the two manifest writers (spill and compaction).
        #: A spill holds it across its whole snapshot → I/O → publish
        #: sequence but holds ``_lock`` only for the (cheap) snapshot
        #: and publish steps, so writers and readers stay live while
        #: shard files are being written.  Ordering: always acquired
        #: BEFORE ``_lock``, never while holding it.
        self._maintenance_lock = threading.Lock()
        self._hot: Dict[int, Dict[int, Tuple[np.ndarray, int]]] = {}
        self._hot_nbytes = 0
        self._sealed: set = set()
        self._max_round = -1
        self._disk: Dict[int, _DiskRound] = {}
        self._shard_names: List[str] = []
        self._shard_maps: List[Optional[np.ndarray]] = []
        self._generation = 0
        self._next_seq = 0
        #: (client, round) pairs logically deleted from on-disk rows
        #: but not yet reclaimed by compaction.
        self._tombstones: set = set()
        #: True while the in-memory pair set has diverged from the
        #: sidecar (a re-put resurrected a pair); the next spill syncs.
        self._tombstones_dirty = False
        #: (client, round) pairs whose durable disk row was removed
        #: from the in-memory index by a hot overlay (``_insert_hot``)
        #: but whose bytes are still on disk.  ``drop_client`` must
        #: tombstone these too — the index no longer knows about the
        #: row, yet a crash before the round respills would otherwise
        #: resurrect the dropped client's durable data on :meth:`open`.
        self._shadowed: set = set()
        self._dead_disk_bytes = 0
        self._cold_cache: "OrderedDict[int, np.ndarray]" = OrderedDict()
        self._cold_cache_hits = 0
        self._cold_cache_misses = 0
        self._cold_cache_evictions = 0
        #: Test hook: called with a crash-point name at every commit
        #: point (see ``CRASH_POINTS``); raising simulates a SIGKILL.
        self._crash_hook: Optional[Callable[[str], None]] = None
        self._closed = False

        os.makedirs(directory, exist_ok=True)
        if os.path.exists(os.path.join(directory, _MANIFEST)):
            self._load_layout()
        else:
            # Publish an empty manifest so the directory is immediately
            # a valid (empty) layout — open() after a crash-before-
            # first-spill then finds a well-formed store.
            self._write_manifest([])

    # ------------------------------------------------------------------
    # construction / layout
    # ------------------------------------------------------------------
    @classmethod
    def open(cls, directory: str, **kwargs) -> "TieredSignGradientStore":
        """Open an existing layout; raises ``FileNotFoundError`` if none.

        ``kwargs`` override operational knobs (budget, horizon, shard
        size); ``delta`` always comes from the manifest.
        """
        manifest_path = os.path.join(directory, _MANIFEST)
        if not os.path.exists(manifest_path):
            raise FileNotFoundError(f"no {_MANIFEST} in {directory!r}")
        with open(manifest_path, "r", encoding="utf-8") as fh:
            manifest = json.load(fh)
        kwargs.pop("delta", None)
        return cls(directory, delta=float(manifest["delta"]), **kwargs)

    @classmethod
    def from_store(
        cls,
        store: SignGradientStore,
        directory: str,
        shard_bytes: int = _DEFAULT_SHARD_BYTES,
    ) -> "TieredSignGradientStore":
        """Write ``store``'s records into ``directory`` and open the result.

        The records become one warm generation: each round one block of
        its packed rows in ascending client order (the
        :meth:`clients_at` order), written a round at a time through
        the shard writer and published by one manifest commit.
        ``directory`` may hold an empty layout (what a build killed
        before its commit leaves), but not one with shards.
        """
        if not isinstance(store, SignGradientStore):
            raise TypeError(
                f"from_store expects a SignGradientStore, got {type(store).__name__}"
            )
        writer = TieredSignGradientStore(
            directory, delta=store.delta, shard_bytes=shard_bytes
        )
        if writer._shard_names:
            raise FileExistsError(f"{directory!r} already holds a sign layout")
        names, _ = writer._write_shard_files(_round_specs(store))
        writer._write_manifest(names)
        return cls.open(directory, shard_bytes=shard_bytes)

    def _manifest_path(self) -> str:
        return os.path.join(self.directory, _MANIFEST)

    def _load_layout(self) -> None:
        """Rebuild the disk index from MANIFEST.json + per-shard indices.

        Also removes unreferenced shard/index/tmp files — the garbage a
        crash between shard writes and the manifest commit leaves
        behind — and re-applies persisted tombstone pairs.
        """
        with open(self._manifest_path(), "r", encoding="utf-8") as fh:
            manifest = json.load(fh)
        if manifest.get("format_version") != _FORMAT_VERSION:
            raise ValueError(
                f"{_MANIFEST}: unsupported format "
                f"{manifest.get('format_version')!r}"
            )
        if abs(float(manifest["delta"]) - self.delta) > 0:
            raise ValueError(
                f"{_MANIFEST}: layout delta {manifest['delta']!r} != "
                f"requested {self.delta!r}"
            )
        self._generation = int(manifest.get("generation", 0))
        self._shard_names = list(manifest["shards"])
        self._shard_maps = [None] * len(self._shard_names)
        self._disk = {}
        max_seq = -1
        for name in os.listdir(self.directory):
            m = _SHARD_RE.match(name)
            if m:
                max_seq = max(max_seq, int(m.group(2)))
        self._next_seq = max_seq + 1

        for shard_index, name in enumerate(self._shard_names):
            bin_path = os.path.join(self.directory, name)
            if not os.path.exists(bin_path):
                raise ValueError(f"{_MANIFEST}: shard {name!r} is missing")
            arrays, meta = load_state(bin_path + _IDX_SUFFIX)
            shard_size = os.path.getsize(bin_path)
            for key, spec in meta["rounds"].items():
                t = int(key)
                clients = np.asarray(arrays[f"clients_{t}"], dtype=np.int64)
                lengths = np.asarray(arrays[f"lengths_{t}"], dtype=np.int64)
                if len(clients) != len(lengths):
                    raise ValueError(
                        f"{name}{_IDX_SUFFIX}: round {t}: clients/lengths mismatch"
                    )
                offset = int(spec["offset"])
                stored = int(spec["stored_bytes"])
                if offset < 0 or offset + stored > shard_size:
                    raise ValueError(
                        f"{name}{_IDX_SUFFIX}: round {t}: block "
                        f"[{offset}, {offset + stored}) past shard end"
                    )
                previous = self._disk.get(t)
                if previous is not None:
                    # A later shard supersedes an earlier copy of the
                    # round (overlay re-spill); the old block is dead.
                    self._dead_disk_bytes += previous.stored_bytes
                self._disk[t] = _DiskRound(
                    shard=shard_index,
                    offset=offset,
                    stored_bytes=stored,
                    raw_bytes=int(spec.get("raw_bytes", stored)),
                    codec=str(spec.get("codec", _CODEC_RAW)),
                    clients=clients,
                    lengths=lengths,
                    starts=_starts_of(lengths),
                )

        tomb_path = os.path.join(self.directory, _TOMBSTONES)
        self._tombstones = set()
        if os.path.exists(tomb_path):
            with open(tomb_path, "r", encoding="utf-8") as fh:
                payload = json.load(fh)
            for cid, t in payload.get("pairs", []):
                self._tombstones.add((int(cid), int(t)))
        for cid, t in sorted(self._tombstones):
            dr = self._disk.get(t)
            if dr is None:
                continue
            pos = dr.position_of(cid)
            if pos >= 0:
                self._dead_disk_bytes += packed_size_bytes(int(dr.lengths[pos]))
                dr.delete_position(pos)
        if self._disk:
            self._max_round = max(self._max_round, max(self._disk))

        referenced = set(self._shard_names) | {
            n + _IDX_SUFFIX for n in self._shard_names
        }
        for name in os.listdir(self.directory):
            if name in referenced or name in (_MANIFEST, _TOMBSTONES):
                continue
            if _SHARD_RE.match(name) or (
                name.endswith(_IDX_SUFFIX) or name.endswith(".tmp")
            ):
                try:
                    os.unlink(os.path.join(self.directory, name))
                except OSError:
                    pass
        self._update_gauges()

    # ------------------------------------------------------------------
    # crash hooks / atomic writers
    # ------------------------------------------------------------------
    def _maybe_crash(self, point: str) -> None:
        hook = self._crash_hook
        if hook is not None:
            hook(point)

    def _write_manifest(self, shard_names: List[str]) -> None:
        """Atomically publish the shard list — the single commit point."""
        payload = {
            "format_version": _FORMAT_VERSION,
            "delta": self.delta,
            "generation": self._generation,
            "shards": list(shard_names),
        }
        path = self._manifest_path()
        tmp = path + ".tmp"
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)
            fh.flush()
            os.fsync(fh.fileno())
        self._maybe_crash("manifest-tmp-written")
        os.replace(tmp, path)
        # The rename itself must survive power loss, not just the file
        # contents — this also makes the earlier shard/index renames in
        # the same directory durable.
        fsync_dir(self.directory)

    def _write_tombstones(self) -> None:
        """Persist the (client, round) deletion pairs atomically."""
        payload = {"pairs": sorted([c, t] for c, t in self._tombstones)}
        path = os.path.join(self.directory, _TOMBSTONES)
        tmp = path + ".tmp"
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
        fsync_dir(self.directory)
        self._tombstones_dirty = False

    # ------------------------------------------------------------------
    # shard access
    # ------------------------------------------------------------------
    def _shard_data(self, index: int) -> np.ndarray:
        mm = self._shard_maps[index]
        if mm is None:
            path = os.path.join(self.directory, self._shard_names[index])
            size = os.path.getsize(path)
            mm = (
                np.memmap(path, dtype=np.uint8, mode="r")
                if size
                else np.empty(0, dtype=np.uint8)
            )
            self._shard_maps[index] = mm
        return mm

    def _round_block(self, t: int, dr: _DiskRound) -> np.ndarray:
        """The round's *raw* (uncompressed) block as flat uint8."""
        if dr.codec == _CODEC_ZLIB:
            telemetry = current_telemetry()
            cached = self._cold_cache.get(t)
            if cached is not None:
                self._cold_cache.move_to_end(t)
                self._cold_cache_hits += 1
                if telemetry.enabled:
                    telemetry.inc("storage_tier_cold_cache_hits_total")
                return cached
            self._cold_cache_misses += 1
            if telemetry.enabled:
                telemetry.inc("storage_tier_cold_cache_misses_total")
            data = self._shard_data(dr.shard)
            raw = np.frombuffer(
                zlib.decompress(
                    data[dr.offset : dr.offset + dr.stored_bytes].tobytes()
                ),
                dtype=np.uint8,
            )
            if self.cold_cache_blocks > 0:
                self._cold_cache[t] = raw
                while len(self._cold_cache) > self.cold_cache_blocks:
                    self._cold_cache.popitem(last=False)
                    self._cold_cache_evictions += 1
                    if telemetry.enabled:
                        telemetry.inc("storage_tier_cold_cache_evictions_total")
            return raw
        data = self._shard_data(dr.shard)
        return data[dr.offset : dr.offset + dr.stored_bytes]

    # ------------------------------------------------------------------
    # writes
    # ------------------------------------------------------------------
    def put(self, round_index: int, client_id: int, gradient: np.ndarray) -> None:
        telemetry = current_telemetry()
        with telemetry.span("storage_encode_seconds"):
            packed, length = encode_gradient(
                np.asarray(gradient).ravel(), self.delta
            )
        with self._lock:
            self._check_open()
            self._insert_hot(round_index, client_id, packed, length)
            self._max_round = max(self._max_round, round_index)
        self._maybe_spill()
        self._count_encode(length, packed.nbytes)

    def put_round(self, round_index: int, updates: Dict[int, np.ndarray]) -> None:
        """Batched round commit; the whole round is sealed afterwards.

        A ``put_round`` is the server's whole-round commit, so the
        round immediately becomes spill-eligible — this is what makes
        steady-state ingestion memory track ``hot_budget_bytes`` rather
        than history size.
        """
        if not updates:
            return
        block = round_block(updates)
        if block is None:
            for client_id, gradient in updates.items():
                self.put(round_index, client_id, gradient)
            with self._lock:
                self._seal(round_index)
            self._maybe_spill()
            return
        telemetry = current_telemetry()
        with telemetry.span("storage_encode_seconds"):
            packed_rows, length = encode_round(block, self.delta)
        with self._lock:
            self._check_open()
            for client_id, row in zip(updates, packed_rows):
                # Row copies detach from the batch matrix so later
                # drops actually free the payload.
                self._insert_hot(round_index, client_id, row.copy(), length)
            self._max_round = max(self._max_round, round_index)
            self._seal(round_index)
        self._maybe_spill()
        self._count_encode(length * len(block), packed_rows.nbytes)

    def put_encoded(
        self, round_index: int, client_id: int, packed: np.ndarray, length: int
    ) -> None:
        """Insert an already-encoded ``(packed, length)`` payload verbatim."""
        row = _encoded_row(packed, length)
        with self._lock:
            self._check_open()
            self._insert_hot(round_index, client_id, row, int(length))
            self._max_round = max(self._max_round, round_index)
        self._maybe_spill()

    def _check_open(self) -> None:
        if self._closed:
            raise RuntimeError("store is closed")

    def _insert_hot(
        self, t: int, cid: int, packed: np.ndarray, length: int
    ) -> None:
        packed = np.ascontiguousarray(packed, dtype=np.uint8).reshape(-1)
        hot_round = self._hot.setdefault(t, {})
        previous = hot_round.get(cid)
        if previous is not None:
            self._hot_nbytes -= previous[0].nbytes
        hot_round[cid] = (packed, length)
        self._hot_nbytes += packed.nbytes
        # The hot write supersedes any on-disk row for (t, cid): delete
        # it from the in-memory index (volatile — an unflushed overlay
        # lost in a crash correctly resurrects the old durable row).
        dr = self._disk.get(t)
        if dr is not None:
            pos = dr.position_of(cid)
            if pos >= 0:
                self._dead_disk_bytes += packed_size_bytes(int(dr.lengths[pos]))
                dr.delete_position(pos)
                # The durable row's bytes are still on disk; remember
                # the pair so drop_client can tombstone it even though
                # the index entry is gone.
                self._shadowed.add((cid, t))
        # A re-put of a dropped (client, round) resurrects it — match
        # the dict store's drop-then-put semantics.  The sidecar is not
        # rewritten here (the overlay is volatile anyway); the dirty
        # flag makes the next spill sync it, so the re-put IS durable
        # once flush() returns.
        if (cid, t) in self._tombstones:
            self._tombstones.discard((cid, t))
            self._tombstones_dirty = True
            # The tombstoned disk row still physically exists until
            # compaction; if the client is dropped again before this
            # round respills, the pair must be re-tombstoned.
            self._shadowed.add((cid, t))

    def _seal(self, t: int) -> None:
        if t in self._hot:
            self._sealed.add(t)

    def seal_round(self, round_index: int) -> None:
        """Mark a hot round complete (spill-eligible) explicitly."""
        with self._lock:
            self._seal(round_index)
        self._maybe_spill()

    def _spillable(self) -> List[int]:
        return sorted(
            t for t in self._hot if t < self._max_round or t in self._sealed
        )

    def _maybe_spill(self) -> None:
        """Run any spill the last write made necessary.

        Called WITHOUT ``_lock`` held: :meth:`_spill_rounds` snapshots
        under the lock, performs shard I/O outside it, and re-acquires
        it to publish, so concurrent writers block only for the cheap
        snapshot/publish sections — never for the disk writes.  Two
        passes: sealed rounds first, then (if the hot tier is still
        over budget) everything, so a single in-flight round larger
        than the whole budget spills mid-round as a last resort (later
        writes overlay it).
        """
        for last_resort in (False, True):
            with self._lock:
                if self._hot_nbytes <= self.hot_budget_bytes:
                    self._update_gauges()
                    return
                rounds = self._spillable()
                if last_resort or not rounds:
                    rounds = sorted(self._hot)
            if not rounds:
                return
            self._spill_rounds(rounds)

    # ------------------------------------------------------------------
    # spill
    # ------------------------------------------------------------------
    def _merged_round_entries(
        self, t: int
    ) -> Tuple[np.ndarray, np.ndarray, List[bytes], int]:
        """Live rows of round ``t`` across disk + hot, sorted by client.

        Returns ``(clients, lengths, row_payloads, raw_bytes)``.
        """
        rows: Dict[int, Tuple[bytes, int]] = {}
        dr = self._disk.get(t)
        if dr is not None and len(dr.clients):
            block = self._round_block(t, dr)
            for i, cid in enumerate(dr.clients):
                start = int(dr.starts[i])
                width = packed_size_bytes(int(dr.lengths[i]))
                rows[int(cid)] = (
                    bytes(block[start : start + width]),
                    int(dr.lengths[i]),
                )
        for cid, (packed, length) in self._hot.get(t, {}).items():
            rows[int(cid)] = (packed.tobytes(), int(length))
        clients = np.array(sorted(rows), dtype=np.int64)
        lengths = np.array([rows[int(c)][1] for c in clients], dtype=np.int64)
        payloads = [rows[int(c)][0] for c in clients]
        raw_bytes = sum(len(p) for p in payloads)
        return clients, lengths, payloads, raw_bytes

    def _spill_rounds(self, rounds: List[int]) -> None:
        """Move hot rounds into new warm shards; crash-safe, decoupled.

        Three steps under the maintenance lock (which serializes the
        two manifest writers, spill and compaction):

        1. snapshot — under ``_lock``, copy the rounds' merged payloads
           (disk block + hot overlay) and the current shard list;
        2. I/O — WITHOUT ``_lock``: write shard + index files, publish
           the manifest (old shard list + new names).  Writers and
           readers proceed concurrently against the old state;
        3. publish — under ``_lock`` again, swap the new blocks into
           the in-memory index, reconciling anything that raced the
           I/O: an overlay written mid-spill keeps shadowing its
           just-spilled row, and a client dropped mid-spill is
           tombstoned so the freshly durable row cannot resurrect it.

        An injected crash before the manifest replace leaves both disk
        and memory at the old state.
        """
        telemetry = current_telemetry()
        with self._maintenance_lock, telemetry.span("storage_tier_spill_seconds"):
            with self._lock:
                rounds = sorted(t for t in set(rounds) if t in self._hot)
                specs = []
                for t in rounds:
                    clients, lengths, payloads, raw = self._merged_round_entries(t)
                    if not len(clients):
                        continue
                    specs.append(
                        {
                            "round": t,
                            "clients": clients,
                            "lengths": lengths,
                            "raw_bytes": raw,
                            "codec": _CODEC_RAW,
                            "stored": b"".join(payloads),
                            # exact hot tuples at snapshot time, so the
                            # publish step can tell a consumed entry
                            # from one overwritten mid-spill
                            "hot_entries": dict(self._hot.get(t, {})),
                        }
                    )
                if not specs:
                    return
                manifest_base = list(self._shard_names)
                snap_tombstones = set(self._tombstones)
            new_names, placements = self._write_shard_files(specs)
            self._write_manifest(manifest_base + new_names)
            self._maybe_crash("after-manifest-replace")
            with self._lock:
                self._publish_spill(specs, new_names, placements, snap_tombstones)
        if telemetry.enabled:
            telemetry.inc("storage_tier_spills_total", len(specs))
        self._update_gauges()

    def _publish_spill(
        self,
        specs: List[dict],
        new_names: List[str],
        placements: List[Tuple[int, int]],
        snap_tombstones: set,
    ) -> None:
        """Adopt a finished spill (under ``_lock``), reconciling races.

        The shard files hold the snapshot-time rows; only the shard
        list (frozen by the maintenance lock) and the hot/tombstone
        state can have moved since.
        """
        base = len(self._shard_names)
        self._shard_names.extend(new_names)
        self._shard_maps.extend([None] * len(new_names))
        spilled = set()
        newly_shadowed = set()
        pairs_changed = False
        for spec, (local_shard, offset) in zip(specs, placements):
            t = spec["round"]
            spilled.add(t)
            previous = self._disk.get(t)
            if previous is not None:
                self._dead_disk_bytes += previous.stored_bytes
            dr = _DiskRound(
                shard=base + local_shard,
                offset=offset,
                stored_bytes=len(spec["stored"]),
                raw_bytes=spec["raw_bytes"],
                codec=_CODEC_RAW,
                clients=spec["clients"],
                lengths=spec["lengths"],
                starts=_starts_of(spec["lengths"]),
            )
            hot_round = self._hot.get(t, {})
            for cid, entry in spec["hot_entries"].items():
                current = hot_round.get(cid)
                if current is entry:
                    # unchanged since the snapshot: consumed by the spill
                    del hot_round[cid]
                    self._hot_nbytes -= entry[0].nbytes
                    continue
                pos = dr.position_of(cid)
                if pos >= 0:
                    self._dead_disk_bytes += packed_size_bytes(int(dr.lengths[pos]))
                    dr.delete_position(pos)
                if current is None:
                    # dropped while the spill ran; the new shard holds
                    # the row durably, so it needs a tombstone
                    self._tombstones.add((cid, t))
                    pairs_changed = True
                else:
                    # overwritten while the spill ran: the newer hot
                    # row keeps shadowing the just-spilled copy
                    newly_shadowed.add((cid, t))
            # disk-sourced rows whose client was dropped mid-spill:
            # the drop deleted them from the OLD index; delete them
            # from the new one too (their tombstone pairs stay)
            for cid, _t in [
                p
                for p in self._tombstones
                if p[1] == t and p not in snap_tombstones
            ]:
                pos = dr.position_of(cid)
                if pos >= 0:
                    self._dead_disk_bytes += packed_size_bytes(int(dr.lengths[pos]))
                    dr.delete_position(pos)
            self._disk[t] = dr
            if not hot_round:
                self._hot.pop(t, None)
                self._sealed.discard(t)
        # Spilled rounds were rewritten without their snapshot-time
        # dead rows, so those tombstone pairs are resolved (pairs added
        # mid-spill reference the new shard and stay); shadowed rows
        # are superseded by the new round copies, except the ones a
        # mid-spill overlay just re-shadowed.
        resolved = {
            p
            for p in self._tombstones
            if p[1] in spilled and p in snap_tombstones
        }
        self._shadowed = {
            p for p in self._shadowed if p[1] not in spilled
        } | newly_shadowed
        if resolved or pairs_changed or self._tombstones_dirty:
            self._tombstones -= resolved
            self._write_tombstones()

    def _write_shard_files(
        self, specs: Iterable[dict]
    ) -> Tuple[List[str], List[Tuple[int, int]]]:
        """Write round blocks into new shard (.bin + .idx.npz) files.

        ``specs`` is consumed one block at a time (it may be a
        generator), so no more than one round's bytes need be in hand.
        A block never spans shards: a new shard starts when the current
        one would pass ``shard_bytes``.  Returns ``(shard_names,
        placements)`` where ``placements[i]`` is ``(local_shard_index,
        offset)`` for the ``i``-th spec.  Files are fsynced but
        unreferenced until the caller publishes a manifest.
        """
        names: List[str] = []
        placements: List[Tuple[int, int]] = []
        shard = None  # (file, path, index arrays, round meta) being written
        size = 0
        try:
            for spec in specs:
                stored = spec["stored"]
                if shard is None or (size and size + len(stored) > self.shard_bytes):
                    if shard is not None:
                        _seal_shard(*shard)
                    name = _SHARD_FMT.format(gen=self._generation, seq=self._next_seq)
                    self._next_seq += 1
                    names.append(name)
                    path = os.path.join(self.directory, name)
                    shard = (open(path, "wb"), path, {}, {})
                    size = 0
                fh, _, arrays, meta_rounds = shard
                fh.write(stored)
                t = spec["round"]
                arrays[f"clients_{t}"] = spec["clients"]
                arrays[f"lengths_{t}"] = spec["lengths"]
                meta_rounds[str(t)] = {
                    "offset": size,
                    "stored_bytes": len(stored),
                    "raw_bytes": spec["raw_bytes"],
                    "codec": spec["codec"],
                }
                placements.append((len(names) - 1, size))
                size += len(stored)
            if shard is not None:
                _seal_shard(*shard)
                shard = None
        finally:
            if shard is not None:
                shard[0].close()
        self._maybe_crash("after-shard-write")
        return names, placements

    def flush(self) -> None:
        """Seal and spill every hot round; returns with all data durable.

        Rows written concurrently with the flush may stay hot — the
        guarantee covers everything written before the call.
        """
        with self._lock:
            for t in list(self._hot):
                self._sealed.add(t)
            rounds = sorted(self._hot)
        if rounds:
            self._spill_rounds(rounds)

    def close(self) -> None:
        """Flush, then release the memmaps."""
        self.flush()
        with self._lock:
            self._closed = True
            self._shard_maps = [None] * len(self._shard_names)
            self._cold_cache.clear()

    # ------------------------------------------------------------------
    # compaction / demotion
    # ------------------------------------------------------------------
    def compact(self, cold_after: Optional[int] = None) -> Dict[str, int]:
        """Rewrite the whole shard set: tombstone GC + cold demotion.

        Every disk round is re-blocked without its dead rows; rounds
        older than the horizon (``cold_after`` argument, falling back
        to the constructor's) are deflated into the cold tier, younger
        cold rounds are re-inflated to warm; with no horizon every
        round keeps its tier.  A round with no dead rows and an
        unchanged codec is copied as stored, never inflated or
        re-deflated.  The new shard generation is published with one
        atomic manifest replace — SIGKILL anywhere leaves either the
        old or the new complete shard set — and the superseded
        generation's files are then unlinked.  Hot rows are untouched.

        Returns ``{"rounds": .., "demoted": .., "reclaimed_bytes": ..,
        "generation": ..}``.
        """
        horizon = self.cold_after if cold_after is None else cold_after
        telemetry = current_telemetry()
        # Lock order: maintenance (serializes vs. spill, which may be
        # mid-I/O without holding ``_lock``) before ``_lock``.
        with self._maintenance_lock, self._lock:
            self._check_open()
            with telemetry.span("storage_tier_compact_seconds"):
                old_names = list(self._shard_names)
                old_disk_bytes = self.disk_bytes()
                specs = []
                demoted = 0
                for t in sorted(self._disk):
                    dr = self._disk[t]
                    if not len(dr.clients):
                        continue  # fully dead round: drop entirely
                    codec = dr.codec
                    if horizon is not None:
                        old = self._max_round - t >= horizon
                        codec = _CODEC_ZLIB if old else _CODEC_RAW
                    if codec == _CODEC_ZLIB and dr.codec != _CODEC_ZLIB:
                        demoted += 1
                    widths = (dr.lengths + 3) // 4
                    raw_bytes = int(widths.sum())
                    if dr.raw_bytes == raw_bytes and codec == dr.codec:
                        # Untouched round: pass its stored bytes through.
                        data = self._shard_data(dr.shard)
                        stored = bytes(data[dr.offset : dr.offset + dr.stored_bytes])
                    else:
                        block = self._round_block(t, dr)
                        if dr.raw_bytes != raw_bytes:  # drop the dead rows
                            spans = zip(dr.starts.tolist(), widths.tolist())
                            block = np.concatenate([block[s : s + w] for s, w in spans])
                        stored = bytes(block)
                        if codec == _CODEC_ZLIB:
                            stored = _deflate(stored)
                    specs.append(
                        {
                            "round": t,
                            "clients": dr.clients.copy(),
                            "lengths": dr.lengths.copy(),
                            "raw_bytes": raw_bytes,
                            "codec": codec,
                            "stored": stored,
                        }
                    )
                self._generation += 1
                new_names, placements = self._write_shard_files(specs)
                self._write_manifest(new_names)
                self._maybe_crash("after-manifest-replace")

                # ---- commit point passed: swap in the new generation.
                self._shard_names = new_names
                self._shard_maps = [None] * len(new_names)
                self._disk = {}
                self._cold_cache.clear()
                for spec, (local_shard, offset) in zip(specs, placements):
                    self._disk[spec["round"]] = _DiskRound(
                        shard=local_shard,
                        offset=offset,
                        stored_bytes=len(spec["stored"]),
                        raw_bytes=spec["raw_bytes"],
                        codec=spec["codec"],
                        clients=spec["clients"],
                        lengths=spec["lengths"],
                        starts=_starts_of(spec["lengths"]),
                    )
                self._dead_disk_bytes = 0
                if self._tombstones or self._tombstones_dirty:
                    # Every pair referenced a pre-compaction disk row;
                    # the rewrite dropped them all physically.
                    self._tombstones = set()
                    self._write_tombstones()
                # Shadowed rows had no index entry, so the rewrite
                # dropped them physically too — nothing left to
                # tombstone on a later drop.
                self._shadowed = set()
                for name in old_names:
                    for path in (
                        os.path.join(self.directory, name),
                        os.path.join(self.directory, name + _IDX_SUFFIX),
                    ):
                        try:
                            os.unlink(path)
                        except OSError:
                            pass
                reclaimed = old_disk_bytes - self.disk_bytes()
            stats = {
                "rounds": len(specs),
                "demoted": demoted,
                "reclaimed_bytes": int(reclaimed),
                "generation": self._generation,
            }
        if telemetry.enabled:
            telemetry.inc("storage_tier_compactions_total", 1)
            if demoted:
                telemetry.inc("storage_tier_demotions_total", demoted)
        self._update_gauges()
        return stats

    # ------------------------------------------------------------------
    # reads — every path is index-backed (hot dict / searchsorted)
    # ------------------------------------------------------------------
    def _tier_hit(self, tier: str) -> None:
        telemetry = current_telemetry()
        if telemetry.enabled:
            telemetry.inc("storage_tier_hits_total", 1, tier=tier)

    def _row(self, t: int, cid: int) -> Optional[Tuple[np.ndarray, int]]:
        """``cid``'s packed ``(row, length)`` at ``t`` for the base
        class's ``get`` — the hot row, or a view of its disk block."""
        with self._lock:
            hot_round = self._hot.get(t)
            if hot_round is not None and cid in hot_round:
                self._tier_hit(TIER_HOT)
                return hot_round[cid]
            dr = self._disk.get(t)
            pos = dr.position_of(cid) if dr is not None else -1
            if pos < 0:
                return None
            self._tier_hit(dr.tier)
            length, start = int(dr.lengths[pos]), int(dr.starts[pos])
            block = self._round_block(t, dr)
            return block[start : start + packed_size_bytes(length)], length

    def _stored_round(self, round_index: int):
        """The round for the base class's one-pass ``get_round`` decode:
        a round that is one gap-free disk block of one row length as a
        zero-copy ``(n, width)`` view of it; any other round (hot rows,
        mixed lengths, gaps) from the :meth:`encoded_round` payloads."""
        with self._lock:
            dr = self._disk.get(round_index)
            lengths = set() if dr is None else set(dr.lengths.tolist())
            if len(lengths) == 1 and not self._hot.get(round_index):
                n, length = len(dr.clients), lengths.pop()
                width, first = packed_size_bytes(length), int(dr.starts[0])
                # Homogeneous widths and strictly increasing starts: end
                # points n − 1 rows apart mean the rows are gap-free.
                if int(dr.starts[-1]) - first == (n - 1) * width:
                    self._tier_hit(dr.tier)
                    block = self._round_block(round_index, dr)
                    rows = block[first : first + n * width].reshape(n, width)
                    return dr.clients, rows, length
        return super()._stored_round(round_index)

    def encoded_round(
        self, round_index: int
    ) -> Dict[int, Tuple[np.ndarray, int]]:
        """Raw ``{client: (packed, length)}`` payloads of one round.

        Disk rows are views of the warm memmap (or the cold block's
        decompressed buffer, which the view keeps alive past any LRU
        eviction); hot entries shadow disk rows exactly like
        :meth:`get`.  The codec hook the base-class ``get_round``
        fallback batches through one LUT pass.
        """
        with self._lock:
            out: Dict[int, Tuple[np.ndarray, int]] = {}
            dr = self._disk.get(round_index)
            if dr is not None and len(dr.clients):
                self._tier_hit(dr.tier)
                block = self._round_block(round_index, dr)
                for i, cid in enumerate(dr.clients):
                    length = int(dr.lengths[i])
                    start = int(dr.starts[i])
                    out[int(cid)] = (
                        block[start : start + packed_size_bytes(length)],
                        length,
                    )
            hot_round = self._hot.get(round_index)
            if hot_round:
                self._tier_hit(TIER_HOT)
                for cid, rec in hot_round.items():
                    out[int(cid)] = rec
            return out

    def has(self, round_index: int, client_id: int) -> bool:
        with self._lock:
            hot_round = self._hot.get(round_index)
            if hot_round is not None and client_id in hot_round:
                return True
            dr = self._disk.get(round_index)
            return dr is not None and dr.position_of(client_id) >= 0

    def rounds(self) -> List[int]:
        with self._lock:
            live = {t for t, h in self._hot.items() if h}
            live |= {t for t, dr in self._disk.items() if len(dr.clients)}
            return sorted(live)

    def clients_at(self, round_index: int) -> List[int]:
        with self._lock:
            out = set()
            dr = self._disk.get(round_index)
            if dr is not None:
                out.update(int(c) for c in dr.clients)
            out.update(self._hot.get(round_index, {}))
            return sorted(out)

    def items(self) -> List[Tuple[Tuple[int, int], Tuple[np.ndarray, int]]]:
        """Sorted ``((round, client), (packed, length))`` pairs.

        The same payload shape both sign backends expose, so
        persistence serializes a tiered store identically (cold rows
        are decompressed on the way out).  Treat payloads as read-only.
        """
        with self._lock:
            out: List[Tuple[Tuple[int, int], Tuple[np.ndarray, int]]] = []
            for t in self.rounds():
                dr = self._disk.get(t)
                hot_round = self._hot.get(t, {})
                per_round: Dict[int, Tuple[np.ndarray, int]] = {}
                if dr is not None and len(dr.clients):
                    block = self._round_block(t, dr)
                    for i, cid in enumerate(dr.clients):
                        length = int(dr.lengths[i])
                        start = int(dr.starts[i])
                        per_round[int(cid)] = (
                            block[start : start + packed_size_bytes(length)],
                            length,
                        )
                for cid, (packed, length) in hot_round.items():
                    per_round[int(cid)] = (packed, length)
                for cid in sorted(per_round):
                    out.append(((t, cid), per_round[cid]))
            return out

    # ------------------------------------------------------------------
    # accounting
    # ------------------------------------------------------------------
    def nbytes(self) -> int:
        """Live payload bytes across all tiers (O(rounds), index-only).

        Warm rows stop counting the moment they are dropped; a cold
        round counts its full compressed block until compaction (one
        zlib stream is not row-addressable) or its last row dies.
        """
        with self._lock:
            total = self._hot_nbytes
            for dr in self._disk.values():
                total += dr.live_payload_bytes()
            return int(total)

    def recount_nbytes(self) -> int:
        """Recompute :meth:`nbytes` from raw payloads — the accounting
        oracle the index-derived total is tested against."""
        with self._lock:
            total = 0
            for hot_round in self._hot.values():
                total += sum(p.nbytes for p, _ in hot_round.values())
            for t, dr in self._disk.items():
                if not len(dr.clients):
                    continue
                if dr.codec == _CODEC_ZLIB:
                    total += dr.stored_bytes
                else:
                    block = self._round_block(t, dr)
                    for i in range(len(dr.clients)):
                        width = packed_size_bytes(int(dr.lengths[i]))
                        start = int(dr.starts[i])
                        total += block[start : start + width].nbytes
            return int(total)

    def disk_bytes(self) -> int:
        """Actual shard-file bytes on disk (live + not-yet-compacted dead)."""
        with self._lock:
            total = 0
            for name in self._shard_names:
                path = os.path.join(self.directory, name)
                if os.path.exists(path):
                    total += os.path.getsize(path)
            return total

    def tier_bytes(self) -> Dict[str, int]:
        """Live payload bytes per tier — the capacity-model numerator."""
        with self._lock:
            warm = 0
            cold = 0
            for dr in self._disk.values():
                if not len(dr.clients):
                    continue
                if dr.codec == _CODEC_ZLIB:
                    cold += dr.stored_bytes
                else:
                    warm += dr.live_payload_bytes()
            return {
                TIER_HOT: int(self._hot_nbytes),
                TIER_WARM: int(warm),
                TIER_COLD: int(cold),
            }

    def tier_rounds(self) -> Dict[str, int]:
        """Round counts per tier (a hot overlay counts the round hot)."""
        with self._lock:
            hot = {t for t, h in self._hot.items() if h}
            warm = sum(
                1
                for t, dr in self._disk.items()
                if len(dr.clients) and dr.codec == _CODEC_RAW and t not in hot
            )
            cold = sum(
                1
                for t, dr in self._disk.items()
                if len(dr.clients) and dr.codec == _CODEC_ZLIB and t not in hot
            )
            return {TIER_HOT: len(hot), TIER_WARM: warm, TIER_COLD: cold}

    def cold_compression_ratio(self) -> float:
        """Raw/stored bytes over cold rounds (>1 means zlib is winning).

        The warm block layout *is* the raw form, so this is exactly the
        cold tier's advantage over warm; ``0.0`` when nothing is cold.
        """
        with self._lock:
            stored = 0
            raw = 0
            for dr in self._disk.values():
                if len(dr.clients) and dr.codec == _CODEC_ZLIB:
                    stored += dr.stored_bytes
                    raw += dr.raw_bytes
            return raw / stored if stored else 0.0

    def stats(self) -> Dict[str, object]:
        """Operational snapshot for benchmarks and debugging."""
        with self._lock:
            return {
                "tier_bytes": self.tier_bytes(),
                "tier_rounds": self.tier_rounds(),
                "disk_bytes": self.disk_bytes(),
                "dead_disk_bytes": int(self._dead_disk_bytes),
                "tombstone_pairs": len(self._tombstones),
                "generation": self._generation,
                "shards": len(self._shard_names),
                "hot_budget_bytes": self.hot_budget_bytes,
                "cold_cache_blocks": self.cold_cache_blocks,
                "cold_cache_hits": self._cold_cache_hits,
                "cold_cache_misses": self._cold_cache_misses,
                "cold_cache_evictions": self._cold_cache_evictions,
            }

    def _update_gauges(self) -> None:
        telemetry = current_telemetry()
        if not telemetry.enabled:
            return
        for tier, value in self.tier_bytes().items():
            telemetry.set_gauge("storage_tier_bytes", float(value), tier=tier)

    # ------------------------------------------------------------------
    # deletion
    # ------------------------------------------------------------------
    def drop_client(self, client_id: int) -> int:
        """Delete every record of ``client_id``; returns records removed.

        Hot rows are freed immediately; disk rows are deleted from the
        per-round index and recorded as durable ``(client, round)``
        tombstone pairs (one atomic sidecar rewrite), then physically
        reclaimed by the next :meth:`compact`.
        """
        with self._lock:
            removed = 0
            for t in list(self._hot):
                hot_round = self._hot[t]
                entry = hot_round.pop(client_id, None)
                if entry is not None:
                    self._hot_nbytes -= entry[0].nbytes
                    removed += 1
                if not hot_round:
                    del self._hot[t]
                    self._sealed.discard(t)
            dropped_pairs = False
            for t, dr in self._disk.items():
                pos = dr.position_of(client_id)
                if pos >= 0:
                    self._dead_disk_bytes += packed_size_bytes(
                        int(dr.lengths[pos])
                    )
                    dr.delete_position(pos)
                    self._tombstones.add((client_id, t))
                    dropped_pairs = True
                    removed += 1
            # Rows shadowed by a hot overlay have no index entry, but
            # their bytes are still durable on disk — tombstone them
            # too, or a restart before the round respills would
            # resurrect them (the hot overlay itself was removed and
            # counted above).
            for pair in [p for p in self._shadowed if p[0] == client_id]:
                self._shadowed.discard(pair)
                self._tombstones.add(pair)
                dropped_pairs = True
            if dropped_pairs:
                self._write_tombstones()
            self._update_gauges()
            return removed


class MmapSignGradientStore(TieredSignGradientStore):
    """Read-only view of a sign layout: the training history, served.

    Build one with :meth:`from_store` or map an existing one with
    :meth:`open`.  History is immutable once training ends, so every
    write raises; reads, :meth:`drop_client` (tombstone pairs) and
    :meth:`compact` are the tiered store's.  Decode telemetry carries
    ``backend="mmap"``.
    """

    telemetry_backend = "mmap"

    def _read_only(self, *args, **kwargs) -> None:
        """Always raises: the view takes no writes."""
        raise NotImplementedError(
            "MmapSignGradientStore is read-only; write new records through "
            "SignGradientStore and re-run from_store"
        )

    put = put_round = put_encoded = _read_only
