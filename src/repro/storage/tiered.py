"""The on-disk sign store: hot blocks → warm mmap shards → cold zlib.

The paper's recovery method only works because the RSU retains every
client's sign-compressed update for every round.  At IoV scale that
historical archive — not the model — is the dominant resource: one
in-memory dict (:class:`~repro.storage.store.SignGradientStore`) per
record cannot hold a million vehicles times thousands of rounds.
:class:`TieredSignGradientStore` is the capacity answer — a single
:class:`~repro.storage.store.GradientStore` whose records live in one
of three tiers:

hot
    A bounded in-memory :class:`~repro.storage.store.SignGradientStore`
    — the round-major container itself, one packed block per round —
    holding the rounds currently being ingested.  Writes (``put`` /
    ``put_round`` / ``put_encoded``) always land here, encoded before
    the store lock is taken.  When the hot
    tier exceeds ``hot_budget_bytes``, sealed rounds (every round older
    than the newest, plus rounds committed whole through ``put_round``)
    spill to the warm tier in the writing thread: each round's stored
    block, merged with any live disk rows of the round, goes to the one
    shard writer as it is.
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

Durability: every commit marker is written tmp + ``fsync`` +
``os.replace``, and the containing directory is fsynced after the
rename (as for a record directory's ``COMMIT`` marker,
:mod:`repro.fl.persistence`), so the commit survives power loss, not
just a process crash:

- a spill (or :meth:`~TieredSignGradientStore.from_store`) writes new
  immutable shard (``.bin``) and index (``.idx.npz``: one ``clients``
  and one ``lengths`` array per shard, with each round's row count in
  its metadata, so opening a layout is O(shards) archive reads) files,
  fsyncs them, then atomically rewrites ``MANIFEST.json`` — the single
  commit point — to reference them.  The shard I/O happens outside the store
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
hot    ``ceil(d/4)`` in the round's block + ~130 B: the 8 B id, the rest
       the client → rounds index (tracemalloc, 20 rounds, CPython 3.11)
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

from repro.storage.sign_codec import packed_size_bytes
from repro.storage.store import (
    GradientStore,
    SignGradientStore,
    _assemble,
    _Block,
    _encoded_row,
    _entries,
    _positions,
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
_FORMAT_VERSION = 2
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
                 clients, lengths):
        self.shard = shard
        self.offset = offset
        self.stored_bytes = stored_bytes
        self.raw_bytes = raw_bytes
        self.codec = codec
        self.clients = clients
        self.lengths = lengths
        self.starts = _starts_of(lengths)

    @classmethod
    def placed(cls, spec: dict, shard: int, offset: int) -> "_DiskRound":
        """The index of a block spec written at ``offset`` in ``shard``."""
        return cls(shard, offset, len(spec["stored"]), spec["raw_bytes"],
                   spec["codec"], spec["clients"], spec["lengths"])

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

    def remove(self, client_ids: List[int]) -> Tuple[List[int], int]:
        """Delete the entries of ``client_ids`` present; returns their
        ids and the packed bytes their rows occupy."""
        at = _positions(self.clients, client_ids)
        if not at:
            return [], 0
        gone = self.clients[at].tolist()
        dead = int(((self.lengths[at] + 3) // 4).sum())
        self.clients = np.delete(self.clients, at)
        self.lengths = np.delete(self.lengths, at)
        self.starts = np.delete(self.starts, at)
        return gone, dead


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


def _seal_shard(fh, path: str, rounds: List[dict], clients, lengths) -> None:
    """Make a finished shard and its index durable (still unreferenced):
    one ``clients`` and one ``lengths`` array for the whole shard, each
    round's ``rows`` of them in the order ``rounds`` lists."""
    fh.flush()
    os.fsync(fh.fileno())
    fh.close()
    arrays = {"clients": np.concatenate(clients), "lengths": np.concatenate(lengths)}
    save_state_atomic(path + _IDX_SUFFIX, arrays, {"rounds": rounds})


def _merge(disk: Optional[_Block], hot: Optional[_Block]) -> Optional[_Block]:
    """One round from its disk and hot rows: the disk rows minus the ids
    a hot row shadows, plus the hot rows; None when neither has any."""
    if disk is None or hot is None:
        return hot if disk is None else disk
    rows = {cid: (row, n) for cid, row, n in _entries(disk)}
    rows.update((cid, (row, n)) for cid, row, n in _entries(hot))
    return _assemble(rows)


def _round_spec(t: int, block: _Block) -> dict:
    """A stored round as a raw warm block spec: its rows end to end in
    ascending client order."""
    cids, rows, length = block
    if isinstance(rows, np.ndarray):
        stored = rows.tobytes()
        lengths = np.full(len(cids), length, dtype=np.int64)
    else:
        stored = b"".join(row.tobytes() for row in rows)
        lengths = np.asarray(length, dtype=np.int64)
    return {
        "round": t,
        "clients": np.asarray(cids, dtype=np.int64),
        "lengths": lengths,
        "raw_bytes": len(stored),
        "codec": _CODEC_RAW,
        "stored": stored,
    }


def _round_specs(store: SignGradientStore) -> Iterator[dict]:
    """One warm block spec per round of ``store``, built as it is asked for."""
    for t in store.rounds():
        block = store._stored_round(t)
        if block is not None:
            yield _round_spec(t, block)


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
        #: The hot tier: the rounds being ingested, one packed block per
        #: round.  Its mutex is taken only under ``_lock``.
        self._hot = SignGradientStore(delta=self.delta)
        self._hot.telemetry_backend = self.telemetry_backend
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
        #: from the in-memory index by a hot overlay (``_overlay``)
        #: but whose bytes are still on disk.  ``drop_client`` must
        #: tombstone these too — the index no longer knows about the
        #: row, yet a crash before the round respills would otherwise
        #: resurrect the dropped client's durable data on :meth:`open`.
        self._shadowed: set = set()
        #: Clients dropped since the last spill snapshot: a row one of
        #: them re-put into a spilling round shadows a spilled copy that
        #: is already dead.
        self._spill_drops: set = set()
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

    def _load_layout(self) -> None:
        """Rebuild the disk index from MANIFEST.json + per-shard indices.

        Also removes unreferenced shard/index/tmp files — the garbage a
        crash between shard writes and the manifest commit leaves
        behind — and re-applies persisted tombstone pairs.
        """
        with open(os.path.join(self.directory, _MANIFEST), "r", encoding="utf-8") as fh:
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
            clients = np.asarray(arrays["clients"], dtype=np.int64)
            lengths = np.asarray(arrays["lengths"], dtype=np.int64)
            counts = [int(spec["rows"]) for spec in meta["rounds"]]
            if (len(clients) != len(lengths) or sum(counts) != len(clients)
                    or min(counts, default=0) < 0):
                raise ValueError(f"{name}{_IDX_SUFFIX}: clients/lengths mismatch")
            end = 0
            for spec, n in zip(meta["rounds"], counts):
                t = int(spec["round"])
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
                start, end = end, end + n
                self._disk[t] = _DiskRound(
                    shard_index, offset, stored, int(spec["raw_bytes"]),
                    str(spec["codec"]), clients[start:end], lengths[start:end],
                )

        tomb_path = os.path.join(self.directory, _TOMBSTONES)
        self._tombstones = set()
        if os.path.exists(tomb_path):
            with open(tomb_path, "r", encoding="utf-8") as fh:
                payload = json.load(fh)
            for cid, t in payload.get("pairs", []):
                self._tombstones.add((int(cid), int(t)))
        for cid, t in sorted(self._tombstones):
            if t in self._disk:
                self._unindex(self._disk[t], [cid])
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
        self._replace_json(_MANIFEST, payload, "manifest-tmp-written")

    def _write_tombstones(self) -> None:
        """Persist the (client, round) deletion pairs atomically."""
        payload = {"pairs": sorted([c, t] for c, t in self._tombstones)}
        self._replace_json(_TOMBSTONES, payload)
        self._tombstones_dirty = False

    def _replace_json(self, name: str, payload: dict, crash_point: str = "") -> None:
        """``payload`` as the layout's ``name``: a fsynced tmp file
        renamed into place."""
        path = os.path.join(self.directory, name)
        tmp = path + ".tmp"
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)
            fh.flush()
            os.fsync(fh.fileno())
        if crash_point:
            self._maybe_crash(crash_point)
        os.replace(tmp, path)
        # The rename itself must survive power loss, not just the file
        # contents — this also makes the earlier shard/index renames in
        # the same directory durable.
        fsync_dir(self.directory)

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
        self._write(round_index, self._hot._encoded({client_id: np.ravel(gradient)}))

    def put_round(self, round_index: int, updates: Dict[int, np.ndarray]) -> None:
        """Batched round commit; the whole round is sealed afterwards.

        A ``put_round`` is the server's whole-round commit, so the
        round immediately becomes spill-eligible — this is what makes
        steady-state ingestion memory track ``hot_budget_bytes`` rather
        than history size.
        """
        if updates:
            self._write(round_index, self._hot._encoded(updates), seal=True)

    def put_encoded(
        self, round_index: int, client_id: int, packed: np.ndarray, length: int
    ) -> None:
        """Insert an already-encoded ``(packed, length)`` payload verbatim."""
        row = _encoded_row(packed, length)
        self._write(round_index, [([client_id], row[None, :], int(length))])

    def _write(self, t: int, blocks: Iterable, seal: bool = False) -> None:
        """Encoded ``(ids, rows, length)`` blocks into the hot store with
        their overlay bookkeeping, under ``_lock``; then any spill they
        made necessary.  The encode runs first, outside the lock."""
        blocks = list(blocks)
        with self._lock:
            self._check_open()
            for ids, rows, length in blocks:
                self._hot._put_block(t, ids, rows, length)
                self._overlay(t, ids)
            self._max_round = max(self._max_round, t)
            if seal:
                self._sealed.add(t)
        self._maybe_spill()

    def _check_open(self) -> None:
        if self._closed:
            raise RuntimeError("store is closed")

    def _unindex(self, dr: _DiskRound, cids) -> List[int]:
        """Delete ``cids``' entries from a disk round's index; their bytes
        stay on disk, dead, until compaction.  Returns the ids removed."""
        gone, dead = dr.remove(cids)
        self._dead_disk_bytes += dead
        return gone

    def _overlay(self, t: int, cids: List[int]) -> None:
        """Bookkeeping for hot rows just written at round ``t``."""
        # The hot write supersedes any on-disk row for (t, cid): delete
        # it from the in-memory index (volatile — an unflushed overlay
        # lost in a crash correctly resurrects the old durable row).
        # The durable row's bytes are still on disk; remember the pair
        # so drop_client can tombstone it even though the index entry
        # is gone.
        if t in self._disk:
            self._shadowed.update((cid, t) for cid in self._unindex(self._disk[t], cids))
        # A re-put of a dropped (client, round) resurrects it — match
        # the dict store's drop-then-put semantics.  The sidecar is not
        # rewritten here (the overlay is volatile anyway); the dirty
        # flag makes the next spill sync it, so the re-put IS durable
        # once flush() returns.  The tombstoned disk row still
        # physically exists until compaction; if the client is dropped
        # again before this round respills, the pair must be
        # re-tombstoned, so it is shadowed.
        revived = set()
        if self._tombstones:
            revived = self._tombstones.intersection((cid, t) for cid in cids)
        if revived:
            self._tombstones -= revived
            self._tombstones_dirty = True
            self._shadowed |= revived

    def _maybe_spill(self) -> None:
        """Run any spill the last write made necessary.

        Called WITHOUT ``_lock`` held: :meth:`_spill_rounds` snapshots
        under the lock, performs shard I/O outside it, and re-acquires
        it to publish, so concurrent writers block only for the cheap
        snapshot/publish sections — never for the disk writes.  Two
        passes: sealed rounds (every round older than the newest, plus
        rounds committed whole through ``put_round``) first, then (if
        the hot tier is still over budget) everything, so a single
        in-flight round larger than the whole budget spills mid-round
        as a last resort (later writes overlay it).
        """
        for last_resort in (False, True):
            with self._lock:
                if self._hot.nbytes() <= self.hot_budget_bytes:
                    self._update_gauges()
                    return
                hot = self._hot.rounds()
                rounds = [t for t in hot if t < self._max_round or t in self._sealed]
                if last_resort or not rounds:
                    rounds = hot
            if not rounds:
                return
            self._spill_rounds(rounds)

    # ------------------------------------------------------------------
    # spill
    # ------------------------------------------------------------------
    def _spill_rounds(self, rounds: List[int]) -> None:
        """Move hot rounds into new warm shards; crash-safe, decoupled.

        Three steps under the maintenance lock (which serializes the
        two manifest writers, spill and compaction):

        1. snapshot — under ``_lock``, take each round's hot block and
           its merge with the round's live disk rows (:func:`_merge`),
           and the current shard list;
        2. I/O — WITHOUT ``_lock``: write shard + index files, publish
           the manifest (old shard list + new names).  Writers and
           readers proceed concurrently against the old state;
        3. publish — under ``_lock`` again, swap the new blocks into
           the in-memory index, reconciling anything that raced the
           I/O (:meth:`_publish_spill`).

        An injected crash before the manifest replace leaves both disk
        and memory at the old state.
        """
        telemetry = current_telemetry()
        with self._maintenance_lock, telemetry.span("storage_tier_spill_seconds"):
            with self._lock:
                specs = []
                for t in sorted(set(rounds)):
                    hot = self._hot._stored_round(t)
                    if hot is None:
                        continue
                    spec = _round_spec(t, _merge(self._disk_block(t), hot))
                    spec["hot"] = hot
                    specs.append(spec)
                if not specs:
                    return
                manifest_base = list(self._shard_names)
                snap_tombstones = set(self._tombstones)
                self._spill_drops.clear()
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
        state can have moved since.  A snapshot hot row was consumed by
        the spill when the hot store still holds it with the same bytes
        (an unchanged round is still the very same block); it leaves
        the hot tier.  One missing from the hot store was dropped while
        the spill ran, and its freshly durable copy is tombstoned.  Any
        row still hot — overwritten mid-spill, or written mid-spill over
        a row the spill read from disk — keeps shadowing its spilled
        copy; when its client was dropped mid-spill before the re-put,
        that copy is tombstoned too, or a reopen would resurrect the
        dropped row.
        """
        base = len(self._shard_names)
        self._shard_names.extend(new_names)
        self._shard_maps.extend([None] * len(new_names))
        spilled = set()
        newly_shadowed = set()
        tombstoned = set()
        # disk-sourced rows whose client was dropped mid-spill: the drop
        # deleted them from the OLD index (their tombstone pairs stay)
        late = self._tombstones - snap_tombstones
        for spec, (local_shard, offset) in zip(specs, placements):
            t = spec["round"]
            spilled.add(t)
            previous = self._disk.get(t)
            if previous is not None:
                self._dead_disk_bytes += previous.stored_bytes
            dr = self._disk[t] = _DiskRound.placed(spec, base + local_shard, offset)
            snap = spec["hot"]
            consumed, dropped = [], []
            if self._hot._stored_round(t) is snap:  # untouched since the snapshot
                consumed = snap[0].tolist()
            else:
                for cid, row, n in _entries(snap):
                    now = self._hot._row(t, cid)
                    if now is None:
                        dropped.append(cid)
                    elif now[1] == n and np.array_equal(now[0], row):
                        consumed.append(cid)
            self._hot.drop_rows(t, consumed)
            tombstoned.update((cid, t) for cid in dropped)
            self._unindex(dr, dropped + [cid for cid, u in late if u == t])
            still_hot = self._unindex(dr, self._hot.clients_at(t))
            newly_shadowed.update((cid, t) for cid in still_hot)
            # dropped, then re-put: the spilled copy predates the drop
            tombstoned.update((cid, t) for cid in still_hot if cid in self._spill_drops)
        self._tombstones |= tombstoned
        self._sealed.intersection_update(self._hot.rounds())
        # Spilled rounds were rewritten without their snapshot-time
        # dead rows, so those tombstone pairs are resolved (pairs added
        # mid-spill reference the new shard and stay); shadowed rows
        # are superseded by the new round copies, except the ones a
        # mid-spill overlay just re-shadowed.
        resolved = {p for p in snap_tombstones & self._tombstones if p[1] in spilled}
        self._shadowed = {
            p for p in self._shadowed if p[1] not in spilled
        } | newly_shadowed
        if resolved or tombstoned or self._tombstones_dirty:
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
        shard = None  # (file, path, round meta, clients, lengths) being written
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
                    shard = (open(path, "wb"), path, [], [], [])
                    size = 0
                fh, _, meta_rounds, clients, lengths = shard
                fh.write(stored)
                meta_rounds.append({
                    "round": spec["round"],
                    "rows": len(spec["clients"]),
                    "offset": size,
                    "stored_bytes": len(stored),
                    "raw_bytes": spec["raw_bytes"],
                    "codec": spec["codec"],
                })
                clients.append(spec["clients"])
                lengths.append(spec["lengths"])
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
            rounds = self._hot.rounds()
            self._sealed.update(rounds)
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
                    live_bytes = int(((dr.lengths + 3) // 4).sum())
                    if dr.raw_bytes == live_bytes and codec == dr.codec:
                        # Untouched round: pass its stored bytes through.
                        data = self._shard_data(dr.shard)
                        stored = bytes(data[dr.offset : dr.offset + dr.stored_bytes])
                        spec = dict(round=t, clients=dr.clients, lengths=dr.lengths,
                                    raw_bytes=dr.raw_bytes, codec=codec, stored=stored)
                    else:  # its live rows, end to end
                        spec = _round_spec(t, self._disk_block(t))
                        if codec == _CODEC_ZLIB:
                            spec.update(codec=codec, stored=_deflate(spec["stored"]))
                    specs.append(spec)
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
                    self._disk[spec["round"]] = _DiskRound.placed(spec, local_shard, offset)
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
    # reads — every path is index-backed (hot blocks / searchsorted)
    # ------------------------------------------------------------------
    def _tier_hit(self, tier: str) -> None:
        telemetry = current_telemetry()
        if telemetry.enabled:
            telemetry.inc("storage_tier_hits_total", 1, tier=tier)

    def _row(self, t: int, cid: int) -> Optional[Tuple[np.ndarray, int]]:
        """``cid``'s packed ``(row, length)`` at ``t`` for the base
        class's ``get`` — the hot row, or a view of its disk block."""
        with self._lock:
            row = self._hot._row(t, cid)
            if row is not None:
                self._tier_hit(TIER_HOT)
                return row
            dr = self._disk.get(t)
            pos = dr.position_of(cid) if dr is not None else -1
            if pos < 0:
                return None
            self._tier_hit(dr.tier)
            length, start = int(dr.lengths[pos]), int(dr.starts[pos])
            block = self._round_block(t, dr)
            return block[start : start + packed_size_bytes(length)], length

    def _disk_block(self, t: int) -> Optional[_Block]:
        """Disk round ``t``'s live rows as a stored round, or None.

        A gap-free block of one row length is a zero-copy ``(n, width)``
        view of the warm memmap (or of the cold block's decompressed
        buffer, which the view keeps alive past any LRU eviction);
        other rounds of one row length are gathered into one block, and
        mixed lengths come as a row list.
        """
        dr = self._disk.get(t)
        if dr is None or not len(dr.clients):
            return None
        block = self._round_block(t, dr)
        length = int(dr.lengths[0])
        if not (dr.lengths == length).all():
            widths = ((dr.lengths + 3) // 4).tolist()
            rows = [block[s : s + w] for s, w in zip(dr.starts.tolist(), widths)]
            return dr.clients, rows, dr.lengths.tolist()
        n, width, first = len(dr.clients), packed_size_bytes(length), int(dr.starts[0])
        # Homogeneous widths and strictly increasing starts: end points
        # n − 1 rows apart mean the rows are gap-free.
        if int(dr.starts[-1]) - first == (n - 1) * width:
            return dr.clients, block[first : first + n * width].reshape(n, width), length
        return dr.clients, block[dr.starts[:, None] + np.arange(width)], length

    def _stored_round(self, round_index: int) -> Optional[_Block]:
        """The round for the base class's one-pass ``get_round`` decode:
        its disk rows merged with its hot rows (:func:`_merge`)."""
        with self._lock:
            disk = self._disk_block(round_index)
            hot = self._hot._stored_round(round_index)
            if disk is not None:
                self._tier_hit(self._disk[round_index].tier)
            if hot is not None:
                self._tier_hit(TIER_HOT)
            return _merge(disk, hot)

    def has(self, round_index: int, client_id: int) -> bool:
        with self._lock:
            if self._hot.has(round_index, client_id):
                return True
            dr = self._disk.get(round_index)
            return dr is not None and dr.position_of(client_id) >= 0

    def rounds(self) -> List[int]:
        with self._lock:
            live = {t for t, dr in self._disk.items() if len(dr.clients)}
            return sorted(live.union(self._hot.rounds()))

    def clients_at(self, round_index: int) -> List[int]:
        with self._lock:
            dr = self._disk.get(round_index)
            disk = [] if dr is None else dr.clients.tolist()
            return sorted(set(disk).union(self._hot.clients_at(round_index)))

    def items(self) -> List[Tuple[Tuple[int, int], Tuple[np.ndarray, int]]]:
        """Sorted ``((round, client), (packed, length))`` pairs.

        The same payload shape both sign backends expose, so
        persistence serializes a tiered store identically (cold rows
        are decompressed on the way out).  Treat payloads as read-only.
        """
        with self._lock:
            return [
                ((t, cid), (row, n))
                for t in self.rounds()
                for cid, row, n in _entries(
                    _merge(self._disk_block(t), self._hot._stored_round(t))
                )
            ]

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
            disk = sum(dr.live_payload_bytes() for dr in self._disk.values())
            return int(self._hot.nbytes() + disk)

    def recount_nbytes(self) -> int:
        """Recompute :meth:`nbytes` from raw payloads — the accounting
        oracle the index-derived total is tested against."""
        with self._lock:
            total = self._hot.recount_nbytes()
            for t, dr in self._disk.items():
                if dr.codec == _CODEC_ZLIB:
                    total += dr.stored_bytes if len(dr.clients) else 0
                elif len(dr.clients):
                    total += sum(row.nbytes for _, row, _ in _entries(self._disk_block(t)))
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
                TIER_HOT: self._hot.nbytes(),
                TIER_WARM: int(warm),
                TIER_COLD: int(cold),
            }

    def tier_rounds(self) -> Dict[str, int]:
        """Round counts per tier (a hot overlay counts the round hot)."""
        with self._lock:
            hot = set(self._hot.rounds())
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
            removed = self._hot.drop_client(client_id)
            self._spill_drops.add(client_id)
            self._sealed.intersection_update(self._hot.rounds())
            dropped_pairs = False
            for t, dr in self._disk.items():
                if self._unindex(dr, [client_id]):
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
