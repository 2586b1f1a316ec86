"""Backend-conformance suite for the ``GradientStore`` sign backends.

One parameterized module exercises the full contract — put/get/rounds/
clients_at/has/items/nbytes/drop_client/get_round — across every sign
backend (dict, mmap, tiered, and a tiered variant whose rounds have
been demoted to the compressed cold tier), all against the dict store
as the reference.  Any future backend gets added to ``BACKENDS`` and
inherits the whole suite, so read surfaces can't silently drift.

mmap and tiered are one on-disk layout, read-only or appendable; the
checks at the end cover what only that layout has: ``from_store``
(shard rollover, durability before publish), the read-only view's
refused writes, and accounting across a restart.
"""

import json
import os

import numpy as np
import pytest

from repro.storage import (
    FullGradientStore,
    MmapSignGradientStore,
    RoundDecodeCache,
    SignGradientStore,
    TieredSignGradientStore,
)
from repro.storage.store import GradientStore

DELTA = 1e-6
DIM = 57


def _reference_store(rng):
    """Dict store with mixed cohort sizes plus a single-client round."""
    store = SignGradientStore(delta=DELTA)
    for t in range(4):
        store.put_round(
            t, {c: rng.normal(size=DIM) * 1e-3 for c in range(t % 3 + 1, 5)}
        )
    store.put(4, 2, rng.normal(size=DIM))
    return store


def _build_dict(reference, tmp_path):
    store = SignGradientStore(delta=DELTA)
    for (t, cid), (packed, length) in reference.items():
        store.put_encoded(t, cid, packed, length)
    return store, None


def _build_mmap(reference, tmp_path):
    directory = str(tmp_path / "mmap-layout")
    store = MmapSignGradientStore.from_store(reference, directory)
    return store, lambda: MmapSignGradientStore.open(directory)


def _build_tiered(reference, tmp_path):
    directory = str(tmp_path / "tiered-layout")
    # tiny hot budget so the suite exercises the warm/spill path
    store = TieredSignGradientStore(directory, delta=DELTA, hot_budget_bytes=64)
    for (t, cid), (packed, length) in reference.items():
        store.put_encoded(t, cid, packed, length)
    store.flush()
    return store, lambda: TieredSignGradientStore.open(directory)


def _build_tiered_cold(reference, tmp_path):
    directory = str(tmp_path / "tiered-cold-layout")
    store = TieredSignGradientStore(directory, delta=DELTA, hot_budget_bytes=64)
    for (t, cid), (packed, length) in reference.items():
        store.put_encoded(t, cid, packed, length)
    store.flush()
    store.compact(cold_after=1)  # demote everything but the newest round
    assert store.tier_rounds()["cold"] > 0
    return store, lambda: TieredSignGradientStore.open(directory)


BACKENDS = {
    "dict": _build_dict,
    "mmap": _build_mmap,
    "tiered": _build_tiered,
    "tiered-cold": _build_tiered_cold,
}


@pytest.fixture(params=sorted(BACKENDS))
def backend(request, rng, tmp_path):
    reference = _reference_store(rng)
    store, reopen = BACKENDS[request.param](reference, tmp_path)
    return {"name": request.param, "reference": reference, "store": store,
            "reopen": reopen}


def _assert_same_view(reference, store):
    assert store.rounds() == reference.rounds()
    for t in reference.rounds():
        assert store.clients_at(t) == reference.clients_at(t)
        bulk = store.get_round(t)
        expected = reference.get_round(t)
        assert sorted(bulk) == sorted(expected)
        for cid in expected:
            np.testing.assert_array_equal(bulk[cid], expected[cid])
            np.testing.assert_array_equal(store.get(t, cid), reference.get(t, cid))
            assert store.has(t, cid)


class TestReadSurface:
    def test_bitwise_identical_to_reference(self, backend):
        _assert_same_view(backend["reference"], backend["store"])

    def test_items_match(self, backend):
        ref_items = backend["reference"].items()
        got_items = backend["store"].items()
        assert len(ref_items) == len(got_items)
        for (rk, (rp, rl)), (gk, (gp, gl)) in zip(ref_items, got_items):
            assert rk == gk and rl == gl
            np.testing.assert_array_equal(np.asarray(gp), np.asarray(rp))

    def test_missing_round_is_empty(self, backend):
        assert backend["store"].get_round(99) == {}
        assert backend["store"].clients_at(99) == []

    def test_missing_client_raises_keyerror(self, backend):
        store = backend["store"]
        assert not store.has(0, 999)
        with pytest.raises(KeyError):
            store.get(0, 999)

    def test_delta_carried(self, backend):
        assert backend["store"].delta == DELTA

    def test_bulk_round_flag_is_honest(self, backend):
        store = backend["store"]
        if getattr(store, "supports_bulk_round", False):
            t = backend["reference"].rounds()[0]
            assert sorted(store.get_round(t)) == backend["reference"].clients_at(t)


class TestBulkFallbackParity:
    """The base-class ``get_round`` (one batched ``decode_round`` pass
    over the backend's ``_stored_round``) must be bitwise identical to
    each backend's native bulk read *and* to the per-client ``get``
    loop — the three paths a replay can take depending on flags and
    fault fallbacks."""

    def test_base_batched_decode_matches_native_bulk(self, backend):
        store = backend["store"]
        for t in store.rounds():
            base = GradientStore.get_round(store, t)
            native = store.get_round(t)
            assert sorted(base) == sorted(native)
            for cid in native:
                assert base[cid].tobytes() == native[cid].tobytes()

    def test_bulk_matches_per_client_gets(self, backend):
        """``get_round`` rows are int8, ``get`` is float64, and the two
        agree in value (−1, 0, +1 widen exactly)."""
        store = backend["store"]
        for t in store.rounds():
            bulk = store.get_round(t)
            base = GradientStore.get_round(store, t)
            for cid in store.clients_at(t):
                dense = store.get(t, cid)
                assert dense.dtype == np.float64
                for row in (bulk[cid], base[cid]):
                    assert row.dtype == np.int8
                    assert row.astype(np.float64).tobytes() == dense.tobytes()

    @pytest.mark.parametrize(
        "layout", ["dict", "mmap", "tiered-hot", "tiered-warm", "tiered-cold",
                   "tiered-warm+hot"]
    )
    def test_mixed_length_rounds_yield_int8_rows(self, layout, rng, tmp_path):
        """Every tier and the per-row fallbacks (mixed payload lengths,
        hot rows beside disk rows) hand out int8 rows equal to ``get``."""
        reference = SignGradientStore(delta=DELTA)
        for t in range(3):
            for cid in range(4):
                # Round 1 mixes payload lengths; the rest are homogeneous.
                dim = DIM + (cid if t == 1 else 0)
                reference.put(t, cid, rng.normal(size=dim) * 1e-3)
        if layout == "dict":
            store = reference
        elif layout == "mmap":
            store = MmapSignGradientStore.from_store(reference, str(tmp_path / "m"))
        else:
            budget = 1 << 20 if layout == "tiered-hot" else 64
            store = TieredSignGradientStore(
                str(tmp_path / "t"), delta=DELTA, hot_budget_bytes=budget
            )
            for (t, cid), (packed, length) in reference.items():
                if layout == "tiered-warm+hot" and cid == 3:
                    continue
                store.put_encoded(t, cid, packed, length)
            if layout != "tiered-hot":
                store.flush()
            if layout == "tiered-cold":
                store.compact(cold_after=0)
            if layout == "tiered-warm+hot":
                store.hot_budget_bytes = 1 << 20
                for t in range(3):
                    packed, length = dict(reference.items())[(t, 3)]
                    store.put_encoded(t, 3, packed, length)
            tier = layout.split("-")[1].replace("warm+", "")
            assert store.tier_rounds()[tier] == 3
        for t in range(3):
            for rows in (store.get_round(t), GradientStore.get_round(store, t)):
                assert sorted(rows) == list(range(4))
                for cid, row in rows.items():
                    assert row.dtype == np.int8
                    dense = reference.get(t, cid)
                    assert row.astype(np.float64).tobytes() == dense.tobytes()

    def test_base_fallback_survives_drop(self, backend):
        backend["reference"].drop_client(2)
        backend["store"].drop_client(2)
        store = backend["store"]
        for t in store.rounds():
            base = GradientStore.get_round(store, t)
            expected = backend["reference"].get_round(t)
            assert sorted(base) == sorted(expected)
            for cid in expected:
                assert base[cid].tobytes() == expected[cid].tobytes()


def _build_tiered_hot(reference, tmp_path):
    directory = str(tmp_path / "tiered-hot-layout")
    store = TieredSignGradientStore(directory, delta=DELTA, hot_budget_bytes=1 << 20)
    for (t, cid), (packed, length) in reference.items():
        store.put_encoded(t, cid, packed, length)
    assert store.tier_rounds()["hot"] == len(reference.rounds())
    return store, None


#: Every tier a round block can come from: the tiered store's hot
#: overlay, warm shards and cold blocks, beside dict and mmap.
BLOCK_BACKENDS = {**BACKENDS, "tiered-hot": _build_tiered_hot}


def _assert_block_rows(store, rows, t, cids):
    """Row ``i`` of the round's block is ``get(t, cids[i])``, and the
    mapping surface reads the same rows."""
    assert rows.cids.tolist() == cids == list(rows) == sorted(rows)
    assert len(rows) == len(cids) and rows.block.shape == (len(cids), DIM)
    for i, cid in enumerate(cids):
        np.testing.assert_array_equal(rows.block[i], store.get(t, cid))
        np.testing.assert_array_equal(rows[cid], rows.block[i])
        assert rows.get(cid) is not None and cid in rows
    assert rows.get(999) is None and 999 not in rows


@pytest.mark.parametrize("name", sorted(BLOCK_BACKENDS))
class TestRoundBlock:
    """``get_round`` returns one decoded block with its client ids, from
    the store, from the decode cache, and after a cache discard."""

    def build(self, name, rng, tmp_path):
        reference = _reference_store(rng)
        return reference, BLOCK_BACKENDS[name](reference, tmp_path)[0]

    def test_store_round(self, name, rng, tmp_path):
        reference, store = self.build(name, rng, tmp_path)
        for t in reference.rounds():
            _assert_block_rows(store, store.get_round(t), t, reference.clients_at(t))

    def test_cached_round_and_discard(self, name, rng, tmp_path):
        reference, store = self.build(name, rng, tmp_path)
        cache = RoundDecodeCache(max_bytes=1 << 20)
        for t in reference.rounds():
            cids = reference.clients_at(t)
            cached, _ = cache.get(store, t)
            _assert_block_rows(store, cached, t, cids)
            cache.discard_client(store, cids[0])
            left, hit = cache.get(store, t)
            assert hit
            _assert_block_rows(store, left, t, cids[1:])
            _assert_block_rows(store, cached, t, cids)  # held rounds keep theirs


class TestNbytes:
    def test_nbytes_matches_oracle(self, backend):
        store = backend["store"]
        assert store.nbytes() == store.recount_nbytes()
        assert store.nbytes() > 0

    def test_nbytes_tracks_reference_for_raw_layouts(self, backend):
        # cold tiers account compressed block bytes, so only the
        # raw-payload backends owe byte-exact equality with the dict view
        if backend["name"] == "tiered-cold":
            pytest.skip("cold tier accounts compressed bytes")
        assert backend["store"].nbytes() == backend["reference"].nbytes()


class TestDropClient:
    def test_drop_matches_reference(self, backend):
        expected = backend["reference"].drop_client(2)
        assert backend["store"].drop_client(2) == expected
        _assert_same_view(backend["reference"], backend["store"])
        assert not backend["store"].has(4, 2)
        with pytest.raises(KeyError):
            backend["store"].get(4, 2)

    def test_double_drop_returns_zero(self, backend):
        assert backend["store"].drop_client(1) > 0
        assert backend["store"].drop_client(1) == 0

    def test_drop_unknown_client_is_noop(self, backend):
        assert backend["store"].drop_client(999) == 0
        _assert_same_view(backend["reference"], backend["store"])

    def test_drop_keeps_nbytes_oracle_consistent(self, backend):
        store = backend["store"]
        before = store.nbytes()
        store.drop_client(2)
        assert store.nbytes() == store.recount_nbytes()
        assert store.nbytes() < before


class TestRestart:
    def test_view_survives_reopen(self, backend):
        if backend["reopen"] is None:
            pytest.skip("in-memory backend has no restart path")
        _assert_same_view(backend["reference"], backend["reopen"]())

    def test_drop_survives_reopen(self, backend):
        if backend["reopen"] is None:
            pytest.skip("in-memory backend has no restart path")
        backend["reference"].drop_client(3)
        backend["store"].drop_client(3)
        _assert_same_view(backend["reference"], backend["reopen"]())

    def test_nbytes_survives_reopen_after_drop(self, backend):
        if backend["reopen"] is None:
            pytest.skip("in-memory backend has no restart path")
        backend["reference"].drop_client(3)
        backend["store"].drop_client(3)
        reopened = backend["reopen"]()
        assert reopened.nbytes() == reopened.recount_nbytes()
        assert reopened.nbytes() == backend["store"].nbytes()
        if backend["name"] != "tiered-cold":  # cold blocks count compressed
            assert reopened.nbytes() == backend["reference"].nbytes()


#: The two classes over the one on-disk layout: read-only and appendable.
ON_DISK = {"mmap": MmapSignGradientStore, "tiered": TieredSignGradientStore}


def _published_files(directory):
    """The manifest's name and every shard/index file it references."""
    name = next(n for n in ("MANIFEST.json", "manifest.json")
                if os.path.exists(os.path.join(directory, n)))
    with open(os.path.join(directory, name), encoding="utf-8") as fh:
        shards = json.load(fh)["shards"]
    files = list(shards)
    files += [n + ".idx.npz" for n in shards
              if os.path.exists(os.path.join(directory, n + ".idx.npz"))]
    return name, shards, files


@pytest.mark.parametrize("layout", sorted(ON_DISK))
class TestFromStore:
    """``from_store`` writes a dict store as one warm generation."""

    def test_sharding_splits_rounds(self, layout, rng, tmp_path):
        reference = _reference_store(rng)
        directory = str(tmp_path / "sharded")
        store = ON_DISK[layout].from_store(reference, directory, shard_bytes=32)
        assert len(_published_files(directory)[1]) > 1
        _assert_same_view(reference, store)
        _assert_same_view(reference, ON_DISK[layout].open(directory))

    def test_rejects_full_store(self, layout, tmp_path):
        with pytest.raises(TypeError):
            ON_DISK[layout].from_store(FullGradientStore(), str(tmp_path / "x"))
        with pytest.raises(ValueError):
            ON_DISK[layout].from_store(
                SignGradientStore(), str(tmp_path / "y"), shard_bytes=0
            )

    def test_refuses_a_directory_holding_a_layout(self, layout, rng, tmp_path):
        reference = _reference_store(rng)
        directory = str(tmp_path / "layout")
        ON_DISK[layout].from_store(reference, directory)
        with pytest.raises(FileExistsError):
            ON_DISK[layout].from_store(reference, directory)
        _assert_same_view(reference, ON_DISK[layout].open(directory))

    def test_fills_a_build_killed_before_its_commit(
        self, layout, rng, tmp_path, monkeypatch
    ):
        """A build killed before its manifest commit leaves an empty
        layout and unreferenced shards; building again fills it."""
        reference = _reference_store(rng)
        directory = str(tmp_path / "layout")
        commits = []
        real_replace = os.replace

        def replace(src, dst):
            if os.path.basename(dst) == "MANIFEST.json":
                commits.append(dst)
                if len(commits) == 2:  # the first publishes the empty layout
                    raise RuntimeError("killed before the manifest commit")
            return real_replace(src, dst)

        monkeypatch.setattr(os, "replace", replace)
        with pytest.raises(RuntimeError):
            ON_DISK[layout].from_store(reference, directory)
        monkeypatch.undo()
        assert ON_DISK[layout].open(directory).rounds() == []
        store = ON_DISK[layout].from_store(reference, directory)
        _assert_same_view(reference, store)
        assert not [n for n in os.listdir(directory) if n.endswith(".tmp")]

    def test_published_files_fsynced_before_manifest(
        self, layout, rng, tmp_path, monkeypatch
    ):
        """A power loss right after the manifest rename must not publish
        a shard, index or manifest whose bytes never reached the disk:
        each was fsynced before the rename."""
        synced = set()
        publishes = []
        real_fsync, real_replace = os.fsync, os.replace

        def fsync(fd):
            synced.add(os.fstat(fd).st_ino)
            return real_fsync(fd)

        def replace(src, dst):
            if os.path.basename(dst) in ("MANIFEST.json", "manifest.json"):
                publishes.append((os.stat(src).st_ino, set(synced)))
            return real_replace(src, dst)

        monkeypatch.setattr(os, "fsync", fsync)
        monkeypatch.setattr(os, "replace", replace)
        directory = str(tmp_path / "layout")
        ON_DISK[layout].from_store(_reference_store(rng), directory, shard_bytes=32)
        monkeypatch.undo()

        manifest_inode, synced_then = publishes[-1]
        assert manifest_inode in synced_then
        name, shards, files = _published_files(directory)
        assert len(shards) > 1
        for path in (os.path.join(directory, f) for f in files):
            assert os.stat(path).st_ino in synced_then, path


class TestReadOnlyLayout:
    """The read-only view refuses every write and stays unchanged."""

    def build(self, rng, tmp_path):
        reference = _reference_store(rng)
        directory = str(tmp_path / "layout")
        return reference, MmapSignGradientStore.from_store(reference, directory)

    def test_put_raises(self, rng, tmp_path):
        reference, store = self.build(rng, tmp_path)
        with pytest.raises(NotImplementedError):
            store.put(0, 0, np.zeros(4))
        _assert_same_view(reference, store)

    def test_put_round_raises(self, rng, tmp_path):
        reference, store = self.build(rng, tmp_path)
        packed, length = reference.items()[0][1]
        with pytest.raises(NotImplementedError):
            store.put_round(0, {0: np.zeros(4)})
        with pytest.raises(NotImplementedError):
            store.put_encoded(9, 0, packed, length)
        _assert_same_view(reference, store)
        _assert_same_view(reference, MmapSignGradientStore.open(store.directory))
