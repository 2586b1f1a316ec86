"""Tests for the read-only view of the on-disk sign layout.

:class:`MmapSignGradientStore` is the tiered store's layout built once
from a dict store and then only read.  The read, drop, accounting and
restart contract it shares with every sign backend lives in
``tests/test_storage_conformance.py``; this module holds what is left:
empty and mixed-length builds, damage detected on open, the one
index pair per shard, tombstones against disk bytes, compaction,
persistence and ``with_sign_store``.
"""

import gc
import json
import os

import numpy as np
import pytest

from repro.fl.history import with_sign_store
from repro.fl.persistence import load_record, save_record
from repro.storage import MmapSignGradientStore, SignGradientStore
from repro.utils.serialization import load_state, save_state_atomic


@pytest.fixture
def sign_store(rng):
    store = SignGradientStore(delta=1e-6)
    # rounds of different cohort sizes, incl. a round with one client
    for t in range(4):
        store.put_round(
            t, {c: rng.normal(size=57) * 1e-3 for c in range(t % 3 + 1, 5)}
        )
    store.put(4, 2, rng.normal(size=57))
    return store


@pytest.fixture
def mmap_store(sign_store, tmp_path):
    return MmapSignGradientStore.from_store(sign_store, str(tmp_path / "layout"))


def _assert_same_view(dict_store, mm):
    assert mm.rounds() == dict_store.rounds()
    assert mm.nbytes() == dict_store.nbytes()
    for t in dict_store.rounds():
        assert mm.clients_at(t) == dict_store.clients_at(t)
        bulk = mm.get_round(t)
        reference = dict_store.get_round(t)
        assert sorted(bulk) == sorted(reference)
        for cid in reference:
            np.testing.assert_array_equal(bulk[cid], reference[cid])
            np.testing.assert_array_equal(mm.get(t, cid), dict_store.get(t, cid))


class TestFromStore:
    def test_empty_store(self, tmp_path):
        mm = MmapSignGradientStore.from_store(
            SignGradientStore(), str(tmp_path / "empty")
        )
        assert mm.rounds() == []
        assert mm.nbytes() == 0
        assert mm.get_round(0) == {}

    def test_heterogeneous_lengths(self, rng, tmp_path):
        store = SignGradientStore()
        store.put(0, 0, rng.normal(size=8))
        store.put(0, 1, rng.normal(size=12))
        mm = MmapSignGradientStore.from_store(store, str(tmp_path / "het"))
        _assert_same_view(store, mm)

    def test_direct_construction_raises(self):
        with pytest.raises(TypeError):
            MmapSignGradientStore()


class TestOpen:
    def test_missing_manifest_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            MmapSignGradientStore.open(str(tmp_path))

    def test_missing_shard_raises(self, mmap_store):
        for name in os.listdir(mmap_store.directory):
            if name.startswith("shard_"):
                os.unlink(os.path.join(mmap_store.directory, name))
        with pytest.raises(ValueError, match="missing"):
            MmapSignGradientStore.open(mmap_store.directory)

    def test_truncated_shard_raises(self, mmap_store):
        for name in os.listdir(mmap_store.directory):
            if name.startswith("shard_") and name.endswith(".bin"):
                path = os.path.join(mmap_store.directory, name)
                with open(path, "r+b") as fh:
                    fh.truncate(max(os.path.getsize(path) - 8, 1))
        with pytest.raises(ValueError, match="past shard end"):
            MmapSignGradientStore.open(mmap_store.directory)


    def test_unsupported_format_raises(self, mmap_store):
        # a layout with per-round index members (format 1) no longer opens
        path = os.path.join(mmap_store.directory, "MANIFEST.json")
        with open(path, encoding="utf-8") as fh:
            manifest = json.load(fh)
        manifest["format_version"] = 1
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(manifest, fh)
        with pytest.raises(ValueError, match="unsupported format"):
            MmapSignGradientStore.open(mmap_store.directory)

    @pytest.mark.parametrize("case", ["too-many", "negative"])
    def test_row_counts_must_cover_the_index(self, mmap_store, case):
        (name,) = [n for n in os.listdir(mmap_store.directory) if n.endswith(".idx.npz")]
        path = os.path.join(mmap_store.directory, name)
        arrays, meta = load_state(path)
        rounds = meta["rounds"]
        if case == "negative":  # the counts still sum to the arrays' length
            rounds[1]["rows"] += rounds[0]["rows"] + 1
            rounds[0]["rows"] = -1
        else:
            rounds[0]["rows"] += 1
        save_state_atomic(path, arrays, meta)
        with pytest.raises(ValueError, match="clients/lengths mismatch"):
            MmapSignGradientStore.open(mmap_store.directory)


class TestIndexLayout:
    def test_one_index_pair_per_shard(self, rng, tmp_path):
        # opening parses one clients and one lengths array per shard,
        # whatever the number of rounds in it
        store = SignGradientStore(delta=1e-6)
        for t in range(50):
            store.put_round(
                t, {c: rng.normal(size=33) * 1e-3 for c in range(t % 4, 6 + t % 3)}
            )
        directory = str(tmp_path / "layout")
        MmapSignGradientStore.from_store(store, directory)
        (name,) = [n for n in os.listdir(directory) if n.endswith(".idx.npz")]
        arrays, meta = load_state(os.path.join(directory, name))
        assert sorted(arrays) == ["clients", "lengths"]
        assert [spec["round"] for spec in meta["rounds"]] == list(range(50))
        assert sum(spec["rows"] for spec in meta["rounds"]) == len(arrays["clients"])
        _assert_same_view(store, MmapSignGradientStore.open(directory))


class TestNbytesAccounting:
    def test_drop_shrinks_nbytes_but_not_disk(self, sign_store, mmap_store):
        disk_before = mmap_store.disk_bytes()
        sign_store.drop_client(2)
        mmap_store.drop_client(2)
        # logical bytes shrink in lockstep with the dict store and the
        # oracle; physical shard bytes only shrink at compact()
        assert mmap_store.nbytes() == sign_store.nbytes()
        assert mmap_store.nbytes() == mmap_store.recount_nbytes()
        assert mmap_store.disk_bytes() == disk_before

class TestCompact:
    def test_compact_reclaims_disk_bytes(self, sign_store, mmap_store):
        sign_store.drop_client(2)
        mmap_store.drop_client(2)
        disk_before = mmap_store.disk_bytes()
        stats = mmap_store.compact()
        # the dropped rows are gone from disk, not just from the index
        assert stats["reclaimed_bytes"] > 0
        assert mmap_store.stats()["tombstone_pairs"] == 0
        assert all(cid != 2 for (_, cid), _ in mmap_store.items())
        assert mmap_store.disk_bytes() < disk_before
        assert mmap_store.nbytes() == mmap_store.recount_nbytes()
        _assert_same_view(sign_store, mmap_store)

    def test_compact_preserves_reads_and_restart(self, sign_store, mmap_store):
        sign_store.drop_client(1)
        mmap_store.drop_client(1)
        mmap_store.compact()
        _assert_same_view(sign_store, mmap_store)
        reopened = MmapSignGradientStore.open(mmap_store.directory)
        _assert_same_view(sign_store, reopened)

    def test_compact_without_tombstones_is_lossless(self, sign_store, mmap_store):
        disk_before = mmap_store.disk_bytes()
        stats = mmap_store.compact()
        assert stats["reclaimed_bytes"] == 0
        assert mmap_store.disk_bytes() == disk_before
        _assert_same_view(sign_store, mmap_store)

    def test_repeated_compact_converges(self, sign_store, mmap_store):
        sign_store.drop_client(2)
        mmap_store.drop_client(2)
        mmap_store.compact()
        stats = mmap_store.compact()
        assert mmap_store.stats()["tombstone_pairs"] == 0
        assert stats["reclaimed_bytes"] == 0
        _assert_same_view(sign_store, mmap_store)

    def test_compact_drops_fully_tombstoned_rounds(self, mmap_store):
        mmap_store.drop_client(2)  # round 4's only client
        mmap_store.compact()
        assert 4 not in mmap_store.rounds()
        assert mmap_store.get_round(4) == {}

    def test_compact_respects_shard_bytes(self, sign_store, tmp_path):
        directory = str(tmp_path / "resharded")
        MmapSignGradientStore.from_store(sign_store, directory)
        mm = MmapSignGradientStore.open(directory, shard_bytes=32)
        mm.compact()
        shards = [f for f in os.listdir(directory) if f.endswith(".bin")]
        assert len(shards) > 1
        _assert_same_view(sign_store, mm)


class TestGetRoundSemantics:
    def test_fully_tombstoned_round_is_empty(self, mmap_store):
        mmap_store.drop_client(2)
        assert mmap_store.get_round(4) == {}
        assert 4 not in mmap_store.rounds()


class TestPersistenceIntegration:
    def test_saved_record_matches_dict_reference(self, small_fl, tmp_path):
        reference = with_sign_store(small_fl["record"], backend="dict").gradients
        mmap_record = with_sign_store(
            small_fl["record"], backend="mmap", directory=str(tmp_path / "layout")
        )
        save_record(mmap_record, str(tmp_path / "saved"))
        loaded = load_record(str(tmp_path / "saved")).gradients
        assert loaded.delta == reference.delta
        items, expected = loaded.items(), reference.items()
        assert [k for k, _ in items] == [k for k, _ in expected]
        for (_, (packed, n)), (_, (ref_packed, ref_n)) in zip(items, expected):
            np.testing.assert_array_equal(packed, ref_packed)
            assert n == ref_n

    def test_record_round_trip(self, small_fl, tmp_path):
        mmap_record = with_sign_store(
            small_fl["record"], backend="mmap", directory=str(tmp_path / "layout")
        )
        save_record(mmap_record, str(tmp_path / "saved"))
        loaded = load_record(str(tmp_path / "saved"))
        _assert_same_view(loaded.gradients, mmap_record.gradients)


class TestWithSignStoreBackend:
    def test_mmap_backend_matches_dict(self, small_fl, tmp_path):
        dict_record = with_sign_store(small_fl["record"], backend="dict")
        mmap_record = with_sign_store(
            small_fl["record"], backend="mmap", directory=str(tmp_path / "layout")
        )
        assert isinstance(mmap_record.gradients, MmapSignGradientStore)
        _assert_same_view(dict_record.gradients, mmap_record.gradients)

    @pytest.mark.parametrize("backend", ["mmap", "tiered"])
    def test_own_temp_directory_removed_with_store(self, small_fl, tmp_path, backend):
        """A layout ``with_sign_store`` put in a temp dir of its own goes
        when the store is collected; a caller's directory stays."""
        record = with_sign_store(small_fl["record"], backend=backend)
        owned = record.gradients.directory
        assert os.listdir(owned)
        del record
        gc.collect()
        assert not os.path.exists(owned)

        given = tmp_path / "given"
        record = with_sign_store(small_fl["record"], backend=backend, directory=str(given))
        del record
        gc.collect()
        assert os.listdir(given)

    def test_unknown_backend_raises(self, small_fl):
        with pytest.raises(ValueError):
            with_sign_store(small_fl["record"], backend="sqlite")
