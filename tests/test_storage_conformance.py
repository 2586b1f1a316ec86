"""Backend-conformance suite for the ``GradientStore`` sign backends.

One parameterized module exercises the full contract — put/get/rounds/
clients_at/has/items/nbytes/drop_client/get_round — across every sign
backend (dict, mmap, tiered, and a tiered variant whose rounds have
been demoted to the compressed cold tier), all against the dict store
as the reference.  Any future backend gets added to ``BACKENDS`` and
inherits the whole suite, so read surfaces can't silently drift.
"""

import numpy as np
import pytest

from repro.storage import (
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
    over ``encoded_round``) must be bitwise identical to each backend's
    native bulk read *and* to the per-client ``get`` loop — the three
    paths a replay can take depending on flags and fault fallbacks."""

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
            cached, _ = cache.acquire(store, t)
            _assert_block_rows(store, cached, t, cids)
            cache.discard_client(store, cids[0])
            left, hit = cache.acquire(store, t)
            assert hit
            _assert_block_rows(store, left, t, cids[1:])
            _assert_block_rows(store, cached, t, cids)  # held rounds keep theirs
            cache.release(store, t)
            cache.release(store, t)


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
