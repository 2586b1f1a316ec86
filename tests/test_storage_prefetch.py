"""Replay data-path pipeline: round prefetcher + shared decode cache.

The contract under test is the one everything above relies on:
``RoundPrefetcher.fetch(t)`` is **observationally identical** to a
synchronous ``store.get_round(t)`` — same bytes, same failure
semantics (a broken round yields ``None`` and the caller's per-client
fallback takes over) — the pipeline only moves *when* the decode
happens.  The suite covers the degenerate depth-0 path, bitwise
identity across every sign backend, damaged-store fallback, abort
hygiene (no leaked futures, no pinned cache entries), persistence
during an active prefetch, and the shared decode cache's bookkeeping
(LRU bounds, pins, copy-on-discard coherence after ``drop_client``).
"""

import hashlib
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.datasets import make_synthetic_mnist, partition_iid
from repro.fl import FederatedSimulation, ParticipationSchedule, VehicleClient
from repro.nn import mlp
from repro.storage import (
    MmapSignGradientStore,
    RoundDecodeCache,
    RoundPrefetcher,
    SignGradientStore,
    TieredSignGradientStore,
)
from repro.unlearning.recovery import SignRecoveryUnlearner
from repro.unlearning.service import UnlearningService
from repro.utils.rng import SeedSequenceTree

from tests.conftest import CorePins, pin_note

DELTA = 1e-6
DIM = 41


def _fill(store, rng, rounds=6, clients=5):
    for t in range(rounds):
        store.put_round(
            t, {c: rng.normal(size=DIM) * 1e-3 for c in range(t % 2, clients)}
        )
    return store


def _dict_store(rng, tmp_path):
    return _fill(SignGradientStore(delta=DELTA), rng)


def _mmap_store(rng, tmp_path):
    reference = _fill(SignGradientStore(delta=DELTA), rng)
    return MmapSignGradientStore.from_store(reference, str(tmp_path / "mm"))


def _tiered_cold_store(rng, tmp_path):
    store = TieredSignGradientStore(
        str(tmp_path / "tc"), delta=DELTA, hot_budget_bytes=64
    )
    _fill(store, rng)
    store.flush()
    store.compact(cold_after=1)
    assert store.tier_rounds()["cold"] > 0
    return store


STORES = {
    "dict": _dict_store,
    "mmap": _mmap_store,
    "tiered-cold": _tiered_cold_store,
}


@pytest.fixture(params=sorted(STORES))
def any_store(request, rng, tmp_path):
    return STORES[request.param](rng, tmp_path)


class _FlakyStore:
    """Duck-typed wrapper whose bulk reads fail for chosen rounds —
    the prefetcher must degrade exactly like the synchronous path."""

    supports_bulk_round = True

    def __init__(self, inner, broken_rounds):
        self._inner = inner
        self._broken = set(broken_rounds)

    def get_round(self, t):
        if t in self._broken:
            raise OSError(f"injected fault at round {t}")
        return self._inner.get_round(t)

    def __getattr__(self, name):
        return getattr(self._inner, name)


# ----------------------------------------------------------------------
# depth policy
# ----------------------------------------------------------------------
class TestDepthPolicy:
    def test_default_is_synchronous(self, small_fl):
        assert SignRecoveryUnlearner().prefetch_depth == 0
        service = UnlearningService(record=small_fl["record"], model=small_fl["model"])
        assert service.prefetch_depth == 0

    def test_negative_depth_rejected(self, small_fl):
        with pytest.raises(ValueError):
            UnlearningService(
                record=small_fl["record"], model=small_fl["model"], prefetch_depth=-3
            )

    def test_prefetcher_requires_positive_depth(self, rng, tmp_path):
        store = _dict_store(rng, tmp_path)
        with pytest.raises(ValueError):
            RoundPrefetcher(store, [0], depth=0)

    def test_unlearner_rejects_negative_depth(self):
        with pytest.raises(ValueError):
            SignRecoveryUnlearner(prefetch_depth=-1)


# ----------------------------------------------------------------------
# identity
# ----------------------------------------------------------------------
class TestIdentity:
    def test_fetch_bitwise_matches_sync_get_round(self, any_store):
        rounds = any_store.rounds()
        with RoundPrefetcher(any_store, rounds, depth=3) as pf:
            for t in rounds:
                got = pf.fetch(t)
                expected = any_store.get_round(t)
                assert sorted(got) == sorted(expected)
                for cid in expected:
                    assert got[cid].tobytes() == expected[cid].tobytes()

    def test_fetch_with_shared_cache_matches_sync(self, any_store):
        cache = RoundDecodeCache(max_bytes=1 << 20)
        rounds = any_store.rounds()
        with RoundPrefetcher(any_store, rounds, depth=2, cache=cache) as pf:
            for t in rounds:
                got = pf.fetch(t)
                expected = any_store.get_round(t)
                for cid in expected:
                    assert got[cid].tobytes() == expected[cid].tobytes()
        assert cache.pinned_entries == 0

    def test_out_of_sequence_fetch_decodes_inline(self, any_store):
        rounds = any_store.rounds()
        with RoundPrefetcher(any_store, rounds, depth=2) as pf:
            # Jump straight to the last round: every earlier future is
            # discarded, and the fetch still answers correctly.
            t = rounds[-1]
            got = pf.fetch(t)
            expected = any_store.get_round(t)
            for cid in expected:
                assert got[cid].tobytes() == expected[cid].tobytes()

    def test_damaged_round_yields_none_like_sync_path(self, rng, tmp_path):
        store = _FlakyStore(_dict_store(rng, tmp_path), broken_rounds={2, 4})
        with RoundPrefetcher(store, store.rounds(), depth=3) as pf:
            for t in store.rounds():
                got = pf.fetch(t)
                if t in {2, 4}:
                    assert got is None  # caller falls back per client
                else:
                    assert got is not None

    def test_recovery_identical_at_every_depth(self, small_fl, tmp_path):
        from repro.fl.history import with_sign_store

        record = with_sign_store(
            small_fl["record"],
            delta=0.05,
            backend="tiered",
            directory=str(tmp_path / "rec"),
        )
        model = small_fl["model"]
        forget = [small_fl["forget_id"]]
        baseline = SignRecoveryUnlearner(prefetch_depth=0).unlearn(
            record, forget, model
        )
        for depth in (1, 4):
            got = SignRecoveryUnlearner(prefetch_depth=depth).unlearn(
                record, forget, model
            )
            assert got.params.tobytes() == baseline.params.tobytes()
            assert got.stats == baseline.stats

    def test_prefetched_tiered_replay_matches_pinned_digest(self, tmp_path):
        """A depth-4 prefetching replay over a warm + cold tiered record
        reproduces a pinned SHA-256 — the decoded row dtype is an
        implementation detail the recovered bytes must not see."""
        tree = SeedSequenceTree(2025)
        data = make_synthetic_mnist(200, tree.rng("data"), image_size=8)
        shards = partition_iid(data, 4, tree.rng("part"))
        clients = [
            VehicleClient(i, shards[i], tree.rng(f"c{i}"), batch_size=16)
            for i in range(4)
        ]
        model = mlp(tree.rng("model"), 64, 10, hidden=12)
        store = TieredSignGradientStore(
            str(tmp_path / "pinned"), delta=1e-4, hot_budget_bytes=256
        )
        record = FederatedSimulation(
            model,
            clients,
            2e-3,
            schedule=ParticipationSchedule.with_events(range(4), joins={3: 2}),
            gradient_store=store,
        ).run(12)
        store.flush()
        store.compact(cold_after=6)
        tiers = store.tier_rounds()
        assert tiers["warm"] > 0 and tiers["cold"] > 0
        result = SignRecoveryUnlearner(
            refresh_period=3, prefetch_depth=4
        ).unlearn(record, [3], model)
        assert result.rounds_replayed == PINS["rounds"], pin_note()
        digest = hashlib.sha256(result.params.tobytes()).hexdigest()
        assert digest == PINS["replay"], pin_note()


# Recovered parameters of the pinned tiered replay above, recorded with
# float64 bulk rows; the row dtype must not move them.  The Haswell
# table was recorded at the commit that keyed these pins by core.
PINS = CorePins(__name__, {
    "SkylakeX": {
        "replay": "ea928bd96c0cae864bfff431afba57fb0447586f56a9655d4427d0ce305912b9",
        "rounds": 10,
    },
    "Haswell": {
        "replay": "de548ef112f0b7940cff784a162c7058c56ac9df4fb03494f4ccec693e25085f",
        "rounds": 10,
    },
})


# ----------------------------------------------------------------------
# abort hygiene
# ----------------------------------------------------------------------
class TestAbort:
    def test_close_mid_stream_releases_everything(self, any_store):
        cache = RoundDecodeCache(max_bytes=1 << 20)
        pf = RoundPrefetcher(any_store, any_store.rounds(), depth=4, cache=cache)
        pf.fetch(any_store.rounds()[0])
        pf.close()
        assert cache.pinned_entries == 0
        # idempotent
        pf.close()

    def test_cancel_check_stops_lookahead(self, any_store):
        fired = threading.Event()

        def cancel():
            if fired.is_set():
                raise TimeoutError("deadline")

        cache = RoundDecodeCache(max_bytes=1 << 20)
        pf = RoundPrefetcher(
            any_store,
            any_store.rounds(),
            depth=2,
            cache=cache,
            cancel_check=cancel,
        )
        try:
            first = pf.fetch(any_store.rounds()[0])
            assert first is not None
            fired.set()
            # Later fetches still answer (inline re-decode) even though
            # background look-ahead is cancelled.
            t = any_store.rounds()[2]
            got = pf.fetch(t)
            expected = any_store.get_round(t)
            for cid in expected:
                assert got[cid].tobytes() == expected[cid].tobytes()
        finally:
            pf.close()
        assert cache.pinned_entries == 0

    def test_deadline_abort_in_recovery_leaves_no_pins(self, small_fl, tmp_path):
        from repro.fl.history import with_sign_store

        record = with_sign_store(
            small_fl["record"],
            delta=0.05,
            backend="tiered",
            directory=str(tmp_path / "rec"),
        )
        model = small_fl["model"]
        cache = RoundDecodeCache(max_bytes=1 << 22)
        calls = {"n": 0}

        def cancel():
            calls["n"] += 1
            if calls["n"] > 3:
                raise TimeoutError("deadline exceeded")

        unlearner = SignRecoveryUnlearner(
            prefetch_depth=4, decode_cache=cache, cancel_check=cancel
        )
        with pytest.raises(TimeoutError):
            unlearner.unlearn(record, [small_fl["forget_id"]], model)
        assert cache.pinned_entries == 0

    def test_external_executor_survives_close(self, any_store):
        executor = ThreadPoolExecutor(1)
        try:
            with RoundPrefetcher(
                any_store, any_store.rounds(), depth=2, executor=executor
            ) as pf:
                pf.fetch(any_store.rounds()[0])
            # still usable: the prefetcher must not close a borrowed pool
            future = executor.submit(lambda: 7)
            assert future.result(timeout=10) == 7
        finally:
            executor.shutdown()


# ----------------------------------------------------------------------
# persistence + crash safety
# ----------------------------------------------------------------------
class TestPersistence:
    def test_flush_during_active_prefetch_is_safe(self, rng, tmp_path):
        store = _tiered_cold_store(rng, tmp_path)
        rounds = store.rounds()
        with RoundPrefetcher(store, rounds, depth=3) as pf:
            first = pf.fetch(rounds[0])
            assert first is not None
            # Persist mid-stream: flush + a fresh reader must see the
            # full durable state while background decodes are in flight.
            store.flush()
            reopened = TieredSignGradientStore.open(str(tmp_path / "tc"))
            assert reopened.rounds() == rounds
            for t in rounds[1:]:
                got = pf.fetch(t)
                expected = store.get_round(t)
                for cid in expected:
                    assert got[cid].tobytes() == expected[cid].tobytes()

    def test_cached_views_are_read_only(self, any_store):
        cache = RoundDecodeCache(max_bytes=1 << 20)
        with RoundPrefetcher(
            any_store, any_store.rounds(), depth=2, cache=cache
        ) as pf:
            got = pf.fetch(any_store.rounds()[0])
            for arr in got.values():
                assert not arr.flags.writeable
                with pytest.raises((ValueError, RuntimeError)):
                    arr[0] = 123.0

    @pytest.mark.parametrize("seed", [11, 97])
    def test_chaos_faulty_rounds_identical_to_sync(self, seed, tmp_path):
        rng = np.random.default_rng(seed)
        inner = _fill(SignGradientStore(delta=DELTA), rng, rounds=8)
        broken = set(
            int(t) for t in rng.choice(8, size=3, replace=False)
        )
        flaky = _FlakyStore(inner, broken)
        sync = {}
        for t in flaky.rounds():
            try:
                sync[t] = flaky.get_round(t)
            except Exception:
                sync[t] = None
        with RoundPrefetcher(flaky, flaky.rounds(), depth=3) as pf:
            for t in flaky.rounds():
                got = pf.fetch(t)
                if sync[t] is None:
                    assert got is None
                else:
                    for cid in sync[t]:
                        assert got[cid].tobytes() == sync[t][cid].tobytes()


# ----------------------------------------------------------------------
# shared decode cache
# ----------------------------------------------------------------------
def _distinct_buffer_bytes(arrays):
    """Bytes of the distinct memory blocks ``arrays`` keep alive — what
    the decode cache's budget must count (rows of one bulk decode share
    one block)."""
    owners = {}
    for arr in arrays:
        while isinstance(arr.base, np.ndarray):
            arr = arr.base
        owners[id(arr)] = arr.nbytes
    return sum(owners.values())


class TestDecodeCache:
    def test_hit_miss_accounting(self, rng, tmp_path):
        store = _dict_store(rng, tmp_path)
        cache = RoundDecodeCache(max_bytes=1 << 20)
        value, hit = cache.acquire(store, 0)
        assert not hit and value is not None
        again, hit = cache.acquire(store, 0)
        assert hit
        for arr_a, arr_b in zip(value.values(), again.values()):
            assert arr_a.tobytes() == arr_b.tobytes()
        cache.release(store, 0)
        cache.release(store, 0)
        assert cache.pinned_entries == 0
        assert cache.hits == 1 and cache.misses == 1
        assert cache.hit_rate() == pytest.approx(0.5)

    def test_lru_eviction_respects_byte_budget_and_pins(self, rng, tmp_path):
        store = _dict_store(rng, tmp_path)
        round_bytes = _distinct_buffer_bytes(store.get_round(0).values())
        cache = RoundDecodeCache(max_bytes=round_bytes * 2 + 1)
        cache.acquire(store, 0)  # pinned — never evicted
        for t in (1, 2, 3):
            cache.acquire(store, t)
            cache.release(store, t)
        assert cache.evictions > 0
        assert cache.nbytes <= round_bytes * 2 + 1
        # the pinned round survived every eviction
        _, hit = cache.acquire(store, 0)
        assert hit
        cache.release(store, 0)
        cache.release(store, 0)
        assert cache.pinned_entries == 0

    def test_byte_budget_counts_shared_blocks_after_discard(self, rng):
        """Rows of one decoded round share one block: discarding most
        clients must not shrink the count while the block is held."""
        store = SignGradientStore(delta=DELTA)
        store.put_round(0, {c: rng.normal(size=1000) for c in range(8)})
        cache = RoundDecodeCache(max_bytes=1 << 20)
        value, _ = cache.acquire(store, 0)
        assert cache.nbytes == _distinct_buffer_bytes(value.values())
        for cid in range(6):
            cache.discard_client(store, cid)
        held, hit = cache.acquire(store, 0)
        assert hit and sorted(held) == [6, 7]
        assert cache.nbytes == _distinct_buffer_bytes(held.values())
        assert cache.nbytes >= 8 * 1000
        cache.release(store, 0)
        cache.release(store, 0)

    def test_failed_decode_is_not_cached(self, rng, tmp_path):
        flaky = _FlakyStore(_dict_store(rng, tmp_path), broken_rounds={1})
        cache = RoundDecodeCache(max_bytes=1 << 20)
        value, hit = cache.acquire(flaky, 1)
        assert value is None and not hit
        flaky._broken.clear()
        value, hit = cache.acquire(flaky, 1)
        assert value is not None and not hit  # retried, not a stale hit
        cache.release(flaky, 1)

    def test_discard_client_preserves_handed_out_views(self, rng, tmp_path):
        store = _dict_store(rng, tmp_path)
        cache = RoundDecodeCache(max_bytes=1 << 20)
        held, _ = cache.acquire(store, 1)
        held_cid = sorted(held)[0]
        before = held[held_cid].tobytes()
        dropped = cache.discard_client(store, held_cid)
        assert dropped >= 1
        # the dict already handed out still has the client (copy-on-discard)
        assert held[held_cid].tobytes() == before
        # but a fresh acquire of the same round no longer includes it
        fresh, hit = cache.acquire(store, 1)
        assert hit and held_cid not in fresh
        cache.release(store, 1)
        cache.release(store, 1)

    def test_invalidate_clears_one_store_only(self, rng, tmp_path):
        store_a = _dict_store(rng, tmp_path)
        store_b = _dict_store(np.random.default_rng(5), tmp_path)
        cache = RoundDecodeCache(max_bytes=1 << 20)
        cache.acquire(store_a, 0)
        cache.release(store_a, 0)
        cache.acquire(store_b, 0)
        cache.release(store_b, 0)
        assert cache.invalidate(store_a) == 1
        _, hit_b = cache.acquire(store_b, 0)
        assert hit_b
        cache.release(store_b, 0)

    def test_service_erasure_discards_purged_client(self, small_fl, tmp_path):
        from repro.fl.history import with_sign_store
        from repro.unlearning.service import UnlearningService

        record = with_sign_store(
            small_fl["record"],
            delta=0.05,
            backend="tiered",
            directory=str(tmp_path / "svc"),
        )
        service = UnlearningService(
            record=record, model=small_fl["model"], prefetch_depth=2
        )
        service.handle_erasure_request(small_fl["forget_id"])
        cache = service.decode_cache
        assert cache is not None
        store = record.gradients
        for t in store.rounds():
            value, hit = cache.acquire(store, t)
            if value is None:
                continue
            assert small_fl["forget_id"] not in value
            cache.release(store, t)
        assert service.drain_prefetch()
        assert service.decode_cache is None
