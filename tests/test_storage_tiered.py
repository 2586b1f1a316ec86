"""Tiered sign store: bounded memory, tier lifecycle, end-to-end identity.

The contract under test (`docs/ARCHITECTURE.md`, "Storage tiering"):

- ingestion is bounded-memory — the hot tier never exceeds its byte
  budget once a round can spill;
- a spill parked between its shard writes and its manifest commit
  reconciles what raced it — a re-put row of a spilling round, a
  dropped client whose row was hot, a dropped client whose row the
  spill read from disk — in the live view, after a crash and after
  ``close`` + ``open``;
- every tier transition (hot→warm spill, warm→cold demotion,
  compaction, reopen) preserves reads bit-for-bit;
- ``drop_client`` tombstones are durable and compaction physically
  reclaims their bytes;
- the replay/forest read path through a tiered record is byte-identical
  to the dict store — across a FaultPlan run and after persist/open —
  and ``ErasureDaemon`` traffic is served correctly mid-compaction;
- a ≤5k-client synthetic sweep (the tier-1 smoke version of
  ``make bench-storage-scale``) holds the capacity model's bounds;
- cold blocks are RLE-strategy zlib streams, compaction copies an
  untouched block byte for byte (no deflate), and layouts written with
  the default strategy still read and pass through unchanged.
"""

import threading
import zlib

import numpy as np
import pytest

from repro.faults import ClientFault, FaultPlan
from repro.fl import with_sign_store
from repro.fl.persistence import load_record, save_record
from repro.serving.daemon import ErasureDaemon
from repro.storage import SignGradientStore, TieredSignGradientStore, tiered
from repro.storage.tiered import TIER_COLD, TIER_HOT, TIER_WARM
from repro.unlearning import SignRecoveryUnlearner, UnlearningService

from tests.test_service_cache import CLIP, build_record

DELTA = 1e-6
DIM = 57


def _fill(store, rng, num_rounds=6, cohort=5, dim=DIM, scale=1e-3):
    """Identical rounds into ``store`` and a dict reference; returns it."""
    reference = SignGradientStore(delta=DELTA)
    for t in range(num_rounds):
        updates = {
            int(c): rng.normal(size=dim) * scale for c in range(1, cohort + 1)
        }
        reference.put_round(t, updates)
        store.put_round(t, updates)
    return reference


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


def _clone(reference):
    """An independent dict store holding ``reference``'s rows."""
    copy = SignGradientStore(delta=DELTA)
    for (t, cid), (packed, length) in reference.items():
        copy.put_encoded(t, cid, packed, length)
    return copy


def _during_spill(store, action):
    """Run ``action`` while a ``flush`` on another thread is parked
    between its shard writes and its manifest commit."""
    entered = threading.Event()
    gate = threading.Event()

    def park_in_io(point):
        if point == "after-shard-write":
            entered.set()
            gate.wait(timeout=30)

    store._crash_hook = park_in_io
    spiller = threading.Thread(target=store.flush)
    spiller.start()
    try:
        assert entered.wait(timeout=30), "spill never reached its shard I/O"
        action()
    finally:
        gate.set()
        spiller.join(timeout=30)
        store._crash_hook = None
    assert not spiller.is_alive()


def _assert_three_views(store, directory, reference, durable):
    """The view once the spill has published, after a crash (a second
    open with the store still open: only durable rows survive), and
    after ``close`` + ``open``."""
    _assert_same_view(reference, store)
    assert store.nbytes() == store.recount_nbytes() == reference.nbytes()
    _assert_same_view(durable, TieredSignGradientStore.open(directory))
    store.close()
    reopened = TieredSignGradientStore.open(directory)
    _assert_same_view(reference, reopened)
    assert reopened.nbytes() == reopened.recount_nbytes() == reference.nbytes()


class TestBoundedIngestion:
    def test_hot_tier_respects_budget(self, rng, tmp_path):
        budget = 256
        store = TieredSignGradientStore(
            str(tmp_path / "t"), delta=DELTA, hot_budget_bytes=budget
        )
        reference = SignGradientStore(delta=DELTA)
        for t in range(10):
            updates = {int(c): rng.normal(size=DIM) for c in range(1, 6)}
            reference.put_round(t, updates)
            store.put_round(t, updates)
            # each round is sealed on commit, so the budget holds at
            # every step — this is the bounded-memory guarantee
            assert store.tier_bytes()[TIER_HOT] <= budget
        assert store.tier_rounds()[TIER_WARM] > 0
        _assert_same_view(reference, store)

    def test_unsealed_round_stays_hot_under_budget(self, rng, tmp_path):
        store = TieredSignGradientStore(
            str(tmp_path / "t"), delta=DELTA, hot_budget_bytes=1 << 20
        )
        store.put(3, 1, rng.normal(size=DIM))
        assert store.tier_rounds()[TIER_HOT] == 1
        assert store.tier_rounds()[TIER_WARM] == 0

    def test_oversized_single_round_spills_last_resort(self, rng, tmp_path):
        # one in-flight round bigger than the whole budget cannot be
        # held hot; it spills mid-round and later writes overlay it
        store = TieredSignGradientStore(
            str(tmp_path / "t"), delta=DELTA, hot_budget_bytes=32
        )
        reference = SignGradientStore(delta=DELTA)
        for cid in range(1, 8):
            g = rng.normal(size=DIM)
            reference.put(0, cid, g)
            store.put(0, cid, g)
        assert store.tier_bytes()[TIER_HOT] <= 32
        _assert_same_view(reference, store)

    def test_spill_io_does_not_block_writers(self, rng, tmp_path):
        # while one thread's spill is parked inside shard file I/O, a
        # writer on another thread gets in and out of put() without
        # waiting for the disk
        store = TieredSignGradientStore(
            str(tmp_path / "t"), delta=DELTA, hot_budget_bytes=1 << 20
        )
        reference = _fill(store, rng, num_rounds=8)
        entered = threading.Event()
        gate = threading.Event()

        def park_in_io(point):
            if point == "after-shard-write":
                entered.set()
                gate.wait(timeout=30)

        store._crash_hook = park_in_io
        spiller = threading.Thread(target=store.flush)
        spiller.start()
        assert entered.wait(timeout=30), "spill never reached its shard I/O"

        done = threading.Event()
        extra = rng.normal(size=DIM)

        def write():
            store.put(99, 1, extra)
            done.set()

        writer = threading.Thread(target=write)
        writer.start()
        try:
            assert done.wait(timeout=10), "put() blocked behind an in-flight spill"
        finally:
            gate.set()
            writer.join(timeout=10)
            spiller.join(timeout=30)
            store._crash_hook = None
        reference.put(99, 1, extra)
        store.flush()
        assert store.tier_rounds()[TIER_HOT] == 0
        _assert_same_view(reference, store)

    def test_encode_does_not_block_readers(self, rng, tmp_path):
        # while one thread's put_round is parked inside its encode, a
        # reader on another thread gets a round without waiting for it
        store = TieredSignGradientStore(
            str(tmp_path / "t"), delta=DELTA, hot_budget_bytes=1 << 20
        )
        reference = _fill(store, rng, num_rounds=4)
        entered = threading.Event()
        gate = threading.Event()
        encode = store._hot._encode

        def park_in_encode(block):
            entered.set()
            gate.wait(timeout=30)
            return encode(block)

        store._hot._encode = park_in_encode
        extra = {1: rng.normal(size=DIM), 2: rng.normal(size=DIM)}
        writer = threading.Thread(target=store.put_round, args=(9, extra))
        writer.start()
        assert entered.wait(timeout=30), "put_round never reached its encode"
        done = threading.Event()

        def read():
            store.get_round(0)
            done.set()

        reader = threading.Thread(target=read)
        reader.start()
        try:
            assert done.wait(timeout=10), "get_round() blocked behind an encode"
        finally:
            gate.set()
            reader.join(timeout=10)
            writer.join(timeout=30)
            store._hot._encode = encode
        reference.put_round(9, extra)
        _assert_same_view(reference, store)

    def test_put_into_spilling_round_mid_spill(self, rng, tmp_path):
        # a re-put of a row whose round is being spilled: the newer row
        # must win over the just-spilled copy, and a crash before it
        # respills must fall back to the durable (older) row
        directory = str(tmp_path / "t")
        store = TieredSignGradientStore(directory, delta=DELTA, hot_budget_bytes=1 << 20)
        durable = _fill(store, rng, num_rounds=8)
        reference = _clone(durable)
        g = rng.normal(size=DIM)
        reference.put(2, 3, g)
        _during_spill(store, lambda: store.put(2, 3, g))
        _assert_three_views(store, directory, reference, durable)

    def test_drop_hot_client_mid_spill(self, rng, tmp_path):
        # client 3's rows are hot in every spilling round when it is
        # dropped: the freshly written shard rows must be tombstoned
        directory = str(tmp_path / "t")
        store = TieredSignGradientStore(directory, delta=DELTA, hot_budget_bytes=1 << 20)
        reference = _fill(store, rng, num_rounds=8)
        reference.drop_client(3)
        _during_spill(store, lambda: store.drop_client(3))
        _assert_three_views(store, directory, reference, reference)

    def test_drop_disk_client_mid_spill(self, rng, tmp_path):
        # round 0 respills as its disk rows plus one hot overlay row;
        # client 2's row in it came from disk and is dropped mid-spill
        directory = str(tmp_path / "t")
        store = TieredSignGradientStore(directory, delta=DELTA, hot_budget_bytes=1 << 20)
        reference = _fill(store, rng, num_rounds=8)
        store.flush()
        g = rng.normal(size=DIM)
        reference.put(0, 3, g)
        store.put(0, 3, g)
        reference.drop_client(2)
        _during_spill(store, lambda: store.drop_client(2))
        _assert_three_views(store, directory, reference, reference)

    def test_drop_then_put_into_spilling_round_mid_spill(self, rng, tmp_path):
        # client 3 is dropped while its round-2 row is being spilled,
        # then re-put there with new bytes: the spilled copy is dead,
        # so a crash before the re-put respills must not bring back the
        # pre-drop row
        directory = str(tmp_path / "t")
        store = TieredSignGradientStore(directory, delta=DELTA, hot_budget_bytes=1 << 20)
        reference = _fill(store, rng, num_rounds=8)
        reference.drop_client(3)
        durable = _clone(reference)
        g = rng.normal(size=DIM)
        reference.put(2, 3, g)

        def drop_then_put():
            store.drop_client(3)
            store.put(2, 3, g)

        _during_spill(store, drop_then_put)
        _assert_three_views(store, directory, reference, durable)

    def test_drop_then_put_over_disk_row_mid_spill(self, rng, tmp_path):
        # the same race on a row the spill read from disk: round 0
        # respills as its disk rows plus one hot overlay row, and client
        # 2 is dropped and re-put at round 0 while it is being written
        directory = str(tmp_path / "t")
        store = TieredSignGradientStore(directory, delta=DELTA, hot_budget_bytes=1 << 20)
        reference = _fill(store, rng, num_rounds=8)
        store.flush()
        g = rng.normal(size=DIM)
        reference.put(0, 3, g)
        store.put(0, 3, g)
        reference.drop_client(2)
        durable = _clone(reference)
        g = rng.normal(size=DIM)
        reference.put(0, 2, g)

        def drop_then_put():
            store.drop_client(2)
            store.put(0, 2, g)

        _during_spill(store, drop_then_put)
        _assert_three_views(store, directory, reference, durable)

    def test_put_over_disk_row_mid_spill(self, rng, tmp_path):
        # round 0 respills as its disk rows plus one hot overlay row;
        # client 4's row in it came from disk and is re-put mid-spill:
        # the new row shadows the spilled copy and counts once
        directory = str(tmp_path / "t")
        store = TieredSignGradientStore(directory, delta=DELTA, hot_budget_bytes=1 << 20)
        reference = _fill(store, rng, num_rounds=8)
        store.flush()
        g = rng.normal(size=DIM)
        reference.put(0, 3, g)
        store.put(0, 3, g)
        durable = _clone(reference)
        g = rng.normal(size=DIM)
        reference.put(0, 4, g)
        _during_spill(store, lambda: store.put(0, 4, g))
        _assert_three_views(store, directory, reference, durable)

    def test_overlay_respill(self, rng, tmp_path):
        # write to a round that already spilled: the hot overlay wins
        # immediately and the next spill folds it into the shard row
        store = TieredSignGradientStore(str(tmp_path / "t"), delta=DELTA)
        reference = _fill(store, rng)
        store.flush()
        g = rng.normal(size=DIM)
        reference.put(0, 3, g)
        store.put(0, 3, g)
        np.testing.assert_array_equal(store.get(0, 3), reference.get(0, 3))
        store.flush()
        assert store.tier_rounds()[TIER_HOT] == 0
        _assert_same_view(reference, store)


class TestTombstonesAndCompaction:
    def test_drop_is_durable_and_compaction_reclaims(self, rng, tmp_path):
        directory = str(tmp_path / "t")
        store = TieredSignGradientStore(directory, delta=DELTA)
        reference = _fill(store, rng)
        store.flush()
        reference.drop_client(2)
        assert store.drop_client(2) > 0
        _assert_same_view(reference, store)

        reopened = TieredSignGradientStore.open(directory)
        _assert_same_view(reference, reopened)

        disk_before = reopened.disk_bytes()
        stats = reopened.compact()
        assert stats["reclaimed_bytes"] > 0
        assert reopened.disk_bytes() < disk_before
        _assert_same_view(reference, reopened)

    def test_drop_after_hot_overlay_is_durable(self, rng, tmp_path):
        # overlaying a durable row deletes its index entry in memory
        # only; dropping the client right after must still tombstone
        # the durable bytes — a restart before the round respills used
        # to resurrect them
        directory = str(tmp_path / "t")
        store = TieredSignGradientStore(directory, delta=DELTA)
        reference = _fill(store, rng)
        store.flush()
        g = rng.normal(size=DIM)
        reference.put(0, 2, g)
        store.put(0, 2, g)
        reference.drop_client(2)
        assert store.drop_client(2) > 0
        _assert_same_view(reference, store)
        # simulated crash before the overlay respills: only durable
        # state survives, and it must not contain client 2
        reopened = TieredSignGradientStore.open(directory)
        assert not reopened.has(0, 2)
        for t in reopened.rounds():
            assert 2 not in reopened.clients_at(t)

    def test_drop_reput_drop_again_is_durable(self, rng, tmp_path):
        # drop → re-put (resurrects the pair in memory) → an unrelated
        # drop rewrites the sidecar without the pair → drop again while
        # the re-put is still hot-only.  The second drop must restore
        # the tombstone or a restart resurrects the original row.
        directory = str(tmp_path / "t")
        store = TieredSignGradientStore(directory, delta=DELTA)
        reference = _fill(store, rng)
        store.flush()
        reference.drop_client(2)
        store.drop_client(2)
        g = rng.normal(size=DIM)
        reference.put(1, 2, g)
        store.put(1, 2, g)
        reference.drop_client(4)
        store.drop_client(4)
        reference.drop_client(2)
        store.drop_client(2)
        _assert_same_view(reference, store)
        reopened = TieredSignGradientStore.open(directory)
        for t in reopened.rounds():
            assert 2 not in reopened.clients_at(t)
            assert 4 not in reopened.clients_at(t)

    def test_reput_after_drop_survives_spill_and_reopen(self, rng, tmp_path):
        directory = str(tmp_path / "t")
        store = TieredSignGradientStore(directory, delta=DELTA)
        reference = _fill(store, rng)
        store.flush()
        reference.drop_client(2)
        store.drop_client(2)
        g = rng.normal(size=DIM)
        reference.put(1, 2, g)
        store.put(1, 2, g)
        store.flush()
        _assert_same_view(reference, store)
        reopened = TieredSignGradientStore.open(directory)
        _assert_same_view(reference, reopened)
        assert reopened.has(1, 2) and not reopened.has(0, 2)

    def test_cold_demotion_preserves_reads_and_compresses(self, tmp_path):
        rng = np.random.default_rng(5)
        store = TieredSignGradientStore(str(tmp_path / "t"), delta=DELTA)
        # mostly sub-threshold elements → ternary codes are mostly the
        # zero symbol, which zlib compresses well past 2x
        reference = SignGradientStore(delta=DELTA)
        for t in range(8):
            updates = {}
            for c in range(1, 9):
                g = rng.normal(size=512) * 1e-3
                g[rng.random(512) < 0.9] = 0.0
                updates[int(c)] = g
            reference.put_round(t, updates)
            store.put_round(t, updates)
        store.flush()
        stats = store.compact(cold_after=3)
        assert stats["demoted"] > 0
        assert store.tier_rounds()[TIER_COLD] > 0
        assert store.tier_rounds()[TIER_WARM] > 0
        assert store.cold_compression_ratio() >= 2.0
        _assert_same_view(reference, store)
        # cold bytes count compressed: totals shrink but stay honest
        assert store.nbytes() == store.recount_nbytes()
        assert store.nbytes() < reference.nbytes()

    def test_constructor_cold_horizon_applies_on_compact(self, rng, tmp_path):
        store = TieredSignGradientStore(
            str(tmp_path / "t"), delta=DELTA, cold_after=2
        )
        reference = _fill(store, rng)
        store.flush()
        store.compact()
        assert store.tier_rounds()[TIER_COLD] > 0
        _assert_same_view(reference, store)


class TestPersistence:
    def test_saved_record_matches_dict_reference(self, small_fl, tmp_path):
        # warm and cold rounds both go through the one stored-block path
        reference = with_sign_store(small_fl["record"], backend="dict").gradients
        tiered_record = with_sign_store(
            small_fl["record"], backend="tiered", directory=str(tmp_path / "layout")
        )
        tiered_record.gradients.compact(cold_after=2)
        assert tiered_record.gradients.tier_rounds()[TIER_COLD] > 0
        save_record(tiered_record, str(tmp_path / "saved"))
        loaded = load_record(str(tmp_path / "saved")).gradients
        assert loaded.delta == reference.delta
        items, expected = loaded.items(), reference.items()
        assert [k for k, _ in items] == [k for k, _ in expected]
        for (_, (packed, n)), (_, (ref_packed, ref_n)) in zip(items, expected):
            np.testing.assert_array_equal(packed, ref_packed)
            assert n == ref_n

    def test_record_round_trip(self, small_fl, tmp_path):
        tiered_record = with_sign_store(
            small_fl["record"], backend="tiered", directory=str(tmp_path / "layout")
        )
        assert isinstance(tiered_record.gradients, TieredSignGradientStore)
        save_record(tiered_record, str(tmp_path / "saved"))
        loaded = load_record(str(tmp_path / "saved"))
        _assert_same_view(loaded.gradients, tiered_record.gradients)

    def test_native_reopen_matches(self, small_fl, tmp_path):
        directory = str(tmp_path / "layout")
        tiered_record = with_sign_store(
            small_fl["record"], backend="tiered", directory=directory
        )
        dict_record = with_sign_store(small_fl["record"], backend="dict")
        reopened = TieredSignGradientStore.open(directory)
        _assert_same_view(dict_record.gradients, reopened)


# ----------------------------------------------------------------------
# end-to-end: replay identity and daemon traffic
# ----------------------------------------------------------------------
#: Non-fatal upload crashes during training, so the record has genuine
#: dropouts for the tiered replay to skip over (same idiom as
#: tests/test_service_cache.py).
FAULT_PLAN = FaultPlan(
    client_faults={
        (4, 1): ClientFault("crash"),
        (7, 3): ClientFault("crash"),
    },
    seed=99,
)


class TestReplayIdentity:
    def test_recovery_matches_dict_store_under_faults(self, tmp_path):
        seed = 13
        dict_record, model = build_record(seed, fault_plan=FAULT_PLAN)
        tiered_record, _ = build_record(
            seed,
            fault_plan=FAULT_PLAN,
            backend="tiered",
            directory=str(tmp_path / "layout"),
        )
        assert isinstance(tiered_record.gradients, TieredSignGradientStore)
        unlearner = SignRecoveryUnlearner(clip_threshold=CLIP)
        expected = unlearner.unlearn(dict_record, [5], model)
        observed = unlearner.unlearn(tiered_record, [5], model)
        assert observed.params.tobytes() == expected.params.tobytes()
        assert observed.stats == expected.stats

    def test_recovery_matches_after_persist_open(self, tmp_path):
        seed = 13
        dict_record, model = build_record(seed)
        tiered_record, _ = build_record(
            seed, backend="tiered", directory=str(tmp_path / "layout")
        )
        save_record(tiered_record, str(tmp_path / "saved"))
        loaded = load_record(str(tmp_path / "saved"))
        unlearner = SignRecoveryUnlearner(clip_threshold=CLIP)
        expected = unlearner.unlearn(dict_record, [5, 6], model)
        observed = unlearner.unlearn(loaded, [5, 6], model)
        assert observed.params.tobytes() == expected.params.tobytes()

    def test_bulk_round_flag_feeds_replay(self, tmp_path):
        record, _ = build_record(
            21, backend="tiered", directory=str(tmp_path / "layout")
        )
        assert getattr(record.gradients, "supports_bulk_round", False)


class TestDaemonMidCompaction:
    def test_erasures_served_while_compacting(self, tmp_path):
        seed = 3
        dict_record, model = build_record(seed)
        tiered_record, tiered_model = build_record(
            seed, backend="tiered", directory=str(tmp_path / "layout")
        )
        store = tiered_record.gradients

        service = UnlearningService(
            record=tiered_record, model=tiered_model, clip_threshold=CLIP
        )
        daemon = ErasureDaemon(service, capacity=8, workers=2).start()
        stop = threading.Event()
        compactions = []

        def churn():
            # a demoting pass, then a tier-keeping one: each publishes a
            # new shard generation while the daemon replays from it
            while not stop.is_set():
                for horizon in (2, None):
                    compactions.append(store.compact(cold_after=horizon))

        churner = threading.Thread(target=churn)
        churner.start()
        try:
            futures = [daemon.submit(cid) for cid in (5, 6, 7)]
            results = [f.result(timeout=120) for f in futures]
        finally:
            stop.set()
            churner.join()
            daemon.stop()

        assert [r.status for r in results] == ["ok", "ok", "ok"]
        # Two workers race for the service lock, so the three erasures
        # commit in either order; each response must match the
        # cumulative batch in the order the service committed them.
        order = list(service._erased)
        assert sorted(order) == [5, 6, 7]
        reference_service = UnlearningService(
            record=dict_record, model=model, clip_threshold=CLIP
        )
        expected = dict(zip(order, reference_service.handle_erasure_batch(order)))
        for cid, got in zip((5, 6, 7), results):
            assert got.params.tobytes() == expected[cid].params.tobytes()
        assert compactions, "compaction thread never ran"


# ----------------------------------------------------------------------
# capacity smoke sweep — the tier-1 slice of `make bench-storage-scale`
# ----------------------------------------------------------------------
class TestCapacitySmoke:
    ROUNDS = 20
    COHORT = 250  # × ROUNDS = 5000 distinct clients, the smoke ceiling
    DIM = 64
    BUDGET = 8 * 1024

    def test_smoke_sweep_holds_capacity_model(self, tmp_path):
        rng = np.random.default_rng(17)
        store = TieredSignGradientStore(
            str(tmp_path / "scale"),
            delta=DELTA,
            hot_budget_bytes=self.BUDGET,
            cold_after=self.ROUNDS // 2,
        )
        sample = {}  # (round, client) -> gradient, spot-check corpus
        for t in range(self.ROUNDS):
            base = t * self.COHORT
            updates = {}
            for c in range(base, base + self.COHORT):
                g = rng.normal(size=self.DIM) * 1e-3
                g[rng.random(self.DIM) < 0.9] = 0.0
                updates[int(c)] = g
            store.put_round(t, updates)
            if t % 7 == 0:
                cid = base + 3
                sample[(t, cid)] = updates[cid]
            assert store.tier_bytes()[TIER_HOT] <= self.BUDGET
        store.flush()
        store.compact()

        stats = store.stats()
        assert stats["tier_rounds"][TIER_COLD] > 0
        assert store.cold_compression_ratio() >= 2.0
        # capacity model: a live row costs ceil(d/4) warm bytes
        expected_warm_row = (self.DIM + 3) // 4
        warm_rounds = stats["tier_rounds"][TIER_WARM]
        if warm_rounds:
            per_row = stats["tier_bytes"][TIER_WARM] / (warm_rounds * self.COHORT)
            assert per_row == expected_warm_row
        # reads stay index-backed and bitwise faithful at 5k clients
        reference = SignGradientStore(delta=DELTA)
        for (t, cid), g in sample.items():
            reference.put(t, cid, g)
            np.testing.assert_array_equal(store.get(t, cid), reference.get(t, cid))
        assert store.nbytes() == store.recount_nbytes()


class TestColdCache:
    """The cold-block decompression LRU: real counters, a real knob."""

    def _cold_store(self, tmp_path, rng, name, **kwargs):
        store = TieredSignGradientStore(
            str(tmp_path / name), delta=DELTA, hot_budget_bytes=64, **kwargs
        )
        reference = _fill(store, rng)
        store.flush()
        store.compact(cold_after=1)
        assert store.tier_rounds()[TIER_COLD] > 0
        return reference, store

    def test_counters_track_hits_misses(self, rng, tmp_path):
        reference, store = self._cold_store(tmp_path, rng, "cc")
        cold = [t for t in store.rounds() if t < store.rounds()[-1]]
        store.get_round(cold[0])   # miss: first inflate of the block
        store.get_round(cold[0])   # hit: cached block
        stats = store.stats()
        assert stats["cold_cache_misses"] >= 1
        assert stats["cold_cache_hits"] >= 1
        _assert_same_view(reference, store)

    def test_zero_blocks_disables_caching(self, rng, tmp_path):
        reference, store = self._cold_store(
            tmp_path, rng, "cc0", cold_cache_blocks=0
        )
        cold = [t for t in store.rounds() if t < store.rounds()[-1]]
        store.get_round(cold[0])
        store.get_round(cold[0])
        stats = store.stats()
        assert stats["cold_cache_blocks"] == 0
        assert stats["cold_cache_hits"] == 0
        assert stats["cold_cache_misses"] >= 2
        _assert_same_view(reference, store)

    def test_single_block_cache_evicts(self, rng, tmp_path):
        reference, store = self._cold_store(
            tmp_path, rng, "cc1", cold_cache_blocks=1
        )
        cold = [t for t in store.rounds() if t < store.rounds()[-1]]
        assert len(cold) >= 2
        store.get_round(cold[0])
        store.get_round(cold[1])  # evicts cold[0]'s block
        store.get_round(cold[0])  # miss again
        stats = store.stats()
        assert stats["cold_cache_evictions"] >= 1
        _assert_same_view(reference, store)

    def test_capacity_defaults_to_four_and_rejects_negative(self, tmp_path):
        default = TieredSignGradientStore(str(tmp_path / "ccd"), delta=DELTA)
        assert default.cold_cache_blocks == 4
        explicit = TieredSignGradientStore(
            str(tmp_path / "cce"), delta=DELTA, cold_cache_blocks=9
        )
        assert explicit.cold_cache_blocks == 9
        with pytest.raises(ValueError):
            TieredSignGradientStore(
                str(tmp_path / "ccn"), delta=DELTA, cold_cache_blocks=-1
            )


# ----------------------------------------------------------------------
# cold codec: RLE deflate, pass-through compaction, older layouts
# ----------------------------------------------------------------------
def _stored_blocks(store):
    """``{round: (codec, stored bytes)}`` for every live disk round."""
    return {
        t: (
            dr.codec,
            store._shard_data(dr.shard)[
                dr.offset : dr.offset + dr.stored_bytes
            ].tobytes(),
        )
        for t, dr in store._disk.items()
        if len(dr.clients)
    }


def _count_deflaters(monkeypatch, make=zlib.compressobj):
    """Route the store's ``zlib.compressobj`` through ``make``, counting."""
    calls = []

    def counting(*args, **kwargs):
        calls.append(kwargs)
        return make(*args, **kwargs)

    monkeypatch.setattr(tiered.zlib, "compressobj", counting)
    return calls


def _legacy_deflater(*args, _compressobj=zlib.compressobj, **kwargs):
    """The level-6, default-strategy stream older layouts hold."""
    return _compressobj(6)


class TestColdCodec:
    def _cold(self, directory, rng, num_rounds=8, horizon=3):
        store = TieredSignGradientStore(directory, delta=DELTA)
        reference = _fill(store, rng, num_rounds=num_rounds)
        # a client present in round 1 only, so dropping it dirties
        # exactly one cold round
        g = rng.normal(size=DIM) * 1e-3
        reference.put(1, 99, g)
        store.put(1, 99, g)
        store.flush()
        store.compact(cold_after=horizon)
        assert store.tier_rounds()[TIER_COLD] > 1
        return reference, store

    def test_cold_blocks_are_rle_streams(self, rng, tmp_path):
        _, store = self._cold(str(tmp_path / "t"), rng)
        for codec, stored in _stored_blocks(store).values():
            if codec == "zlib":
                # FLEVEL 0: zlib writes it for the RLE strategy
                assert stored[:2] == b"\x78\x01"

    def test_unchanged_store_recompacts_without_deflating(
        self, rng, tmp_path, monkeypatch
    ):
        reference, store = self._cold(str(tmp_path / "t"), rng)
        before = _stored_blocks(store)
        calls = _count_deflaters(monkeypatch)
        inflates = []
        inflate = zlib.decompress
        monkeypatch.setattr(
            tiered.zlib, "decompress", lambda b: inflates.append(b) or inflate(b)
        )
        stats = store.compact(cold_after=3)
        assert calls == [] and inflates == []
        assert stats["demoted"] == 0
        assert _stored_blocks(store) == before
        _assert_same_view(reference, store)

    def test_drop_redeflates_only_the_dirty_round(
        self, rng, tmp_path, monkeypatch
    ):
        reference, store = self._cold(str(tmp_path / "t"), rng)
        before = _stored_blocks(store)
        assert before[1][0] == "zlib"
        reference.drop_client(99)
        store.drop_client(99)
        calls = _count_deflaters(monkeypatch)
        store.compact(cold_after=3)
        assert len(calls) == 1
        after = _stored_blocks(store)
        assert after[1] != before[1]
        assert {t: b for t, b in after.items() if t != 1} == {
            t: b for t, b in before.items() if t != 1
        }
        _assert_same_view(reference, store)
        assert store.nbytes() == store.recount_nbytes()

    def test_reopened_store_without_horizon_keeps_tiers(self, rng, tmp_path):
        # cold_after is not persisted: a reopened store has no horizon,
        # and its reclaim compaction used to inflate every cold round
        directory = str(tmp_path / "t")
        reference, store = self._cold(directory, rng)
        store.close()
        reopened = TieredSignGradientStore.open(directory)
        tiers = reopened.tier_rounds()
        reference.drop_client(2)
        reopened.drop_client(2)
        disk_before = reopened.disk_bytes()
        reopened.compact()
        assert reopened.tier_rounds() == tiers
        assert reopened.disk_bytes() <= disk_before
        _assert_same_view(reference, reopened)
        # an explicit horizon still demotes and promotes
        reopened.compact(cold_after=6)
        assert reopened.tier_rounds()[TIER_COLD] == 2  # rounds 0 and 1
        _assert_same_view(reference, reopened)

    def test_legacy_level6_layout_reads_and_passes_through(
        self, rng, tmp_path, monkeypatch
    ):
        directory = str(tmp_path / "t")
        calls = _count_deflaters(monkeypatch, _legacy_deflater)
        reference, store = self._cold(directory, rng)
        assert calls
        legacy = _stored_blocks(store)
        store.close()
        monkeypatch.undo()
        cold = [b for codec, b in legacy.values() if codec == "zlib"]
        assert cold and all(b[:2] == b"\x78\x9c" for b in cold)

        reopened = TieredSignGradientStore.open(directory)
        _assert_same_view(reference, reopened)
        reopened.compact()
        reopened.compact(cold_after=3)
        assert _stored_blocks(reopened) == legacy
        _assert_same_view(reference, reopened)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_cold_round_trip_random_shapes(self, seed, tmp_path):
        rng = np.random.default_rng(seed)
        directory = str(tmp_path / "t")
        store = TieredSignGradientStore(directory, delta=DELTA)
        reference = SignGradientStore(delta=DELTA)
        dim = int(rng.integers(1, 300))
        for t in range(6):
            cohort = int(rng.integers(1, 12))
            zeros = rng.random()
            updates = {}
            for c in range(cohort):
                g = rng.normal(size=dim) * 1e-3
                g[rng.random(dim) < zeros] = 0.0
                updates[int(c)] = g
            if t == 2:  # an all-zero block
                updates = {c: np.zeros(dim) for c in updates}
            reference.put_round(t, updates)
            store.put_round(t, updates)
        for c in range(3):  # a mixed-length round
            g = rng.normal(size=int(rng.integers(1, 300))) * 1e-3
            reference.put(6, c, g)
            store.put(6, c, g)
        # an empty cohort: round 7's only client leaves
        g = rng.normal(size=dim)
        reference.put(7, 500, g)
        store.put(7, 500, g)
        reference.put(8, 1, g)
        store.put(8, 1, g)
        store.flush()
        reference.drop_client(500)
        store.drop_client(500)
        store.compact(cold_after=1)
        cold = {t for t, (codec, _) in _stored_blocks(store).items() if codec == "zlib"}
        assert cold == set(range(7))
        _assert_same_view(reference, store)
        store.close()
        _assert_same_view(reference, TieredSignGradientStore.open(directory))
