"""Tracked pipelined-replay-data-path baseline.

One synthetic training record served three ways:

1. **Identity sweep** — the same erasure replayed with prefetching off
   (``prefetch_depth=0``) and on (``prefetch_depth=4``) over every sign
   backend (dict, mmap, tiered-cold).  Byte identity of the recovered
   parameters is a hard assertion; the pipeline may only change *when*
   rounds are decoded, never *what* they decode to.

2. **Storage-bound speedup** — sync vs prefetched replay over a cold
   tiered store wrapped in a block-device latency model.  This host has
   a single CPU, so threads cannot overlap the CPU-bound parts of
   decode; the speedup a prefetcher buys in production comes from
   overlapping *genuinely blocking* storage reads (cold-device or
   remote-object fetches, which release the GIL) with replay compute.
   The wrapper injects that wait (``LATENCY_S`` per round fetch, a
   ``time.sleep`` standing in for the device) before delegating to the
   real cold-tier decode, making the overlap measurable and the ≥1.3×
   assertion deterministic.  The raw page-cached numbers (no injected
   latency, decode is pure CPU) are recorded but **not** asserted —
   on one core they hover around 1× by construction.

3. **Shared decode cache under daemon load** — an
   :class:`~repro.serving.ErasureDaemon` at concurrency 4 serving
   staggered erasures over one record; successive replays must resolve
   repeated rounds from the service's shared
   :class:`~repro.storage.prefetch.RoundDecodeCache` (hit count > 0
   asserted).

Everything lands in ``results/prefetch.json`` with the session
telemetry snapshot (``storage_prefetch_*`` counters) attached.
"""

import time

import numpy as np
import pytest

from repro.fl.history import TrainingRecord
from repro.fl.membership import MembershipLedger
from repro.serving import ErasureDaemon
from repro.storage import (
    MmapSignGradientStore,
    ModelCheckpointStore,
    RoundDecodeCache,
    SignGradientStore,
    TieredSignGradientStore,
)
from repro.unlearning import SignRecoveryUnlearner, UnlearningService

DELTA = 1e-4
LEARNING_RATE = 2e-3
DEPTH = 4
#: Injected per-round block-fetch wait (seconds) for the storage-bound
#: workload — the stand-in for a cold device / remote object store.
LATENCY_S = 0.05

#: (dim, rounds, cohort) per scale; smoke keeps the whole file under a
#: few seconds, ci matches the calibrated ≥1.3× headroom (~3.5× here).
SIZES = {
    "smoke": (40_000, 10, 6),
    "ci": (100_000, 24, 8),
    "paper": (200_000, 40, 10),
}


class ColdDeviceStore:
    """Read-through wrapper modelling a blocking round fetch.

    ``get_round`` sleeps for ``latency_s`` — releasing the GIL exactly
    as a real device or network wait would — then delegates to the
    wrapped store.  Everything else passes through untouched, so the
    decoded bytes are the wrapped store's bytes.
    """

    supports_bulk_round = True

    def __init__(self, inner, latency_s: float):
        self._inner = inner
        self._latency = latency_s

    def get_round(self, t):
        time.sleep(self._latency)
        return self._inner.get_round(t)

    def __getattr__(self, name):
        return getattr(self._inner, name)


def build_history(dim, rounds, cohort, seed=7):
    """Checkpoints + ledger + per-round dense updates for one record."""
    rng = np.random.default_rng(seed)
    ledger = MembershipLedger()
    for c in range(cohort):
        ledger.join(c, 0)
    checkpoints = ModelCheckpointStore()
    params = rng.normal(size=dim) * 0.01
    updates = []
    for t in range(rounds):
        checkpoints.put(t, params)
        updates.append({c: rng.normal(size=dim) * 1e-3 for c in range(cohort)})
    checkpoints.put(rounds, params)
    return checkpoints, ledger, updates


def make_record(store, checkpoints, ledger, updates, cohort):
    for t, round_updates in enumerate(updates):
        store.put_round(t, round_updates)
    sizes = {c: 100 for c in range(cohort)}
    return TrainingRecord(
        checkpoints, store, ledger, sizes, len(updates), LEARNING_RATE
    )


def cold_tiered_store(directory):
    store = TieredSignGradientStore(directory, delta=DELTA, hot_budget_bytes=1 << 20)
    return store


def demote_all(store):
    store.flush()
    store.compact(cold_after=0)
    return store


def _timed(fn):
    start = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - start


def _replay(record, depth, forget=(0,)):
    unlearner = SignRecoveryUnlearner(prefetch_depth=depth)
    return unlearner.unlearn(record, list(forget), None)


@pytest.mark.benchmark(group="prefetch")
def test_prefetch_pipeline(benchmark, scale, save_result, tmp_path):
    dim, rounds, cohort = SIZES.get(scale, SIZES["ci"])
    checkpoints, ledger, updates = build_history(dim, rounds, cohort)

    # --- 1. byte identity across every backend, prefetch on vs off ---
    dict_store = SignGradientStore(delta=DELTA)
    record = make_record(dict_store, checkpoints, ledger, updates, cohort)
    backends = {
        "dict": dict_store,
        "mmap": MmapSignGradientStore.from_store(
            dict_store, str(tmp_path / "mmap-layout")
        ),
        "tiered-cold": demote_all(
            make_record(
                cold_tiered_store(str(tmp_path / "tiered-layout")),
                checkpoints,
                ledger,
                updates,
                cohort,
            ).gradients
        ),
    }
    identity = {}
    for name, store in backends.items():
        rec = TrainingRecord(
            checkpoints, store, ledger, record.client_sizes, rounds, LEARNING_RATE
        )
        sync = _replay(rec, depth=0)
        piped = _replay(rec, depth=DEPTH)
        identity[name] = sync.params.tobytes() == piped.params.tobytes()
        assert identity[name], f"{name}: prefetch changed recovered bytes"

    # --- 2. storage-bound speedup over the latency-modelled cold tier ---
    def cold_record(latency):
        store = TieredSignGradientStore.open(str(tmp_path / "tiered-layout"))
        if latency:
            store = ColdDeviceStore(store, latency)
        return TrainingRecord(
            checkpoints, store, ledger, record.client_sizes, rounds, LEARNING_RATE
        )

    sync_result, sync_seconds = _timed(lambda: _replay(cold_record(LATENCY_S), 0))
    piped_result, piped_seconds = benchmark.pedantic(
        lambda: _timed(lambda: _replay(cold_record(LATENCY_S), DEPTH)), rounds=1
    )
    speedup = sync_seconds / piped_seconds
    assert piped_result.params.tobytes() == sync_result.params.tobytes()
    assert speedup >= 1.3, (
        f"prefetch depth={DEPTH} only {speedup:.2f}x over sync "
        f"on the storage-bound cold-tier workload"
    )

    # Raw page-cached replay (no injected latency): recorded for the
    # record, not asserted — decode is pure CPU and this host has one
    # core, so there is nothing for the pipeline to overlap.
    _, raw_sync_seconds = _timed(lambda: _replay(cold_record(0), 0))
    _, raw_piped_seconds = _timed(lambda: _replay(cold_record(0), DEPTH))

    # --- 3. shared decode cache under daemon concurrency 4 ---
    # The cache only pays if the working set fits its byte budget — an
    # LRU scanned end-to-end while over budget evicts every entry just
    # before the next replay needs it.  Cap the daemon record at 12
    # rounds, so the cache's 64 MiB default holds all of them decoded.
    daemon_updates = updates[: min(rounds, 12)]
    daemon_store = demote_all(
        make_record(
            cold_tiered_store(str(tmp_path / "daemon-layout")),
            checkpoints,
            ledger,
            daemon_updates,
            cohort,
        ).gradients
    )
    daemon_record = TrainingRecord(
        checkpoints, daemon_store, ledger, dict(record.client_sizes),
        len(daemon_updates), LEARNING_RATE,
    )
    # Decoded sign rows are int8: one byte per element; keep 2x headroom.
    assert 2 * len(daemon_updates) * cohort * dim <= RoundDecodeCache().max_bytes
    service = UnlearningService(daemon_record, None, prefetch_depth=DEPTH)
    daemon = ErasureDaemon(service, capacity=16, workers=4).start()
    try:
        futures = [daemon.submit(c) for c in range(1, 5)]
        statuses = [f.result(timeout=120).status for f in futures]
        # daemon.stop() drains the service's prefetch state, so the
        # cache counters have to be read while it is still live
        cache = service.decode_cache
        cache_stats = (
            {
                "hits": cache.hits,
                "misses": cache.misses,
                "hit_rate": cache.hit_rate(),
                "entries": cache.entries,
            }
            if cache is not None
            else {}
        )
    finally:
        daemon.stop()
    assert all(s == "ok" for s in statuses)
    hits = cache_stats.get("hits", 0)
    assert hits > 0, "shared decode cache saw no hits at concurrency 4"
    service.drain_prefetch()
    assert service.decode_cache is None

    save_result(
        "prefetch",
        {
            "scale": scale,
            "dim": dim,
            "rounds": rounds,
            "cohort": cohort,
            "prefetch_depth": DEPTH,
            "identity": identity,
            "latency_model_seconds": LATENCY_S,
            "latency_model": (
                "time.sleep per round fetch modelling a blocking cold-device "
                "read; raw page-cached numbers recorded unasserted"
            ),
            "storage_bound": {
                "sync_seconds": sync_seconds,
                "prefetch_seconds": piped_seconds,
                "speedup": speedup,
            },
            "page_cached": {
                "sync_seconds": raw_sync_seconds,
                "prefetch_seconds": raw_piped_seconds,
                "speedup": raw_sync_seconds / raw_piped_seconds,
            },
            "daemon": {
                "workers": 4,
                "requests": len(statuses),
                "decode_cache": cache_stats,
            },
        },
    )
