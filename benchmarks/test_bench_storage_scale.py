"""Benchmark: tiered-store capacity sweep to >=100k distinct clients.

The capacity claim under test (`docs/ARCHITECTURE.md`, "Storage
tiering"): ingestion through :class:`TieredSignGradientStore` is
bounded-memory — peak allocation is O(hot budget + one round's working
set), independent of history length — while the warm tier costs exactly
``ceil(d/4)`` bytes per live row and the cold tier compresses at least
2x below that on realistic (mostly sub-threshold) gradients.

The sweep ingests a synthetic participation trace (every round a fresh
cohort, so distinct clients = rounds x cohort), spilling under a small
hot budget, then compacts with a cold horizon and measures per-tier
bytes/client/round, hit counts, and read latencies.  The full run
(`make bench-storage-scale`) covers 102,400 clients and is marked
``slow``; ``REPRO_SCALE=smoke`` drops to a 5,120-client sanity pass.
Results land in ``benchmarks/results/storage_scale.json``.
"""

import resource
import shutil
import tempfile
import time
import tracemalloc

import numpy as np
import pytest

from repro.storage import SignGradientStore, TieredSignGradientStore
from repro.storage.tiered import TIER_COLD, TIER_HOT, TIER_WARM
from repro.telemetry import current_telemetry

DELTA = 1e-6
HOT_BUDGET = 256 * 1024

#: scale -> (rounds, cohort per round, gradient dimension)
SWEEPS = {
    "smoke": (40, 128, 256),
    "ci": (200, 512, 256),
    "paper": (200, 512, 256),
}


def _round_updates(rng, base, cohort, dim):
    """One cohort of mostly sub-threshold gradients (90 % exact zeros
    after ternarization — the realistic sparse-update regime that the
    cold tier's zlib pass exploits)."""
    dense = rng.normal(size=(cohort, dim)) * 1e-3
    dense[rng.random((cohort, dim)) < 0.9] = 0.0
    return {int(base + i): dense[i] for i in range(cohort)}


def _timed_reads(store, rounds, repeats=3):
    """Mean get_round latency over ``rounds`` (seconds)."""
    if not rounds:
        return None
    start = time.perf_counter()
    served = 0
    for _ in range(repeats):
        for t in rounds:
            served += len(store.get_round(t))
    elapsed = time.perf_counter() - start
    return {"rounds_read": len(rounds) * repeats,
            "mean_round_seconds": elapsed / (len(rounds) * repeats),
            "rows_served": served}


def _run_sweep(scale):
    num_rounds, cohort, dim = SWEEPS.get(scale, SWEEPS["ci"])
    rng = np.random.default_rng(2024)
    directory = tempfile.mkdtemp(prefix="bench-tiered-")
    telemetry = current_telemetry()
    try:
        store = TieredSignGradientStore(
            directory,
            delta=DELTA,
            hot_budget_bytes=HOT_BUDGET,
            cold_after=num_rounds // 4,
        )
        sample = {}
        hot_bytes_max = 0
        tracemalloc.start()
        tracemalloc.reset_peak()
        for t in range(num_rounds):
            updates = _round_updates(rng, t * cohort, cohort, dim)
            store.put_round(t, updates)
            hot_bytes_max = max(hot_bytes_max, store.tier_bytes()[TIER_HOT])
            if t % 13 == 0:
                cid = t * cohort + 7
                # copy: a view would pin the round's whole dense matrix
                # and turn the spot-check corpus into a history leak
                sample[(t, cid)] = updates[cid].copy()
        _, peak_alloc = tracemalloc.get_traced_memory()
        tracemalloc.stop()

        # hot-tier latency while the newest rounds are still hot
        hot_rounds = store._hot.rounds()[-4:]  # the composed hot-tier store
        hot_latency = _timed_reads(store, hot_rounds)

        store.flush()
        store.compact()
        stats = store.stats()
        tier_rounds = stats["tier_rounds"]
        tier_bytes = stats["tier_bytes"]
        warm_rounds = [t for t in store.rounds()
                       if store._disk[t].tier == TIER_WARM][-4:]
        cold_rounds = [t for t in store.rounds()
                       if store._disk[t].tier == TIER_COLD][:4]
        warm_latency = _timed_reads(store, warm_rounds)
        cold_latency = _timed_reads(store, cold_rounds)

        # bitwise spot-check against the dict reference
        reference = SignGradientStore(delta=DELTA)
        for (t, cid), g in sample.items():
            reference.put(t, cid, g)
            np.testing.assert_array_equal(store.get(t, cid), reference.get(t, cid))

        per_tier = {}
        for tier, latency in ((TIER_HOT, hot_latency),
                              (TIER_WARM, warm_latency),
                              (TIER_COLD, cold_latency)):
            rounds_in_tier = tier_rounds[tier]
            per_tier[tier] = {
                "rounds": rounds_in_tier,
                "bytes": tier_bytes[tier],
                "bytes_per_client_round": (
                    tier_bytes[tier] / (rounds_in_tier * cohort)
                    if rounds_in_tier else None
                ),
                "hits_total": telemetry.registry.counter_value(
                    "storage_tier_hits_total", {"tier": tier}
                ),
                "latency": latency,
            }

        # one round's float64 working set plus codec intermediates —
        # the peak-allocation bound is O(budget + working set), NOT
        # O(history): a run this size holds ~100x the budget in
        # payloads, so scaling with history would fail immediately.
        round_raw = cohort * dim * 8
        working_set_slack = 8 * round_raw + (4 << 20)
        result = {
            "scale": scale,
            "rounds": num_rounds,
            "cohort": cohort,
            "dim": dim,
            "distinct_clients": num_rounds * cohort,
            "hot_budget_bytes": HOT_BUDGET,
            "hot_bytes_max": int(hot_bytes_max),
            "peak_alloc_bytes": int(peak_alloc),
            "working_set_slack_bytes": int(working_set_slack),
            "ru_maxrss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
            "warm_bytes_per_row_expected": (dim + 3) // 4,
            "cold_compression_ratio": store.cold_compression_ratio(),
            "disk_bytes": stats["disk_bytes"],
            "nbytes": store.nbytes(),
            "generation": stats["generation"],
            "shards": stats["shards"],
            "per_tier": per_tier,
        }
        store.close()
        return result
    finally:
        if tracemalloc.is_tracing():
            tracemalloc.stop()
        shutil.rmtree(directory, ignore_errors=True)


@pytest.mark.slow
@pytest.mark.benchmark(group="storage-scale")
def test_storage_scale_sweep(benchmark, scale, save_result):
    result = benchmark.pedantic(lambda: _run_sweep(scale), rounds=1, iterations=1)
    save_result("storage_scale", result)

    if result["scale"] not in ("smoke",):
        assert result["distinct_clients"] >= 100_000
    # bounded-memory ingestion: the hot tier held its budget at every
    # round, and peak allocation tracked the budget + one round's
    # working set rather than the full history
    assert result["hot_bytes_max"] <= result["hot_budget_bytes"]
    assert (
        result["peak_alloc_bytes"]
        <= result["hot_budget_bytes"] + result["working_set_slack_bytes"]
    )
    # capacity model: warm rows cost exactly ceil(d/4) bytes
    warm = result["per_tier"][TIER_WARM]
    if warm["rounds"]:
        assert warm["bytes_per_client_round"] == result["warm_bytes_per_row_expected"]
    # cold tier earns its keep: >= 2x under the warm block layout
    assert result["cold_compression_ratio"] >= 2.0
    assert result["per_tier"][TIER_COLD]["rounds"] > 0
