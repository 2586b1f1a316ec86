"""Metric names, units and the small statistics the workloads share.

``END_TO_END`` and ``PER_LAYER`` are the benchmark's vocabulary: every
workload reports every name (a layer that idles on a workload reports
0), and ``BENCHMARK.json`` lists exactly these names.  A bound is the share by
which an end-to-end metric may worsen before a later change counts as a
regression; all sit at the driver's ceiling of 0.25 because ten runs of
one commit already spread by 5-12 % here, and by 20 % when the sandbox's
neighbours are busy (README, "Steadiness").
"""

from __future__ import annotations

import math
import statistics
from typing import Dict, Iterable, List, Sequence, Tuple

WORKLOADS = ("solo_replay", "gdpr_ladder", "live_interleave", "archive_lifecycle")

# name -> (unit, better, bound)
END_TO_END: Dict[str, Tuple[str, str, float]] = {
    "setup_s": ("s", "lower", 0.25),
    "makespan_s": ("s", "lower", 0.25),
    "erase_latency_p50_ms": ("ms", "lower", 0.25),
    "erase_latency_tail_ms": ("ms", "lower", 0.25),
    "erasures_per_s": ("1/s", "higher", 0.25),
    "peak_rss_mib": ("MiB", "lower", 0.25),
}

# name -> (unit, better).  Grouped by the module the number belongs to.
PER_LAYER: Dict[str, Tuple[str, str]] = {
    # repro.serving (+ the benchmark's own load generator)
    "serving.queue_wait_p50_ms": ("ms", "lower"),
    "serving.queue_wait_p95_ms": ("ms", "lower"),
    "serving.overhead_us": ("us", "lower"),
    "serving.shed_count": ("count", "lower"),
    "serving.deadline_count": ("count", "lower"),
    "serving.fused_width_mean": ("count", "higher"),
    "serving.rung_width_mean": ("count", "lower"),
    "serving.slo_max_rate_rps": ("1/s", "higher"),
    "serving.burst_drain_s": ("s", "lower"),
    "serving.overload_ok_per_s": ("1/s", "higher"),
    "serving.utilisation_2r": ("share", "lower"),
    "loadgen.late_p95_ms": ("ms", "lower"),
    # repro.unlearning.service
    "service.erase_self_ms": ("ms", "lower"),
    "service.purge_ms": ("ms", "lower"),
    "service.commit_conflicts": ("count", "lower"),
    "service.merge_tail_rounds_mean": ("count", "lower"),
    "service.persist_s": ("s", "lower"),
    "service.restore_s": ("s", "lower"),
    # repro.unlearning.recovery / forest
    "replay.member_rounds": ("count", "lower"),
    "replay.node_rounds": ("count", "lower"),
    "replay.shared_ratio": ("share", "higher"),
    "replay.round_ms_p50": ("ms", "lower"),
    "replay.round_self_ms": ("ms", "lower"),
    "replay.round_share": ("share", "higher"),
    "replay.seed_ms": ("ms", "lower"),
    "replay.est_share.hvp": ("share", "lower"),
    "replay.est_share.fedavg": ("share", "lower"),
    "replay.est_share.step": ("share", "lower"),
    "forest.lookup_us": ("us", "lower"),
    "forest.store_ms": ("ms", "lower"),
    "forest.hit_depth_mean": ("count", "higher"),
    "forest.nodes": ("count", "lower"),
    # repro.unlearning.lbfgs / estimator / backtrack (isolated)
    "lbfgs.hvp_us": ("us", "lower"),
    "lbfgs.add_pair_us": ("us", "lower"),
    "estimator.estimate_us": ("us", "lower"),
    "backtrack.ms": ("ms", "lower"),
    # repro.fl.aggregation, repro.nn (isolated)
    "aggregation.fedavg_us": ("us", "lower"),
    "optim.step_us": ("us", "lower"),
    "arena.step_rows_us": ("us", "lower"),
    # repro.storage.sign_codec (isolated)
    "codec.encode_mb_s": ("MB/s", "higher"),
    "codec.decode_mb_s": ("MB/s", "higher"),
    # repro.storage.store / mmap_store / tiered
    "store.get_round_us_per_row.dict": ("us", "lower"),
    "store.get_round_us_per_row.mmap": ("us", "lower"),
    "store.get_round_us_per_row.tiered_hot": ("us", "lower"),
    "store.get_round_us_per_row.tiered_warm": ("us", "lower"),
    "store.get_round_us_per_row.tiered_cold": ("us", "lower"),
    "store.put_round_us_per_row.dict": ("us", "lower"),
    "store.put_round_us_per_row.tiered": ("us", "lower"),
    "store.drop_client_ms.dict": ("ms", "lower"),
    "store.drop_client_ms.mmap": ("ms", "lower"),
    "store.drop_client_ms.tiered": ("ms", "lower"),
    "store.read_ms_per_request": ("ms", "lower"),
    "store.read_share": ("share", "lower"),
    "tiered.spill_count": ("count", "lower"),
    "tiered.spill_s": ("s", "lower"),
    "tiered.compact_s": ("s", "lower"),
    "tiered.open_s": ("s", "lower"),
    "tiered.reclaim_s": ("s", "lower"),
    "tiered.cold_ratio": ("ratio", "higher"),
    "tiered.cold_cache_hit_rate": ("share", "higher"),
    "tiered.hot_bytes_max": ("B", "lower"),
    "mmap.build_s": ("s", "lower"),
    "mmap.open_ms": ("ms", "lower"),
    "archive.ingest_rows_per_s": ("1/s", "higher"),
    "archive.maintenance_s": ("s", "lower"),
    "archive.disk_bytes_per_row": ("B", "lower"),
    "archive.storage_share": ("share", "higher"),
    # repro.storage.prefetch
    "prefetch.cache_hit_rate": ("share", "higher"),
    "prefetch.fetch_wait_ms": ("ms", "lower"),
    # repro.fl.live / repro.storage.snapshot / repro.fl.simulation
    "live.pin_snapshot_ms": ("ms", "lower"),
    "live.gate_wait_ms": ("ms", "lower"),
    "live.gate_hold_ms": ("ms", "lower"),
    "live.deferred_purges": ("count", "lower"),
    "live.round_ms_p50": ("ms", "lower"),
    "live.train_rounds_per_s": ("1/s", "higher"),
    "fl.round_ms_solo": ("ms", "lower"),
    "fl.client_update_us": ("us", "lower"),
    # the harness itself
    "trace.overhead_share": ("share", "lower"),
    "trace.spans": ("count", "lower"),
}


def median(values: Iterable[float]) -> float:
    values = list(values)
    return float(statistics.median(values)) if values else 0.0


def mean(values: Iterable[float]) -> float:
    values = list(values)
    return float(sum(values) / len(values)) if values else 0.0


def percentile(values: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile (the value at rank ``ceil(pct/100 * n)``)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return float(ordered[rank - 1])


def spread(values: List[float]) -> float:
    """Interquartile distance as a share of the median — the steadiness
    figure the benchmark's bounds are checked against."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    mid = statistics.median(values)
    return abs(q3 - q1) / abs(mid) if mid else 0.0
