"""The metrics contract, as data.

Every metric the reproduction can emit is declared here as a
:class:`MetricSpec` — name, kind, unit, allowed label keys, the module
that emits it, and a one-line description.  The registry is *strict* by
default: emitting a metric that is not declared here (or with label
keys the spec does not allow) raises, so the catalog, the runtime, and
``docs/METRICS.md`` can never drift apart.  ``tests/test_metrics_docs.py``
enforces the catalog ⇄ docs equivalence in both directions.

Naming rules (Prometheus conventions):

- ``snake_case``, prefixed by the emitting subsystem
  (``fl_`` / ``storage_`` / ``lbfgs_`` / ``recovery_`` / ``faults_`` /
  ``service_``);
- cumulative counters end in ``_total``;
- histograms of durations end in ``_seconds`` and the span name *is*
  the histogram name (``trace_span("fl_round_seconds")``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Tuple

__all__ = ["MetricSpec", "METRICS", "COUNTER", "GAUGE", "HISTOGRAM"]

COUNTER = "counter"
GAUGE = "gauge"
HISTOGRAM = "histogram"


@dataclass(frozen=True)
class MetricSpec:
    """Declaration of one metric: the unit of the documented contract.

    Attributes
    ----------
    name:
        Unique metric name (see the naming rules in the module docstring).
    kind:
        ``"counter"``, ``"gauge"``, or ``"histogram"``.
    unit:
        Measurement unit (``seconds``, ``bytes``, ``fraction``, ...).
    labels:
        Exact set of label keys every emission must carry.
    module:
        Dotted path of the module that emits it.
    help:
        One-line human description (also the Prometheus ``# HELP`` text).
    """

    name: str
    kind: str
    unit: str
    module: str
    help: str
    labels: Tuple[str, ...] = field(default=())


def _spec(name, kind, unit, module, help, labels=()):
    return MetricSpec(
        name=name, kind=kind, unit=unit, module=module, help=help, labels=tuple(labels)
    )


_ALL_SPECS = [
    # ------------------------------------------------------------- fl.simulation
    _spec(
        "fl_rounds_total", COUNTER, "rounds", "repro.fl.simulation",
        "Training rounds completed, including idle/skipped rounds.",
    ),
    _spec(
        "fl_round_seconds", HISTOGRAM, "seconds", "repro.fl.simulation",
        "Wall time of one full training round (span).",
    ),
    _spec(
        "fl_client_update_seconds", HISTOGRAM, "seconds", "repro.fl.simulation",
        "One client's update compute: its share of its cohort pass.",
    ),
    _spec(
        "fl_client_update_bytes", HISTOGRAM, "bytes", "repro.fl.simulation",
        "Raw (float64) size of the update a client reports to the RSU.",
    ),
    _spec(
        "fl_participants", GAUGE, "clients", "repro.fl.simulation",
        "Clients that contributed a usable update in the latest round.",
    ),
    _spec(
        "fl_dropouts_total", COUNTER, "events", "repro.fl.simulation",
        "Client-rounds lost to crashes, missed deadlines, or retry exhaustion.",
    ),
    _spec(
        "fl_eval_accuracy", GAUGE, "fraction", "repro.fl.simulation",
        "Most recent held-out test accuracy of the global model.",
    ),
    _spec(
        "fl_faults_injected_total", COUNTER, "events", "repro.fl.simulation",
        "Faults applied to client computes, by kind (crash/corrupt/straggle/flaky).",
        labels=("kind",),
    ),
    _spec(
        "fl_parallel_workers", GAUGE, "workers", "repro.fl.simulation",
        "Threads splitting each round's cohort pass (workers > 1 only).",
    ),
    _spec(
        "fl_parallel_utilization", GAUGE, "fraction", "repro.fl.simulation",
        "Busy-time fraction of the pool over the latest round: "
        "Σ chunk seconds / (workers × wall).",
    ),
    # ----------------------------------------------------------------- fl.server
    _spec(
        "fl_aggregate_seconds", HISTOGRAM, "seconds", "repro.fl.server",
        "Validation, gradient-store writes, aggregation (Eq. 1) and model "
        "step (Eq. 2) of one round (span).",
    ),
    _spec(
        "fl_quarantined_total", COUNTER, "updates", "repro.fl.server",
        "Updates rejected by the validator gate and quarantined.",
    ),
    _spec(
        "fl_rounds_skipped_total", COUNTER, "rounds", "repro.fl.server",
        "Rounds advanced with no usable update (the RSU idles).",
    ),
    # -------------------------------------------------------------- storage.store
    _spec(
        "storage_encode_seconds", HISTOGRAM, "seconds", "repro.storage.store",
        "Sign-codec ternarize + 2-bit pack of one gradient "
        "(SignGradientStore.put, span).",
    ),
    _spec(
        "storage_decode_seconds", HISTOGRAM, "seconds", "repro.storage.store",
        "Unpack of one stored record back to a direction vector (span).",
    ),
    _spec(
        "storage_encoded_elements_total", COUNTER, "elements", "repro.storage.store",
        "Gradient elements written through the store (encode throughput "
        "numerator).",
        labels=("backend",),
    ),
    _spec(
        "storage_decoded_elements_total", COUNTER, "elements", "repro.storage.store",
        "Gradient elements read back from the store (decode throughput "
        "numerator).",
        labels=("backend",),
    ),
    _spec(
        "storage_put_bytes_total", COUNTER, "bytes", "repro.storage.store",
        "Payload bytes written into the gradient store.",
        labels=("backend",),
    ),
    _spec(
        "storage_raw_bytes_total", COUNTER, "bytes", "repro.storage.store",
        "Float32-equivalent bytes of the same records (compression "
        "denominator).",
        labels=("backend",),
    ),
    _spec(
        "storage_compression_ratio", GAUGE, "fraction", "repro.storage.store",
        "Stored/raw bytes of the latest record — ~0.0625 for the 2-bit sign "
        "store (§IV), 1.0 for the full store.",
        labels=("backend",),
    ),
    _spec(
        "storage_bulk_decode_rounds_total", COUNTER, "rounds", "repro.storage.store",
        "Whole-round cohorts decoded in one bulk LUT pass (get_round).",
        labels=("backend",),
    ),
    # ------------------------------------------------------------- storage.tiered
    _spec(
        "storage_tier_spill_seconds", HISTOGRAM, "seconds", "repro.storage.tiered",
        "One hot→warm spill: shard + index write, manifest publish, "
        "in-memory adoption (span).",
    ),
    _spec(
        "storage_tier_spills_total", COUNTER, "rounds", "repro.storage.tiered",
        "Sealed rounds spilled from the hot block tier into warm shards.",
    ),
    _spec(
        "storage_tier_compact_seconds", HISTOGRAM, "seconds", "repro.storage.tiered",
        "One full compaction: tombstone GC + cold demotion + generation "
        "swap (span).",
    ),
    _spec(
        "storage_tier_compactions_total", COUNTER, "compactions", "repro.storage.tiered",
        "Completed shard-set compactions (each publishes a new generation).",
    ),
    _spec(
        "storage_tier_demotions_total", COUNTER, "rounds", "repro.storage.tiered",
        "Warm rounds demoted to the zlib cold tier by compaction.",
    ),
    _spec(
        "storage_tier_hits_total", COUNTER, "reads", "repro.storage.tiered",
        "Point/round reads answered per tier (hot blocks, warm mmap, cold "
        "inflate).",
        labels=("tier",),
    ),
    _spec(
        "storage_tier_bytes", GAUGE, "bytes", "repro.storage.tiered",
        "Live payload bytes currently held in each tier.",
        labels=("tier",),
    ),
    _spec(
        "storage_tier_cold_cache_hits_total", COUNTER, "reads",
        "repro.storage.tiered",
        "Cold-round reads served from the decompressed-block LRU "
        "without re-inflating.",
    ),
    _spec(
        "storage_tier_cold_cache_misses_total", COUNTER, "reads",
        "repro.storage.tiered",
        "Cold-round reads that had to zlib-inflate their block.",
    ),
    _spec(
        "storage_tier_cold_cache_evictions_total", COUNTER, "blocks",
        "repro.storage.tiered",
        "Decompressed cold blocks evicted past the cold_cache_blocks cap.",
    ),
    # ---------------------------------------------------------- storage.prefetch
    _spec(
        "storage_prefetch_hits_total", COUNTER, "fetches",
        "repro.storage.prefetch",
        "Replay round fetches whose background decode was already "
        "scheduled (completed or in flight).",
    ),
    _spec(
        "storage_prefetch_misses_total", COUNTER, "fetches",
        "repro.storage.prefetch",
        "Replay round fetches decoded inline because no background "
        "decode was scheduled.",
    ),
    _spec(
        "storage_prefetch_stall_seconds", HISTOGRAM, "seconds",
        "repro.storage.prefetch",
        "Time the replay loop blocked waiting on an in-flight "
        "background decode (span).",
    ),
    _spec(
        "storage_prefetch_cancelled_total", COUNTER, "tasks",
        "repro.storage.prefetch",
        "Scheduled background decodes abandoned before running "
        "(deadline abort, skipped rounds, shutdown).",
    ),
    _spec(
        "storage_prefetch_cache_hits_total", COUNTER, "rounds",
        "repro.storage.prefetch",
        "Round decodes resolved from the shared decode cache.",
    ),
    _spec(
        "storage_prefetch_cache_misses_total", COUNTER, "rounds",
        "repro.storage.prefetch",
        "Round decodes the shared cache had to materialize (or that "
        "failed and stayed uncached).",
    ),
    _spec(
        "storage_prefetch_cache_evictions_total", COUNTER, "rounds",
        "repro.storage.prefetch",
        "Cached rounds evicted past the byte budget (LRU).",
    ),
    _spec(
        "storage_prefetch_cache_bytes", GAUGE, "bytes",
        "repro.storage.prefetch",
        "Bytes of decoded int8 rows currently held by the shared decode "
        "cache, each shared decoded block counted once.",
    ),
    # ----------------------------------------------------------- unlearning.lbfgs
    _spec(
        "lbfgs_hvp_seconds", HISTOGRAM, "seconds", "repro.unlearning.lbfgs",
        "One compact-form L-BFGS Hessian-vector product (Algorithm 2, span); "
        "a replay round's cohort kernel observes an equal share of its time "
        "per client (a replay node's stacked form is built outside it).",
    ),
    _spec(
        "lbfgs_hvp_total", COUNTER, "calls", "repro.unlearning.lbfgs",
        "Hessian-vector products computed during recovery.",
    ),
    _spec(
        "lbfgs_buffer_update_seconds", HISTOGRAM, "seconds", "repro.unlearning.lbfgs",
        "One vector-pair curvature check + buffer insertion (span).",
    ),
    _spec(
        "lbfgs_pairs_accepted_total", COUNTER, "pairs", "repro.unlearning.lbfgs",
        "Vector pairs that passed the curvature condition ΔwᵀΔg > 0.",
    ),
    _spec(
        "lbfgs_pairs_rejected_total", COUNTER, "pairs", "repro.unlearning.lbfgs",
        "Vector pairs rejected (near-zero Δw or non-positive curvature).",
    ),
    _spec(
        "lbfgs_buffer_pairs", GAUGE, "pairs", "repro.unlearning.lbfgs",
        "Pairs held by the most recently updated L-BFGS buffer.",
    ),
    # ------------------------------------------------------- unlearning.estimator
    _spec(
        "recovery_clip_rate", HISTOGRAM, "fraction", "repro.unlearning.estimator",
        "Fraction of estimate elements clipped at ±L (Eq. 7), per estimate.",
    ),
    _spec(
        "recovery_estimate_drift", HISTOGRAM, "l2norm", "repro.unlearning.estimator",
        "L2 distance between the clipped estimate (Eq. 6+7) and the stored "
        "direction it was estimated from, per estimate.",
    ),
    # --------------------------------------------------------- unlearning.engine
    _spec(
        "recovery_rounds_total", COUNTER, "rounds", "repro.unlearning.engine",
        "Recovery rounds replayed (a model step was taken).",
    ),
    _spec(
        "recovery_round_seconds", HISTOGRAM, "seconds", "repro.unlearning.engine",
        "Wall time of one executed node-round's Eq. 6/7 estimates, "
        "aggregate and step (span): one observation per tree node per "
        "replayed round; skipped rounds are not observed.",
    ),
    _spec(
        "recovery_rounds_skipped_total", COUNTER, "rounds", "repro.unlearning.engine",
        "Replay rounds skipped (no remaining participant, damaged "
        "checkpoint, or no decodable entry).",
    ),
    _spec(
        "recovery_missing_entries_total", COUNTER, "records", "repro.unlearning.engine",
        "Per-(round, client) gradient entries missing or undecodable during "
        "replay.",
    ),
    _spec(
        "recovery_displacement_norm", GAUGE, "l2norm", "repro.unlearning.engine",
        "‖w̄_t − w_t‖₂ — recovered-vs-historical model displacement at the "
        "latest replayed round (the Eq. 6 input).",
    ),
    _spec(
        "recovery_progress", GAUGE, "fraction", "repro.unlearning.engine",
        "Completed fraction of the replay window [F, T).",
    ),
    _spec(
        "recovery_checkpoints_total", COUNTER, "checkpoints", "repro.unlearning.engine",
        "Replay-state checkpoints committed to disk.",
    ),
    # --------------------------------------------------------- unlearning.forest
    _spec(
        "recovery_cache_hits_total", COUNTER, "requests", "repro.unlearning.forest",
        "Erasure requests that resumed from a cached replay prefix.",
    ),
    _spec(
        "recovery_cache_misses_total", COUNTER, "requests", "repro.unlearning.forest",
        "Erasure requests that found no reusable replay prefix.",
    ),
    _spec(
        "recovery_cache_evictions_total", COUNTER, "entries",
        "repro.unlearning.forest",
        "Prefix-cache entries evicted by the LRU cap.",
    ),
    _spec(
        "recovery_cache_rounds_saved_total", COUNTER, "rounds",
        "repro.unlearning.forest",
        "Replay rounds skipped by resuming from cached prefixes.",
    ),
    _spec(
        "recovery_cache_entries", GAUGE, "entries", "repro.unlearning.forest",
        "Roots (anchor trajectories) currently held by the replay forest.",
    ),
    _spec(
        "recovery_forest_nodes", GAUGE, "entries", "repro.unlearning.forest",
        "Snapshot nodes currently held across all replay-forest roots.",
    ),
    _spec(
        "recovery_forest_bytes", GAUGE, "bytes", "repro.unlearning.forest",
        "Bytes of the distinct arrays the replay forest holds (a shared array counts once); bounded by max_bytes.",
    ),
    _spec(
        "recovery_forest_hit_depth", HISTOGRAM, "rounds",
        "repro.unlearning.forest",
        "Prefix depth (rounds past the backtrack round) of each forest hit.",
    ),
    _spec(
        "recovery_forest_node_evictions_total", COUNTER, "entries",
        "repro.unlearning.forest",
        "Forest snapshot nodes evicted by the byte-budget LRU.",
    ),
    _spec(
        "recovery_forest_nodes_retired_total", COUNTER, "entries",
        "repro.unlearning.forest",
        "Forest snapshot nodes dropped at a commit because no later "
        "request, which forgets at least the erased set, can resume from "
        "them.",
    ),
    # --------------------------------------------------------- unlearning.engine
    _spec(
        "recovery_forest_forks_total", COUNTER, "events",
        "repro.unlearning.engine",
        "Sibling branches created when fused replays diverged "
        "(fork-at-divergence events).",
    ),
    _spec(
        "recovery_forest_fork_depth", HISTOGRAM, "rounds",
        "repro.unlearning.engine",
        "Depth (rounds past the backtrack round) at which fused branches "
        "forked.",
    ),
    _spec(
        "recovery_forest_fused_branches", HISTOGRAM, "branches",
        "repro.unlearning.engine",
        "Requests fused into one shared-tree replay call (1 for a "
        "single erasure).",
    ),
    _spec(
        "recovery_forest_shared_rounds_total", COUNTER, "rounds",
        "repro.unlearning.engine",
        "Replay round-executions avoided because sibling requests shared "
        "a tree node (Σ members−1 per executed node-round).",
    ),
    # ---------------------------------------------------------- unlearning.service
    _spec(
        "service_erasure_requests_total", COUNTER, "requests",
        "repro.unlearning.service",
        "Erasure requests served, by arrival mode (single|batch).",
        labels=("mode",),
    ),
    _spec(
        "service_snapshot_pins_total", COUNTER, "pins",
        "repro.unlearning.service",
        "Record snapshots pinned for lock-free live-traffic replay.",
    ),
    _spec(
        "service_snapshot_active", GAUGE, "pins",
        "repro.unlearning.service",
        "Snapshot pins currently outstanding (readers not yet drained).",
    ),
    _spec(
        "service_snapshot_watermark", GAUGE, "rounds",
        "repro.unlearning.service",
        "Round watermark of the most recently pinned snapshot.",
    ),
    _spec(
        "service_snapshot_deferred_drops_total", COUNTER, "clients",
        "repro.unlearning.service",
        "Physical client purges deferred until the last pinned reader "
        "drained (epoch-based reclamation).",
    ),
    _spec(
        "service_snapshot_conflicts_total", COUNTER, "requests",
        "repro.unlearning.service",
        "Optimistic live erasures whose commit raced a concurrent "
        "erasure and retried against a fresh snapshot.",
    ),
    _spec(
        "service_merge_commits_total", COUNTER, "commits",
        "repro.unlearning.service",
        "Counterfactual models folded into the live history, by merge "
        "mode (replay|project|npg).",
        labels=("mode",),
    ),
    _spec(
        "service_merge_seconds", HISTOGRAM, "seconds",
        "repro.unlearning.service",
        "Train-gate hold of one merge commit, including tail-delta "
        "replay (span).",
    ),
    _spec(
        "service_merge_tail_rounds", HISTOGRAM, "rounds",
        "repro.unlearning.service",
        "Rounds trained past the snapshot watermark that a merge commit "
        "had to fold in.",
    ),
    # ----------------------------------------------------------- serving.daemon
    _spec(
        "serving_requests_total", COUNTER, "requests", "repro.serving.daemon",
        "Daemon responses by arrival kind (single|batch) and status "
        "(ok|stale|rejected|deadline|error).",
        labels=("kind", "status"),
    ),
    _spec(
        "serving_request_seconds", HISTOGRAM, "seconds", "repro.serving.daemon",
        "Enqueue-to-answer latency of served (ok|stale) requests.",
    ),
    _spec(
        "serving_queue_wait_seconds", HISTOGRAM, "seconds", "repro.serving.daemon",
        "Time admitted requests spent waiting for a worker.",
    ),
    _spec(
        "serving_queue_depth", GAUGE, "requests", "repro.serving.daemon",
        "Requests currently waiting in the admission queue.",
    ),
    _spec(
        "serving_shed_total", COUNTER, "requests", "repro.serving.daemon",
        "Requests rejected at admission because the queue was full.",
    ),
    _spec(
        "serving_deadline_aborts_total", COUNTER, "requests", "repro.serving.daemon",
        "Replays aborted cooperatively because the request deadline "
        "expired mid-replay.",
    ),
    _spec(
        "serving_idempotent_hits_total", COUNTER, "requests", "repro.serving.daemon",
        "Submissions deduplicated onto an earlier request's future by "
        "their idempotency key.",
    ),
    _spec(
        "serving_fault_signals_total", COUNTER, "events", "repro.serving.daemon",
        "External fault signals fed into the breaker, by kind.",
        labels=("kind",),
    ),
    _spec(
        "serving_fused_tickets_total", COUNTER, "requests", "repro.serving.daemon",
        "Queued single-vehicle tickets coalesced into fused replay-forest "
        "executions.",
    ),
    # ---------------------------------------------------------- serving.breaker
    _spec(
        "serving_breaker_state", GAUGE, "state", "repro.serving.breaker",
        "Circuit-breaker state (0 = closed, 1 = half-open, 2 = open).",
    ),
    _spec(
        "serving_breaker_transitions_total", COUNTER, "events",
        "repro.serving.breaker",
        "Breaker state transitions, by destination state "
        "(to=closed|half_open|open).",
        labels=("to",),
    ),
    # ------------------------------------------------------ telemetry.exporters
    _spec(
        "telemetry_flushes_total", COUNTER, "flushes",
        "repro.telemetry.exporters",
        "Periodic Prometheus snapshot flushes written by PrometheusFlusher.",
    ),
    # ---------------------------------------------------------------- faults.retry
    _spec(
        "faults_retries_total", COUNTER, "attempts", "repro.faults.retry",
        "Retry attempts made after transient client failures.",
    ),
    _spec(
        "faults_giveups_total", COUNTER, "events", "repro.faults.retry",
        "Calls that exhausted every retry attempt.",
    ),
    # ----------------------------------------------------------- faults.validation
    _spec(
        "faults_validation_total", COUNTER, "updates", "repro.faults.validation",
        "Update-validation verdicts (verdict=ok|rejected).",
        labels=("verdict",),
    ),
]

METRICS: Dict[str, MetricSpec] = {s.name: s for s in _ALL_SPECS}
"""Every declared metric, keyed by name — the machine-readable contract."""

if len(METRICS) != len(_ALL_SPECS):  # pragma: no cover - import-time sanity
    raise AssertionError("duplicate metric names in the catalog")
