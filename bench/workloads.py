"""The four workloads.

Each ``run_*`` takes the generated inputs (a :class:`~records.World`),
the run length in seconds, and a :class:`~spans.Probes` that is inert
on the untraced run and hands out timing proxies on the traced one —
the same code path produces the end-to-end numbers and the span log.

Work is sized from ``seconds`` by the constants below, chosen so the
timed section takes about ``seconds`` at the commit that introduced the
benchmark (2 cores, one process).  The *amount* of work is therefore
the same for every seed and every later commit; what moves is how long
it takes.
"""

from __future__ import annotations

import hashlib
import os
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.fl import LiveTrainingSession
from repro.serving import ErasureDaemon
from repro.storage import MmapSignGradientStore, SignGradientStore, TieredSignGradientStore
from repro.unlearning import UnlearningService

import load
import records
from metrics import WORKLOADS, mean, median, percentile
from records import CLIP, DELTA, World, clone_record
from spans import Probes

_now = time.perf_counter

#: Percentile reported as ``erase_latency_tail_ms`` — the highest of
#: p75/p90/p95 that leaves ten samples beyond it at the default run
#: length (108 / 63 / 67 samples; the archive's 32 erasures leave eight
#: beyond p75, the price of keeping it storage-bound).
TAIL_PCT = {
    "solo_replay": 90,
    "gdpr_ladder": 75,
    "live_interleave": 75,
    "archive_lifecycle": 75,
}

# -- sizes per second of run length ------------------------------------
SOLO_CYCLES_PER_S = 0.6          # one cycle = every erasable vehicle once (12)
LADDER_RATE = 3.5                # r, requests/s; rungs are r, 2r, 4r
LADDER_SHARES = (0.08, 0.60, 0.12)  # rung durations as shares of `seconds`
LADDER_BURST = 32                # simultaneous arrivals in one burst
LADDER_BURSTS = 3                # bursts per run; the median is reported
LADDER_WORKERS = 2
LADDER_SLO_S = 0.25              # tail latency limit a rung must meet ...
LADDER_DRAIN_S = 0.5             # ... with its backlog gone this soon after the last arrival
LIVE_ROUNDS_PER_S = 180
ARCHIVE_ROUNDS_PER_S = 32
ARCHIVE_HOT_BUDGET = 1 << 20
ARCHIVE_PREFETCH = 4


@dataclass
class Outcome:
    """What a workload hands back to ``run.py``."""

    makespan: float
    latencies: List[float]
    erasures_per_s: float
    attempted: int
    failed: int
    phases: List[Dict[str, object]] = field(default_factory=list)
    layer: Dict[str, float] = field(default_factory=dict)
    checks: Dict[str, object] = field(default_factory=dict)


def sha(params: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(params).tobytes()).hexdigest()


def make_service(record, model, probes: Probes, erased: Optional[List[int]] = None,
                 prefetch_depth: int = 0) -> UnlearningService:
    """The service under test.  ``erased`` is the list the service
    appends to on every commit — injected so the commit order can be
    read back for verification."""
    return UnlearningService(
        record=record,
        model=model,
        clip_threshold=CLIP,
        prefetch_depth=prefetch_depth,
        _erased=erased if erased is not None else [],
        _prefix_cache=probes.forest(),
    )


def store_is_purged(record, cids) -> bool:
    store = record.gradients
    return not any(store.has(t, c) for c in cids for t in range(record.num_rounds))


# ----------------------------------------------------------------------
# solo_replay
# ----------------------------------------------------------------------
def run_solo(world: World, seconds: float, probes: Probes) -> Outcome:
    """Closed loop, one caller: cold single-vehicle erasures, each on a
    fresh record clone and a fresh service (reset untimed)."""
    cycles = max(1, round(seconds * SOLO_CYCLES_PER_S))
    latencies: List[float] = []
    samples: List[Tuple[int, str]] = []
    purge_failures = 0
    for _ in range(cycles):
        for cid in world.erasable:
            record = clone_record(
                world.record, store=probes.store(SignGradientStore(delta=DELTA))
            )
            service = probes.service(
                make_service(record, world.model, probes), "solo"
            )
            start = _now()
            outcome = service.handle_erasure_request(cid)
            done = _now()
            latencies.append(done - start)
            if probes.tracer is not None:
                probes.tracer.add("request", start, done, rid=f"solo:{cid}")
            samples.append((cid, sha(outcome.params)))
            store = record.gradients
            if not store_is_purged(record, [cid]) or (
                store.recount_nbytes() != store.nbytes()
            ):
                purge_failures += 1
    busy = sum(latencies)
    return Outcome(
        makespan=busy,
        latencies=latencies,
        erasures_per_s=len(latencies) / busy,
        attempted=len(latencies),
        failed=purge_failures,
        phases=[{"phase": "solo", "sent": len(latencies), "ok": len(latencies),
                 "shed": 0, "deadline": 0, "error": 0}],
        checks={"samples": samples},
    )


# ----------------------------------------------------------------------
# gdpr_ladder
# ----------------------------------------------------------------------
def run_ladder(world: World, seconds: float, probes: Probes) -> Outcome:
    """Open loop through the daemon: three fixed-rate rungs and
    ``LADDER_BURSTS`` bursts, each on a fresh service clone.

    The schedule — arrival gaps and the join rank of each arrival — is
    the benchmark's, the same for every seed (a Poisson sample drawn
    once per rung from a constant); the seed decides the history the
    requests run against.  With seeded gaps the p75 at rung 2r moved
    69..106 ms between seeds, 78..92 ms with these.  The bursts are
    spread between the rungs so that one slow stretch of the machine
    cannot take all three.
    """
    rungs = []
    for k, share in enumerate(LADDER_SHARES):
        rate = LADDER_RATE * 2 ** k
        rungs.append((f"rung_{2 ** k}r", rate, load.arrivals(
            np.random.default_rng(2000 + k), rate, share * seconds,
            records.fixed_order(world.erasable, world.joins, k))))
    bursts_planned = [
        (f"burst_{k}", 0.0, load.burst(
            LADDER_BURST, records.fixed_order(world.erasable, world.joins, 10 + k)))
        for k in range(ladder_bursts(seconds))
    ]
    plans = [bursts_planned[0], rungs[0], rungs[1]] + bursts_planned[1:2] + [rungs[2]] \
        + bursts_planned[2:]

    phases: List[load.PhaseResult] = []
    commits: Dict[str, List[int]] = {}
    purge_failures = 0
    for name, rate, schedule in plans:
        record = clone_record(
            world.record, store=probes.store(SignGradientStore(delta=DELTA))
        )
        erased: List[int] = []
        service = make_service(record, world.model, probes, erased)
        daemon = ErasureDaemon(
            probes.service(service, name), capacity=64, workers=LADDER_WORKERS,
            fusion_width=32
        ).start()
        try:
            phases.append(load.run_open_loop(daemon, schedule, name, rate,
                                             tracer=probes.tracer))
        finally:
            daemon.stop(mode="drain")
        commits[name] = list(erased)
        store = record.gradients
        if not store_is_purged(record, erased) or (
            store.recount_nbytes() != store.nbytes()
        ):
            purge_failures += 1

    by_name = {p.name: p for p in phases}
    rung_r, rung_2r, rung_4r = (by_name[name] for name, _, _ in rungs)
    bursts = [by_name[name] for name, _, _ in bursts_planned]
    tail = TAIL_PCT["gdpr_ladder"]

    def holds(p: load.PhaseResult) -> bool:
        return (p.failed == 0 and p.drain_seconds <= LADDER_DRAIN_S
                and percentile(p.latency, tail) <= LADDER_SLO_S)

    slo_rate = 0.0
    for p in (rung_r, rung_2r, rung_4r):
        if not holds(p):
            break
        slo_rate = p.rate
    every = phases
    layer = {
        "serving.slo_max_rate_rps": slo_rate,
        "serving.burst_drain_s": median(p.drain_seconds for p in bursts),
        "serving.overload_ok_per_s": rung_4r.counts["ok"] / rung_4r.span_seconds,
        "serving.shed_count": float(sum(p.counts["shed"] for p in every)),
        "serving.deadline_count": float(sum(p.counts["deadline"] for p in every)),
        "serving.queue_wait_p50_ms": 1e3 * median(q for p in every for q in p.queue),
        "serving.queue_wait_p95_ms": 1e3 * percentile(
            [q for p in every for q in p.queue], 95),
        "serving.overhead_us": 1e6 * median(o for p in every for o in p.overhead),
        "loadgen.late_p95_ms": 1e3 * percentile(
            [x for p in every for x in p.late], 95),
    }
    # failed_share counts the rungs the system is meant to hold (r, 2r)
    # and the bursts; the overload rung is *expected* to shed or queue.
    counted = [rung_r, rung_2r] + bursts
    return Outcome(
        makespan=sum(p.span_seconds for p in phases),
        latencies=list(rung_2r.latency),
        erasures_per_s=median(p.counts["ok"] / p.span_seconds for p in bursts),
        attempted=sum(p.sent for p in counted),
        failed=sum(p.failed for p in counted) + purge_failures,
        phases=[{"phase": p.name, "rate": p.rate, "sent": p.sent, **p.counts}
                for p in phases],
        layer=layer,
        checks={"commits": commits,
                "responses": {p.name: p.responses for p in phases}},
    )


# ----------------------------------------------------------------------
# live_interleave
# ----------------------------------------------------------------------
def run_live(world: World, seconds: float, probes: Probes) -> Outcome:
    """Train and erase concurrently.

    Round arrivals are closed-loop: this thread grants the trainer its
    next round permit the moment the previous round commits — no sleeps,
    no modelled latency — and in the same breath submits the erasures
    whose watermark (join + lag) has been reached.  The permit crosses
    a thread boundary on purpose: with permits pre-granted the trainer
    re-takes the train gate within a microsecond of releasing it and
    ``pin_snapshot``/``commit_gate`` starve for hundreds of rounds (see
    README, findings), which makes every latency a lottery.
    """
    sim = world.extra["sim"]
    rounds = world.extra["rounds"]
    committed = threading.Event()
    last_round = [-1]
    stamps: List[float] = []

    def on_round(t: int, _params) -> None:
        stamps.append(_now())
        last_round[0] = t
        committed.set()

    session = LiveTrainingSession(sim, rounds, round_callback=on_round, paced=True)
    erased: List[int] = []
    service = make_service(sim.record_view(0), world.model, probes, erased)
    service.bind_live(probes.session(session))
    daemon = ErasureDaemon(probes.service(service, "live"), capacity=64,
                           workers=1).start()
    due = sorted((world.joins[c] + records.LIVE_LAG, c) for c in world.erasable)
    submitted: Dict[int, float] = {}
    done_at: Dict[int, float] = {}
    futures: Dict[int, object] = {}
    lock = threading.Lock()

    start = _now()
    try:
        session.start()
        session.allow_rounds(1)
        k = 0
        while last_round[0] < rounds - 1 and session.error is None:
            if not committed.wait(timeout=30.0):
                break
            committed.clear()
            watermark = last_round[0] + 1
            while k < len(due) and due[k][0] <= watermark:
                cid = due[k][1]
                submitted[cid] = _now()
                future = daemon.submit(cid)

                def stamp(_f, cid=cid):
                    with lock:
                        done_at[cid] = _now()

                future.add_done_callback(stamp)
                futures[cid] = future
                k += 1
            session.allow_rounds(1)
        session.release_pacing()
        final = session.result(timeout=120.0)
        train_wall = _now() - start
        outcomes = {}
        errors = 0
        for cid, future in futures.items():
            try:
                outcomes[cid] = future.result(timeout=120.0).outcomes[0]
            except Exception:
                errors += 1
        makespan = max([train_wall] + [t - start for t in done_at.values()])
    finally:
        session.release_pacing()
        session.stop()
        daemon.stop(mode="drain")

    latencies = [done_at[c] - submitted[c] for c in outcomes]
    if probes.tracer is not None:
        for c in outcomes:
            probes.tracer.add("request", submitted[c], done_at[c], rid=f"live:{c}")
    sent = len(due)
    layer = {
        "live.train_rounds_per_s": rounds / train_wall,
        "live.deferred_purges": float(session.registry.deferred_total),
        "live.round_ms_p50": 1e3 * median(np.diff(stamps)) if len(stamps) > 1 else 0.0,
        "service.commit_conflicts": float(
            sum(o.commit_conflicts for o in outcomes.values())),
        "service.merge_tail_rounds_mean": mean(
            o.commit_round - o.snapshot_watermark for o in outcomes.values()),
    }
    return Outcome(
        makespan=makespan,
        latencies=latencies,
        erasures_per_s=len(outcomes) / makespan,
        attempted=sent,
        failed=sent - len(outcomes),
        phases=[{"phase": "live", "sent": sent, "ok": len(outcomes), "shed": 0,
                 "deadline": 0, "error": errors + (sent - len(futures))}],
        layer=layer,
        checks={"final": final, "erased": list(erased), "outcomes": outcomes},
    )


# ----------------------------------------------------------------------
# archive_lifecycle
# ----------------------------------------------------------------------
def run_archive(world: World, seconds: float, probes: Probes, workdir: str) -> Outcome:
    """Ingest -> flush -> compact(cold) -> close/open -> erasures with
    prefetch on -> compact() reclaiming tombstones; plus an mmap layout
    built and opened over the same rows.  The erasures come in a fixed
    order of join ranks (see ``records.fixed_order``)."""
    rows: records.ArchiveRows = world.extra["rows"]
    rounds = world.extra["rounds"]
    tiered_dir = os.path.join(workdir, "tiered")
    mmap_dir = os.path.join(workdir, "mmap")
    hot_budget = ARCHIVE_HOT_BUDGET

    raw = TieredSignGradientStore(tiered_dir, delta=DELTA, hot_budget_bytes=hot_budget)
    store = probes.store(raw)
    put_seconds: List[float] = []
    row_count = 0
    hot_max = 0
    for t, updates in rows:
        start = _now()
        store.put_round(t, updates)
        put_seconds.append(_now() - start)
        row_count += len(updates)
        if t % 4 == 0:
            hot_max = max(hot_max, raw.tier_bytes()["hot"])
    start = _now()
    with probes.span("tiered.flush"):
        raw.flush()
    flush_s = _now() - start
    ingest_s = sum(put_seconds) + flush_s
    spill_count = raw.stats()["shards"]

    start = _now()
    with probes.span("tiered.compact"):
        raw.compact(cold_after=records.ARCHIVE_WARM_ROUNDS)
    compact_s = _now() - start
    raw.close()
    start = _now()
    with probes.span("tiered.open"):
        raw = TieredSignGradientStore.open(tiered_dir, hot_budget_bytes=hot_budget)
    open_s = _now() - start
    store = probes.store(raw)
    disk_bytes_per_row = raw.disk_bytes() / row_count
    cold_ratio = raw.cold_compression_ratio()

    # Untimed: the pristine in-memory copy the checks (and the mmap
    # build) need, read back through the reopened store.
    pristine = clone_record(rows.record(raw))
    reads_before = raw.stats()

    erased: List[int] = []
    service = make_service(rows.record(store), None, probes, erased,
                           prefetch_depth=ARCHIVE_PREFETCH)
    traced = probes.service(service, "archive")
    order = records.fixed_order(world.erasable, world.joins, 20)[:archive_erasures(seconds)]
    latencies: List[float] = []
    samples: List[Tuple[int, str]] = []
    for cid in order:
        start = _now()
        outcome = traced.handle_erasure_request(cid)
        done = _now()
        latencies.append(done - start)
        if probes.tracer is not None:
            probes.tracer.add("request", start, done, rid=f"archive:{cid}")
        samples.append((cid, sha(outcome.params)))
    erase_s = sum(latencies)
    cache = service.decode_cache
    cache_hit_rate = cache.hit_rate() if cache is not None else 0.0
    reads_after = raw.stats()
    service.drain_prefetch()

    start = _now()
    with probes.span("tiered.reclaim"):
        reclaimed = raw.compact()
    reclaim_s = _now() - start

    start = _now()
    with probes.span("mmap.build"):
        mapped = MmapSignGradientStore.from_store(pristine.gradients, mmap_dir)
    build_s = _now() - start
    start = _now()
    with probes.span("mmap.open"):
        mapped = MmapSignGradientStore.open(mmap_dir)
    mmap_open_s = _now() - start

    cold_hits = reads_after["cold_cache_hits"] - reads_before["cold_cache_hits"]
    cold_misses = reads_after["cold_cache_misses"] - reads_before["cold_cache_misses"]
    typical_put = median(put_seconds)
    maintenance_s = compact_s + open_s + reclaim_s
    layer = {
        "archive.ingest_rows_per_s": row_count / ingest_s,
        "archive.maintenance_s": maintenance_s,
        "archive.disk_bytes_per_row": disk_bytes_per_row,
        "tiered.spill_count": float(spill_count),
        # Estimate: put_round time above the typical (non-spilling) call.
        "tiered.spill_s": sum(max(0.0, s - typical_put) for s in put_seconds) + flush_s,
        "tiered.compact_s": compact_s,
        "tiered.open_s": open_s,
        "tiered.reclaim_s": reclaim_s,
        "tiered.cold_ratio": cold_ratio,
        "tiered.cold_cache_hit_rate": (
            cold_hits / (cold_hits + cold_misses) if cold_hits + cold_misses else 0.0),
        "tiered.hot_bytes_max": float(hot_max),
        "mmap.build_s": build_s,
        "mmap.open_ms": 1e3 * mmap_open_s,
        "prefetch.cache_hit_rate": cache_hit_rate,
    }
    checks = {
        "samples": samples, "erased": list(erased), "pristine": pristine,
        "tiered_dir": tiered_dir, "hot_budget": hot_budget, "rows": row_count,
        "reclaimed": reclaimed, "mapped_rows": len(mapped.items()),
        "record": rows.record(raw),
    }
    raw_ok = store_is_purged(rows.record(raw), erased)
    return Outcome(
        makespan=ingest_s + maintenance_s + erase_s + build_s + mmap_open_s,
        latencies=latencies,
        erasures_per_s=len(latencies) / erase_s,
        attempted=len(order),
        failed=0 if raw_ok else 1,
        phases=[{"phase": "erase", "sent": len(order), "ok": len(latencies),
                 "shed": 0, "deadline": 0, "error": 0}],
        layer=layer,
        checks=checks,
    )


def sizes(name: str, seconds: float, world: World) -> Dict[str, object]:
    """The work one run of ``name`` does at ``seconds`` (for the result
    file's sizes block)."""
    out: Dict[str, object] = {"cohort": world.cohort, "d": world.d}
    if name == "solo_replay":
        out.update(erasures=len(world.erasable) * max(1, round(seconds * SOLO_CYCLES_PER_S)),
                   rounds=world.record.num_rounds)
    elif name == "gdpr_ladder":
        out.update(rates_rps=[LADDER_RATE * 2 ** k for k in range(3)],
                   rung_seconds=[round(s * seconds, 3) for s in LADDER_SHARES],
                   burst=LADDER_BURST, bursts=ladder_bursts(seconds),
                   slo_s=LADDER_SLO_S, drain_s=LADDER_DRAIN_S,
                   workers=LADDER_WORKERS, rounds=world.record.num_rounds)
    elif name == "live_interleave":
        out.update(rounds=world.extra["rounds"], erasures=len(world.erasable),
                   join_gap=records.LIVE_GAP, lag=records.LIVE_LAG)
    else:
        out.update(rounds=world.extra["rounds"], erasures=archive_erasures(seconds),
                   replay_depths=list(records.ARCHIVE_DEPTHS),
                   cold_after=records.ARCHIVE_WARM_ROUNDS,
                   hot_budget_bytes=ARCHIVE_HOT_BUDGET, prefetch_depth=ARCHIVE_PREFETCH)
    return out


def ladder_bursts(seconds: float) -> int:
    """A burst is a fixed ~1.6 s of work; a smoke run affords one."""
    return LADDER_BURSTS if seconds >= 10 else 1


def archive_erasures(seconds: float) -> int:
    """Every erasable vehicle from 15 s up; a smoke run erases eight."""
    return min(records.ARCHIVE_ERASABLE, max(8, round(2.2 * seconds)))


def live_rounds(seconds: float) -> int:
    return max(60, round(seconds * LIVE_ROUNDS_PER_S))


def archive_rounds(seconds: float) -> int:
    return max(records.ARCHIVE_DEPTHS[1] + 8, round(seconds * ARCHIVE_ROUNDS_PER_S))
