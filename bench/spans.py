"""Span recorder and the proxies that time each layer from outside.

Nothing under ``src/`` is instrumented.  Every span here is recorded by
a proxy standing at a boundary the public API already lets a caller
occupy: a store proxy as ``TrainingRecord.gradients``, a forest proxy
as ``UnlearningService(_prefix_cache=...)``, a service proxy handed to
``ErasureDaemon``, a session proxy handed to ``bind_live``, and the
replay loop's ``cancel_check`` hook, which fires between rounds and so
marks round boundaries.

Span tree of one request::

    request -> queue_wait
            -> service.erase -> forest.lookup
                             -> replay.seed   (lookup end -> first round)
                             -> replay.round  (tick -> next tick) -> store.get_round / store.get
                             -> forest.store
                             -> store.drop_client
                             -> live.pin_snapshot / live.commit_gate

Spans are kept in memory and written as JSON lines when the run ends.
A span's self time is its duration minus its children's.
"""

from __future__ import annotations

import json
import threading
import time
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Optional, Sequence

from metrics import mean, median

_now = time.perf_counter

ROUND = "replay.round"
SEED = "replay.seed"


class Span:
    __slots__ = ("id", "name", "start", "end", "parent", "rid", "n", "arg")

    def __init__(self, id: int, name: str, start: float, parent: Optional[int],
                 rid: Optional[str]):
        self.id = id
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.rid = rid
        self.n = 0  # work count at this boundary (rows, rounds, width)
        self.arg = -1  # round index, where the call has one

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory span log with one open-span stack per thread."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._tls = threading.local()
        self._lock = threading.Lock()

    # -- per-thread state ------------------------------------------------
    def _stack(self) -> List[Span]:
        stack = getattr(self._tls, "stack", None)
        if stack is None:
            stack = self._tls.stack = []
            self._tls.rid = None
        return stack

    def set_request(self, rid: Optional[str]) -> None:
        self._stack()
        self._tls.rid = rid

    def top(self) -> Optional[Span]:
        stack = self._stack()
        return stack[-1] if stack else None

    # -- recording -------------------------------------------------------
    def begin(self, name: str, start: Optional[float] = None) -> Span:
        stack = self._stack()
        parent = stack[-1].id if stack else None
        with self._lock:
            span = Span(len(self.spans), name, 0.0, parent, self._tls.rid)
            self.spans.append(span)
        stack.append(span)
        span.start = span.end = _now() if start is None else start
        return span

    def end(self, span: Span, at: Optional[float] = None) -> None:
        span.end = _now() if at is None else at
        stack = self._stack()
        while stack and stack.pop() is not span:
            pass

    def end_if_top(self, names: Sequence[str], at: Optional[float] = None) -> None:
        top = self.top()
        if top is not None and top.name in names:
            self.end(top, at)

    @contextmanager
    def span(self, name: str) -> Iterator[Span]:
        span = self.begin(name)
        try:
            yield span
        finally:
            self.end(span)

    def add(self, name: str, start: float, end: float, rid: Optional[str] = None,
            parent: Optional[int] = None, n: int = 0) -> Span:
        """Record a finished span whose bounds were measured elsewhere."""
        with self._lock:
            span = Span(len(self.spans), name, start, parent, rid)
            self.spans.append(span)
        span.end = end
        span.n = n
        return span

    # -- analysis --------------------------------------------------------
    def self_seconds(self) -> Dict[int, float]:
        """Span id -> duration minus the part its children cover."""
        out = {s.id: s.seconds for s in self.spans}
        for s in self.spans:
            if s.parent is not None:
                out[s.parent] -= s.seconds
        return out

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps({
                    "id": s.id, "name": s.name, "start": s.start, "end": s.end,
                    "parent": s.parent, "request": s.rid, "n": s.n, "arg": s.arg,
                }) + "\n")


# ----------------------------------------------------------------------
# proxies
# ----------------------------------------------------------------------
class StoreProxy:
    """Times the gradient-store calls replay, training and purge make.

    ``supports_bulk_round`` is read from the wrapped store so the replay
    loop takes the same read path it would without the proxy.
    """

    def __init__(self, inner, tracer: Tracer):
        self._inner = inner
        self._tracer = tracer
        self.supports_bulk_round = getattr(inner, "supports_bulk_round", False)

    def get_round(self, t):
        span = self._tracer.begin("store.get_round")
        span.arg = t
        try:
            out = self._inner.get_round(t)
            span.n = len(out)
            return out
        finally:
            self._tracer.end(span)

    def get(self, t, cid):
        span = self._tracer.begin("store.get")
        try:
            return self._inner.get(t, cid)
        finally:
            self._tracer.end(span)

    def put_round(self, t, updates):
        span = self._tracer.begin("store.put_round")
        span.n = len(updates)
        try:
            return self._inner.put_round(t, updates)
        finally:
            self._tracer.end(span)

    def drop_client(self, cid):
        span = self._tracer.begin("store.drop_client")
        try:
            span.n = self._inner.drop_client(cid)
            return span.n
        finally:
            self._tracer.end(span)

    def __getattr__(self, name):
        return getattr(self._inner, name)


class ForestProxy:
    """Times ``ReplayForest.lookup``/``store`` and opens/closes the
    ``replay.seed`` span they bracket."""

    def __init__(self, inner, probes: "Probes"):
        self._inner = inner
        self._tracer = probes.tracer
        self._probes = probes

    def lookup(self, record, base_key, forget, forget_round):
        tracer = self._tracer
        span = tracer.begin("forest.lookup")
        try:
            hit = self._inner.lookup(record, base_key, forget, forget_round)
        finally:
            tracer.end(span)
        self._probes.hit_depths.append(hit[0] - forget_round if hit is not None else 0)
        top = tracer.top()
        if top is None or top.name != SEED:
            tracer.begin(SEED)
        return hit

    def store(self, record, base_key, forget, forget_round, snapshots):
        tracer = self._tracer
        if record.num_rounds in snapshots:
            # The final commit: the last replayed round ended just now.
            tracer.end_if_top((ROUND, SEED))
        span = tracer.begin("forest.store")
        span.n = len(snapshots)
        try:
            return self._inner.store(record, base_key, forget, forget_round, snapshots)
        finally:
            tracer.end(span)
            probes = self._probes
            probes.forest_nodes = max(probes.forest_nodes, self._inner.node_count)

    def __len__(self):
        return len(self._inner)

    def __getattr__(self, name):
        return getattr(self._inner, name)


def round_tick(tracer: Tracer) -> Callable[[], None]:
    """A ``cancel_check`` that never cancels: each call closes the open
    ``replay.seed``/``replay.round`` span and opens the next round's.

    The prefetcher polls the same hook from its decode threads; those
    have no open span and are not round boundaries, so they are ignored.
    """

    def tick() -> None:
        if tracer.top() is None:
            return
        now = _now()
        tracer.end_if_top((ROUND, SEED), now)
        tracer.begin(ROUND, now)

    return tick


class ServiceProxy:
    """Wraps ``UnlearningService`` for the daemon (or a direct caller):
    one ``service.erase`` span per call, the round tick installed as the
    call's ``cancel_check``."""

    def __init__(self, inner, probes: "Probes", phase: str = ""):
        object.__setattr__(self, "_inner", inner)
        object.__setattr__(self, "_tracer", probes.tracer)
        object.__setattr__(self, "_tick", round_tick(probes.tracer))
        object.__setattr__(self, "phase", phase)
        object.__setattr__(self, "_fused_stats", probes.fused_stats)

    def _call(self, rid: str, width: int, fn):
        tracer = self._tracer
        tracer.set_request(rid)
        span = tracer.begin("service.erase")
        span.n = width
        try:
            return fn()
        finally:
            tracer.end(span)
            tracer.set_request(None)

    def handle_erasure_request(self, client_id, cancel_check=None):
        return self._call(
            f"{self.phase}:{client_id}", 1,
            lambda: self._inner.handle_erasure_request(client_id, cancel_check=self._tick),
        )

    def handle_erasure_batch_fused(self, client_ids, cancel_checks=None):
        ids = list(client_ids)
        # One tick per tree round: the first member stays in some node
        # until the last round, so its check alone marks every boundary.
        checks = [self._tick] + [None] * (len(ids) - 1)

        def run():
            report = self._inner.handle_erasure_batch_fused(ids, cancel_checks=checks)
            if report.stats is not None:
                self._fused_stats.append(report.stats)
            return report

        return self._call(f"{self.phase}:{ids[0]}+{len(ids) - 1}", len(ids), run)

    def __getattr__(self, name):
        return getattr(self._inner, name)

    def __setattr__(self, name, value):
        setattr(self._inner, name, value)


class SessionProxy:
    """Times ``LiveTrainingSession.pin_snapshot`` and ``commit_gate``
    (wait for the train gate, then the hold) as the service calls them."""

    def __init__(self, inner, tracer: Tracer):
        self._inner = inner
        self._tracer = tracer

    def pin_snapshot(self):
        span = self._tracer.begin("live.pin_snapshot")
        try:
            return self._inner.pin_snapshot()
        finally:
            self._tracer.end(span)

    @contextmanager
    def commit_gate(self):
        wait = self._tracer.begin("live.gate_wait")
        with self._inner.commit_gate() as commit_round:
            self._tracer.end(wait)
            hold = self._tracer.begin("live.commit_gate")
            try:
                yield commit_round
            finally:
                self._tracer.end(hold)

    def __getattr__(self, name):
        return getattr(self._inner, name)


class Probes:
    """Hands out the proxies when tracing and the bare objects when not,
    so a workload is written once for both runs."""

    def __init__(self, tracer: Optional[Tracer]):
        self.tracer = tracer
        # What the proxies count.  Kept here, not on the proxies: holding
        # a proxy would keep its service, record clone and forest alive
        # for the whole run, and the traced pass would then time page
        # faults the untraced pass never takes.
        self.hit_depths: List[int] = []
        self.fused_stats: List[object] = []
        self.forest_nodes = 0

    def store(self, inner):
        return inner if self.tracer is None else StoreProxy(inner, self.tracer)

    def forest(self):
        """Value for ``UnlearningService(_prefix_cache=...)``; ``None``
        lets the service build its own."""
        if self.tracer is None:
            return None
        from repro.unlearning import ReplayForest

        return ForestProxy(ReplayForest(), self)

    def service(self, inner, phase: str):
        if self.tracer is None:
            return inner
        return ServiceProxy(inner, self, phase)

    def session(self, inner):
        return inner if self.tracer is None else SessionProxy(inner, self.tracer)

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        if self.tracer is None:
            yield
        else:
            with self.tracer.span(name):
                yield


# ----------------------------------------------------------------------
# span log -> per-layer numbers
# ----------------------------------------------------------------------
def summarise(probes: Probes, num_rounds: Optional[int] = None,
              ladder_workers: int = 1) -> Dict[str, float]:
    """Per-layer metrics that come from the span log alone.

    ``num_rounds`` (the record's length) lets prefetched reads, which
    run on pool threads and so carry no request, be matched to the
    replay round that consumed them: the last ``replay.round`` of a
    request is always round ``num_rounds - 1``.
    """
    tracer = probes.tracer
    spans = tracer.spans
    own = tracer.self_seconds()
    by_name: Dict[str, List[Span]] = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)

    def dur(name: str) -> List[float]:
        return [s.seconds for s in by_name.get(name, ())]

    erases = by_name.get("service.erase", [])
    rounds = by_name.get(ROUND, [])
    erase_seconds = sum(s.seconds for s in erases)
    round_self = [own[s.id] for s in rounds]
    tickets = sum(max(1, s.n) for s in erases)
    reads = by_name.get("store.get_round", []) + by_name.get("store.get", [])
    read_seconds = sum(s.seconds for s in reads)

    width = {s.id: s.n for s in erases}
    single_rounds = sum(1 for s in rounds if width.get(s.parent, 1) <= 1)
    fused = probes.fused_stats
    node_rounds = single_rounds + sum(st.executed_node_rounds for st in fused)
    member_rounds = single_rounds + sum(st.member_rounds for st in fused)

    def phase(prefix: str) -> List[Span]:
        return [s for s in erases if s.rid is not None and s.rid.startswith(prefix)]

    rung_2r = phase("rung_2r:")
    requests_2r = [s for s in by_name.get("request", ())
                   if s.rid is not None and s.rid.startswith("rung_2r:")]
    span_2r = (max(s.end for s in requests_2r) - min(s.start for s in requests_2r)
               if requests_2r else 0.0)

    depths = probes.hit_depths
    out = {
        "service.erase_self_ms": 1e3 * median(own[s.id] for s in erases),
        "service.purge_ms": 1e3 * median(dur("store.drop_client")),
        "replay.member_rounds": float(member_rounds),
        "replay.node_rounds": float(node_rounds),
        "replay.shared_ratio": 1.0 - node_rounds / member_rounds if member_rounds else 0.0,
        "replay.round_ms_p50": 1e3 * median(s.seconds for s in rounds),
        "replay.round_self_ms": 1e3 * median(round_self),
        "replay.round_share": sum(round_self) / erase_seconds if erase_seconds else 0.0,
        "replay.seed_ms": 1e3 * median(dur(SEED)),
        "forest.lookup_us": 1e6 * median(dur("forest.lookup")),
        "forest.store_ms": 1e3 * median(dur("forest.store")),
        "forest.hit_depth_mean": mean(depths),
        "forest.nodes": float(probes.forest_nodes),
        "store.read_ms_per_request": 1e3 * read_seconds / tickets if tickets else 0.0,
        "store.read_share": read_seconds / erase_seconds if erase_seconds else 0.0,
        "serving.fused_width_mean": mean(s.n for s in phase("burst_")),
        "serving.rung_width_mean": mean(s.n for s in phase("rung_")),
        "serving.utilisation_2r": (
            sum(s.seconds for s in rung_2r) / (span_2r * ladder_workers)
            if span_2r else 0.0),
        "live.pin_snapshot_ms": 1e3 * median(dur("live.pin_snapshot")),
        "live.gate_wait_ms": 1e3 * median(dur("live.gate_wait")),
        "live.gate_hold_ms": 1e3 * median(dur("live.commit_gate")),
        "prefetch.fetch_wait_ms": 0.0,
        "trace.spans": float(len(spans)),
    }

    background = [s for s in by_name.get("store.get_round", ()) if s.rid is None]
    if background and num_rounds is not None and erases:
        # Estimate: a round waited for its prefetched decode from its
        # tick until that decode finished (if it had not already).
        decodes: Dict[int, List[Span]] = {}
        for s in background:
            decodes.setdefault(s.arg, []).append(s)
        children: Dict[int, List[Span]] = {}
        for s in rounds:
            children.setdefault(s.parent, []).append(s)
        waits = []
        for erase in erases:
            mine = sorted(children.get(erase.id, ()), key=lambda s: s.start)
            wait = 0.0
            for k, rs in enumerate(mine):
                t = num_rounds - len(mine) + k
                for g in decodes.get(t, ()):
                    if erase.start <= g.start and g.end <= erase.end and g.end > rs.start:
                        wait += min(g.end, rs.end) - max(g.start, rs.start)
            waits.append(wait)
        out["prefetch.fetch_wait_ms"] = 1e3 * median(waits)

    storage = [s for s in spans if s.name.startswith(("store.", "tiered.", "mmap."))]
    out["_storage_seconds"] = sum(own[s.id] for s in storage)
    out["_round_self_seconds"] = sum(round_self)
    out["_rounds"] = float(len(rounds))
    out["_rows_read"] = float(sum(s.n for s in by_name.get("store.get_round", ())))
    return out
