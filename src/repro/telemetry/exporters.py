"""Telemetry exporters: JSONL events, CSV time-series, Prometheus text,
and a human-readable run summary.

Four views of the same data:

- :class:`JsonlSink` — the raw structured event log (one JSON object
  per line), written live during the run; :func:`read_events` loads it
  back and :func:`replay_events` rebuilds a registry from it, so the
  log is a lossless record of every instrument update.
- :func:`export_csv` — the events flattened to a spreadsheet-friendly
  time-series (``seq, t_s, event, name, kind, value, depth, labels``).
- :func:`export_prometheus` — a Prometheus text-format snapshot of the
  registry (``# HELP`` / ``# TYPE`` / sample lines, label values
  escaped per the exposition format).
- :func:`format_run_summary` — the human-readable digest printed at the
  end of instrumented runs.
"""

from __future__ import annotations

import csv
import json
import os
import threading
from typing import Dict, Iterable, List, Optional

from repro.telemetry.catalog import COUNTER, GAUGE, HISTOGRAM, METRICS
from repro.telemetry.registry import DEFAULT_BUCKETS, MetricsRegistry

__all__ = [
    "JsonlSink",
    "PrometheusFlusher",
    "export_csv",
    "export_prometheus",
    "format_run_summary",
    "read_events",
    "replay_events",
    "write_prometheus",
    "write_run_summary",
]


class JsonlSink:
    """Event sink appending one compact JSON object per line to ``path``.

    Parent directories are created.  The file handle is line-buffered
    via explicit flush on :meth:`close`; call :meth:`flush` mid-run if
    another process tails the log.
    """

    def __init__(self, path: str):
        self.path = path
        parent = os.path.dirname(path)
        if parent:
            os.makedirs(parent, exist_ok=True)
        self._fh = open(path, "w", encoding="utf-8")

    def write(self, event: Dict) -> None:
        """Append one event."""
        self._fh.write(json.dumps(event, separators=(",", ":")) + "\n")

    def close(self) -> None:
        """Flush and close the file (idempotent)."""
        if not self._fh.closed:
            self._fh.flush()
            self._fh.close()


def read_events(path: str) -> List[Dict]:
    """Load a JSONL event log back into a list of dicts."""
    events: List[Dict] = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line:
                events.append(json.loads(line))
    return events


def replay_events(
    events: Iterable[Dict], registry: Optional[MetricsRegistry] = None
) -> MetricsRegistry:
    """Rebuild a registry from an event stream.

    ``metric`` events re-apply their update by kind; ``span`` events
    feed their duration into the histogram of the span's name.  Other
    event types are ignored.  The result of replaying a complete log
    equals the live registry's state (the round-trip the tests assert).
    """
    registry = registry or MetricsRegistry()
    for event in events:
        kind = event.get("event")
        labels = event.get("labels") or None
        if kind == "metric":
            if event["kind"] == COUNTER:
                registry.inc(event["name"], event["value"], labels)
            elif event["kind"] == GAUGE:
                registry.set_gauge(event["name"], event["value"], labels)
            elif event["kind"] == HISTOGRAM:
                registry.observe(event["name"], event["value"], labels)
        elif kind == "span":
            registry.observe(event["name"], event["duration_s"], labels)
    return registry


def export_csv(events: Iterable[Dict], path: str) -> int:
    """Flatten an event stream to a CSV time-series; returns rows written.

    Columns: ``seq, t_s, event, name, kind, value, depth, labels``
    (labels as a JSON object string, empty for label-less metrics).
    """
    parent = os.path.dirname(path)
    if parent:
        os.makedirs(parent, exist_ok=True)
    rows = 0
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["seq", "t_s", "event", "name", "kind", "value", "depth", "labels"])
        for event in events:
            kind = event.get("event")
            if kind == "metric":
                value, metric_kind = event.get("value"), event.get("kind")
            elif kind == "span":
                value, metric_kind = event.get("duration_s"), HISTOGRAM
            else:
                value, metric_kind = "", ""
            labels = event.get("labels") or {}
            writer.writerow(
                [
                    event.get("seq", ""),
                    event.get("t_s", ""),
                    kind,
                    event.get("name", ""),
                    metric_kind,
                    value,
                    event.get("depth", ""),
                    json.dumps(labels, sort_keys=True) if labels else "",
                ]
            )
            rows += 1
    return rows


# ----------------------------------------------------------------------
# Prometheus text format
# ----------------------------------------------------------------------
def _escape_help(text: str) -> str:
    return text.replace("\\", "\\\\").replace("\n", "\\n")


def _escape_label_value(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _format_labels(labels: Dict[str, str], extra: Optional[Dict[str, str]] = None) -> str:
    merged = dict(labels)
    if extra:
        merged.update(extra)
    if not merged:
        return ""
    inner = ",".join(
        f'{k}="{_escape_label_value(str(v))}"' for k, v in sorted(merged.items())
    )
    return "{" + inner + "}"


def _format_number(value: float) -> str:
    if value == float("inf"):
        return "+Inf"
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


def export_prometheus(registry: MetricsRegistry) -> str:
    """Render every touched metric in Prometheus text exposition format."""
    lines: List[str] = []
    for name in registry.names_emitted():
        kind = registry.kind_of(name)
        spec = registry.catalog.get(name) or METRICS.get(name)
        if spec is not None:
            lines.append(f"# HELP {name} {_escape_help(spec.help)}")
        lines.append(f"# TYPE {name} {kind}")
        for labels, value in registry.series(name):
            if kind in (COUNTER, GAUGE):
                lines.append(f"{name}{_format_labels(labels)} {_format_number(value)}")
            else:  # histogram
                cumulative = value.cumulative_buckets()
                for bound, count in zip(DEFAULT_BUCKETS, cumulative):
                    le = _format_labels(labels, {"le": _format_number(bound)})
                    lines.append(f"{name}_bucket{le} {count}")
                le = _format_labels(labels, {"le": "+Inf"})
                lines.append(f"{name}_bucket{le} {value.count}")
                lines.append(f"{name}_sum{_format_labels(labels)} {repr(value.sum)}")
                lines.append(f"{name}_count{_format_labels(labels)} {value.count}")
    return "\n".join(lines) + ("\n" if lines else "")


def write_prometheus(registry: MetricsRegistry, path: str) -> None:
    """Write :func:`export_prometheus` output to ``path``."""
    parent = os.path.dirname(path)
    if parent:
        os.makedirs(parent, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(export_prometheus(registry))


class PrometheusFlusher:
    """Keep a Prometheus text file live for a long-running process.

    The batch runners export metrics once, at exit — useless for a
    daemon that serves for hours: a scrape mid-run would read a stale
    (or empty) snapshot.  The flusher rewrites ``path`` from the
    registry every ``interval_seconds`` on a background thread, and
    once more on :meth:`stop`, so the exported text always reflects the
    live counters (the parity the tests assert against the final run
    summary).  Each write lands atomically (temp file +
    ``os.replace``), so a concurrent scrape never reads a torn file.

    Parameters
    ----------
    registry:
        The live :class:`~repro.telemetry.registry.MetricsRegistry`.
    path:
        Destination Prometheus text file.
    interval_seconds:
        Delay between periodic flushes.
    """

    def __init__(
        self,
        registry: MetricsRegistry,
        path: str,
        interval_seconds: float = 1.0,
    ):
        if interval_seconds <= 0:
            raise ValueError("interval_seconds must be positive")
        self.registry = registry
        self.path = path
        self.interval_seconds = interval_seconds
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None
        #: Flushes written so far (mirrors ``telemetry_flushes_total``).
        self.flushes = 0

    def flush_now(self) -> None:
        """Write one atomic snapshot immediately."""
        self.registry.inc("telemetry_flushes_total", 1)
        self.flushes += 1
        parent = os.path.dirname(self.path)
        if parent:
            os.makedirs(parent, exist_ok=True)
        tmp = self.path + ".tmp"
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write(export_prometheus(self.registry))
        os.replace(tmp, self.path)

    def _loop(self) -> None:
        while not self._stop.wait(self.interval_seconds):
            self.flush_now()

    def start(self) -> "PrometheusFlusher":
        """Start the periodic background flush (idempotent)."""
        if self._thread is None or not self._thread.is_alive():
            self._stop.clear()
            self._thread = threading.Thread(target=self._loop, daemon=True)
            self._thread.start()
        return self

    def stop(self, final_flush: bool = True) -> None:
        """Stop the background thread; write one last snapshot by default."""
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=2.0)
            self._thread = None
        if final_flush:
            self.flush_now()


# ----------------------------------------------------------------------
# human-readable summary
# ----------------------------------------------------------------------
def _label_suffix(labels: Dict[str, str]) -> str:
    if not labels:
        return ""
    return "{" + ",".join(f"{k}={v}" for k, v in sorted(labels.items())) + "}"


def format_run_summary(registry: MetricsRegistry, title: str = "run summary") -> str:
    """Render the registry as the digest printed after instrumented runs.

    Counters and gauges print one line per series with their unit;
    histograms print count / mean / min / max / total.
    """
    lines = [f"== {title} ==" if title else ""]
    sections = [
        ("counters", COUNTER),
        ("gauges", GAUGE),
        ("histograms", HISTOGRAM),
    ]
    for section_title, kind in sections:
        names = [n for n in registry.names_emitted() if registry.kind_of(n) == kind]
        if not names:
            continue
        lines.append(f"{section_title}:")
        for name in names:
            spec = registry.catalog.get(name) or METRICS.get(name)
            unit = spec.unit if spec is not None else ""
            for labels, value in registry.series(name):
                tag = f"  {name}{_label_suffix(labels)}"
                if kind == HISTOGRAM:
                    lines.append(
                        f"{tag}  count={value.count} mean={value.mean:.6g} "
                        f"min={value.min if value.count else 0.0:.6g} "
                        f"max={value.max if value.count else 0.0:.6g} "
                        f"total={value.sum:.6g} {unit}"
                    )
                else:
                    lines.append(f"{tag}  {value:.6g} {unit}")
    return "\n".join(line for line in lines if line)


def write_run_summary(
    registry: MetricsRegistry, path: str, title: str = "run summary"
) -> None:
    """Write :func:`format_run_summary` output to ``path``."""
    parent = os.path.dirname(path)
    if parent:
        os.makedirs(parent, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_run_summary(registry, title) + "\n")
