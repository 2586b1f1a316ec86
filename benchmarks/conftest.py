"""Benchmark fixtures.

Experiment benchmarks run each table/figure regeneration exactly once
(``benchmark.pedantic(rounds=1)``) — the measured quantity is the
wall-clock cost of reproducing that artifact at the selected scale —
and write the result record to ``benchmarks/results/<name>.json`` so
EXPERIMENTS.md can be refreshed from the same source.  Runs at any
other scale than the default write to the git-ignored
``benchmarks/out/<scale>/`` instead, so a smoke pass never rewrites the
tracked records.

The whole benchmark session runs with telemetry enabled (registry
only, no event sinks), and every saved record embeds the registry
snapshot under a ``telemetry`` key — so each ``results/*.json`` gains
a stable metrics schema (``counters`` / ``gauges`` / ``histograms``,
names documented in ``docs/METRICS.md``).  The snapshot is cumulative
across the session: a record reflects every run up to its save point.

Scale: ``REPRO_SCALE`` env var; defaults to ``ci`` (minutes for the
whole suite).  Use ``REPRO_SCALE=smoke`` for a fast sanity pass or
``REPRO_SCALE=paper`` for the full n=100/CNN setting.
"""

from __future__ import annotations

import os

import pytest

from repro.eval.config import current_scale
from repro.telemetry import Telemetry, set_telemetry
from repro.utils.serialization import save_json

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")
DEFAULT_SCALE = "ci"


@pytest.fixture(scope="session")
def scale() -> str:
    return current_scale(default=DEFAULT_SCALE)


@pytest.fixture(scope="session", autouse=True)
def telemetry():
    """Session-wide metrics aggregation for every benchmark run."""
    instance = Telemetry()
    previous = set_telemetry(instance)
    yield instance
    set_telemetry(previous)


@pytest.fixture(scope="session")
def save_result(telemetry, scale):
    """Writer for experiment result records (telemetry snapshot attached)."""
    directory = RESULTS_DIR
    if scale != DEFAULT_SCALE:
        directory = os.path.join(os.path.dirname(__file__), "out", scale)

    def _save(name: str, record: dict) -> None:
        record = dict(record)
        record["telemetry"] = telemetry.registry.snapshot()
        save_json(os.path.join(directory, f"{name}.json"), record)

    return _save
