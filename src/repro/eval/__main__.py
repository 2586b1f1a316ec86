"""Command-line entry point: ``python -m repro.eval <experiment>``.

Examples
--------
::

    python -m repro.eval table1 --scale ci
    python -m repro.eval fig2 --scale smoke --seed 7
    python -m repro.eval all --out results/
    python -m repro.eval storage --telemetry-dir telemetry/

``--workers 4`` splits each training round's cohort pass across four
threads — results are bitwise identical to the default one-pass run;
only wall time changes.  The option is training-only: recovery replay
runs one stacked kernel per replay node.  ``--workers``, ``--store``
and ``--prefetch-depth`` reach the runners as
:class:`~repro.eval.config.ExperimentConfig` fields (``train_workers``,
``sign_backend``, ``prefetch_depth``); only the flags given are passed,
so the rest keep the config's defaults.

With ``--telemetry-dir`` the run is instrumented end to end: a JSONL
event log (``events.jsonl``), a Prometheus text snapshot
(``metrics.prom``), a CSV time-series (``metrics.csv``), and a
human-readable run summary (``summary.txt``) land in the directory, and
the summary is printed.  Every metric is documented in
``docs/METRICS.md``.

The ``fuiov`` console script (installed by the package) is an alias.
"""

from __future__ import annotations

import argparse
import os
import sys

from repro.eval.config import available_scales
from repro.eval.experiments import EXPERIMENT_RUNNERS
from repro.eval.reporting import format_result
from repro.storage import SIGN_BACKENDS
from repro.telemetry import (
    JsonlSink,
    Telemetry,
    export_csv,
    format_run_summary,
    read_events,
    set_telemetry,
    write_prometheus,
    write_run_summary,
)
from repro.utils.logging import configure
from repro.utils.serialization import save_json

__all__ = ["main"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.eval",
        description="Reproduce the paper's tables and figures.",
    )
    parser.add_argument(
        "experiment",
        choices=sorted(EXPERIMENT_RUNNERS) + ["all"],
        help="which table/figure/ablation to run ('all' runs everything)",
    )
    parser.add_argument(
        "--scale",
        choices=available_scales(),
        default=None,
        help="scale profile (default: REPRO_SCALE env var or 'ci')",
    )
    parser.add_argument("--seed", type=int, default=2024)
    parser.add_argument(
        "--out",
        default=None,
        help="directory to write <experiment>.json result records into",
    )
    parser.add_argument(
        "--telemetry-dir",
        default=None,
        help="enable telemetry and write events.jsonl / metrics.prom / "
        "metrics.csv / summary.txt into this directory "
        "(metric contract: docs/METRICS.md)",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=None,
        help="threads splitting each training round's cohort pass, training "
        "only (default: 1; results are bitwise identical at every count)",
    )
    parser.add_argument(
        "--store",
        choices=list(SIGN_BACKENDS),
        default=None,
        help="sign-store backend for unlearning runs: 'dict' (in-memory, "
        "default), or the on-disk layout read-only ('mmap') or appendable "
        "('tiered': hot/warm/cold tiers, bounded memory, compressed cold "
        "rounds); recovered models are bitwise identical across backends",
    )
    parser.add_argument(
        "--prefetch-depth",
        type=int,
        default=None,
        help="replay data-path look-ahead: decode this many rounds ahead on "
        "a background thread while recovery computes (default: 0, the "
        "synchronous path); recovered models are bitwise identical at "
        "every depth",
    )
    parser.add_argument("--quiet", action="store_true", help="suppress progress logs")
    args = parser.parse_args(argv)
    # Usage errors (exit 2) rather than a traceback from the config.
    if args.workers is not None and args.workers < 1:
        parser.error(f"--workers must be at least 1, got {args.workers}")
    if args.prefetch_depth is not None and args.prefetch_depth < 0:
        parser.error(
            f"--prefetch-depth must be at least 0, got {args.prefetch_depth}"
        )

    if not args.quiet:
        configure()

    flags = {
        "train_workers": args.workers,
        "sign_backend": args.store,
        "prefetch_depth": args.prefetch_depth,
    }
    overrides = {field: value for field, value in flags.items() if value is not None}

    telemetry = None
    previous = None
    events_path = None
    if args.telemetry_dir:
        os.makedirs(args.telemetry_dir, exist_ok=True)
        events_path = os.path.join(args.telemetry_dir, "events.jsonl")
        telemetry = Telemetry(sinks=[JsonlSink(events_path)])
        previous = set_telemetry(telemetry)

    names = sorted(EXPERIMENT_RUNNERS) if args.experiment == "all" else [args.experiment]
    try:
        for name in names:
            if telemetry is not None:
                telemetry.emit_event("experiment_start", experiment=name)
            runner = EXPERIMENT_RUNNERS[name]
            result = runner(scale=args.scale, seed=args.seed, **overrides)
            print(format_result(result))
            print()
            if args.out:
                path = os.path.join(args.out, f"{name}.json")
                save_json(path, result)
                print(f"[saved {path}]")
    finally:
        if telemetry is not None:
            set_telemetry(previous)
            telemetry.close()
            write_prometheus(
                telemetry.registry, os.path.join(args.telemetry_dir, "metrics.prom")
            )
            export_csv(
                read_events(events_path),
                os.path.join(args.telemetry_dir, "metrics.csv"),
            )
            write_run_summary(
                telemetry.registry, os.path.join(args.telemetry_dir, "summary.txt")
            )
            print(format_run_summary(telemetry.registry))
            print(f"[telemetry written to {args.telemetry_dir}]")
    return 0


if __name__ == "__main__":
    sys.exit(main())
