#!/usr/bin/env python3
"""The erasure ledger's one command.

Driver form — one workload, one seed, one run::

    python3 bench/run.py --workload solo_replay --seed 0 --seconds 15 --trace 0

builds the workload's inputs from the seed (five times; the median is
``setup_s``), runs it, checks its outputs, and prints every metric by
name with its unit.  The last line of standard output is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``: with
``--trace 0`` the end-to-end metrics of an untraced run, with
``--trace 1`` the per-layer metrics of a traced run (an untraced pass
precedes it in the same process, so ``trace.overhead_share`` compares
like with like).

Suite form — ``python3 bench/run.py [--seed N] [--smoke] [--aa]`` —
runs every workload, each invocation in its own subprocess so
``peak_rss_mib`` is that workload's own.  ``--aa`` runs the untraced
suite twice over ``--runs`` seeds and prints each metric's spread and
the difference between the two medians beside its bound.

Must be started from a checkout that holds ``src/repro``; anywhere else
it exits non-zero without printing a result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import time

# One BLAS thread: the workloads already run a trainer or two daemon
# workers beside the load thread on two cores, and with OpenBLAS's
# default pool the same replay's median moved 8 % between processes
# (1 % pinned).  Must be set before numpy is imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
SETUPS = 5
DEFAULT_SECONDS = 15.0
SMOKE_SECONDS = 1.5


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="run one workload (driver form)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help=f"timed work per run (default {DEFAULT_SECONDS:g})")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setups", type=int, default=SETUPS,
                        help="times the inputs are built; setup_s is the median")
    parser.add_argument("--smoke", action="store_true",
                        help=f"suite at {SMOKE_SECONDS:g} s per workload, one set-up")
    parser.add_argument("--aa", action="store_true",
                        help="two untraced suites over --runs seeds, compared")
    parser.add_argument("--runs", type=int, default=10)
    return parser.parse_args(argv)


# ----------------------------------------------------------------------
# driver form
# ----------------------------------------------------------------------
def git_sha() -> str:
    """HEAD's commit, read from ``.git`` without starting a process
    ("unknown" in a checkout that is not a repository)."""
    try:
        with open(os.path.join(ROOT, ".git", "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head[:12]
        ref = head[5:]
        path = os.path.join(ROOT, ".git", ref)
        if os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                return fh.read().strip()[:12]
        with open(os.path.join(ROOT, ".git", "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.strip().endswith(ref):
                    return line.split()[0][:12]
    except OSError:
        pass
    return "unknown"


def environment(seed: int, seconds: float) -> dict:
    import numpy

    blas = {}
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy builds differ in what they expose
        pass
    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "threads": {v: os.environ.get(v) for v in
                    ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "seed": seed,
        "seconds": seconds,
        "git_sha": git_sha(),
    }


def build_world(name: str, seed: int, seconds: float, probes):
    """The workload's inputs.  Only the live simulation needs ``probes``
    here: it writes its store while training, so a store proxy has to be
    in place before the first round; everything else wraps clones at
    run time."""
    import records
    import workloads
    from repro.storage import SignGradientStore

    if name == "solo_replay":
        return records.solo_world(seed)
    if name == "gdpr_ladder":
        return records.ladder_world(seed)
    if name == "live_interleave":
        return records.live_world(
            seed, workloads.live_rounds(seconds),
            store=probes.store(SignGradientStore(delta=records.DELTA)))
    return records.archive_world(seed, workloads.archive_rounds(seconds))


def timed_setup(name: str, seed: int, seconds: float, times: int):
    import spans
    from metrics import median

    plain = spans.Probes(None)
    samples = []
    world = None
    for _ in range(max(1, times)):
        start = time.perf_counter()
        world = build_world(name, seed, seconds, plain)
        samples.append(time.perf_counter() - start)
    return world, median(samples)


def run_once(name: str, world, seed: int, seconds: float, probes, workdir: str):
    import workloads

    if name == "solo_replay":
        return workloads.run_solo(world, seconds, probes)
    if name == "gdpr_ladder":
        return workloads.run_ladder(world, seconds, probes)
    if name == "live_interleave":
        return workloads.run_live(world, seconds, probes)
    return workloads.run_archive(world, seconds, probes, workdir)


def micro_sim_factory(name: str, seed: int, seconds: float):
    import records
    import workloads

    if name == "solo_replay":
        joins = {c: 4 for c in range(4, 16)}
        return lambda: records.make_simulation(seed, 4, joins, 28, 32, 16)[0]
    if name == "gdpr_ladder":
        joins = {c: 1 for c in range(8, 128)}
        return lambda: records.make_simulation(seed, 8, joins, 8, 8, 8)[0]
    if name == "live_interleave":
        rounds = workloads.live_rounds(seconds)
        return lambda: records.live_simulation(seed, rounds)[0]
    return None


def end_to_end(name: str, outcome, setup_s: float, rss_mib: float) -> dict:
    import workloads
    from metrics import median, percentile

    return {
        "setup_s": setup_s,
        "makespan_s": outcome.makespan,
        "erase_latency_p50_ms": 1e3 * median(outcome.latencies),
        "erase_latency_tail_ms": 1e3 * percentile(
            outcome.latencies, workloads.TAIL_PCT[name]),
        "erasures_per_s": outcome.erasures_per_s,
        "peak_rss_mib": rss_mib,
    }


def per_layer(name: str, seed: int, seconds: float, world, untraced, traced, probes,
              num_rounds, workdir: str) -> dict:
    import micro
    import spans
    import workloads
    from metrics import PER_LAYER

    values = {key: 0.0 for key in PER_LAYER}
    derived = spans.summarise(probes, num_rounds, workloads.LADDER_WORKERS)
    values.update({k: v for k, v in derived.items() if k in values})
    values.update({k: v for k, v in traced.layer.items() if k in values})
    values.update(micro.run_micro(seed, world.cohort, world.d, workdir,
                                  micro_sim_factory(name, seed, seconds)))
    # Kernel shares of the replay round: call counts from the span log
    # times the isolated unit cost — estimates, not measurements.
    round_self = derived["_round_self_seconds"]
    if round_self > 0:
        values["replay.est_share.hvp"] = (
            derived["_rows_read"] * values["estimator.estimate_us"] * 1e-6 / round_self)
        values["replay.est_share.fedavg"] = (
            derived["_rounds"] * values["aggregation.fedavg_us"] * 1e-6 / round_self)
        values["replay.est_share.step"] = (
            derived["_rounds"] * values["optim.step_us"] * 1e-6 / round_self)
    if name == "archive_lifecycle":
        values["archive.storage_share"] = derived["_storage_seconds"] / traced.makespan
    values["trace.overhead_share"] = traced.makespan / untraced.makespan - 1.0
    return values


def drive(args: argparse.Namespace) -> int:
    source = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(source, "repro")):
        # Never fall back to a copy of the program installed elsewhere.
        print(f"bench: no program to measure: {source}/repro is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, source)
    try:
        import repro  # noqa: F401  (the program under test)
        import spans
        import verify
        import workloads
        from metrics import END_TO_END, PER_LAYER
    except ImportError as exc:
        print(f"bench: cannot import the program under test: {exc}", file=sys.stderr)
        return 2
    name = args.workload
    if name not in workloads.WORKLOADS:
        print(f"bench: unknown workload {name!r}; one of {workloads.WORKLOADS}",
              file=sys.stderr)
        return 2
    seconds = args.seconds if args.seconds is not None else DEFAULT_SECONDS
    os.makedirs(OUT, exist_ok=True)
    workdir = os.path.join(OUT, f"work_{name}_{os.getpid()}")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    try:
        world, setup_s = timed_setup(name, args.seed, seconds, args.setups)
        plain = spans.Probes(None)
        untraced = run_once(name, world, args.seed, seconds, plain,
                            os.path.join(workdir, "untraced"))
        rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        mismatches = verify.verify(name, world, untraced, args.seed)
        outcome = untraced
        tables = [(END_TO_END, end_to_end(name, untraced, setup_s, rss_mib))]
        if args.trace:
            probes = spans.Probes(spans.Tracer())
            traced_world = build_world(name, args.seed, seconds, probes)
            outcome = run_once(name, traced_world, args.seed, seconds, probes,
                               os.path.join(workdir, "traced"))
            mismatches += verify.verify(name, traced_world, outcome, args.seed)
            num_rounds = (workloads.archive_rounds(seconds)
                          if name == "archive_lifecycle" else None)
            tables.append((PER_LAYER, per_layer(
                name, args.seed, seconds, traced_world, untraced, outcome, probes,
                num_rounds, workdir)))
            probes.tracer.write(os.path.join(OUT, f"trace_{name}.jsonl"))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    # The result line carries one table: end-to-end from the untraced
    # run, or per-layer from the traced one.  Both are printed by name.
    catalogue, values = tables[-1]
    failed = outcome.failed + mismatches
    result = {
        "correct": mismatches == 0,
        "attempted": outcome.attempted,
        "failed": failed,
        "metrics": {k: {"value": values[k], "unit": catalogue[k][0]} for k in catalogue},
    }
    report = dict(result)
    report.update({
        "workload": name,
        "trace": args.trace,
        "environment": environment(args.seed, seconds),
        "sizes": workloads.sizes(name, seconds, world),
        "phases": outcome.phases,
        "samples": {"latencies": len(outcome.latencies),
                    "tail_percentile": workloads.TAIL_PCT[name],
                    "setups": args.setups},
        "failed_share": failed / max(1, outcome.attempted),
        "verification_mismatches": mismatches,
    })
    with open(os.path.join(OUT, f"result_{name}_trace{args.trace}.json"), "w",
              encoding="utf-8") as fh:
        json.dump(report, fh, indent=1, sort_keys=True)

    print(f"# {name}  seed={args.seed}  seconds={seconds:g}  trace={args.trace}  "
          f"samples={len(outcome.latencies)}")
    for phase in outcome.phases:
        print("#   " + "  ".join(f"{k}={v}" for k, v in phase.items()))
    for names, table in tables:
        for key in names:
            print(f"{key:42s} {table[key]:16.6f} {names[key][0]}")
    print(f"# attempted={outcome.attempted} failed={failed} "
          f"verification_mismatches={mismatches}")
    print(json.dumps(result))
    return 0 if mismatches == 0 else 1


# ----------------------------------------------------------------------
# suite form
# ----------------------------------------------------------------------
def invoke(name: str, seed: int, seconds: float, trace: int, setups: int) -> dict:
    """One driver-form run in its own process; returns its result line."""
    command = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
               "--setups", str(setups)]
    done = subprocess.run(command, stdout=subprocess.PIPE, text=True, cwd=ROOT,
                          timeout=600)
    lines = [line for line in done.stdout.splitlines() if line.strip()]
    if not lines:
        raise RuntimeError(f"{name}: no output (exit {done.returncode})")
    sys.stdout.write("\n".join(lines[:-1]) + "\n")
    result = json.loads(lines[-1])
    result["exit"] = done.returncode
    return result


def suite(args: argparse.Namespace) -> int:
    sys.path.insert(0, HERE)
    from metrics import END_TO_END, WORKLOADS, spread

    seconds = args.seconds if args.seconds is not None else (
        SMOKE_SECONDS if args.smoke else DEFAULT_SECONDS)
    setups = 1 if args.smoke else args.setups
    status = 0
    if not args.aa:
        for name in WORKLOADS:
            # A traced invocation runs untraced first and prints both tables.
            result = invoke(name, args.seed, seconds, 1, setups)
            status = max(status, result["exit"])
        return status

    import statistics

    medians = []
    for half in (0, 1):
        table = {}
        for name in WORKLOADS:
            runs = [invoke(name, args.seed + half * args.runs + i, seconds, 0, setups)
                    for i in range(args.runs)]
            status = max([status] + [r["exit"] for r in runs])
            table[name] = {
                key: [r["metrics"][key]["value"] for r in runs] for key in END_TO_END}
        medians.append(table)
    print("\n# A/A: spread = IQR / median of the first set; diff = second median "
          "vs first, positive is worse")
    print(f"{'workload':20s} {'metric':24s} {'median A':>12s} {'median B':>12s} "
          f"{'diff':>8s} {'spread':>8s} {'bound':>6s}")
    for name in WORKLOADS:
        for key, (unit, better, bound) in END_TO_END.items():
            a, b = medians[0][name][key], medians[1][name][key]
            ma, mb = statistics.median(a), statistics.median(b)
            worse = (mb - ma) / ma if better == "lower" else (ma - mb) / ma
            wide = spread(a)
            flag = ""
            if worse > bound or (key != "setup_s" and wide > bound):
                flag = "  <-- outside bound"
                status = max(status, 1)
            print(f"{name:20s} {key:24s} {ma:12.4f} {mb:12.4f} {worse:+8.3f} "
                  f"{wide:8.3f} {bound:6.2f}{flag}")
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload:
        return drive(args)
    return suite(args)


if __name__ == "__main__":
    sys.exit(main())
