"""FUIoV — a full reproduction of *Federated Unlearning in the Internet
of Vehicles* (DSN 2024).

The package is organized as one subpackage per subsystem:

- :mod:`repro.nn` — from-scratch NumPy neural-network substrate
- :mod:`repro.datasets` — procedural MNIST-like / GTSRB-like tasks
- :mod:`repro.attacks` — label-flip and backdoor poisoning
- :mod:`repro.storage` — the 2-bit sign-direction gradient store
- :mod:`repro.fl` — vehicles, RSU server, FedAvg, the round loop
- :mod:`repro.faults` — fault injection, update validation, retries
- :mod:`repro.iov` — mobility, coverage, join/leave/dropout schedules
- :mod:`repro.unlearning` — the paper's scheme and all baselines
- :mod:`repro.telemetry` — metrics registry, trace spans, exporters
  (contract in ``docs/METRICS.md``)
- :mod:`repro.eval` — experiment runners for every table and figure

No module holds a process-wide default: a run's training workers, sign
store backend and replay prefetch depth are constructor arguments, and
the experiment runners read them from
:class:`~repro.eval.config.ExperimentConfig`.

Quickstart::

    from repro.eval import run_table1
    print(run_table1(scale="smoke"))

or from the shell::

    python -m repro.eval table1 --scale ci
"""

__version__ = "1.0.0"

from repro import (  # noqa: F401
    attacks,
    datasets,
    faults,
    fl,
    iov,
    nn,
    storage,
    telemetry,
    unlearning,
    utils,
)

__all__ = [
    "__version__",
    "attacks",
    "datasets",
    "faults",
    "fl",
    "iov",
    "nn",
    "storage",
    "telemetry",
    "unlearning",
    "utils",
]
