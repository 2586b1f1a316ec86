"""Training-round execution policy and per-client fault handling.

Each training round of :class:`~repro.fl.simulation.FederatedSimulation`
is one cohort pass over its vehicles
(:func:`repro.fl.client.cohort_updates`).  With ``workers > 1`` the
simulation splits the round's vehicles into that many contiguous chunks
and runs each chunk's pass on its own scratch model, on one thread
pool; every row is bitwise the vehicle's own update, so the record is
identical to the one-pass run.  This package holds the pieces around
that pass:

- :mod:`repro.parallel.policy` — the process-wide default worker count
  (1 unless changed; the CLI's ``--workers N`` sets it);
- :mod:`repro.parallel.rounds` — the flaky-retry and
  crash/straggle/corrupt handling applied per client around the pass.

``tests/test_parallel.py`` asserts the identity across worker counts,
seeds and active fault plans.
"""

from repro.parallel.policy import (
    ExecutionPolicy,
    default_execution,
    resolve_execution,
    set_default_execution,
)

__all__ = [
    "ExecutionPolicy",
    "default_execution",
    "resolve_execution",
    "set_default_execution",
]
