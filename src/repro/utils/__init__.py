"""Shared utilities for the FUIoV reproduction.

This package holds the small, dependency-free helpers every other
subsystem relies on:

- :mod:`repro.utils.rng` — deterministic, hierarchical random-number
  generation so every experiment is reproducible from a single seed.
- :mod:`repro.utils.flat` — helpers for working with flat parameter
  vectors (the representation all unlearning algebra operates on).
- :mod:`repro.utils.logging` — structured, per-component loggers.
- :mod:`repro.utils.timer` — lightweight wall-clock timers for the
  benchmark harness.
- :mod:`repro.utils.serialization` — save/load of experiment artifacts.
"""

from repro.utils.flat import flatten_arrays, unflatten_vector, unflatten_views
from repro.utils.rng import SeedSequenceTree
from repro.utils.timer import Timer
from repro.utils.logging import get_logger

__all__ = [
    "SeedSequenceTree",
    "Timer",
    "flatten_arrays",
    "get_logger",
    "unflatten_vector",
    "unflatten_views",
]
