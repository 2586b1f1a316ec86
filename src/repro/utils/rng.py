"""Deterministic, hierarchical random-number generation.

Every stochastic component in the reproduction (dataset synthesis, data
partitioning, client sampling, SGD minibatching, attack selection,
mobility traces) draws from a :class:`numpy.random.Generator` handed to
it explicitly.  No module touches the global NumPy RNG.  A single root
seed therefore fixes the entire experiment.

The :class:`SeedSequenceTree` gives each named component its own
independent stream, so adding a new consumer of randomness does not
perturb the draws of existing ones — a property plain sequential seeding
does not have and one that matters when comparing unlearning baselines
that must see *identical* training randomness.
"""

from __future__ import annotations

from typing import Dict

import numpy as np

__all__ = ["SeedSequenceTree"]


class SeedSequenceTree:
    """Named, stable sub-streams derived from one root seed.

    Each distinct ``name`` passed to :meth:`rng` yields an independent
    generator whose stream depends only on ``(root_seed, name)`` — not
    on the order or number of other names requested.  Repeated calls
    with the same name return *new* generators over the same stream
    start, so callers should request a stream once and keep it.

    Examples
    --------
    >>> tree = SeedSequenceTree(1234)
    >>> a = tree.rng("dataset")
    >>> b = tree.rng("partition")
    >>> float(a.random()) != float(b.random())
    True
    """

    def __init__(self, root_seed: int):
        self.root_seed = int(root_seed)
        self._cache: Dict[str, np.random.SeedSequence] = {}

    def _sequence(self, name: str) -> np.random.SeedSequence:
        if name not in self._cache:
            # Hash the name into a stable integer stream key.  Python's
            # hash() is salted per-process, so use a simple explicit
            # polynomial hash instead.
            key = 0
            for ch in name:
                key = (key * 131 + ord(ch)) % (2**63)
            self._cache[name] = np.random.SeedSequence(
                entropy=self.root_seed, spawn_key=(key,)
            )
        return self._cache[name]

    def rng(self, name: str) -> np.random.Generator:
        """Return a generator for the named sub-stream."""
        return np.random.default_rng(self._sequence(name))
