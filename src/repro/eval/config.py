"""Experiment configuration and scale profiles.

Every experiment runs under a **scale profile**:

- ``smoke`` — seconds; used by the test suite's integration tests.
- ``ci`` — minutes for the full suite; the default for benchmarks.
  Uses MLP models and reduced client/round/sample counts while
  preserving every qualitative shape of the paper's results.
- ``paper`` — the paper's setting: n=100 vehicles, T=100 rounds, CNNs
  (2 conv + 2 fc for MNIST, 2 conv + 1 fc for GTSRB), batch 128.

Profiles are selected by the ``REPRO_SCALE`` environment variable or an
explicit argument.  Hyperparameters not dictated by the paper (model
widths, learning rate in our gradient-scale convention) were calibrated
once per profile and are fixed here; see EXPERIMENTS.md.

Three fields choose *how* a run executes, never what it computes:
``train_workers``, ``sign_backend`` and ``prefetch_depth``.  Records and
recovered models are bitwise identical at every value; ``python -m
repro.eval`` sets them from ``--workers``, ``--store`` and
``--prefetch-depth``.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.storage.store import SIGN_BACKENDS

__all__ = ["ExperimentConfig", "config_for", "available_scales", "current_scale"]

_SCALES = ("smoke", "ci", "paper")


def available_scales() -> List[str]:
    """The recognized profile names, smallest first."""
    return list(_SCALES)


def current_scale(default: str = "ci") -> str:
    """Profile selected via ``REPRO_SCALE`` (falling back to ``default``)."""
    scale = os.environ.get("REPRO_SCALE", default)
    if scale not in _SCALES:
        raise ValueError(
            f"REPRO_SCALE={scale!r} is not one of {_SCALES}"
        )
    return scale


@dataclass
class ExperimentConfig:
    """Full specification of one experiment run.

    Defaults correspond to the paper's §V-A settings where the paper
    pins them (``forget_join_round=2``, ``delta=1e-6``,
    ``buffer_size=2``, ``refresh_period=21``, 20 % malicious clients);
    profile-dependent fields are filled by :func:`config_for`.
    """

    # identity
    dataset: str = "mnist"
    scale: str = "ci"
    seed: int = 2024

    # federation
    num_clients: int = 10
    num_rounds: int = 100
    learning_rate: float = 1e-3
    batch_size: int = 128
    aggregator: str = "fedavg"

    # data
    train_samples: int = 2000
    test_samples: int = 400
    image_size: int = 20
    num_classes: int = 10

    # model ("mlp" for reduced profiles, "cnn" for the paper profile)
    model_kind: str = "mlp"
    hidden: int = 32

    # unlearning (paper §V-A.3)
    forget_join_round: int = 2
    delta: float = 1e-6
    clip_threshold: float = 1.0
    buffer_size: int = 2
    refresh_period: int = 21
    fedrecover_correction_period: int = 20
    fedrecovery_noise: float = 1.0

    # attacks (paper §V-A.2)
    malicious_fraction: float = 0.2
    attack: str = "none"  # none | label_flip | backdoor
    flip_source: int = 7
    flip_target: int = 1
    flip_oversample: int = 4
    backdoor_target: int = 2
    backdoor_trigger_size: int = 3
    backdoor_poison_fraction: float = 0.2

    # execution (bitwise-neutral: only wall time and storage change)
    train_workers: int = 1  # threads splitting a training round's cohort pass
    sign_backend: str = "dict"  # one of SIGN_BACKENDS
    prefetch_depth: int = 0  # replay look-ahead rounds; 0 = synchronous

    # misc
    metadata: Dict[str, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.dataset not in ("mnist", "gtsrb"):
            raise ValueError(f"dataset must be 'mnist' or 'gtsrb', got {self.dataset!r}")
        if self.scale not in _SCALES:
            raise ValueError(f"scale must be one of {_SCALES}, got {self.scale!r}")
        if self.attack not in ("none", "label_flip", "backdoor"):
            raise ValueError(f"unknown attack {self.attack!r}")
        if self.num_clients < 2:
            raise ValueError("need at least 2 clients")
        if not 0 <= self.forget_join_round < self.num_rounds:
            raise ValueError("forget_join_round must be inside the training horizon")
        if self.train_workers < 1:
            raise ValueError(f"train_workers must be >= 1, got {self.train_workers}")
        if self.sign_backend not in SIGN_BACKENDS:
            raise ValueError(
                f"unknown sign_backend {self.sign_backend!r}; use one of {SIGN_BACKENDS}"
            )
        if self.prefetch_depth < 0:
            raise ValueError(f"prefetch_depth must be >= 0, got {self.prefetch_depth}")


# ----------------------------------------------------------------------
# profile tables — calibrated once, recorded in EXPERIMENTS.md
# ----------------------------------------------------------------------
_PROFILES: Dict[str, Dict[str, Dict[str, object]]] = {
    "mnist": {
        "smoke": dict(
            num_clients=6, num_rounds=40, learning_rate=2e-3, batch_size=32,
            train_samples=700, test_samples=200, image_size=16,
            model_kind="mlp", hidden=24, clip_threshold=5.0,
            fedrecovery_noise=16.0,
        ),
        "ci": dict(
            num_clients=10, num_rounds=100, learning_rate=7e-4, batch_size=64,
            train_samples=1600, test_samples=500, image_size=20,
            model_kind="mlp", hidden=32, clip_threshold=5.0,
            fedrecovery_noise=16.0,
        ),
        "paper": dict(
            num_clients=100, num_rounds=100, learning_rate=1e-3, batch_size=128,
            train_samples=20000, test_samples=3000, image_size=28,
            model_kind="cnn", hidden=64, clip_threshold=5.0,
            fedrecovery_noise=16.0,
        ),
    },
    "gtsrb": {
        "smoke": dict(
            num_clients=6, num_rounds=40, learning_rate=1e-3, batch_size=32,
            train_samples=700, test_samples=200, image_size=16,
            model_kind="mlp", hidden=24, clip_threshold=5.0,
            fedrecovery_noise=28.0,
        ),
        "ci": dict(
            num_clients=10, num_rounds=150, learning_rate=5e-4, batch_size=64,
            train_samples=2400, test_samples=500, image_size=24,
            model_kind="mlp", hidden=48, clip_threshold=5.0,
            fedrecovery_noise=28.0,
        ),
        "paper": dict(
            num_clients=100, num_rounds=100, learning_rate=5e-4, batch_size=128,
            train_samples=20000, test_samples=3000, image_size=32,
            model_kind="cnn", hidden=64, clip_threshold=5.0,
            fedrecovery_noise=28.0,
        ),
    },
}


def config_for(
    dataset: str, scale: Optional[str] = None, seed: int = 2024, **overrides
) -> ExperimentConfig:
    """Build the calibrated config for ``(dataset, scale)``.

    Extra keyword arguments override individual fields (used by the
    sweep experiments).
    """
    scale = scale or current_scale()
    if dataset not in _PROFILES:
        raise ValueError(f"unknown dataset {dataset!r}")
    if scale not in _PROFILES[dataset]:
        raise ValueError(f"unknown scale {scale!r}")
    fields = dict(_PROFILES[dataset][scale])
    fields.update(overrides)
    return ExperimentConfig(dataset=dataset, scale=scale, seed=seed, **fields)
