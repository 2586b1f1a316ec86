"""Unlearning baselines the paper compares against (§V-A.3), plus the
DeltaGrad and negated-pseudo-gradient comparators."""

from repro.unlearning.baselines.deltagrad import DeltaGradUnlearner
from repro.unlearning.baselines.fedrecover import FedRecoverUnlearner
from repro.unlearning.baselines.fedrecovery import FedRecoveryUnlearner
from repro.unlearning.baselines.npg import NegatedPseudoGradientUnlearner
from repro.unlearning.baselines.retrain import RetrainUnlearner

__all__ = [
    "DeltaGradUnlearner",
    "FedRecoverUnlearner",
    "FedRecoveryUnlearner",
    "NegatedPseudoGradientUnlearner",
    "RetrainUnlearner",
]
