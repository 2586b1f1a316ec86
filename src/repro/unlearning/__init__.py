"""Federated unlearning — the paper's core contribution and baselines.

The paper's scheme (:class:`SignRecoveryUnlearner`) forgets a client by
backtracking the global model to the round the client joined (Eq. 5),
then recovers performance entirely on the server: it estimates every
remaining client's gradient from stored 2-bit sign directions via the
Cauchy mean-value theorem (Eq. 6), an L-BFGS Hessian approximation
(Algorithm 2), and element-wise clipping (Eq. 7).

Baselines live in :mod:`repro.unlearning.baselines`.
"""

from repro.unlearning.backtrack import backtrack
from repro.unlearning.base import (
    ClientsRequiredError,
    UnlearnResult,
    UnlearningMethod,
    remaining_ids,
    resolve_forget_round,
)
from repro.unlearning.baselines import (
    DeltaGradUnlearner,
    FedRecoverUnlearner,
    FedRecoveryUnlearner,
    NegatedPseudoGradientUnlearner,
    RetrainUnlearner,
)
from repro.unlearning.merge import (
    conflict_projected_merge,
    negated_pseudo_gradient_tail,
)
from repro.unlearning.estimator import (
    GradientEstimator,
    clip_elementwise,
    estimate_gradient,
)
from repro.unlearning.engine import BranchOutcome, FusedReplayStats, fused_unlearn
from repro.unlearning.forest import ReplayForest
from repro.unlearning.lbfgs import LbfgsBuffer, lbfgs_hessian_dense
from repro.unlearning.recovery import SignRecoveryUnlearner
from repro.unlearning.service import (
    MERGE_MODES,
    DependentAbortError,
    ErasureOutcome,
    FusedBatchReport,
    ServiceBusyError,
    UnlearningService,
)

__all__ = [
    "BranchOutcome",
    "ClientsRequiredError",
    "DeltaGradUnlearner",
    "DependentAbortError",
    "FedRecoverUnlearner",
    "FedRecoveryUnlearner",
    "FusedBatchReport",
    "FusedReplayStats",
    "GradientEstimator",
    "LbfgsBuffer",
    "MERGE_MODES",
    "NegatedPseudoGradientUnlearner",
    "ReplayForest",
    "RetrainUnlearner",
    "ServiceBusyError",
    "SignRecoveryUnlearner",
    "UnlearningService",
    "ErasureOutcome",
    "conflict_projected_merge",
    "fused_unlearn",
    "negated_pseudo_gradient_tail",
    "UnlearnResult",
    "UnlearningMethod",
    "backtrack",
    "clip_elementwise",
    "estimate_gradient",
    "lbfgs_hessian_dense",
    "remaining_ids",
    "resolve_forget_round",
]
