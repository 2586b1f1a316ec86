"""Federated clients (vehicles).

A :class:`VehicleClient` owns a local dataset shard and, given the
current global parameters, computes the stochastic gradient it reports
to the RSU (Eq. 2's ``g_t^i``).  Malicious vehicles are ordinary
clients whose dataset has been poisoned before construction — the
server cannot tell the difference, which is the premise of the
unlearning-based defense.

Clients share one scratch :class:`~repro.nn.model.Sequential` instance
(owned by the simulation) rather than each holding a model copy; the
client sets the global parameters into it before the gradient pass.
This mirrors what a real vehicle does (download ``w_t``, compute, and
upload) while keeping the 100-client simulation memory-light.

Every vehicle of a round computes at the same ``w_t``, so
:func:`cohort_updates` computes a whole cohort in stacked passes
(:meth:`~repro.nn.model.Sequential.cohort_pass`) — a lone vehicle's
:meth:`VehicleClient.compute_update` is the cohort of one.
"""

from __future__ import annotations

from itertools import groupby
from typing import Optional, Sequence

import numpy as np

from repro.datasets.base import ArrayDataset
from repro.nn.model import Sequential

__all__ = ["VehicleClient", "cohort_updates"]


class VehicleClient:
    """One vehicle participating in FL.

    Parameters
    ----------
    client_id:
        Stable integer identity used across ledger, stores and attacks.
    dataset:
        The local shard ``D_i`` (already poisoned for malicious clients).
    rng:
        Private generator driving minibatch sampling.
    batch_size:
        SGD minibatch size (paper: 128).
    local_steps:
        Number of local SGD steps per round.  The paper's scheme is
        gradient aggregation (one step); ``local_steps > 1`` returns the
        accumulated model delta divided by the learning rate — the
        standard "pseudo-gradient" — and is used by extension
        experiments only.
    local_lr:
        Learning rate for local steps when ``local_steps > 1``.
    reduction:
        ``"sum"`` (default) reports the batch-*sum* gradient, i.e. the
        mean gradient scaled by the actual batch size; ``"mean"``
        reports the plain mean.  Sum reduction is what makes the
        paper's hyperparameters self-consistent: with batch 128 the
        per-element update scale is O(1), the same scale as the stored
        sign directions, so recovery (which replays directions with the
        training learning rate, §V-A.3) takes steps commensurate with
        the steps training took.  See DESIGN.md §2.
    malicious:
        Diagnostic flag (never consulted by server-side code).
    """

    def __init__(
        self,
        client_id: int,
        dataset: ArrayDataset,
        rng: np.random.Generator,
        batch_size: int = 128,
        local_steps: int = 1,
        local_lr: Optional[float] = None,
        reduction: str = "sum",
        malicious: bool = False,
    ):
        if client_id < 0:
            raise ValueError("client_id must be non-negative")
        if len(dataset) == 0:
            raise ValueError(f"client {client_id} has an empty dataset")
        if batch_size <= 0:
            raise ValueError("batch_size must be positive")
        if local_steps < 1:
            raise ValueError("local_steps must be >= 1")
        if local_steps > 1 and (local_lr is None or local_lr <= 0):
            raise ValueError("local_lr required and positive when local_steps > 1")
        if reduction not in ("sum", "mean"):
            raise ValueError(f"reduction must be 'sum' or 'mean', got {reduction!r}")
        self.client_id = client_id
        self.dataset = dataset
        self.rng = rng
        self.batch_size = batch_size
        self.local_steps = local_steps
        self.local_lr = local_lr
        self.reduction = reduction
        self.malicious = malicious

    @property
    def num_samples(self) -> int:
        """``|D_i|`` — the FedAvg weight this client reports."""
        return len(self.dataset)

    @property
    def batch_shape(self):
        """Shape of every minibatch this client samples."""
        return (min(self.batch_size, len(self.dataset)),) + self.dataset.x.shape[1:]

    def compute_update(
        self, global_params: np.ndarray, model: Sequential
    ) -> np.ndarray:
        """Compute this round's reported gradient at ``global_params``.

        With ``local_steps == 1`` this is the exact stochastic gradient
        on one sampled minibatch (:func:`cohort_updates` of this client
        alone).  With more steps it is the
        pseudo-gradient ``(w_start − w_end) / local_lr``.
        """
        if self.local_steps == 1:
            return cohort_updates([self], global_params, model)[0]
        assert self.local_lr is not None
        params = np.asarray(global_params, dtype=np.float64).copy()
        step = np.empty_like(params)
        for _ in range(self.local_steps):
            xb, yb = self.dataset.sample_batch(self.batch_size, self.rng)
            model.set_flat_params(params)
            _, gview = model.loss_and_flat_grad_view(xb, yb)
            np.multiply(gview, self.local_lr, out=step)
            np.subtract(params, step, out=params)
        return (np.asarray(global_params, dtype=np.float64) - params) / self.local_lr

    def full_gradient(
        self, global_params: np.ndarray, model: Sequential, batch_size: int = 256
    ) -> np.ndarray:
        """Deterministic gradient over the *entire* local dataset.

        Used by FedRecover-style exact-correction rounds, where the
        vector-pair quality depends on the gradient difference being a
        curvature signal rather than minibatch noise.  Uses the same
        reduction convention as :meth:`compute_update`.
        """
        model.set_flat_params(global_params)
        total = np.zeros(model.num_params, dtype=np.float64)
        scratch = np.empty_like(total)
        n = len(self.dataset)
        for start in range(0, n, batch_size):
            xb = self.dataset.x[start : start + batch_size]
            yb = self.dataset.y[start : start + batch_size]
            _, gview = model.loss_and_flat_grad_view(xb, yb)
            np.multiply(gview, xb.shape[0], out=scratch)
            total += scratch
        if self.reduction == "sum":
            # Match compute_update's scale: a batch-sum gradient over a
            # nominal batch, i.e. mean gradient x batch_size.
            return total / n * min(self.batch_size, n)
        return total / n


def _pass_key(client: VehicleClient):
    """Clients with equal keys can share a pass; a multi-step client
    shares with nobody."""
    if client.local_steps > 1:
        return id(client)
    return client.batch_shape, client.reduction


def cohort_updates(
    clients: Sequence[VehicleClient], global_params: np.ndarray, model: Sequential
) -> np.ndarray:
    """Each client's :meth:`VehicleClient.compute_update` at
    ``global_params`` — same bits, same minibatch draws — as the rows of
    one ``(K, d)`` float64 block.

    Runs of consecutive one-step clients with one minibatch shape and
    reduction (runs, so every random draw keeps client order) go
    through stacked passes of at most
    :meth:`~repro.nn.model.Sequential.pass_rows` clients; a client with
    ``local_steps > 1`` runs its own loop of one-batch passes.
    """
    block = np.empty((len(clients), model.num_params))
    start = 0
    for _, run in groupby(clients, key=_pass_key):
        group = list(run)
        lo, start = start, start + len(group)
        head = group[0]
        if head.local_steps > 1:
            block[lo] = head.compute_update(global_params, model)
            continue
        model.set_flat_params(global_params)
        step = model.pass_rows(head.batch_shape) if len(group) > 1 else 1
        for at in range(0, len(group), step):
            chunk = group[at : at + step]
            batches = [c.dataset.sample_batch(c.batch_size, c.rng) for c in chunk]
            xs = np.stack([xb for xb, _ in batches])
            ys = np.stack([yb for _, yb in batches])
            rows = block[lo + at : lo + at + len(chunk)]
            grads = rows
            if model.dtype != rows.dtype:  # a float32 arena
                grads = np.empty(rows.shape, model.dtype)
            model.cohort_pass(xs, ys, grads)
            if head.reduction == "sum":
                np.multiply(grads, xs.shape[1], out=rows, dtype=np.float64)
            elif grads is not rows:
                rows[...] = grads
    return block
