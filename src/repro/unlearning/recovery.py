"""The paper's federated-unlearning scheme (Algorithm 1), as an
:class:`~repro.unlearning.base.UnlearningMethod`.

Complete pipeline, entirely on the server:

1. **Backtrack** (Eq. 5): roll the global model to ``w_F``.
2. **Seed** each remaining client's L-BFGS buffer from the historical
   information that existed *before* round ``F`` ("recovered
   information", §IV-B) — vector pairs
   ``(w_j − w_F, g_j^i − g_F^i)`` for the last ``s`` pre-``F`` rounds.
3. **Replay** rounds ``F … T−1``: estimate every remaining client's
   gradient with Eq. 6, clip with Eq. 7, aggregate with the training
   aggregation rule, and step with the training learning rate
   (the paper applies "the same settings as the original FL training").
4. **Refresh** the vector pairs every ``refresh_period`` rounds
   (paper: 21) with the recovery-round differences, because "outdated
   vector pairs … lead to a gradual divergence".

The stored gradients here are *directions* in ``{−1, 0, +1}`` (decoded
from the 2-bit sign store), so recovery is sign-SGD-like; this is
exactly the paper's design and the source of its storage savings.

No client is ever contacted: ``client_gradient_calls`` is 0 by
construction, which the integration tests assert.

This module is the adapter: :class:`SignRecoveryUnlearner` holds the
hyperparameters, and :meth:`~SignRecoveryUnlearner.unlearn` runs the
replay engine (:func:`repro.unlearning.engine.fused_unlearn`) with one
request — a one-member tree node *is* a serial replay.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Dict, Optional, Sequence

import numpy as np

from repro.fl.client import VehicleClient
from repro.fl.history import TrainingRecord
from repro.nn.model import Sequential
from repro.storage.prefetch import RoundDecodeCache
from repro.unlearning.base import ModelFactory, UnlearnResult, UnlearningMethod
from repro.unlearning.engine import fused_unlearn
from repro.unlearning.forest import ReplayForest

__all__ = ["SignRecoveryUnlearner"]


class SignRecoveryUnlearner(UnlearningMethod):
    """Backtracking + sign-direction recovery (the paper's scheme).

    Parameters
    ----------
    clip_threshold:
        ``L`` of Eq. 7 (paper default 1).
    buffer_size:
        ``s``, the number of L-BFGS vector pairs (paper default 2).
    refresh_period:
        Rounds between vector-pair refreshes (paper default 21).
    round_callback:
        Optional ``(recovery_round, params)`` hook, used by the figures
        to trace accuracy during recovery.
    checkpoint_dir:
        When set, replay state is checkpointed here (atomically) every
        ``checkpoint_every`` rounds, and :meth:`unlearn` resumes from
        an existing checkpoint instead of restarting.  The checkpoint
        is removed on successful completion.
    checkpoint_every:
        Replay rounds between checkpoints.
    prefix_cache:
        Optional :class:`ReplayForest` shared across requests.
        When set, :meth:`unlearn` resumes from the deepest reusable
        cached snapshot (unless a crash checkpoint takes precedence)
        and commits this replay's snapshots back — one per round that
        brings in a new participant, plus the final state.  The
        rounds skipped this way are reported via
        ``last_cached_prefix_rounds``, *not* in the result stats —
        cached and cold runs return byte-identical results.
    cancel_check:
        Optional no-arg callable invoked *between* replay rounds — the
        cooperative cancellation checkpoint.  Raising from it (e.g. a
        :class:`~repro.serving.requests.DeadlineExceededError` from the
        serving daemon) aborts the replay at a committed round
        boundary: the rounds already replayed, up to the one the
        abort landed on, are salvaged into the prefix cache (committed
        start-of-round states), so an aborted request wastes nothing
        and the next request over the same forget set resumes them —
        recovering parameters byte-identical to an uninterrupted cold
        replay.
    prefetch_depth:
        Look-ahead window of the replay data-path pipeline
        (:mod:`repro.storage.prefetch`): while round ``t`` computes,
        rounds ``t+1 .. t+depth`` bulk-decode on a background thread.
        ``0`` (the default) is the synchronous path (no pipeline).
        Recovered parameters are bitwise identical at every depth.
    decode_cache:
        Optional shared :class:`~repro.storage.prefetch.RoundDecodeCache`
        so concurrent/successive requests over the same record resolve
        each round's decode once (the service wires its own in).
    prefetch_executor:
        Optional externally-owned thread pool for the background
        decodes; a private one is built per replay when omitted.
    """

    name = "ours"

    def __init__(
        self,
        clip_threshold: float = 1.0,
        buffer_size: int = 2,
        refresh_period: int = 21,
        round_callback: Optional[Callable[[int, np.ndarray], None]] = None,
        checkpoint_dir: Optional[str] = None,
        checkpoint_every: int = 5,
        prefix_cache: Optional[ReplayForest] = None,
        cancel_check: Optional[Callable[[], None]] = None,
        prefetch_depth: int = 0,
        decode_cache: Optional[RoundDecodeCache] = None,
        prefetch_executor: Optional[ThreadPoolExecutor] = None,
    ):
        if refresh_period < 1:
            raise ValueError("refresh_period must be >= 1")
        if checkpoint_every < 1:
            raise ValueError("checkpoint_every must be >= 1")
        if prefetch_depth < 0:
            raise ValueError("prefetch_depth must be >= 0")
        self.clip_threshold = clip_threshold
        self.buffer_size = buffer_size
        self.refresh_period = refresh_period
        self.round_callback = round_callback
        self.checkpoint_dir = checkpoint_dir
        self.checkpoint_every = checkpoint_every
        self.prefix_cache = prefix_cache
        self.cancel_check = cancel_check
        self.prefetch_depth = prefetch_depth
        self.decode_cache = decode_cache
        self.prefetch_executor = prefetch_executor
        #: Replay rounds the last :meth:`unlearn` call skipped thanks to
        #: a prefix-cache hit (0 on a cold run).
        self.last_cached_prefix_rounds = 0

    def unlearn(
        self,
        record: TrainingRecord,
        forget_ids: Sequence[int],
        model: Sequential,
        clients: Optional[Dict[int, VehicleClient]] = None,
        model_factory: Optional[ModelFactory] = None,
    ) -> UnlearnResult:
        """Run Algorithm 1: the replay engine
        (:func:`repro.unlearning.engine.fused_unlearn`) with this one
        request.  ``clients``/``model_factory`` are ignored — the
        method is server-only."""
        (outcome,), _ = fused_unlearn(self, record, [forget_ids], [self.cancel_check])
        self.last_cached_prefix_rounds = outcome.cached_prefix_rounds
        if outcome.error is not None:
            raise outcome.error
        return outcome.result
