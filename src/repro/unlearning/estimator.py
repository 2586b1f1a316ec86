"""Gradient estimation (Eq. 6) and error limiting (Eq. 7).

During recovery the server never contacts clients; it estimates what
client ``i`` *would* have reported at the recovered model ``w̄_t`` from
what it *did* report at the historical model ``w_t``:

    ḡ_t^i = g_t^i + H̃_t^i · (w̄_t − w_t)                      (Eq. 6)

and bounds the estimation error by element-wise clipping:

    g̃_t^i = ḡ_t^i / max(1, |ḡ_t^i| / L)                       (Eq. 7)

Note Eq. 7 is applied *per element* (the paper's |·| "denotes the
absolute value of gradient elements"): each element with magnitude
above ``L`` is scaled down to exactly ``±L``; smaller elements pass
through unchanged.

A replay node keeps its cohort's estimators as columns
(:class:`CohortState`), and a replay round runs Eq. 6/7 for the whole
cohort through one kernel, :func:`estimate_cohort`: the round's stored
rows come in as one block, every client's estimate goes out as one
``(K, d)`` block that FedAvg then scales in place
(:meth:`CohortPlan.fedavg`), from the cohort's L-BFGS forms stacked
once in a :class:`CohortForm`.  Row ``k`` is bit for bit the per-client
:meth:`GradientEstimator.estimate_displaced` result, which stays as the
reference the tests hold the kernel to (``docs/REPLAY.md``).

Telemetry: every estimate, per client or in a cohort, observes the
Eq. 7 clip rate (fraction of elements at ±L, ``recovery_clip_rate``)
and the estimated-vs-stored gradient drift ``‖g̃ − g‖₂``
(``recovery_estimate_drift``) — see ``docs/METRICS.md``.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, List, Mapping, Optional, Tuple

import numpy as np

from repro.telemetry.core import current_telemetry
from repro.unlearning.lbfgs import (
    LbfgsBuffer,
    Pairs,
    append_pair,
    solve_middle,
    stack_compact_forms,
)

__all__ = [
    "estimate_gradient",
    "clip_elementwise",
    "CohortForm",
    "CohortPlan",
    "CohortState",
    "estimate_cohort",
    "GradientEstimator",
]

#: Rows of a cohort block taken through Eq. 6/7 together: about this many
#: bytes, so each block of rows stays in cache from ``wing·p`` to the clip.
_CHUNK_BYTES = 1 << 18


def estimate_gradient(
    stored_gradient: np.ndarray,
    buffer: LbfgsBuffer,
    recovered_params: np.ndarray,
    historical_params: np.ndarray,
) -> np.ndarray:
    """Eq. 6: ``ḡ = g + H̃ (w̄ − w)`` with H̃ from the client's buffer."""
    stored_gradient = np.asarray(stored_gradient, dtype=np.float64).ravel()
    displacement = np.asarray(recovered_params, dtype=np.float64).ravel() - np.asarray(
        historical_params, dtype=np.float64
    ).ravel()
    if stored_gradient.shape != displacement.shape:
        raise ValueError(
            f"gradient/displacement mismatch: {stored_gradient.shape} vs "
            f"{displacement.shape}"
        )
    return stored_gradient + buffer.hvp(displacement)


def clip_elementwise(gradient: np.ndarray, threshold: float) -> np.ndarray:
    """Eq. 7: scale each element with ``|x| > L`` down to ``±L``.

    Equivalent to ``x / max(1, |x|/L)`` evaluated element-wise, i.e.
    ``np.clip(x, -L, L)``.
    """
    if threshold <= 0:
        raise ValueError(f"clip threshold must be positive, got {threshold}")
    gradient = np.asarray(gradient, dtype=np.float64)
    return np.clip(gradient, -threshold, threshold)


class GradientEstimator:
    """Per-client estimation state: an L-BFGS buffer plus Eq. 6/7 glue.

    Seeding builds one per remaining client from pre-``F`` history, and
    a replay node then holds them as the columns of a
    :class:`CohortState`.  The per-client chain (:meth:`estimate`,
    :meth:`estimate_displaced`, :meth:`refresh_pair`) is the reference
    the cohort kernel is held to; :meth:`state` reads it out without
    copying a pair.
    """

    def __init__(self, buffer_size: int = 2, clip_threshold: float = 1.0):
        self.buffer = LbfgsBuffer(buffer_size=buffer_size)
        if clip_threshold <= 0:
            raise ValueError("clip_threshold must be positive")
        self.clip_threshold = clip_threshold
        self.estimates_made = 0
        self.pairs_accepted = 0
        self.pairs_rejected = 0

    def seed_pair(self, delta_w: np.ndarray, delta_g: np.ndarray) -> bool:
        """Add a copy of a vector pair; tracks accept/reject statistics."""
        return self._count(self.buffer.add_pair(delta_w, delta_g))

    def refresh_pair(self, displacement: np.ndarray, delta_g: np.ndarray) -> bool:
        """:meth:`seed_pair` for the replay's own temporaries (seeding
        and the refresh step): adopted, not copied — one frozen ``Δw``
        serves a whole cohort."""
        return self._count(self.buffer.adopt_pair(displacement, delta_g))

    def _count(self, accepted: bool) -> bool:
        if accepted:
            self.pairs_accepted += 1
        else:
            self.pairs_rejected += 1
        return accepted

    def state(self) -> Tuple:
        """``(pairs, estimates_made, pairs_accepted, pairs_rejected)``,
        the pairs by reference: one entry of :meth:`CohortState.states`."""
        return (
            self.buffer.pairs(),
            self.estimates_made,
            self.pairs_accepted,
            self.pairs_rejected,
        )

    def estimate(
        self,
        stored_gradient: np.ndarray,
        recovered_params: np.ndarray,
        historical_params: np.ndarray,
    ) -> np.ndarray:
        """Eq. 6 followed by Eq. 7."""
        displacement = np.asarray(recovered_params, dtype=np.float64).ravel() - (
            np.asarray(historical_params, dtype=np.float64).ravel()
        )
        return self.estimate_displaced(stored_gradient, displacement)

    def estimate_displaced(
        self, stored_gradient: np.ndarray, displacement: np.ndarray
    ) -> np.ndarray:
        """Eq. 6/7 with a precomputed ``w̄_t − w_t``.

        The displacement is identical for every client in a round, so
        the recovery loop computes it once and calls this for each
        client instead of re-deriving it per estimator.  The stored
        direction may be an int8 ``get_round`` row: ``stored + hvp``
        widens it per element, with no float64 copy of the row.
        """
        stored = np.asarray(stored_gradient).ravel()
        displacement = np.asarray(displacement, dtype=np.float64).ravel()
        if stored.shape != displacement.shape:
            raise ValueError(
                f"gradient/displacement mismatch: {stored.shape} vs "
                f"{displacement.shape}"
            )
        raw = stored + self.buffer.hvp(displacement)
        self.estimates_made += 1
        clipped = clip_elementwise(raw, self.clip_threshold)
        telemetry = current_telemetry()
        if telemetry.enabled and raw.size:
            clip_rate = float(
                np.count_nonzero(np.abs(raw) > self.clip_threshold)
            ) / raw.size
            telemetry.observe("recovery_clip_rate", clip_rate)
            telemetry.observe(
                "recovery_estimate_drift", float(np.linalg.norm(clipped - stored))
            )
        return clipped


class CohortState:
    """A replay node's estimators as columns, one slot per client.

    ``cids`` holds the client ids ascending (int64); slot ``k``'s L-BFGS
    pairs are ``pairs[k]`` (a :meth:`LbfgsBuffer.pairs` value, by
    reference) and its :class:`GradientEstimator` counters are
    ``made[k]``, ``accepted[k]`` and ``rejected[k]`` (int64 arrays).
    Every slot shares ``buffer_size`` and the Eq. 7 ``clip``.

    A replay round updates the counters with vectorised adds, and only
    a refresh builds a new ``pairs`` column; a snapshot or a fork
    (:meth:`copy`) copies the counters and shares ``cids`` and
    ``pairs`` by identity, so one replay's snapshots between two
    refreshes hold one pairs column.  Per-client
    :meth:`GradientEstimator.state` tuples exist only at the boundaries
    that want them (:meth:`states`, :meth:`from_states`): crash
    checkpoints, seeding, and tests.
    """

    __slots__ = ("cids", "pairs", "made", "accepted", "rejected", "buffer_size", "clip")

    def __init__(self, cids, pairs, made, accepted, rejected, buffer_size, clip):
        self.cids = np.asarray(cids, dtype=np.int64)
        self.pairs: Tuple[Pairs, ...] = tuple(pairs)
        self.made = np.asarray(made, dtype=np.int64)
        self.accepted = np.asarray(accepted, dtype=np.int64)
        self.rejected = np.asarray(rejected, dtype=np.int64)
        self.buffer_size = buffer_size
        self.clip = clip

    @classmethod
    def from_states(
        cls, states: Mapping[int, Tuple], buffer_size: int, clip: float
    ) -> "CohortState":
        """Columns of ``{cid: GradientEstimator.state()}``."""
        cids = sorted(states)
        columns = zip(*(states[cid] for cid in cids)) if cids else ((),) * 4
        return cls(cids, *columns, buffer_size, clip)

    @classmethod
    def from_estimators(
        cls, estimators: Mapping[int, GradientEstimator]
    ) -> "CohortState":
        """Columns of seeded estimators (their pairs by reference), which
        share one clip threshold and buffer size; an empty cohort takes
        :class:`GradientEstimator`'s defaults."""
        limits = {est.clip_threshold for est in estimators.values()} or {1.0}
        sizes = {est.buffer.buffer_size for est in estimators.values()} or {2}
        if len(limits) > 1 or len(sizes) > 1:
            raise ValueError("a cohort's estimators must share one clip threshold")
        states = {cid: est.state() for cid, est in estimators.items()}
        return cls.from_states(states, sizes.pop(), limits.pop())

    def states(self) -> Dict[int, Tuple]:
        """``{cid: (pairs, made, accepted, rejected)}``, one tuple each."""
        columns = (self.made.tolist(), self.accepted.tolist(), self.rejected.tolist())
        return dict(zip(self.cids.tolist(), zip(self.pairs, *columns)))

    def copy(self, keep=slice(None)) -> "CohortState":
        """Own counters over the same ``pairs`` column (a snapshot or a
        fork) — or, with ``keep`` (ascending slots), over those slots."""
        pairs = self.pairs if isinstance(keep, slice) else [
            self.pairs[k] for k in keep.tolist()
        ]
        return CohortState(
            self.cids[keep], pairs, self.made[keep].copy(),
            self.accepted[keep].copy(), self.rejected[keep].copy(),
            self.buffer_size, self.clip,
        )

    def without(self, drop) -> "CohortState":
        """A copy without the clients in ``drop``."""
        gone = np.isin(self.cids, np.fromiter(drop, np.int64, len(drop)))
        return self.copy(np.flatnonzero(~gone) if gone.any() else slice(None))

    def merged(self, other: "CohortState") -> "CohortState":
        """These slots plus ``other``'s for clients these lack (itself
        when there are none), cids ascending."""
        new = np.flatnonzero(~np.isin(other.cids, self.cids))
        if not new.size:
            return self
        cids, made, accepted, rejected = (
            np.concatenate([mine, theirs[new]])
            for mine, theirs in (
                (self.cids, other.cids),
                (self.made, other.made),
                (self.accepted, other.accepted),
                (self.rejected, other.rejected),
            )
        )
        pairs = self.pairs + tuple(other.pairs[k] for k in new.tolist())
        both = CohortState(
            cids, pairs, made, accepted, rejected, self.buffer_size, self.clip
        )
        return both.copy(np.argsort(cids, kind="stable"))

    def refresh(
        self,
        slots: np.ndarray,
        displacement: np.ndarray,
        estimates: np.ndarray,
        stored: np.ndarray,
    ) -> None:
        """The refresh step for the clients at ``slots``: each adopts
        ``(displacement, estimate_k − stored_k)`` through
        :func:`~repro.unlearning.lbfgs.append_pair`'s checks, as
        :meth:`GradientEstimator.refresh_pair` does, into a new pairs
        column."""
        pairs = list(self.pairs)
        taken = np.zeros(len(slots), dtype=bool)
        for k, slot in enumerate(slots.tolist()):
            held = append_pair(
                pairs[slot], displacement, estimates[k] - stored[k], self.buffer_size
            )
            if held is not None:
                pairs[slot] = held
                taken[k] = True
        self.accepted[slots[taken]] += 1
        self.rejected[slots[~taken]] += 1
        self.pairs = tuple(pairs)


class CohortForm:
    """A cohort's compact L-BFGS forms as stacked arrays, one group per
    pair count.

    Built from a :class:`CohortState`: ``groups[g]`` holds
    :func:`stack_compact_forms` of the pairs of the slots holding that
    many pairs, rows in slot order, and ``group_of``/``row_of`` give each
    slot's group (-1: no pairs) and stack row.  The arrays are never
    written after the build, so a fork's children share one form.  A new
    pairs column (refresh, seeding with pairs, restore) calls for a new
    form; clients seeded without pairs only move the slots: the form
    ``like`` over the state they joined keeps its stacks.
    """

    def __init__(self, state: CohortState, like: Optional["CohortForm"] = None):
        self.cids = state.cids
        self.group_of = np.full(len(self.cids), -1)
        self.row_of = np.zeros(len(self.cids), dtype=np.int64)
        if like is None:
            counts = np.fromiter(map(len, state.pairs), np.int64, len(state.pairs))
            self.groups: List[Tuple] = []
            for size in np.unique(counts[counts > 0]).tolist():
                slots = np.flatnonzero(counts == size)
                self.group_of[slots] = len(self.groups)
                self.row_of[slots] = np.arange(len(slots))
                self.groups.append(stack_compact_forms([state.pairs[k] for k in slots]))
        else:  # ``like``'s slots, moved to where their clients sit now
            slots = np.searchsorted(self.cids, like.cids)
            self.groups = list(like.groups)
            self.group_of[slots], self.row_of[slots] = like.group_of, like.row_of
        self._plans: Dict[bytes, CohortPlan] = {}

    def plan(
        self,
        present: np.ndarray,
        weigh: Optional[Callable[[np.ndarray], np.ndarray]] = None,
    ) -> "CohortPlan":
        """The :class:`CohortPlan` for a block whose rows are the clients
        ``present`` (ascending), with ``weigh(present)`` as their FedAvg
        weights when given.  Cached per ``present``."""
        key = present.tobytes()
        plan = self._plans.get(key)
        if plan is None:
            plan = self._plans[key] = CohortPlan(self, present, weigh)
        return plan


class CohortPlan:
    """What a round needs of a form for one block of present clients.

    ``slots`` are their slots in the state; ``groups`` holds, per
    pair-count group, its form, the stack rows of the present clients
    and their block rows; ``bare`` the block rows of clients without
    pairs (None when there are none) — each a slice when contiguous,
    else an index array.  ``weights`` and ``total`` are the FedAvg
    weights of the present clients and their sum (None without a
    ``weigh`` function).
    """

    __slots__ = ("slots", "groups", "bare", "weights", "total")

    def __init__(self, form: CohortForm, present: np.ndarray, weigh=None):
        if present.size and not (
            len(form.cids) and found_in(form.cids, present).all()
        ):
            raise KeyError("a present client holds no estimator")
        self.slots = np.searchsorted(form.cids, present)
        of = form.group_of[self.slots]
        self.groups = []
        for g, group in enumerate(form.groups):
            at = np.flatnonzero(of == g)
            if at.size:
                rows = form.row_of[self.slots[at]]
                self.groups.append((group, _index(rows), _index(at)))
        bare = np.flatnonzero(of < 0)
        self.bare = _index(bare) if bare.size else None
        self.weights = self.total = None
        if weigh is not None:
            self.weights = np.asarray(weigh(present), dtype=np.float64)
            if (self.weights < 0).any():
                raise ValueError("weights must be non-negative")
            self.total = self.weights.sum()
            if self.total <= 0:
                raise ValueError("weights sum to zero")

    def fedavg(self, block: np.ndarray) -> np.ndarray:
        """``fedavg(block, weights)`` bit for bit, on a block the caller
        gives up: it is scaled in place, so no ``(K, d)`` temporary is
        built — ``Σ w_k g_k / Σ w_k`` summed in row order."""
        block *= self.weights[:, None]
        return block.sum(axis=0) / self.total


def found_in(ids: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Mask of the ``values`` that are in ``ids`` (ascending, non-empty)."""
    at = np.searchsorted(ids, values)
    return ids[np.minimum(at, len(ids) - 1)] == values


def _index(ids: np.ndarray):
    """Ascending ``ids`` as a slice when contiguous, else themselves."""
    first, last = int(ids[0]), int(ids[-1])
    if last - first + 1 == len(ids):
        return slice(first, last + 1)
    return ids


def _part(index, lo: int, hi: int):
    """Entries ``lo:hi`` of a slice-or-array index."""
    if isinstance(index, slice):
        return slice(index.start + lo, index.start + hi)
    return index[lo:hi]


def estimate_cohort(
    state: CohortState,
    plan: CohortPlan,
    stored: np.ndarray,
    displacement: np.ndarray,
    refresh: bool = False,
) -> np.ndarray:
    """Eq. 6/7 for one replay round's cohort, written into one block.

    ``stored`` is the ``(K, d)`` block of the present clients' stored
    rows (int8 sign rows, or float64), in the order of the ``present``
    that made ``plan`` (:meth:`CohortForm.plan` of a form over
    ``state``), and ``displacement`` the round's flat float64
    ``w̄_t − w_t``.  Row ``k`` of the returned ``(K, d)`` float64 block
    equals the per-client
    :meth:`GradientEstimator.estimate_displaced` of that client's
    estimator on ``stored[k]`` bit for bit, and each present slot's
    ``made`` counter advances by one, with the same telemetry; with
    ``refresh`` the present slots then take the refresh pairs
    (:meth:`CohortState.refresh`).

    Only call shapes that repeat the per-client arithmetic are used
    (``docs/REPLAY.md``): per pair-count group, ``ΔGᵀv``, ``ΔWᵀv`` and
    ``wing·p`` are stacked matrix-vector products over same-layout
    slices (a loop of the per-client ``gemv``), and the middle systems
    go through one stacked ``solve`` (a loop of the same ``gesv``).
    Everything else is element-wise over blocks of rows small enough to
    stay in cache, in one reused scratch buffer: rows without pairs are
    ``0.0 + stored``, clipped (``H̃ = 0``: the per-client chain adds an
    all-zero product) — when they are most of the block, one sweep
    writes every row that way — and each group's rows are ``σv −
    wing·p + stored``, clipped.
    """
    v = displacement
    n = len(plan.slots)
    if stored.shape != (n, v.size):
        raise ValueError(
            f"gradient/displacement mismatch: {stored.shape} vs {v.shape}"
        )
    telemetry = current_telemetry()
    started = time.perf_counter()
    limit = state.clip
    block = np.empty((n, v.size))
    step = max(1, _CHUNK_BYTES // (8 * v.size)) if v.size else max(n, 1)
    scratch = np.empty((2, min(step, n), v.size))
    clip_rates = np.zeros(n)
    drifts = np.zeros(n)

    def clip(rows, out: np.ndarray, part: np.ndarray) -> None:
        """Eq. 7 on ``out``, the estimates of the block rows ``rows``
        before the clip (``part``: their stored rows)."""
        if telemetry.enabled:
            clip_rates[rows] = np.count_nonzero(np.abs(out) > limit, axis=1)
        np.clip(out, -limit, limit, out=out)
        if telemetry.enabled:
            drifts[rows] = np.linalg.norm(out - part, axis=1)

    loose = plan.bare
    if loose is not None:
        count = loose.stop - loose.start if isinstance(loose, slice) else loose.size
        if 2 * count > n:  # most rows: one sweep, the groups overwrite theirs
            loose, count = slice(0, n), n
        for lo in range(0, count, step):
            hi = min(lo + step, count)
            rows = _part(loose, lo, hi)
            direct = isinstance(rows, slice)
            out, part = (block[rows] if direct else scratch[0, : hi - lo]), stored[rows]
            if stored.dtype.kind in "iu":  # ``0.0 + s`` is the cast itself
                np.copyto(out, part)
            else:
                np.add(part, 0.0, out=out)
            clip(rows, out, part)
            if not direct:
                block[rows] = out
    for (dw, which, dg, sig, middle, wing), take, at in plan.groups:
        if dg.shape[1] != v.size:
            raise ValueError(
                f"vector has {v.size} elements, pairs have {dg.shape[1]}"
            )
        s, sg = dg.shape[2], sig[take]
        rhs = np.empty((sg.size, 2 * s, 1))
        np.matmul(dg[take].transpose(0, 2, 1), v, out=rhs[:, :s, 0])
        dwv = np.matmul(dw.transpose(0, 2, 1), v)  # once per distinct ΔW
        np.multiply(dwv[which[take]], sg[:, None], out=rhs[:, s:, 0])
        try:
            p = np.linalg.solve(middle[take], rhs)
        except np.linalg.LinAlgError:
            # One singular middle fails the stack: solve the group one
            # system at a time, with compact_hvp's least-squares fallback.
            p = np.stack(
                [solve_middle(m, r) for m, r in zip(middle[take], rhs[..., 0])]
            )[..., None]
        for lo in range(0, sg.size, step):
            hi = min(lo + step, sg.size)
            rows, sv = _part(at, lo, hi), scratch[1, : hi - lo]
            direct = isinstance(rows, slice)
            wp = block[rows] if direct else scratch[0, : hi - lo]
            np.matmul(wing[_part(take, lo, hi)], p[lo:hi], out=wp[..., None])
            np.multiply(v, sg[lo:hi, None], out=sv)
            np.subtract(sv, wp, out=wp)
            part = stored[rows]
            wp += part
            clip(rows, wp, part)
            if not direct:
                block[rows] = wp
    if telemetry.enabled and n:
        share = (time.perf_counter() - started) / n
        telemetry.inc("lbfgs_hvp_total", n)
        for rate, drift in zip(clip_rates, drifts):
            telemetry.observe("lbfgs_hvp_seconds", share)
            if v.size:
                telemetry.observe("recovery_clip_rate", float(rate) / v.size)
                telemetry.observe("recovery_estimate_drift", float(drift))
    state.made[plan.slots] += 1
    if refresh:
        state.refresh(plan.slots, v, block, stored)
    return block
