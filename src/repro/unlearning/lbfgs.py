"""Compact-form L-BFGS Hessian approximation (Algorithm 2 of the paper).

The recovery step (Eq. 6) needs the integrated Hessian
``H_t^i = ∫ H(w_t + z(w̄_t − w_t)) dz``, which is intractable; the paper
(following FedRecover and DeltaGrad) approximates it with L-BFGS from
*vector pairs* — differences of global models ``Δw`` and of model
updates ``Δg`` from past rounds.

Algorithm 2 is the Byrd–Nocedal–Schnabel compact representation of the
BFGS approximation ``B`` of the Hessian with ``B_0 = σI``:

    B = σI − [ΔG  σΔW] · M⁻¹ · [ΔGᵀ; σΔWᵀ],
    M = [[−D, Lᵀ], [L, σΔWᵀΔW]],

where ``A = ΔWᵀΔG``, ``L = tril(A, −1)``, ``D = diag(A)`` and
``σ = (Δgᵀ_{s−1} Δw_{s−1}) / (Δwᵀ_{s−1} Δw_{s−1})``.

The paper's Algorithm 2 returns the matrix ``H̃``; for real models
(d ~ 10⁴–10⁶) materializing a d×d matrix is impossible, so
:class:`LbfgsBuffer` exposes the Hessian-*vector* product
:meth:`LbfgsBuffer.hvp` (what Eq. 6 actually consumes);
:func:`lbfgs_hessian_dense` is the matrix form, kept as the small-d
reference the tests compare it against.

Robustness: with estimated (sign-direction) vector pairs the curvature
condition ``Δwᵀ Δg > 0`` may fail and ``M`` may be singular.  Pairs
with non-positive or negligible curvature are rejected at insertion,
``σ`` is clamped positive, and the middle system falls back to
least-squares when singular — the same guards FedRecover needs in
practice.

Ownership: a pair is frozen (its arrays made read-only) once, when it
is accepted, and shared by reference from then on — by every replay
snapshot, forest node, restored estimator and forked sibling that holds
it.  Nothing can write to a held pair, so sharing cannot change a
result (``docs/REPLAY.md``).

Telemetry: each Hessian-vector product is timed and counted
(``lbfgs_hvp_seconds`` span, ``lbfgs_hvp_total``), and each checked
insertion (:func:`append_pair`, behind :meth:`LbfgsBuffer.add_pair` /
:meth:`LbfgsBuffer.adopt_pair`) records its timing plus the
accepted/rejected pair counters and the
resulting buffer occupancy — see ``docs/METRICS.md``.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.telemetry.core import current_telemetry

__all__ = [
    "LbfgsBuffer",
    "append_pair",
    "compact_form_matrices",
    "compact_hvp",
    "lbfgs_hessian_dense",
    "solve_middle",
    "stack_compact_forms",
]

_MIN_CURVATURE = 1e-12
_MIN_NORM = 1e-12

#: ``(Δw, Δg)`` pairs, oldest first; every array read-only.
Pairs = Tuple[Tuple[np.ndarray, np.ndarray], ...]


class LbfgsBuffer:
    """Rolling buffer of L-BFGS vector pairs for one client.

    Parameters
    ----------
    buffer_size:
        ``s`` — maximum number of retained pairs (paper default 2).
    sigma_floor:
        Lower clamp for the initial-curvature scalar σ.
    """

    def __init__(self, buffer_size: int = 2, sigma_floor: float = 1e-8):
        if buffer_size < 1:
            raise ValueError("buffer_size must be >= 1")
        if sigma_floor <= 0:
            raise ValueError("sigma_floor must be positive")
        self.buffer_size = buffer_size
        self.sigma_floor = sigma_floor
        # Replaced, never mutated, on each accepted insertion: a holder
        # of :meth:`pairs` never sees it change.
        self._pairs: Pairs = ()
        # Cached compact form (ΔW, ΔG, σ, M, wing); rebuilt lazily after
        # any pair mutation.  The cached arrays are shared with callers
        # (compact_form, compact_hvp) and must be treated as read-only.
        self._form: Optional[
            Tuple[np.ndarray, np.ndarray, float, np.ndarray, np.ndarray]
        ] = None

    def __len__(self) -> int:
        return len(self._pairs)

    @property
    def is_empty(self) -> bool:
        """True when no usable curvature information is held."""
        return not self._pairs

    def add_pair(self, delta_w: np.ndarray, delta_g: np.ndarray) -> bool:
        """Insert a copy of a caller-owned vector pair; False if rejected.

        The caller keeps its arrays and may go on writing to them.
        Rejection reasons: shape mismatch is an error; near-zero
        ``Δw`` or non-positive curvature ``ΔwᵀΔg`` are silently skipped
        (they would make BFGS indefinite).
        """
        return self.adopt_pair(
            np.array(delta_w, dtype=np.float64).ravel(),
            np.array(delta_g, dtype=np.float64).ravel(),
        )

    def adopt_pair(self, delta_w: np.ndarray, delta_g: np.ndarray) -> bool:
        """:meth:`add_pair` without the copy, for the replay machinery,
        whose pairs are temporaries nobody else writes to: see
        :func:`append_pair`."""
        pairs = append_pair(self._pairs, delta_w, delta_g, self.buffer_size)
        if pairs is None:
            return False
        self._pairs = pairs
        self._form = None
        return True

    def adopt_pairs(self, pairs: Pairs) -> None:
        """Hold exactly ``pairs`` — another buffer's :meth:`pairs`, by
        reference (they passed the checks when first accepted)."""
        self._pairs = pairs
        self._form = None

    def pairs(self) -> Pairs:
        """The held pairs — shared by reference, not copied, in a tuple
        that never changes.

        The serialization surface for recovery checkpoints and replay
        snapshots: :meth:`adopt_pairs` on these reconstructs an
        identical buffer without copying a byte.
        """
        return self._pairs

    # ------------------------------------------------------------------
    def _matrices(self) -> Tuple[np.ndarray, np.ndarray, float]:
        """Stack pairs into (ΔW, ΔG) of shape (d, s) and compute σ."""
        dw = np.stack([p[0] for p in self._pairs], axis=1)
        dg = np.stack([p[1] for p in self._pairs], axis=1)
        s_last = dw[:, -1]
        y_last = dg[:, -1]
        sigma = float(y_last @ s_last) / float(s_last @ s_last)
        sigma = max(sigma, self.sigma_floor)
        return dw, dg, sigma

    def compact_form(
        self,
    ) -> Optional[Tuple[np.ndarray, np.ndarray, float, np.ndarray, np.ndarray]]:
        """The cached ``(ΔW, ΔG, σ, M, wing)`` compact form, or None
        when empty.

        The middle matrix ``M`` and the wing ``[ΔG  σΔW]`` depend only
        on the held pairs, so within one recovery round (dozens of
        ``hvp`` calls against an unchanged buffer) they are built once
        here instead of once per product.  Invalidated by every pair
        mutation.  The arrays are the cache itself: treat them as
        read-only.  (The replay's cohort kernel reads a node's stacked
        forms instead, :func:`stack_compact_forms`.)
        """
        if self.is_empty:
            return None
        form = self._form
        if form is None:
            dw, dg, sigma = self._matrices()
            middle, wing = compact_form_matrices(dw, dg, sigma)
            form = self._form = (dw, dg, sigma, middle, wing)
        return form

    def hvp(self, vector: np.ndarray) -> np.ndarray:
        """Approximate ``H̃ · vector``.

        With an empty buffer the approximation is ``H̃ = 0`` — i.e.
        Eq. 6 degenerates to ``ḡ = g``, which is the bootstrap behaviour
        for clients lacking pre-``F`` history (see §IV-B).
        """
        telemetry = current_telemetry()
        if telemetry.enabled:
            telemetry.inc("lbfgs_hvp_total")
        with telemetry.span("lbfgs_hvp_seconds"):
            return self._hvp(vector)

    def _hvp(self, vector: np.ndarray) -> np.ndarray:
        vector = np.asarray(vector, dtype=np.float64).ravel()
        form = self.compact_form()
        if form is None:
            return np.zeros_like(vector)
        dw, dg, sigma, middle, wing = form
        if dw.shape[0] != vector.size:
            raise ValueError(
                f"vector has {vector.size} elements, pairs have {dw.shape[0]}"
            )
        return compact_hvp(dw, dg, sigma, vector, middle=middle, wing=wing)


def append_pair(
    pairs: Pairs, delta_w: np.ndarray, delta_g: np.ndarray, buffer_size: int
) -> Optional[Pairs]:
    """``pairs`` with ``(Δw, Δg)`` appended, the oldest rolled out past
    ``buffer_size`` — or None when the pair is rejected: near-zero
    ``Δw`` or non-positive curvature ``ΔwᵀΔg`` (they would make BFGS
    indefinite); a shape mismatch is an error.

    The pair is adopted, not copied: both must be flat float64, and an
    accepted pair is frozen in place (``delta_w`` may be frozen already
    — one displacement serves a replay round's whole cohort).
    """
    telemetry = current_telemetry()
    with telemetry.span("lbfgs_buffer_update_seconds"):
        if delta_w.shape != delta_g.shape:
            raise ValueError(
                f"pair shape mismatch: {delta_w.shape} vs {delta_g.shape}"
            )
        accepted = (
            float(np.linalg.norm(delta_w)) >= _MIN_NORM
            and float(delta_w @ delta_g) > _MIN_CURVATURE
        )
        if accepted:
            delta_w.flags.writeable = False
            delta_g.flags.writeable = False
            pairs = (pairs + ((delta_w, delta_g),))[-buffer_size:]
    if telemetry.enabled:
        if accepted:
            telemetry.inc("lbfgs_pairs_accepted_total")
            telemetry.set_gauge("lbfgs_buffer_pairs", len(pairs))
        else:
            telemetry.inc("lbfgs_pairs_rejected_total")
    return pairs if accepted else None


def compact_form_matrices(
    delta_w: np.ndarray,
    delta_g: np.ndarray,
    sigma: float,
    gram: Optional[np.ndarray] = None,
    middle: Optional[np.ndarray] = None,
    wing: Optional[np.ndarray] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Build the vector-independent factors of Algorithm 2.

    Returns ``(M, wing)`` — the ``(2s, 2s)`` middle matrix and the
    ``(d, 2s)`` wing ``[ΔG  σΔW]``.  Both depend only on the pair
    matrices, so a buffer serving many Hessian-vector products against
    the same pairs computes them once (see
    :meth:`LbfgsBuffer.compact_form`).  ``gram`` may pass ``ΔWᵀΔW``
    precomputed, and ``middle``/``wing`` may be rows of a stack to fill
    (:func:`stack_compact_forms`); the values are the same either way.
    """
    dw, dg = delta_w, delta_g
    a = dw.T @ dg  # (s, s)
    lower = np.tril(a, k=-1)
    s = a.shape[0]
    middle = np.empty((2 * s, 2 * s)) if middle is None else middle
    middle[:s, :s] = -np.diag(np.diag(a))
    middle[:s, s:] = lower.T
    middle[s:, :s] = lower
    middle[s:, s:] = sigma * (dw.T @ dw if gram is None else gram)
    # Column by column: the values of np.concatenate, without its copy.
    wing = np.empty((dw.shape[0], 2 * s)) if wing is None else wing
    wing[:, :s] = dg
    np.multiply(dw, sigma, out=wing[:, s:])
    return middle, wing


def stack_compact_forms(
    held: Sequence[Pairs], sigma_floor: float = 1e-8
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The compact forms of pairs values holding ``s`` pairs each (a
    buffer's :meth:`LbfgsBuffer.pairs`), stacked: ``(ΔW, which, ΔG, σ,
    M, wing)`` shaped ``(u, d, s)``, ``(n,)``, ``(n, d, s)``, ``(n,)``,
    ``(n, 2s, 2s)`` and ``(n, d, 2s)``.

    Row ``k`` holds the values of the ``compact_form()`` of a buffer
    holding ``held[k]``, its ``ΔW`` being ``ΔW[which[k]]``: one matrix
    per distinct tuple of frozen ``Δw`` arrays (``u = 1`` when every
    row shares them — a replay round's refresh, or one seeding anchor),
    with ``ΔWᵀΔW`` and ``Δwᵀ_{s−1}Δw_{s−1}`` computed once per distinct
    ``ΔW``.  σ comes from the stacked ``(d, s)`` columns, as in
    :meth:`LbfgsBuffer._matrices` — a dot of strided columns, whose bits
    a dot of the contiguous pair arrays need not share.
    """
    n, s = len(held), len(held[0])
    d = held[0][0][0].size
    keys = [tuple(id(w) for w, _ in pairs) for pairs in held]
    slots = {key: u for u, key in enumerate(dict.fromkeys(keys))}  # Δw ids -> ΔW
    which = np.array([slots[key] for key in keys])
    dw = np.empty((len(slots), d, s))
    dg = np.empty((n, d, s))
    sigma = np.empty(n)
    middle = np.empty((n, 2 * s, 2 * s))
    wing = np.empty((n, d, 2 * s))
    grams: List[Optional[Tuple[np.ndarray, float]]] = [None] * len(slots)
    for k, pairs in enumerate(held):
        u = which[k]
        for j, (w, g) in enumerate(pairs):
            dg[k, :, j] = g
            if grams[u] is None:
                dw[u, :, j] = w
        if grams[u] is None:
            grams[u] = (dw[u].T @ dw[u], float(dw[u, :, -1] @ dw[u, :, -1]))
        gram, ss = grams[u]
        sigma[k] = max(float(dg[k, :, -1] @ dw[u, :, -1]) / ss, sigma_floor)
        compact_form_matrices(dw[u], dg[k], sigma[k], gram, middle[k], wing[k])
    for array in (dw, which, dg, sigma, middle, wing):
        array.flags.writeable = False  # shared by reference, like the pairs
    return dw, which, dg, sigma, middle, wing


def compact_hvp(
    delta_w: np.ndarray,
    delta_g: np.ndarray,
    sigma: float,
    vector: np.ndarray,
    middle: Optional[np.ndarray] = None,
    wing: Optional[np.ndarray] = None,
) -> np.ndarray:
    """The compact-form Hessian-vector product ``H̃ · vector``.

    The pure arithmetic core of Algorithm 2 behind
    :meth:`LbfgsBuffer.hvp`.  ``delta_w``/``delta_g`` are the stacked
    ``(d, s)`` pair matrices and ``sigma`` the (already clamped)
    initial-curvature scalar — the first three items of
    :meth:`LbfgsBuffer.compact_form`.

    ``middle``/``wing`` may be passed precomputed (from
    :func:`compact_form_matrices` on the same ``ΔW, ΔG, σ``); the
    result is bitwise-identical either way since the factors are a
    deterministic function of the pairs.
    """
    dw, dg = delta_w, delta_g
    if middle is None or wing is None:
        middle, wing = compact_form_matrices(dw, dg, sigma)
    rhs = np.concatenate([dg.T @ vector, sigma * (dw.T @ vector)])
    return sigma * vector - wing @ solve_middle(middle, rhs)


def solve_middle(middle: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """``p = M⁻¹ · rhs`` for one middle system; least squares when ``M``
    is singular."""
    try:
        return np.linalg.solve(middle, rhs)
    except np.linalg.LinAlgError:
        return np.linalg.lstsq(middle, rhs, rcond=None)[0]


def lbfgs_hessian_dense(
    delta_w: np.ndarray, delta_g: np.ndarray, sigma: Optional[float] = None
) -> np.ndarray:
    """Direct transcription of Algorithm 2 (matrix form), for testing.

    Parameters
    ----------
    delta_w, delta_g:
        Vector-pair matrices of shape ``(d, s)``.
    sigma:
        Optional σ override; defaults to the paper's last-pair ratio.
    """
    dw = np.asarray(delta_w, dtype=np.float64)
    dg = np.asarray(delta_g, dtype=np.float64)
    if dw.shape != dg.shape or dw.ndim != 2:
        raise ValueError("delta_w and delta_g must share shape (d, s)")
    d, s = dw.shape
    if sigma is None:
        sigma = float(dg[:, -1] @ dw[:, -1]) / float(dw[:, -1] @ dw[:, -1])
    a = dw.T @ dg
    lower = np.tril(a, k=-1)
    diag = np.diag(np.diag(a))
    middle = np.block([[-diag, lower.T], [lower, sigma * (dw.T @ dw)]])
    rhs = np.concatenate([dg.T, sigma * dw.T], axis=0)  # (2s, d)
    p = np.linalg.solve(middle, rhs)
    return sigma * np.eye(d) - np.concatenate([dg, sigma * dw], axis=1) @ p
