"""Contiguous parameter/gradient arenas and reusable scratch workspaces.

The flat-vector algebra of the paper (aggregation Eq. 1/2, backtracking
Eq. 5, L-BFGS recovery Eq. 6/7) lives in ``R^d``, but the layers hold
parameters as a list of shaped arrays.  Before the arena, every
transition between the two representations was a full copy of the model
— ``flatten_arrays`` / ``unflatten_vector`` round-trips on every client
of every round.

:class:`ParameterArena` removes the transition entirely: it owns ONE
flat parameter buffer ``w`` and ONE flat gradient buffer ``g``, carved
into reshaped *views* (one per layer parameter, in flatten order).
Layers adopt the views as their ``weight``/``bias``/``grad_*`` arrays,
so after binding:

- the flat vector and the layer arrays are the *same memory*;
- ``get_flat_params`` is a single ``copy()`` of ``w``;
- ``set_flat_params`` is a single ``np.copyto`` into ``w``;
- the flat gradient after a backward pass already exists in ``g`` — no
  concatenation ever happens again.

:class:`Workspace` is the companion for the *transient* hot-path
buffers (im2col patch matrices, col2im accumulators, pooling masks):
a shape-keyed pool of scratch arrays that steady-state forward/backward
passes reuse instead of reallocating.  Workspace contents are pure
scratch — they are deliberately dropped on ``deepcopy``/``pickle`` so
scratch models (the training fan-out's per-thread clones) and pickled
copies start with empty pools instead of carrying dead buffers.

:class:`BranchArena` extends the same layout idea across *models*: one
contiguous ``(capacity, d)`` matrix whose rows are flat parameter
vectors of sibling replay branches (the replay forest's fused
execution, :mod:`repro.unlearning.forest`).  Rows are acquired and
released like slots; each live branch mutates its own row *view*
in place, and the fused SGD step over all sibling branches is one
stacked element-wise pass.  Element-wise ufuncs are applied per
element, so every row of the stacked step is **bitwise identical** to
running :meth:`repro.nn.optim.SGD.step_` on that row alone — the
property the forest's byte-identity contract leans on.
"""

from __future__ import annotations

from typing import Dict, Hashable, List, Optional, Sequence, Tuple

import numpy as np

from repro.utils.flat import total_size, unflatten_views

__all__ = ["BranchArena", "ParameterArena", "Workspace"]


class ParameterArena:
    """One flat parameter buffer + one flat gradient buffer for a model.

    Parameters
    ----------
    shapes:
        Per-parameter shapes in flatten order (layer order, each layer's
        ``params()`` order) — the same order
        :func:`repro.utils.flat.flatten_arrays` would use.
    dtype:
        Element dtype of both buffers.  ``float64`` (default) preserves
        the bitwise-determinism contract; ``float32`` is the opt-in
        compute policy (flat-vector algebra outside the arena stays
        float64 — see :class:`repro.nn.model.Sequential`).
    """

    def __init__(self, shapes: Sequence[Tuple[int, ...]], dtype=np.float64):
        self.shapes: List[Tuple[int, ...]] = [tuple(s) for s in shapes]
        self.dtype = np.dtype(dtype)
        if self.dtype.kind != "f":
            raise ValueError(f"arena dtype must be floating, got {self.dtype}")
        self.size = total_size(self.shapes)
        self.w = np.zeros(self.size, dtype=self.dtype)
        self.g = np.zeros(self.size, dtype=self.dtype)
        self.param_views = unflatten_views(self.w, self.shapes)
        self.grad_views = unflatten_views(self.g, self.shapes)

    @property
    def nbytes(self) -> int:
        """Bytes held by the two flat buffers."""
        return int(self.w.nbytes + self.g.nbytes)

    def readonly_params(self) -> np.ndarray:
        """A read-only view of the flat parameter buffer (zero-copy)."""
        view = self.w.view()
        view.flags.writeable = False
        return view

    def readonly_grads(self) -> np.ndarray:
        """A read-only view of the flat gradient buffer (zero-copy)."""
        view = self.g.view()
        view.flags.writeable = False
        return view

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ParameterArena(d={self.size}, dtype={self.dtype.name})"


class BranchArena:
    """Stacked ``(capacity, d)`` parameter matrix for fused branch replay.

    Each row holds one replay branch's flat parameter vector.  Rows are
    leased with :meth:`acquire` (lowest free index first, so allocation
    order is deterministic) and returned with :meth:`release`; a
    branch's live state is the writable row *view* from :meth:`row`, so
    per-branch mutation is in place and the whole fleet stays in one
    contiguous buffer.

    :meth:`step_rows` is the stacked form of Eq. 2's step: one stacked
    multiply and one stacked subtract over many rows, in place of K
    serial :meth:`repro.nn.optim.SGD.step_` calls.  Both are element-wise
    ufuncs, so row ``k`` of the fused result is bitwise identical to a
    serial step on row ``k`` alone (asserted in
    ``tests/test_replay_forest.py``).
    """

    def __init__(self, capacity: int, size: int, dtype=np.float64):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        if size < 0:
            raise ValueError("size must be >= 0")
        self.capacity = int(capacity)
        self.size = int(size)
        self.dtype = np.dtype(dtype)
        if self.dtype.kind != "f":
            raise ValueError(f"arena dtype must be floating, got {self.dtype}")
        self.wm = np.zeros((self.capacity, self.size), dtype=self.dtype)
        # Stack of free rows, popped lowest-first for determinism.
        self._free: List[int] = list(range(self.capacity - 1, -1, -1))

    @property
    def nbytes(self) -> int:
        """Bytes held by the stacked buffer."""
        return int(self.wm.nbytes)

    @property
    def active(self) -> int:
        """Rows currently leased to branches."""
        return self.capacity - len(self._free)

    def acquire(self, initial: Optional[np.ndarray] = None) -> int:
        """Lease the lowest free row, optionally copying ``initial``
        into it; returns the row index."""
        if not self._free:
            raise RuntimeError(
                f"branch arena exhausted ({self.capacity} rows leased)"
            )
        row = self._free.pop()
        if initial is not None:
            np.copyto(self.wm[row], np.asarray(initial, dtype=self.dtype).ravel())
        return row

    def release(self, row: int) -> None:
        """Return a leased row to the free pool."""
        if row < 0 or row >= self.capacity:
            raise ValueError(f"row {row} out of range")
        if row in self._free:
            raise ValueError(f"row {row} is not leased")
        self._free.append(row)
        self._free.sort(reverse=True)

    def row(self, row: int) -> np.ndarray:
        """The writable ``(d,)`` view of one branch's parameters."""
        return self.wm[row]

    def step_rows(
        self, indices: Sequence[int], grads: np.ndarray, lr: float
    ) -> None:
        """Fused in-place SGD step ``w_k ← w_k − lr · g_k`` on many rows.

        ``grads`` is ``(len(indices), d)``, row ``k`` being branch
        ``indices[k]``'s aggregated update.  Bitwise identical per row
        to the serial :meth:`repro.nn.optim.SGD.step_`.
        """
        idx = list(indices)
        if not idx:
            return
        grads = np.asarray(grads, dtype=self.dtype)
        if grads.shape != (len(idx), self.size):
            raise ValueError(
                f"grads shape {grads.shape} != ({len(idx)}, {self.size})"
            )
        scaled = np.multiply(grads, self.dtype.type(lr))
        # Gather → element-wise subtract → scatter: each row sees the
        # exact serial two-op sequence (multiply then subtract).
        gathered = self.wm[idx]
        np.subtract(gathered, scaled, out=gathered)
        self.wm[idx] = gathered

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"BranchArena(capacity={self.capacity}, d={self.size}, "
            f"active={self.active})"
        )


class Workspace:
    """Shape-keyed pool of reusable scratch buffers.

    ``get(name, shape, dtype)`` returns the cached buffer for that
    ``(name, shape, dtype)`` key, allocating it on first use.  Callers
    own the *contents* only until their next ``get`` of the same key —
    buffers are scratch, never long-term storage.

    ``zero=True`` zeroes the buffer only when it is first allocated
    (for buffers whose border must be zero but whose interior is
    overwritten every call, e.g. the im2col padded image).
    """

    __slots__ = ("_buffers",)

    def __init__(self) -> None:
        self._buffers: Dict[tuple, np.ndarray] = {}

    def get(
        self,
        name: Hashable,
        shape: Tuple[int, ...],
        dtype=np.float64,
        zero: bool = False,
    ) -> np.ndarray:
        """Return the cached buffer for ``(name, shape, dtype)``,
        allocating (zeroed iff ``zero``) on first use."""
        key = (name, tuple(shape), np.dtype(dtype))
        buf = self._buffers.get(key)
        if buf is None:
            buf = (
                np.zeros(key[1], dtype=key[2])
                if zero
                else np.empty(key[1], dtype=key[2])
            )
            self._buffers[key] = buf
        return buf

    def clear(self) -> None:
        """Release every cached buffer."""
        self._buffers.clear()

    @property
    def nbytes(self) -> int:
        """Bytes currently held by the pool."""
        return int(sum(b.nbytes for b in self._buffers.values()))

    def __len__(self) -> int:
        return len(self._buffers)

    # Scratch never travels: fresh empty pools for copies and workers.
    def __deepcopy__(self, memo) -> "Workspace":
        return Workspace()

    def __reduce__(self):
        return (Workspace, ())
