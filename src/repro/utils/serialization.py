"""Serialization of experiment artifacts.

Three kinds of artifacts:

- experiment result records (nested dict of scalars/lists) — ``.json``
- crash-safe state (named arrays + a JSON metadata blob, written
  atomically) — ``.npz``
- packed sign-gradient archives — handled by :mod:`repro.storage`

Everything here is plain-stdlib + NumPy; no pickle, so artifacts are
portable and safe to load.
"""

from __future__ import annotations

import json
import os
from typing import Any, Dict, Mapping, Tuple

import numpy as np

__all__ = [
    "save_json",
    "save_state_atomic",
    "load_state",
    "fsync_dir",
]

_META_KEY = "__meta_json__"


def fsync_dir(path: str) -> None:
    """fsync a directory so a preceding ``os.replace`` into it is durable.

    ``os.replace`` is atomic, but the new directory entry only survives
    a power failure once the directory itself has been fsynced — commit
    markers (manifests, tombstone sidecars) call this right after the
    rename.  Platforms that cannot open a directory read-only simply
    skip the sync.
    """
    try:
        fd = os.open(path, os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)


def _jsonify(value: Any) -> Any:
    """Recursively convert NumPy scalars/arrays into JSON-native types."""
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, (np.floating, np.integer)):
        return value.item()
    if isinstance(value, Mapping):
        return {str(k): _jsonify(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonify(v) for v in value]
    return value


def save_json(path: str, record: Mapping[str, Any]) -> None:
    """Write ``record`` as pretty-printed JSON, creating parent dirs."""
    parent = os.path.dirname(os.path.abspath(path))
    os.makedirs(parent, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(_jsonify(dict(record)), fh, indent=2, sort_keys=True)
        fh.write("\n")



def save_state_atomic(
    path: str, arrays: Mapping[str, np.ndarray], meta: Mapping[str, Any]
) -> None:
    """Atomically write arrays + a JSON metadata blob as one ``.npz``.

    The archive is written to ``path + ".tmp"`` and ``os.replace``-d
    into place, so a crashed writer leaves either the previous snapshot
    or the new one — never a half-written file.  Used by the round
    journal and the recovery checkpoints, whose whole purpose is to
    survive exactly that crash.
    """
    parent = os.path.dirname(os.path.abspath(path))
    os.makedirs(parent, exist_ok=True)
    if _META_KEY in arrays:
        raise ValueError(f"array name {_META_KEY!r} is reserved")
    blob = np.frombuffer(
        json.dumps(_jsonify(dict(meta)), sort_keys=True).encode("utf-8"),
        dtype=np.uint8,
    )
    tmp = path + ".tmp"
    with open(tmp, "wb") as fh:
        np.savez(fh, **{_META_KEY: blob}, **{k: np.asarray(v) for k, v in arrays.items()})
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)


def load_state(path: str) -> Tuple[Dict[str, np.ndarray], Dict[str, Any]]:
    """Load a snapshot written by :func:`save_state_atomic`.

    Returns ``(arrays, meta)``.  Raises whatever ``np.load`` raises on
    a damaged archive — callers wrap that into their domain error.
    """
    with np.load(path) as data:
        if _META_KEY not in data.files:
            raise KeyError(f"{path} has no {_META_KEY!r} entry — not a state snapshot")
        meta = json.loads(bytes(data[_META_KEY]).decode("utf-8"))
        arrays = {n: data[n].copy() for n in data.files if n != _META_KEY}
    return arrays, meta
