"""Disk persistence of the server's training record.

Unlearning requests arrive long after training finishes (a vehicle
exercising its right to be forgotten months later; an attack detected
retrospectively), so the RSU must keep its history across restarts.
:func:`save_record` / :func:`load_record` serialize a complete
:class:`~repro.fl.history.TrainingRecord` to a directory:

```
<dir>/
  manifest.json        # rounds, lr, aggregator, store kind, sizes, ledger
  checkpoints.npz      # w_0 ... w_T (float32)
  gradients.npz        # per (round, client) payloads
```

Formats are plain JSON + ``.npz`` — no pickle, so records are safe to
load and portable across NumPy versions.  Both store kinds round-trip
exactly: the sign store's packed 2-bit payloads are written verbatim,
preserving the storage savings on disk.

Crash safety: all three files are staged in a temporary directory and
``os.replace``-d into place with ``manifest.json`` last.  The manifest
is the commit marker — a writer killed mid-save leaves either the
previous complete record or no manifest at all, never a record that
loads half-written data.  On the read side every structural defect a
torn write or bad sector can produce (undecodable ``.npz``, missing
manifest keys, ``sign_lengths`` referencing absent payloads, checkpoint
or gradient rounds outside ``0 … T``) surfaces as a single
:class:`RecordCorruptionError` naming the offending file and key.
"""

from __future__ import annotations

import json
import os
import shutil
import tempfile
import zipfile
from typing import Dict, Optional, Tuple

import numpy as np

from repro.fl.history import TrainingRecord
from repro.fl.membership import MembershipLedger
from repro.storage.tiered import TieredSignGradientStore
from repro.storage.store import (
    FullGradientStore,
    GradientStore,
    ModelCheckpointStore,
    SignGradientStore,
    make_gradient_store,
)
from repro.utils.serialization import load_json, save_json

__all__ = [
    "save_record",
    "load_record",
    "RecordCorruptionError",
    "store_to_arrays",
    "store_from_arrays",
]

_MANIFEST = "manifest.json"
_CHECKPOINTS = "checkpoints.npz"
_GRADIENTS = "gradients.npz"

_REQUIRED_MANIFEST_KEYS = (
    "format_version",
    "num_rounds",
    "learning_rate",
    "aggregator",
    "store_kind",
    "sign_lengths",
    "client_sizes",
    "ledger",
    "accuracy_history",
    "metadata",
)


class RecordCorruptionError(RuntimeError):
    """A persisted training record is damaged or incomplete.

    Raised by :func:`load_record` (and the round journal) for every
    defect class a crash or disk fault can produce, with a message
    naming the offending file and, where applicable, the key — so an
    operator knows *which* artifact to restore from backup.
    """


# ----------------------------------------------------------------------
# gradient-store <-> array packing (shared with the round journal)
# ----------------------------------------------------------------------
def store_to_arrays(
    store: GradientStore,
) -> Tuple[str, Dict[str, np.ndarray], Dict[str, int], Optional[float]]:
    """Flatten a gradient store into npz-ready arrays.

    Returns ``(kind, arrays, sign_lengths, sign_delta)`` where arrays
    are keyed ``g_<round>_<client>``.  Uses only the store's public
    :meth:`~repro.storage.store.GradientStore.items` surface.
    """
    arrays: Dict[str, np.ndarray] = {}
    lengths: Dict[str, int] = {}
    if isinstance(store, (SignGradientStore, TieredSignGradientStore)):
        # Both sign backends expose the same ((round, client),
        # (packed, length)) items surface, so an on-disk-served record
        # persists as kind "sign" and reloads as a dict store — the
        # native restart path for the on-disk layout is its own open().
        for (t, cid), (packed, length) in store.items():
            arrays[f"g_{t}_{cid}"] = np.asarray(packed)
            lengths[f"g_{t}_{cid}"] = length
        return "sign", arrays, lengths, store.delta
    if isinstance(store, FullGradientStore):
        for (t, cid), gradient in store.items():
            arrays[f"g_{t}_{cid}"] = gradient
        return "full", arrays, lengths, None
    raise TypeError(f"cannot persist gradient store of type {type(store).__name__}")


def store_from_arrays(
    kind: str,
    arrays: Dict[str, np.ndarray],
    sign_lengths: Dict[str, int],
    sign_delta: Optional[float],
    source: str = "<arrays>",
) -> GradientStore:
    """Rebuild a gradient store from :func:`store_to_arrays` output.

    ``source`` names the originating file in error messages.  Raises
    :class:`RecordCorruptionError` on malformed entry names, length
    mismatches, or ``sign_lengths`` referencing absent payloads.
    """
    if kind == "sign":
        if sign_delta is None:
            raise RecordCorruptionError(f"{source}: sign store without sign_delta")
        store = make_gradient_store("sign", delta=float(sign_delta))
        missing = sorted(set(sign_lengths) - set(arrays))
        if missing:
            raise RecordCorruptionError(
                f"{source}: sign_lengths references missing entries {missing[:5]}"
            )
        for name, packed in arrays.items():
            t, cid = _parse_entry(name, source)
            if name not in sign_lengths:
                raise RecordCorruptionError(
                    f"{source}: entry {name!r} has no sign_lengths record"
                )
            try:
                store.put_encoded(
                    t, cid, packed.astype(np.uint8), int(sign_lengths[name])
                )
            except ValueError as exc:
                raise RecordCorruptionError(f"{source}: entry {name!r}: {exc}") from exc
        return store
    if kind == "full":
        store = make_gradient_store("full")
        for name, gradient in arrays.items():
            t, cid = _parse_entry(name, source)
            store.put(t, cid, np.asarray(gradient, dtype=np.float32))
        return store
    raise RecordCorruptionError(f"{source}: unknown store kind {kind!r}")


def _parse_entry(name: str, source: str) -> Tuple[int, int]:
    """Parse a ``g_<round>_<client>`` entry name; corrupt names raise."""
    parts = name.split("_")
    if len(parts) != 3 or parts[0] != "g":
        raise RecordCorruptionError(f"{source}: malformed entry name {name!r}")
    try:
        return int(parts[1]), int(parts[2])
    except ValueError as exc:
        raise RecordCorruptionError(
            f"{source}: malformed entry name {name!r}"
        ) from exc


def _load_npz(path: str) -> Dict[str, np.ndarray]:
    """Read a whole ``.npz``, turning decode failures into corruption errors.

    Eagerly materializes every member so truncated or bit-flipped
    payloads are detected here, not lazily at first access.
    """
    if not os.path.exists(path):
        raise RecordCorruptionError(f"{os.path.basename(path)}: file is missing")
    try:
        with np.load(path) as data:
            out: Dict[str, np.ndarray] = {}
            for name in data.files:
                member = data[name]
                if not isinstance(member, np.ndarray):
                    # numpy hands back raw bytes when a zip member no
                    # longer parses as .npy (bit rot under an intact
                    # directory table).
                    raise RecordCorruptionError(
                        f"{os.path.basename(path)}: entry {name!r} does not "
                        f"decode to an array"
                    )
                out[name] = member.copy()
            return out
    except (zipfile.BadZipFile, ValueError, OSError, EOFError, KeyError) as exc:
        raise RecordCorruptionError(
            f"{os.path.basename(path)}: cannot decode ({exc})"
        ) from exc


# ----------------------------------------------------------------------
# save / load
# ----------------------------------------------------------------------
def save_record(record: TrainingRecord, directory: str) -> None:
    """Write ``record`` into ``directory`` (created if missing).

    Crash-safe: files are staged in a temp dir next to their final
    location and moved in with ``os.replace`` — npz payloads first,
    ``manifest.json`` (the commit marker) last.
    """
    os.makedirs(directory, exist_ok=True)
    kind, gradient_arrays, lengths, delta = store_to_arrays(record.gradients)
    checkpoints = {
        f"w_{t}": record.checkpoints.get(t).astype(np.float32)
        for t in record.checkpoints.rounds()
    }
    manifest = {
        "format_version": 1,
        "num_rounds": record.num_rounds,
        "learning_rate": record.learning_rate,
        "aggregator": record.aggregator,
        "store_kind": kind,
        "sign_delta": delta,
        "sign_lengths": lengths,
        "client_sizes": {str(c): n for c, n in record.client_sizes.items()},
        "ledger": record.ledger.to_dict(),
        "accuracy_history": list(record.accuracy_history),
        "metadata": dict(record.metadata),
    }

    staging = tempfile.mkdtemp(prefix=".staging-", dir=directory)
    try:
        np.savez_compressed(os.path.join(staging, _CHECKPOINTS), **checkpoints)
        np.savez_compressed(os.path.join(staging, _GRADIENTS), **gradient_arrays)
        save_json(os.path.join(staging, _MANIFEST), manifest)
        # Commit: payloads first, manifest last.
        for name in (_CHECKPOINTS, _GRADIENTS, _MANIFEST):
            os.replace(os.path.join(staging, name), os.path.join(directory, name))
    finally:
        shutil.rmtree(staging, ignore_errors=True)


def load_record(directory: str) -> TrainingRecord:
    """Load a record previously written by :func:`save_record`.

    Raises ``FileNotFoundError`` when no record exists (no manifest)
    and :class:`RecordCorruptionError` when one exists but is damaged.
    """
    manifest_path = os.path.join(directory, _MANIFEST)
    try:
        manifest = load_json(manifest_path)
    except json.JSONDecodeError as exc:
        raise RecordCorruptionError(f"{_MANIFEST}: invalid JSON ({exc})") from exc
    missing_keys = [k for k in _REQUIRED_MANIFEST_KEYS if k not in manifest]
    if missing_keys:
        raise RecordCorruptionError(f"{_MANIFEST}: missing keys {missing_keys}")
    if manifest["format_version"] != 1:
        raise ValueError(
            f"unsupported record format {manifest.get('format_version')!r}"
        )
    num_rounds = int(manifest["num_rounds"])

    checkpoint_arrays = _load_npz(os.path.join(directory, _CHECKPOINTS))
    checkpoints = ModelCheckpointStore()
    for name, params in checkpoint_arrays.items():
        parts = name.split("_")
        if len(parts) != 2 or parts[0] != "w" or not parts[1].isdigit():
            raise RecordCorruptionError(
                f"{_CHECKPOINTS}: malformed entry name {name!r}"
            )
        checkpoints.put(int(parts[1]), params)
    for t in range(num_rounds + 1):
        if not checkpoints.has(t):
            raise RecordCorruptionError(
                f"{_CHECKPOINTS}: missing checkpoint w_{t} "
                f"(manifest declares {num_rounds} rounds)"
            )

    store = store_from_arrays(
        manifest["store_kind"],
        _load_npz(os.path.join(directory, _GRADIENTS)),
        manifest["sign_lengths"],
        manifest.get("sign_delta"),
        source=_GRADIENTS,
    )
    stale = [t for t in store.rounds() if not 0 <= t < num_rounds]
    if stale:
        raise RecordCorruptionError(
            f"{_GRADIENTS}: gradient rounds {stale[:5]} outside the manifest's "
            f"0..{num_rounds - 1} range"
        )

    try:
        ledger = MembershipLedger.from_dict(manifest["ledger"])
        client_sizes = {int(c): int(n) for c, n in manifest["client_sizes"].items()}
    except (KeyError, TypeError, ValueError) as exc:
        raise RecordCorruptionError(f"{_MANIFEST}: bad ledger/sizes ({exc})") from exc

    return TrainingRecord(
        checkpoints=checkpoints,
        gradients=store,
        ledger=ledger,
        client_sizes=client_sizes,
        num_rounds=num_rounds,
        learning_rate=float(manifest["learning_rate"]),
        aggregator=manifest["aggregator"],
        accuracy_history=[float(a) for a in manifest["accuracy_history"]],
        metadata=dict(manifest["metadata"]),
    )
