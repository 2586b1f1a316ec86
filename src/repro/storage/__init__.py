"""Server-side storage: the paper's 2-bit sign-direction codec and the
per-round gradient/model history stores used by every unlearning method."""

from repro.storage.sign_codec import (
    decode_gradient,
    decode_round,
    encode_gradient,
    encode_round,
    pack_signs,
    pack_signs_batch,
    packed_size_bytes,
    storage_savings_ratio,
    ternarize,
    unpack_signs,
)
from repro.storage.prefetch import RoundDecodeCache, RoundPrefetcher
from repro.storage.snapshot import SnapshotPin, SnapshotRegistry
from repro.storage.tiered import MmapSignGradientStore, TieredSignGradientStore
from repro.storage.store import (
    SIGN_BACKENDS,
    FullGradientStore,
    GradientStore,
    ModelCheckpointStore,
    RoundRows,
    SignGradientStore,
    make_gradient_store,
)

__all__ = [
    "FullGradientStore",
    "GradientStore",
    "MmapSignGradientStore",
    "ModelCheckpointStore",
    "RoundDecodeCache",
    "RoundPrefetcher",
    "RoundRows",
    "SIGN_BACKENDS",
    "SignGradientStore",
    "SnapshotPin",
    "SnapshotRegistry",
    "TieredSignGradientStore",
    "decode_gradient",
    "decode_round",
    "encode_gradient",
    "encode_round",
    "make_gradient_store",
    "pack_signs",
    "pack_signs_batch",
    "packed_size_bytes",
    "storage_savings_ratio",
    "ternarize",
    "unpack_signs",
]
