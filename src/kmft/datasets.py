"""Dataset files and synthetic blob generation.

The on-disk format is binary and endian-pinned so that a file is
byte-reproducible from the same seed on any platform: a 4-byte magic,
two 8-byte little-endian unsigned sizes, then the sample matrix as
little-endian float64, row-major.  A text fallback lets external
comma-separated data in through the same reader.
"""

from __future__ import annotations

import io
import struct
from pathlib import Path

import numpy as np

from .errors import ConfigError
from .kmeans import Dataset

MAGIC = b"KMDS"
_SIZES = struct.Struct("<QQ")
HEADER_BYTES = len(MAGIC) + _SIZES.size


def file_bytes(n: int, d: int) -> int:
    """Exact size of a dataset file with n samples of dimension d."""
    return HEADER_BYTES + n * d * 8


def encode_dataset(data: Dataset) -> bytes:
    # `tobytes` writes in row-major order whatever the layout in memory
    values = data.values.astype("<f8", copy=False)
    return MAGIC + _SIZES.pack(data.n, data.d) + values.tobytes()


def decode_dataset(buf: bytes) -> Dataset:
    if len(buf) < HEADER_BYTES or buf[:4] != MAGIC:
        raise ConfigError("not a dataset file: bad magic")
    n, d = _SIZES.unpack_from(buf, 4)
    want = file_bytes(n, d)
    if len(buf) != want:
        raise ConfigError(
            f"dataset file is {len(buf)} bytes, header implies {want}")
    if n < 1 or d < 1:
        raise ConfigError(f"dataset header has n={n}, d={d}")
    values = np.frombuffer(buf, dtype="<f8", offset=HEADER_BYTES)
    return Dataset(values.reshape(n, d))       # the one copy, column-major


def write_dataset(path: str | Path, data: Dataset) -> None:
    Path(path).write_bytes(encode_dataset(data))


def read_dataset(path: str | Path) -> Dataset:
    """Load a dataset file; a non-magic file is tried as CSV text."""
    raw = Path(path).read_bytes()
    if raw[:4] == MAGIC:
        return decode_dataset(raw)
    try:
        values = np.loadtxt(io.BytesIO(raw), delimiter=",", dtype=np.float64,
                            ndmin=2)
    except ValueError as exc:
        raise ConfigError(f"{path}: neither a dataset file nor CSV ({exc})") from None
    return Dataset(values)


def make_blobs(n: int, d: int, blobs: int, spread: float,
               seed: int) -> tuple[Dataset, np.ndarray]:
    """Samples around `blobs` uniformly drawn centers, labels interleaved.

    Returns the dataset and the empirical mean of each blob's samples (the
    reference a clustering with k = blobs should recover).  Interleaving the
    labels puts one sample of every blob among the first `blobs` rows, so
    first-rows seeding starts with one centroid per blob.
    """
    if blobs < 1:
        raise ConfigError(f"blobs must be >= 1, got {blobs}")
    if blobs > n:
        raise ConfigError(f"blobs={blobs} exceeds n={n}")
    if spread < 0:
        raise ConfigError(f"spread must be >= 0, got {spread}")
    if seed < 0:
        raise ConfigError(f"seed must be >= 0, got {seed}")
    rng = np.random.default_rng(seed)
    centers = rng.uniform(-10.0, 10.0, size=(blobs, d))
    labels = np.arange(n, dtype=np.int64) % blobs
    values = centers.take(labels, axis=0) + rng.normal(0.0, spread, size=(n, d))
    means = np.stack([values[labels == b].mean(axis=0) for b in range(blobs)])
    return Dataset(values), means
