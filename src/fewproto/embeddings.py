"""Embedding datasets: binary I/O, episode sampling, synthetic generation.

An embedding set is a labeled pool of fixed-dimension feature vectors
produced by some external extractor. Episodes (N-way k-shot tasks) are
drawn from the pool without replacement; query labels ride along marked
as hidden so that only the scorer reads them.

Binary file format (little-endian):

    magic   4 bytes  b"EMB1"
    dim     u32      embedding dimension
    count   u32      number of records
    classes u32      number of distinct class ids in the payload
    records count x [ class_id: u32 | vector: dim x f32 ]

An optional plain-text sidecar at ``<path>.labels.txt`` may map class ids
to names ("id<TAB>name" per line); it is informational only.
"""

from __future__ import annotations

import contextlib
import os
import struct
from dataclasses import dataclass, field

import numpy as np

MAGIC = b"EMB1"
HEADER_SIZE = 16
# Bytes of rows the finiteness scan checks at a time, so its temporaries
# stay this small however large the pool.
SCAN_BYTES = 1 << 20


class EmbeddingFormatError(ValueError):
    """Malformed embedding file; `offset` is the failing byte position."""

    def __init__(self, message: str, offset: int):
        self.offset = offset
        super().__init__(f"{message} (byte offset {offset})")


class NonFiniteValue(ValueError):
    """A NaN or infinity at `vectors[record, component]`."""

    def __init__(self, record: int, component: int):
        self.record, self.component = record, component
        super().__init__(
            f"non-finite value in record {record} component {component}")


@dataclass
class EmbeddingSet:
    """Immutable labeled pool of embedding vectors.

    A set loaded from a file holds no copy of its records: `vectors` is
    a strided view of a read-only mapping of the file, which forked
    workers share. Such a file must be replaced by renaming a new one
    over it, as `save_embedding_set` does, and never rewritten in place:
    a process that has it mapped would read the new bytes, or die of
    SIGBUS where the file got shorter.

    Attributes:
        dim: embedding dimension; every vector has exactly this length.
        vectors: (n, dim) read-only float32 array, all entries finite.
        labels: (n,) read-only int64 array of non-negative class ids.
        class_index: class id -> sorted array of record indices; every
            listed class has at least one record.
    """

    dim: int
    vectors: np.ndarray
    labels: np.ndarray
    class_index: dict[int, np.ndarray] = field(repr=False)

    @classmethod
    def from_arrays(cls, vectors: np.ndarray, labels: np.ndarray) -> "EmbeddingSet":
        """Build and validate a set from raw arrays (copied to float32/int64)."""
        return cls._validated(np.array(vectors, dtype=np.float32, order="C"),
                              np.array(labels, dtype=np.int64))

    @classmethod
    def _validated(cls, vectors: np.ndarray, labels: np.ndarray
                   ) -> "EmbeddingSet":
        """The set of float32 `vectors` and int64 `labels`, which it
        holds read-only and does not copy. Raises ValueError for the
        first invariant they break, NonFiniteValue for a NaN or inf."""
        if vectors.ndim != 2:
            raise ValueError(f"vectors must be 2-D, got shape {vectors.shape}")
        if labels.shape != (vectors.shape[0],):
            raise ValueError("labels length does not match record count")
        if vectors.shape[1] < 1:
            raise ValueError("embedding dimension must be positive")
        if labels.size and labels.min() < 0:
            raise ValueError("class ids must be non-negative")
        rows = max(1, SCAN_BYTES // (vectors.itemsize * vectors.shape[1]))
        for start in range(0, vectors.shape[0], rows):
            block = vectors[start:start + rows]
            if not np.isfinite(block).all():
                i, j = np.argwhere(~np.isfinite(block))[0]
                raise NonFiniteValue(start + int(i), int(j))
        index = {
            int(c): np.flatnonzero(labels == c) for c in np.unique(labels)
        }
        vectors.flags.writeable = False
        labels.flags.writeable = False
        return cls(dim=vectors.shape[1], vectors=vectors, labels=labels,
                   class_index=index)

    @property
    def n_records(self) -> int:
        return self.vectors.shape[0]

    @property
    def n_classes(self) -> int:
        return len(self.class_index)


@dataclass
class Episode:
    """One N-way k-shot task with locally relabeled classes 0..N-1.

    Support rows are grouped by local class (class 0's k shots first),
    queries likewise. `hidden_labels` carries the held-out query labels;
    by contract only scoring code reads it.
    """

    n_ways: int
    k_shots: int
    n_queries: int
    support_x: np.ndarray        # (N*k, dim) float64
    support_y: np.ndarray        # (N*k,) int64 local classes
    query_x: np.ndarray          # (N*q, dim) float64
    hidden_labels: np.ndarray    # (N*q,) int64, scorer-only
    support_idx: np.ndarray      # source record indices, for audits
    query_idx: np.ndarray


def _record_dtype(dim: int) -> np.dtype:
    return np.dtype([("class_id", "<u4"), ("vec", "<f4", (dim,))])


def save_embedding_set(emb: EmbeddingSet, path) -> None:
    """Write `emb` in the binary format; load_embedding_set inverts this.

    The bytes go to a new file beside `path`, which is then renamed over
    it. So a process that has the old file loaded keeps reading the old
    set, and no reader sees a partly written one.

    Raises ValueError if the set violates its invariants or has a class
    id outside [0, 2**32) (checked before any bytes are written). The
    set's arrays are checked through views, so a float32 set is not
    copied and the caller's arrays stay as writeable as they were.
    """
    # Revalidate: callers may have built the instance by hand.
    labels = np.asarray(emb.labels)
    if labels.size and labels.max() >= 2 ** 32:  # before a cast can wrap it
        raise ValueError(f"class id {int(labels.max())} does not fit "
                         "the format's u32 class_id field")
    checked = EmbeddingSet._validated(
        np.asarray(emb.vectors, dtype=np.float32).view(),
        labels.astype(np.int64, copy=False).view())
    rec = np.empty(checked.n_records, dtype=_record_dtype(checked.dim))
    rec["class_id"] = checked.labels
    rec["vec"] = checked.vectors
    part = f"{os.fspath(path)}.{os.urandom(6).hex()}.part"
    try:
        with open(part, "xb") as f:
            f.write(MAGIC)
            f.write(struct.pack("<III", checked.dim, checked.n_records,
                                checked.n_classes))
            rec.tofile(f)
            f.flush()
            os.fsync(f.fileno())
        os.replace(part, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(part)
        raise


def load_embedding_set(path) -> EmbeddingSet:
    """Read and validate an embedding file, mapping its records.

    The set's `vectors` view the read-only mapping, so the payload is
    never copied; only the labels are read into memory.

    Raises:
        EmbeddingFormatError: bad magic, zero dimension, class-count
            mismatch, truncated payload, trailing bytes, or a non-finite
            value; the error carries the failing byte offset.
    """
    with open(path, "rb") as f:
        header = f.read(HEADER_SIZE)
        if len(header) < HEADER_SIZE:
            raise EmbeddingFormatError("truncated header", len(header))
        if header[:4] != MAGIC:
            raise EmbeddingFormatError(
                f"bad magic {header[:4]!r}, expected {MAGIC!r}", 0)
        dim, count, n_classes = struct.unpack_from("<III", header, 4)
        if dim == 0:
            raise EmbeddingFormatError("embedding dimension is zero", 4)
        record_size = 4 + 4 * dim
        expected = HEADER_SIZE + count * record_size
        size = os.fstat(f.fileno()).st_size
        if size < expected:
            raise EmbeddingFormatError(
                f"truncated payload: need {expected} bytes, have {size}",
                size)
        if size > expected:
            raise EmbeddingFormatError(
                f"{size - expected} trailing bytes after last record",
                expected)
        records = np.memmap(f, dtype=_record_dtype(dim), mode="r",
                            offset=HEADER_SIZE, shape=(count,))
    labels = np.array(records["class_id"], dtype=np.int64)
    try:
        emb = EmbeddingSet._validated(records["vec"].view(np.ndarray), labels)
    except NonFiniteValue as bad:
        raise EmbeddingFormatError(
            str(bad), HEADER_SIZE + bad.record * record_size
            + 4 + 4 * bad.component) from None
    if count and emb.n_classes != n_classes:
        raise EmbeddingFormatError(
            f"header declares {n_classes} classes, payload has "
            f"{emb.n_classes}", 12)
    return emb


def eligible_classes(emb: EmbeddingSet, need: int) -> list[int]:
    """Ascending ids of the classes with at least `need` records."""
    return [c for c in sorted(emb.class_index)
            if len(emb.class_index[c]) >= need]


def sample_episode(emb: EmbeddingSet, n_ways: int, k_shots: int,
                   n_queries: int, rng: np.random.Generator) -> Episode:
    """Draw one episode uniformly without replacement.

    Picks `n_ways` classes among those with at least `k_shots +
    n_queries` records, then that many records per class; the first k go
    to support, the rest to query. Classes are relabeled 0..N-1 in
    sampling order. Deterministic given the generator state.

    Raises:
        ValueError: fewer than `n_ways` classes in the pool, or fewer
            than `n_ways` of them have `k_shots + n_queries` records.
    """
    if n_ways < 1 or k_shots < 1 or n_queries < 1:
        raise ValueError("n_ways, k_shots, n_queries must be positive")
    if emb.n_classes < n_ways:
        raise ValueError(
            f"pool has {emb.n_classes} classes, episode needs {n_ways}")
    need = k_shots + n_queries
    eligible = eligible_classes(emb, need)
    if len(eligible) < n_ways:
        raise ValueError(
            f"{emb.n_classes - len(eligible)} of {emb.n_classes} classes "
            f"have fewer than {need} records, episode needs {n_ways} "
            f"classes with {need}")
    picked_classes = rng.choice(len(eligible), size=n_ways, replace=False)
    sup_idx, qry_idx = [], []
    for local in range(n_ways):
        records = emb.class_index[eligible[picked_classes[local]]]
        picked = rng.choice(len(records), size=need, replace=False)
        sup_idx.append(records[picked[:k_shots]])
        qry_idx.append(records[picked[k_shots:]])
    sup_idx = np.concatenate(sup_idx)
    qry_idx = np.concatenate(qry_idx)
    return Episode(
        n_ways=n_ways, k_shots=k_shots, n_queries=n_queries,
        support_x=emb.vectors[sup_idx].astype(np.float64),
        support_y=np.repeat(np.arange(n_ways, dtype=np.int64), k_shots),
        query_x=emb.vectors[qry_idx].astype(np.float64),
        hidden_labels=np.repeat(np.arange(n_ways, dtype=np.int64), n_queries),
        support_idx=sup_idx, query_idx=qry_idx,
    )


def generate_synthetic(n_classes: int, per_class: int, dim: int,
                       mean_scale: float, noise_sigma: float,
                       rng: np.random.Generator) -> EmbeddingSet:
    """Gaussian blobs around class means drawn uniformly on a sphere.

    Class means sit on the sphere of radius `mean_scale`; each record is
    mean + iid Gaussian noise with standard deviation `noise_sigma`.
    Deterministic given the generator state. Both scales, and the
    records they sum to, must fit float32.
    """
    if n_classes < 1 or per_class < 1 or dim < 1:
        raise ValueError("n_classes, per_class, dim must be positive")
    for name, value in ("mean_scale", mean_scale), ("noise_sigma", noise_sigma):
        if not abs(value) <= float(np.finfo(np.float32).max):  # and NaN
            raise ValueError(f"{name}={value!r} is not a finite float32")
    if noise_sigma < 0:
        raise ValueError("noise_sigma must be non-negative")
    means = rng.normal(size=(n_classes, dim))
    means *= mean_scale / np.linalg.norm(means, axis=1, keepdims=True)
    vectors = np.empty((n_classes * per_class, dim))
    labels = np.repeat(np.arange(n_classes), per_class)
    for c in range(n_classes):
        block = slice(c * per_class, (c + 1) * per_class)
        vectors[block] = means[c] + noise_sigma * rng.normal(size=(per_class, dim))
    if not (np.abs(vectors) <= float(np.finfo(np.float32).max)).all():
        raise ValueError(f"records of mean_scale={mean_scale!r} plus noise "
                         f"of noise_sigma={noise_sigma!r} exceed float32 range")
    return EmbeddingSet.from_arrays(vectors, labels)
