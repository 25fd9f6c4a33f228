"""Desk-scale datasets and client partitioning.

The default dataset is a seeded Gaussian mixture (one isotropic blob per
class around a random unit-norm center). Partitioning is either IID
round-robin or per-class Dirichlet allocation whose concentration alpha
controls label skew: smaller alpha, more skew. Both record the client
that owns each sample; a partition is one sorted index array per client
cut from those owners, disjoint and covering the whole training set.

A :class:`Dataset` owns the label rule: its labels are integers in [0,
num_classes), checked once when it is built. Everything downstream, the
server's loss included, indexes by them unchecked.

An IDX reader (the big-endian MNIST container format) is included for
running on real image files.
"""

from __future__ import annotations

import heapq
import struct
from dataclasses import dataclass

import numpy as np

from .errors import DataError, FormatError

IDX_MAGIC_LABELS = 0x00000801
IDX_MAGIC_IMAGES = 0x00000803


@dataclass
class Dataset:
    inputs: np.ndarray   # [n, d] float32
    labels: np.ndarray   # [n] integers in [0, num_classes)
    num_classes: int

    def __post_init__(self):
        n = len(self.labels)
        if n != self.inputs.shape[0]:
            raise DataError(f"{self.inputs.shape[0]} inputs but {n} labels")
        if n < self.num_classes:
            raise DataError(f"need at least {self.num_classes} samples, got {n}")
        if self.labels.dtype.kind not in "iu":
            raise DataError(f"labels must be integers, got dtype {self.labels.dtype}")
        if n and (self.labels.min() < 0 or self.labels.max() >= self.num_classes):
            raise DataError(f"labels out of range [0, {self.num_classes})")

    def __len__(self) -> int:
        return len(self.labels)


def synth_gaussian_mixture(
    num_classes: int,
    dim: int,
    samples_per_class: int,
    spread: float,
    seed: int,
) -> tuple[Dataset, Dataset]:
    """Seeded Gaussian-mixture classification data with a fixed 80/20 split.

    Class c is an isotropic Gaussian (std = spread) around a random
    unit-norm center. Exactly 80% of each class's samples land in the
    train set, the rest in the test set. ``config.validate`` checks the
    sizes (every class lands in both sets) and ``spread`` >= 0.
    """
    rng = np.random.default_rng(seed)
    centers = rng.standard_normal((num_classes, dim))
    centers /= np.linalg.norm(centers, axis=1, keepdims=True)

    n_train_per_class = (samples_per_class * 4) // 5
    train_x, train_y, test_x, test_y = [], [], [], []
    for c in range(num_classes):
        x = centers[c] + spread * rng.standard_normal((samples_per_class, dim))
        train_x.append(x[:n_train_per_class])
        test_x.append(x[n_train_per_class:])
        train_y.append(np.full(n_train_per_class, c, dtype=np.int64))
        test_y.append(np.full(samples_per_class - n_train_per_class, c, dtype=np.int64))

    tx = np.concatenate(train_x).astype(np.float32)
    ty = np.concatenate(train_y)
    perm = rng.permutation(len(ty))
    train = Dataset(tx[perm], ty[perm], num_classes)
    test = Dataset(np.concatenate(test_x).astype(np.float32), np.concatenate(test_y), num_classes)
    return train, test


def _largest_remainder(proportions: np.ndarray, total: int) -> np.ndarray:
    """Round fractional allocations to integers that sum to ``total``."""
    raw = proportions * total
    counts = np.floor(raw).astype(np.int64)
    deficit = total - int(counts.sum())
    if deficit > 0:
        remainders = raw - counts
        # ties go to the lowest index for determinism
        order = np.lexsort((np.arange(len(raw)), -remainders))
        counts[order[:deficit]] += 1
    return counts


def dirichlet_partition(
    labels: np.ndarray, num_clients: int, alpha: float, seed: int
) -> list[np.ndarray]:
    """Per-class Dirichlet allocation of sample indices across clients.

    Each class's indices are split according to a Dirichlet(alpha, ...)
    draw over clients, using largest-remainder rounding. A client left
    with no samples steals one from the currently largest client so every
    client stays trainable. ``alpha`` > 0, as ``config.validate`` checks.
    """
    labels = np.asarray(labels)
    if not 1 <= num_clients <= len(labels):
        raise DataError(f"{len(labels)} samples cannot cover {num_clients} clients")

    rng = np.random.default_rng(seed)
    owner = np.empty(len(labels), dtype=np.int64)
    for c in np.unique(labels):
        idx = np.flatnonzero(labels == c)
        rng.shuffle(idx)
        props = rng.dirichlet(np.full(num_clients, alpha))
        owner[idx] = np.repeat(np.arange(num_clients), _largest_remainder(props, len(idx)))
    return _shards(owner, num_clients)


def iid_partition(labels: np.ndarray, num_clients: int, seed: int) -> list[np.ndarray]:
    """Shuffled round-robin split; client sizes differ by at most one."""
    labels = np.asarray(labels)
    if not 1 <= num_clients <= len(labels):
        raise DataError(f"{len(labels)} samples cannot cover {num_clients} clients")
    rng = np.random.default_rng(seed)
    owner = np.empty(len(labels), dtype=np.int64)
    owner[rng.permutation(len(labels))] = np.arange(len(labels)) % num_clients
    return _shards(owner, num_clients)


def _shards(owner: np.ndarray, num_clients: int) -> list[np.ndarray]:
    """Each client's sorted sample indices, from the client that owns each sample.

    Empty-client repair: in ascending order, each client that owns nothing
    takes the smallest sample of the currently largest client (ties: the
    smaller id), the head of its shard, found in a heap of the sizes. While
    any client is empty the largest holds two or more, so a client that
    took one is never the largest and its heap entry may go stale.
    """
    sizes = np.bincount(owner, minlength=num_clients)
    # in the smallest dtype that holds every id: up to 16 bits a stable argsort is a radix sort
    order = np.argsort(owner.astype(np.min_scalar_type(num_clients - 1)), kind="stable")
    ends = np.cumsum(sizes).tolist()
    shards = [order[start:end] for start, end in zip([0, *ends], ends)]
    largest = [(-n, i) for i, n in enumerate(sizes.tolist())]
    heapq.heapify(largest)
    for k in np.flatnonzero(sizes == 0).tolist():
        n, donor = largest[0]
        shards[k], shards[donor] = shards[donor][:1], shards[donor][1:]
        heapq.heapreplace(largest, (n + 1, donor))
    return shards


def load_idx(path: str) -> np.ndarray:
    """Parse one IDX file (big-endian, magic 0x801 labels / 0x803 images).

    Label files decode to an int64 vector; image files decode to a float64
    [n, rows, cols] array with pixels scaled into [0, 1]. Malformed files
    raise :class:`FormatError` carrying the offending byte offset.
    """
    with open(path, "rb") as f:
        blob = f.read()
    if len(blob) < 4:
        raise FormatError(f"{path}: truncated IDX header", offset=len(blob))
    (magic,) = struct.unpack(">I", blob[:4])
    if magic == IDX_MAGIC_LABELS:
        if len(blob) < 8:
            raise FormatError(f"{path}: truncated label count", offset=len(blob))
        (n,) = struct.unpack(">I", blob[4:8])
        if len(blob) < 8 + n:
            raise FormatError(f"{path}: expected {n} label bytes", offset=len(blob))
        return np.frombuffer(blob, dtype=np.uint8, count=n, offset=8).astype(np.int64)
    if magic == IDX_MAGIC_IMAGES:
        if len(blob) < 16:
            raise FormatError(f"{path}: truncated image dimensions", offset=len(blob))
        n, rows, cols = struct.unpack(">III", blob[4:16])
        need = 16 + n * rows * cols
        if len(blob) < need:
            raise FormatError(f"{path}: expected {n * rows * cols} pixel bytes", offset=len(blob))
        pixels = np.frombuffer(blob, dtype=np.uint8, count=n * rows * cols, offset=16)
        return pixels.reshape(n, rows, cols).astype(np.float64) / 255.0
    raise FormatError(
        f"{path}: bad IDX magic 0x{magic:08X}, expected 0x{IDX_MAGIC_LABELS:08X} or 0x{IDX_MAGIC_IMAGES:08X}",
        offset=0,
    )


def load_idx_dataset(images_path: str, labels_path: str) -> Dataset:
    """Assemble a Dataset from an IDX image/label file pair (inputs flattened)."""
    images = load_idx(images_path)
    labels = load_idx(labels_path)
    if images.ndim != 3:
        raise FormatError(f"{images_path}: expected an image file, got a label file")
    if labels.ndim != 1:
        raise FormatError(f"{labels_path}: expected a label file, got an image file")
    if images.size == 0:
        raise DataError(f"{images_path}: no pixels to train on, images of shape {images.shape}")
    if len(images) != len(labels):
        raise DataError(f"{len(images)} images but {len(labels)} labels")
    inputs = images.reshape(len(images), -1).astype(np.float32)
    return Dataset(inputs, labels, num_classes=int(labels.max()) + 1)
