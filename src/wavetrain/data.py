"""Dataset ingestion: the CIFAR-10 binary layout and a seeded synthetic
generator used for desk-scale experiments. The generator streams: it fills
its float32 images one block of ``SYNTHETIC_BLOCK`` samples at a time, so
its float64 temporaries stay one block in size whatever the set's size."""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from .autodiff import check_labels
from .errors import FormatError, InputError, check_range

CIFAR10_RECORD_BYTES = 3073
DATA_ROOT_ENV = "WAVETRAIN_DATA"

# synthetic-task signal amplitudes: large enough that the classes stay
# separable under a 0.031-ball, small enough that an unregularized fit is
# attackable at that budget
BLOB_AMPLITUDE = 0.20
GRATING_AMPLITUDE = 0.06
# std of the Gaussian pixel noise added to every synthetic image
NOISE = 0.06
# the share of a loaded set that split_train_val holds out for validation
VAL_FRACTION = 0.1
# samples per block of the synthetic generator's float64 arithmetic (~0.8 MB)
SYNTHETIC_BLOCK = 32


@dataclass
class Dataset:
    images: np.ndarray      # [N,3,32,32] float32 in [0,1]
    labels: np.ndarray      # [N] int64
    num_classes: int

    def __post_init__(self):
        self.images = np.asarray(self.images, dtype=np.float32)
        if self.images.ndim != 4 or self.images.shape[0] == 0:
            raise InputError("dataset images must be a non-empty [N,C,H,W] array")
        self.labels = check_labels(np.asarray(self.labels, dtype=np.int64),
                                   self.images.shape[0], self.num_classes)
        lo, hi = float(self.images.min()), float(self.images.max())
        if not (0.0 <= lo and hi <= 1.0):  # false for NaN too
            raise InputError(f"image values must lie in [0,1], got [{lo},{hi}]")

    def __len__(self):
        return self.images.shape[0]

    def subset(self, indices):
        return Dataset(self.images[indices], self.labels[indices], self.num_classes)

    def split(self, n):
        """The first ``n`` samples and the rest, as views of this set's arrays."""
        return (Dataset(self.images[:n], self.labels[:n], self.num_classes),
                Dataset(self.images[n:], self.labels[n:], self.num_classes))


def data_root() -> str:
    return os.environ.get(DATA_ROOT_ENV, ".")


def load_cifar10(path) -> Dataset:
    """Parse a CIFAR-10 binary batch file.

    Record layout: 1 label byte (0-9), then 1024 red + 1024 green + 1024 blue
    bytes, each plane row-major 32x32; pixel v maps to v/255.
    """
    with open(path, "rb") as f:
        raw = f.read()
    if len(raw) == 0 or len(raw) % CIFAR10_RECORD_BYTES != 0:
        raise FormatError(
            f"{path}: size {len(raw)} is not a positive multiple of {CIFAR10_RECORD_BYTES}",
            offset=len(raw),
        )
    records = np.frombuffer(raw, dtype=np.uint8).reshape(-1, CIFAR10_RECORD_BYTES)
    labels = records[:, 0].astype(np.int64)
    bad = np.nonzero(labels > 9)[0]
    if bad.size:
        raise FormatError(
            f"{path}: label byte {labels[bad[0]]} out of range",
            offset=int(bad[0]) * CIFAR10_RECORD_BYTES,
        )
    images = records[:, 1:].reshape(-1, 3, 32, 32).astype(np.float32) / 255.0
    return Dataset(images, labels, num_classes=10)


def synthetic_dataset(num_classes: int, n: int, seed: int) -> Dataset:
    """Class-conditional 32x32 blobs: each class owns a Gaussian bump at a
    distinct position plus a grating at a distinct spatial frequency. Labels
    are assigned round-robin, so the class counts are balanced within one.
    """
    check_range("num_classes", num_classes, "[2,inf)", InputError)
    check_range("n", n, "[1,inf)", InputError)
    rng = np.random.default_rng(seed)
    size = 32
    yy, xx = np.meshgrid(np.arange(size), np.arange(size), indexing="ij")

    patterns = np.zeros((num_classes, 3, size, size), dtype=np.float64)
    for c in range(num_classes):
        angle = 2.0 * np.pi * c / num_classes
        cy = size / 2 + (size / 4) * np.sin(angle)
        cx = size / 2 + (size / 4) * np.cos(angle)
        blob = np.exp(-(((yy - cy) ** 2 + (xx - cx) ** 2) / (2.0 * 4.0 ** 2)))
        freq = c + 1
        grating = np.sin(2.0 * np.pi * freq * (xx * np.cos(angle) + yy * np.sin(angle)) / size)
        base = BLOB_AMPLITUDE * blob + GRATING_AMPLITUDE * grating
        for ch in range(3):
            patterns[c, ch] = base * (1.0 if ch == c % 3 else 0.6)

    labels = np.arange(n, dtype=np.int64) % num_classes
    images = np.empty((n, 3, size, size), dtype=np.float32)
    # successive draws continue one standard-normal stream, so the blocks
    # hold the same noise as one draw of the whole set
    for s0 in range(0, n, SYNTHETIC_BLOCK):
        s1 = min(s0 + SYNTHETIC_BLOCK, n)
        noise = rng.standard_normal((s1 - s0, 3, size, size))
        block = 0.5 + patterns[labels[s0:s1]] + NOISE * noise
        images[s0:s1] = np.clip(block, 0.0, 1.0, out=block)
    return Dataset(images, labels, num_classes=num_classes)


def split_train_val(dataset: Dataset):
    """Deterministic split: the last ``VAL_FRACTION`` of the set is validation."""
    n = len(dataset)
    n_val = max(1, int(round(n * VAL_FRACTION)))
    if n_val >= n:
        raise InputError("validation split would consume the whole dataset")
    return dataset.split(n - n_val)
