"""Dataset ingestion, synthetic temporal spike patterns, coding, augmentation.

Three sources feed the engine: the canonical CIFAR-10 binary batches, IDX
image/label pairs (MNIST layout), and a seeded synthetic generator whose
classes differ only in *which* time steps fire, so that a model must use
temporal structure to separate them. The synthetic task is never stored: its
spec and seed rebuild it exactly. Static images are replicated across time
steps (direct coding) before entering the network.
"""

from __future__ import annotations

import math
import os
import struct
from dataclasses import dataclass

import numpy as np

# community-standard CIFAR-10 channel statistics
CIFAR10_MEAN = np.array([0.4914, 0.4822, 0.4465], dtype=np.float32)
CIFAR10_STD = np.array([0.2470, 0.2435, 0.2616], dtype=np.float32)

CIFAR10_RECORD_BYTES = 3073
CIFAR10_FILE_BYTES = 10000 * CIFAR10_RECORD_BYTES

IDX_IMAGES_MAGIC = 0x00000803
IDX_LABELS_MAGIC = 0x00000801


class FormatError(ValueError):
    """A dataset file does not match its declared binary format."""


@dataclass
class Sample:
    """One temporal input (T, C, H, W) with its class index."""

    input: np.ndarray
    label: int


@dataclass(frozen=True)
class SynthSpec:
    """Synthetic temporal-pattern task description.

    ``temporal_signature[c]`` lists the active time steps of class c; pixels
    fire with probability ``rate_on`` on active steps and ``rate_off``
    elsewhere. The default signatures split the time axis into contiguous
    per-class windows, so classes share their overall firing budget and
    differ only in timing.
    """

    classes: int = 2
    time_steps: int = 6
    channels: int = 2
    height: int = 8
    width: int = 8
    rate_on: float = 0.9
    rate_off: float = 0.05
    temporal_signature: tuple = ()
    seed: int = 0

    def __post_init__(self):
        for name in ("time_steps", "channels", "height", "width"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.classes < 2:
            raise ValueError(f"need at least 2 classes, got {self.classes}")
        if not 0.0 <= self.rate_off < self.rate_on <= 1.0:
            raise ValueError(f"need 0 <= rate_off < rate_on <= 1, got "
                             f"{self.rate_off} and {self.rate_on}")
        if not self.temporal_signature:
            object.__setattr__(self, "temporal_signature", self.default_signature())
        if len(self.temporal_signature) != self.classes:
            raise ValueError("one signature per class required")
        for sig in self.temporal_signature:
            for t in sig:
                if not 0 <= t < self.time_steps:
                    raise ValueError(f"signature step {t} outside [0, {self.time_steps})")

    def default_signature(self) -> tuple:
        window = max(1, self.time_steps // self.classes)
        sigs = []
        for c in range(self.classes):
            start = (c * window) % self.time_steps
            sigs.append(tuple((start + j) % self.time_steps for j in range(window)))
        return tuple(sigs)


def gen_synthetic(spec: SynthSpec, n: int) -> list[Sample]:
    """Balanced seeded Bernoulli spike patterns; exactly binary inputs.

    When n is not divisible by the class count, the first ``n % K`` classes
    receive one extra sample, so the last classes get one fewer.
    """
    rng = np.random.default_rng(spec.seed)
    counts = [n // spec.classes + (1 if c < n % spec.classes else 0)
              for c in range(spec.classes)]
    samples: list[Sample] = []
    for c, count in enumerate(counts):
        rates = np.full(spec.time_steps, spec.rate_off, dtype=np.float64)
        rates[list(spec.temporal_signature[c])] = spec.rate_on
        for _ in range(count):
            u = rng.random((spec.time_steps, spec.channels, spec.height, spec.width))
            x = (u < rates[:, None, None, None]).astype(np.float32)
            samples.append(Sample(input=x, label=c))
    return samples


def direct_code(x: np.ndarray, time_steps: int) -> np.ndarray:
    """Replicate a static (C, H, W) image across T leading time steps.

    The result is a read-only (T, C, H, W) view of *x*, not T copies;
    ``training.stack_batch`` copies it into each batch.
    """
    if time_steps < 1:
        raise ValueError(f"time_steps must be >= 1, got {time_steps}")
    return np.broadcast_to(x, (time_steps,) + x.shape)


def augment(x: np.ndarray, pad: int, flip_prob: float,
            rng: np.random.Generator) -> np.ndarray:
    """Zero-pad, random-crop back to size, and maybe flip a (C, H, W) image."""
    if pad < 0:
        raise ValueError(f"pad must be >= 0, got {pad}")
    c, h, w = x.shape
    out = x
    if pad > 0:
        padded = np.pad(x, ((0, 0), (pad, pad), (pad, pad)))
        dy, dx = rng.integers(0, 2 * pad + 1, size=2)
        out = padded[:, dy:dy + h, dx:dx + w]
    if flip_prob > 0.0 and rng.random() < flip_prob:
        out = out[:, :, ::-1]
    return np.ascontiguousarray(out)


# ---------------------------------------------------------------------------
# CIFAR-10 binary batches: 3073-byte records, 1 label byte + 3x1024 pixels


def parse_cifar_records(raw: bytes) -> tuple[np.ndarray, np.ndarray]:
    """Decode whole 3073-byte records: label byte, then channel-planar pixels."""
    if len(raw) % CIFAR10_RECORD_BYTES:
        raise FormatError(f"{len(raw)} bytes is not a whole number of "
                          f"{CIFAR10_RECORD_BYTES}-byte records")
    arr = np.frombuffer(raw, dtype=np.uint8).reshape(-1, CIFAR10_RECORD_BYTES)
    labels = arr[:, 0].astype(np.int64)
    pixels = arr[:, 1:].reshape(-1, 3, 32, 32).astype(np.float32)
    pixels /= 255.0
    return pixels, labels


def _read_cifar_file(path) -> tuple[np.ndarray, np.ndarray]:
    size = os.path.getsize(path)
    if size != CIFAR10_FILE_BYTES:
        raise FormatError(f"{path}: {size} bytes, expected {CIFAR10_FILE_BYTES}")
    with open(path, "rb") as fh:
        return parse_cifar_records(fh.read())


def normalize_cifar(pixels: np.ndarray) -> np.ndarray:
    """Per-channel standardization of (N, 3, H, W) pixels, in place."""
    pixels -= CIFAR10_MEAN[:, None, None]
    pixels /= CIFAR10_STD[:, None, None]
    return pixels


def load_cifar10_binary(directory, train: bool) -> tuple[np.ndarray, np.ndarray]:
    """The training or the test split of the canonical binary batches.

    Returns ``(images, labels)`` with images already per-channel normalized.
    The training split's 600 MB of float pixels are assembled into a
    preallocated buffer and normalized in place.
    """
    names = [f"data_batch_{i}.bin" for i in range(1, 6)] if train else ["test_batch.bin"]
    images = np.empty((10000 * len(names), 3, 32, 32), dtype=np.float32)
    labels = np.empty(10000 * len(names), dtype=np.int64)
    for i, name in enumerate(names):
        path = os.path.join(directory, name)
        if not os.path.exists(path):
            raise FormatError(f"missing CIFAR-10 batch {path}")
        rows = slice(i * 10000, (i + 1) * 10000)
        images[rows], labels[rows] = _read_cifar_file(path)
    return normalize_cifar(images), labels


# ---------------------------------------------------------------------------
# IDX (MNIST layout): big-endian magic + dims, then raw bytes


def _read_idx(path, magic: int, ndims: int, what: str) -> tuple[list[int], bytes]:
    """The dimensions and raw bytes of one IDX file, its header checked and
    the bytes it declares checked against the file's length before any
    buffer of that size is allocated."""
    try:
        fh = open(path, "rb")
    except OSError as exc:
        raise FormatError(f"cannot read {path}: {exc.strerror}") from exc
    with fh:
        nbytes = 4 * (1 + ndims)
        raw = fh.read(nbytes)
        if len(raw) != nbytes:
            raise FormatError(f"{path}: truncated header ({len(raw)} of {nbytes} bytes)")
        got, *dims = struct.unpack(f">{1 + ndims}I", raw)
        if got != magic:
            raise FormatError(f"{path}: bad magic {got:#010x}, expected {magic:#010x}")
        size, left = math.prod(dims), os.fstat(fh.fileno()).st_size - nbytes
        if size > left:
            raise FormatError(f"{path}: truncated {what} (header declares {size} "
                              f"bytes, {left} remain)")
        return dims, fh.read(size)


def load_idx(images_path, labels_path) -> tuple[np.ndarray, np.ndarray]:
    """Grayscale images in [0, 1] (N, 1, H, W) plus labels from IDX files."""
    (n, h, w), buf = _read_idx(images_path, IDX_IMAGES_MAGIC, 3, "pixel data")
    images = np.frombuffer(buf, dtype=np.uint8).reshape(n, 1, h, w).astype(np.float32) / 255.0
    (n_lab,), lab = _read_idx(labels_path, IDX_LABELS_MAGIC, 1, "label data")
    if n_lab != n:
        raise FormatError(f"{n} images but {n_lab} labels")
    labels = np.frombuffer(lab, dtype=np.uint8).astype(np.int64)
    return images, labels

