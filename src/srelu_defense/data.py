"""Bit-exact parsers for MNIST IDX and CIFAR-10 binary files.

Pixels are divided by 255 into [0, 1] and fed to the models raw; no mean/std
normalization anywhere, so attack clipping and model input share one
coordinate system. Loading preserves file order, which matters for
"first k images" protocols.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, replace

import numpy as np

from .autodiff import DTYPE

IDX_IMAGES_MAGIC = 0x00000803
IDX_LABELS_MAGIC = 0x00000801
CIFAR_RECORD_BYTES = 3073  # 1 label byte + 3 * 1024 channel-plane bytes
UNIT_RANGE = (0.0, 1.0)


class DataFormatError(ValueError):
    """Raised when a dataset file is malformed."""


@dataclass
class LabeledImageSet:
    """Images with integer class labels; every pixel lies in pixel_range.

    pixel_range is UNIT_RANGE except for pixels scaled without clipping, and
    it is the range that attacks clip their outputs to.
    """

    images: np.ndarray  # (N, C, H, W)
    labels: np.ndarray  # (N,)
    name: str
    pixel_range: tuple[float, float] = UNIT_RANGE

    def __post_init__(self):
        if self.images.ndim != 4:
            raise ValueError(f"images must be NCHW, got shape {self.images.shape}")
        if self.labels.shape != (self.images.shape[0],):
            raise ValueError(
                f"label count {self.labels.shape} does not match "
                f"image count {self.images.shape[0]}"
            )
        if self.labels.size and (self.labels.min() < 0 or self.labels.max() > 9):
            raise ValueError("labels must lie in [0, 10)")
        if self.images.size:
            low, high = self.pixel_range
            lo, hi = self.images.min(), self.images.max()
            if not (low <= lo and hi <= high):  # nan pixels compare false, so fail too
                raise ValueError(f"pixels outside [{low:g}, {high:g}]: min {lo}, max {hi}")

    @property
    def n(self) -> int:
        return self.images.shape[0]


def _read_u32s(blob: bytes, offset: int, count: int) -> tuple:
    end = offset + 4 * count
    if end > len(blob):
        raise DataFormatError("file header truncated")
    return struct.unpack(f">{count}I", blob[offset:end])


def _labeled(pixels: np.ndarray, label_bytes: np.ndarray, name: str) -> LabeledImageSet:
    """A set of pixel bytes divided by 255; a label byte above 9 is a format error."""
    if label_bytes.size and label_bytes.max() > 9:
        raise DataFormatError(f"label byte {label_bytes.max()} out of range [0, 9]")
    return LabeledImageSet(np.divide(pixels, 255, dtype=DTYPE), label_bytes.astype(np.int64), name)


def load_mnist_idx(images_path, labels_path, name: str = "mnist") -> LabeledImageSet:
    """Parse a big-endian IDX image/label file pair.

    Image file: u32 magic 0x803, count, rows, cols, then unsigned bytes.
    Label file: u32 magic 0x801, count, then unsigned bytes.
    """
    with open(images_path, "rb") as f:
        img_blob = f.read()
    with open(labels_path, "rb") as f:
        lbl_blob = f.read()

    (magic,) = _read_u32s(img_blob, 0, 1)
    if magic != IDX_IMAGES_MAGIC:
        raise DataFormatError(
            f"bad magic 0x{magic:08x} in image file (expected 0x{IDX_IMAGES_MAGIC:08x})"
        )
    n, rows, cols = _read_u32s(img_blob, 4, 3)
    if len(img_blob) != 16 + n * rows * cols:
        raise DataFormatError(
            f"image file length {len(img_blob)} does not match "
            f"{n} images of {rows}x{cols}"
        )

    (lbl_magic,) = _read_u32s(lbl_blob, 0, 1)
    if lbl_magic != IDX_LABELS_MAGIC:
        raise DataFormatError(
            f"bad magic 0x{lbl_magic:08x} in label file (expected 0x{IDX_LABELS_MAGIC:08x})"
        )
    (lbl_n,) = _read_u32s(lbl_blob, 4, 1)
    if lbl_n != n:
        raise DataFormatError(f"label count {lbl_n} does not match image count {n}")
    if len(lbl_blob) != 8 + n:
        raise DataFormatError(f"label file length {len(lbl_blob)} does not match {n} labels")

    pixels = np.frombuffer(img_blob, dtype=np.uint8, offset=16).reshape(n, 1, rows, cols)
    return _labeled(pixels, np.frombuffer(lbl_blob, dtype=np.uint8, offset=8), name)


def dump_mnist_idx(dataset: LabeledImageSet) -> tuple[bytes, bytes]:
    """Serialize back to IDX bytes; inverse of load_mnist_idx."""
    n, c, rows, cols = dataset.images.shape
    if c != 1:
        raise ValueError("IDX serialization expects single-channel images")
    pixels = np.rint(dataset.images * 255).astype(np.uint8)
    img_blob = struct.pack(">4I", IDX_IMAGES_MAGIC, n, rows, cols) + pixels.tobytes()
    lbl_blob = struct.pack(">2I", IDX_LABELS_MAGIC, n) + dataset.labels.astype(
        np.uint8
    ).tobytes()
    return img_blob, lbl_blob


def load_cifar10_bin(batch_paths, name: str = "cifar10") -> LabeledImageSet:
    """Parse a list of CIFAR-10 batch files: 3073-byte records, label then RGB planes."""
    if not batch_paths:
        raise ValueError("no CIFAR-10 batch files given")

    chunks = []
    for path in batch_paths:
        with open(path, "rb") as f:
            blob = f.read()
        if len(blob) == 0 or len(blob) % CIFAR_RECORD_BYTES != 0:
            raise DataFormatError(
                f"{path}: length {len(blob)} is not a positive multiple "
                f"of {CIFAR_RECORD_BYTES}"
            )
        chunks.append(np.frombuffer(blob, dtype=np.uint8).reshape(-1, CIFAR_RECORD_BYTES))
    records = np.concatenate(chunks, axis=0)

    return _labeled(records[:, 1:].reshape(-1, 3, 32, 32), records[:, 0], name)


def dump_cifar10_bin(dataset: LabeledImageSet) -> bytes:
    """Serialize back to CIFAR-10 record bytes; inverse of load_cifar10_bin."""
    n, c, h, w = dataset.images.shape
    if (c, h, w) != (3, 32, 32):
        raise ValueError("CIFAR-10 serialization expects 3x32x32 images")
    pixels = np.rint(dataset.images * 255).astype(np.uint8).reshape(n, 3072)
    records = np.concatenate(
        [dataset.labels.astype(np.uint8)[:, None], pixels], axis=1
    )
    return records.tobytes()


def take_first(dataset: LabeledImageSet, k: int) -> LabeledImageSet:
    """First k images in file order, order-preserving."""
    if not 0 <= k <= dataset.n:
        raise ValueError(f"cannot take {k} images from a set of {dataset.n}")
    return replace(
        dataset, images=dataset.images[:k].copy(), labels=dataset.labels[:k].copy()
    )


def scale_pixels(dataset: LabeledImageSet, factor: float, clip: bool) -> LabeledImageSet:
    """Multiply pixels by a positive factor; clip back to [0, 1] only when asked.

    Without clipping the pixel range grows to [0, factor]; a factor of 0 would
    leave no range to attack in, and an infinite one would turn dark pixels into
    nan (0 * inf), so both are rejected. The scaled set is named
    after the original, the factor and the clip mode, for its report rows.
    """
    if not 0 < factor < np.inf:  # also rejects nan
        raise ValueError(f"scale factor must be positive and finite, got {factor}")
    scaled = dataset.images * np.asarray(factor, dtype=dataset.images.dtype)
    name = f"{dataset.name}[x{factor:g}:{'clip' if clip else 'noclip'}]"
    if clip:
        return replace(dataset, images=np.clip(scaled, *UNIT_RANGE), name=name,
                       pixel_range=UNIT_RANGE)
    return replace(dataset, images=scaled, name=name, pixel_range=(0.0, float(factor)))


class BatchIterator:
    """Deterministic batching of images and their per-image targets: a seeded shuffle per epoch."""

    def __init__(self, images: np.ndarray, targets: np.ndarray, batch_size: int, seed: int = 0):
        if batch_size < 1:
            raise ValueError("batch size must be positive")
        self.images, self.targets = images, targets
        self.batch_size = batch_size
        self.seed = seed

    def epoch_indices(self, epoch: int) -> np.ndarray:
        return np.random.default_rng([self.seed, epoch]).permutation(len(self.images))

    def epoch_batches(self, epoch: int = 0):
        """Yield (images, targets) slices covering the set exactly once."""
        idx = self.epoch_indices(epoch)
        for start in range(0, len(idx), self.batch_size):
            sel = idx[start : start + self.batch_size]
            yield self.images[sel], self.targets[sel]
