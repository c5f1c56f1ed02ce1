"""Shared test utilities: synthetic datasets, linear oracle models, a
finite-difference gradient oracle, trainable model views, fixtures."""

from __future__ import annotations

import os
import struct

import numpy as np

from srelu_defense.autodiff import Tape, Tensor, dense, softmax_cross_entropy, take, backward
from srelu_defense.data import (
    IDX_IMAGES_MAGIC,
    IDX_LABELS_MAGIC,
    LabeledImageSet,
    dump_cifar10_bin,
    dump_mnist_idx,
)
from srelu_defense.models import PARAMS_MAGIC, PARAMS_VERSION, Model


def synthetic_digits(n: int, seed: int, size: int = 28) -> LabeledImageSet:
    """Balanced 10-class image set with distinct per-class blob prototypes.

    Samples add small shifts, brightness jitter, and pixel noise on top of
    the prototypes, then quantize to the 8-bit grid so IDX round trips are
    exact. Easily learnable by the small CNNs within an epoch or two.
    """
    rng = np.random.default_rng(seed)
    protos = rng.uniform(0.0, 1.0, size=(10, size, size))
    for _ in range(3):  # box blur for spatial structure
        protos = (
            protos
            + np.roll(protos, 1, axis=1) + np.roll(protos, -1, axis=1)
            + np.roll(protos, 1, axis=2) + np.roll(protos, -1, axis=2)
        ) / 5.0
    protos -= protos.min(axis=(1, 2), keepdims=True)
    protos /= protos.max(axis=(1, 2), keepdims=True)

    labels = np.arange(n) % 10
    images = np.empty((n, 1, size, size), dtype=np.float64)
    for i in range(n):
        img = protos[labels[i]]
        img = np.roll(img, rng.integers(-2, 3), axis=0)
        img = np.roll(img, rng.integers(-2, 3), axis=1)
        img = img * rng.uniform(0.7, 1.0) + rng.normal(0.0, 0.08, size=img.shape)
        images[i, 0] = np.clip(img, 0.0, 1.0)
    quantized = np.rint(images * 255).astype(np.uint8)
    return LabeledImageSet(
        quantized.astype(np.float32) / 255, labels.astype(np.int64), "synth"
    )


def synthetic_split(n_train: int, n_test: int, seed: int, size: int = 28):
    """Train/test pair drawn from one prototype family (same classes)."""
    full = synthetic_digits(n_train + n_test, seed, size=size)
    train = LabeledImageSet(full.images[:n_train], full.labels[:n_train], "synth_train")
    test = LabeledImageSet(full.images[n_train:], full.labels[n_train:], "synth")
    return train, test


def synthetic_cifar(n: int, seed: int) -> LabeledImageSet:
    """Three-channel variant of synthetic_digits for the CIFAR-shaped nets."""
    base = synthetic_digits(n, seed, size=32)
    rng = np.random.default_rng(seed + 1)
    tint = rng.uniform(0.5, 1.0, size=(10, 3))  # class-specific channel mix
    images = base.images * tint[base.labels][:, :, None, None].astype(np.float32)
    quantized = np.rint(np.clip(images, 0, 1) * 255).astype(np.uint8)
    return LabeledImageSet(quantized.astype(np.float32) / 255, base.labels, "synth_cifar")


def write_idx_files(dataset: LabeledImageSet, directory, prefix: str = "synth"):
    """Materialize a set as genuine IDX files; returns (images_path, labels_path)."""
    img_blob, lbl_blob = dump_mnist_idx(dataset)
    images_path = os.path.join(directory, f"{prefix}-images-idx3-ubyte")
    labels_path = os.path.join(directory, f"{prefix}-labels-idx1-ubyte")
    with open(images_path, "wb") as f:
        f.write(img_blob)
    with open(labels_path, "wb") as f:
        f.write(lbl_blob)
    return images_path, labels_path


def write_cifar_file(dataset: LabeledImageSet, directory, name: str = "synth_batch.bin"):
    path = os.path.join(directory, name)
    with open(path, "wb") as f:
        f.write(dump_cifar10_bin(dataset))
    return path


def params_file_bytes(params: dict[str, np.ndarray]) -> bytes:
    """A parameter file in save_params's layout, written without its checks,
    so a test can build the non-finite files load_params must refuse."""
    blob = PARAMS_MAGIC + struct.pack("<II", PARAMS_VERSION, len(params))
    for name, values in params.items():
        encoded = name.encode("utf-8")
        blob += struct.pack(f"<H{len(encoded)}sI", len(encoded), encoded, values.ndim)
        blob += struct.pack(f"<{values.ndim}I", *values.shape)
        blob += np.ascontiguousarray(values, dtype="<f4").tobytes()
    return blob


def trainable(model: Model, dtype=None) -> Model:
    """The slope-1 view experiments._sgd trains: parameters that take gradients,
    wrapping the model's own arrays (or copies cast to dtype, when given)."""
    return Model(model.spec, {
        name: Tensor(p.data, requires_grad=True, dtype=dtype or p.data.dtype)
        for name, p in model.params.items()})


def chwn_memory(a: np.ndarray) -> np.ndarray:
    """The same NCHW values as a view of row-major (C, H, W, N) memory, the
    batch-innermost layout every evaluation tape holds between conv and flatten."""
    return np.ascontiguousarray(a.transpose(1, 2, 3, 0)).transpose(3, 0, 1, 2)


def is_chwn_memory(a: np.ndarray) -> bool:
    return a.ndim == 4 and a.transpose(1, 2, 3, 0).flags.c_contiguous


def pool_windows(x: np.ndarray, window: int) -> np.ndarray:
    """(N, C, ho, wo, window * window): each pool window of an NCHW map the window
    tiles, its taps in row-major order."""
    n, c, h, w = x.shape
    blocks = x.reshape(n, c, h // window, window, w // window, window)
    return blocks.transpose(0, 1, 2, 4, 3, 5).reshape(n, c, h // window, w // window, -1)


def idx_fixture_bytes():
    """Two hand-built 2x2 IDX images with known byte values."""
    pixels = bytes([0, 51, 102, 255, 10, 20, 30, 40])
    img_blob = struct.pack(">4I", IDX_IMAGES_MAGIC, 2, 2, 2) + pixels
    lbl_blob = struct.pack(">2I", IDX_LABELS_MAGIC, 2) + bytes([7, 0])
    return img_blob, lbl_blob


class LinearSoftmaxModel:
    """Multiclass linear classifier exposing the attack-facing interface.

    logits = x_flat @ W + b. Gradients are exact and closed-form, which makes
    this the reference model for minimal-perturbation oracle checks.
    """

    class _Spec:
        id = "linear"

    spec = _Spec()
    slope, activation = 1.0, "srelu"

    def __init__(self, weights: np.ndarray, bias: np.ndarray):
        self.weights = weights  # (features, classes)
        self.bias = bias

    def logits(self, images: np.ndarray) -> np.ndarray:
        flat = images.reshape(len(images), -1)
        return flat @ self.weights + self.bias

    def predict(self, images: np.ndarray) -> np.ndarray:
        return self.logits(images).argmax(axis=1)

    def loss_input_grad(self, images, labels):
        flat = images.reshape(len(images), -1).astype(self.weights.dtype)
        tape = Tape()
        x = Tensor(flat, requires_grad=True, dtype=flat.dtype)
        logits = dense(
            x,
            Tensor(self.weights, dtype=self.weights.dtype),
            Tensor(self.bias, dtype=self.bias.dtype),
            tape=tape,
        )
        loss = softmax_cross_entropy(logits, labels, tape=tape)
        grads = backward(tape, loss)
        return loss.item(), grads[x].reshape(images.shape)

    def logit_input_grads(self, images):
        # d logit_k / d x = W[:, k], independent of x, for every image
        grads = self.weights.T.reshape((self.weights.shape[1], 1) + images.shape[1:])
        grads = np.broadcast_to(grads, (self.weights.shape[1],) + images.shape)
        return self.logits(images), grads.astype(images.dtype)


def linf_distance(adv: np.ndarray, images: np.ndarray) -> np.ndarray:
    """Per-image L-infinity distance between two equally shaped image batches."""
    return np.abs(adv - images).reshape(len(images), -1).max(axis=1)


def finite_difference_oracle(f, x: Tensor, step: float) -> Tensor:
    """Central-difference gradient estimate of a scalar function, per element.

    f maps a Tensor to a Tensor or a float. Independent of the tape
    machinery: only evaluates f. The estimate is accumulated in float64
    regardless of the working precision.
    """
    if step <= 0:
        raise ValueError("step must be positive")

    def evaluate(arr: np.ndarray) -> float:
        y = f(Tensor(arr, dtype=arr.dtype))
        return y.item() if isinstance(y, Tensor) else float(y)

    base = x.data
    grad = np.zeros(base.shape, dtype=np.float64)
    flat = grad.reshape(-1)
    for i in range(base.size):
        plus = base.copy()
        plus.reshape(-1)[i] += step
        minus = base.copy()
        minus.reshape(-1)[i] -= step
        flat[i] = (evaluate(plus) - evaluate(minus)) / (2.0 * step)
    return Tensor(grad, dtype=np.float64)


def linear_min_hyperplane_distance(model: LinearSoftmaxModel, x_flat: np.ndarray) -> float:
    """Brute-force minimal L2 distance to any decision boundary vs. the argmax."""
    logits = x_flat @ model.weights + model.bias
    top = int(logits.argmax())
    best = np.inf
    for k in range(model.weights.shape[1]):
        if k == top:
            continue
        w = model.weights[:, k] - model.weights[:, top]
        norm = np.linalg.norm(w)
        if norm == 0:
            continue
        best = min(best, abs(logits[k] - logits[top]) / norm)
    return float(best)
