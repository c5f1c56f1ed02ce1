"""Seeded synthetic inputs for the benchmark, written as real dataset files.

Every image set is drawn from one fixed family of per-class prototypes (a
few Gaussian blobs, shifted, brightness-jittered and pixel-noised per
sample), so training and test sets share their classes. The sets are
quantized to the 8-bit grid and written with the package's own IDX and
CIFAR-10 serializers; the program under test only ever sees those files.
"""

from __future__ import annotations

import os

import numpy as np

from srelu_defense import build_model, save_params, train
from srelu_defense.data import LabeledImageSet, dump_cifar10_bin, dump_mnist_idx


# The class prototypes are fixed, so every seed draws from one distribution.
PROTOTYPE_SEED = 0
# Every set-up trains the attacked model from this seed: each run attacks the
# same well-trained model (seeded training sometimes stalls below the
# clean-accuracy floor), and DeepFool's work, which depends on the model's
# decision margins, changes only with the images the run seed draws.
ATTACKED_MODEL_SEED = 3


def draw(n: int, seed, channels: int, size: int) -> LabeledImageSet:
    """n images of shape (channels, size, size), balanced over 10 classes."""
    rng = np.random.default_rng([PROTOTYPE_SEED, channels, size])
    yy, xx = np.mgrid[0:size, 0:size]
    protos = np.zeros((10, size, size))
    for proto in protos:  # a few Gaussian blobs on a dark field, like strokes
        for _ in range(4):
            cy, cx = rng.uniform(0.2 * size, 0.8 * size, size=2)
            width = rng.uniform(1.5, 3.0)
            proto += np.exp(-((yy - cy) ** 2 + (xx - cx) ** 2) / (2 * width**2))
    protos /= protos.max(axis=(1, 2), keepdims=True)
    tint = rng.uniform(0.5, 1.0, size=(10, channels))  # class-specific channel mix

    rng = np.random.default_rng(seed)
    labels = rng.permutation(np.arange(n) % 10)
    images = np.empty((n, channels, size, size), dtype=np.float64)
    for i, label in enumerate(labels):
        img = np.roll(protos[label], rng.integers(-2, 3), axis=0)
        img = np.roll(img, rng.integers(-2, 3), axis=1)
        img = img * rng.uniform(0.7, 1.0)
        for c in range(channels):
            noisy = img * tint[label, c] + rng.normal(0.0, 0.08, size=img.shape)
            images[i, c] = np.clip(noisy, 0.0, 1.0)
    quantized = np.rint(images * 255).astype(np.uint8)
    return LabeledImageSet(quantized.astype(np.float32) / 255, labels.astype(np.int64),
                           "synthetic")


def write_idx(dataset: LabeledImageSet, directory: str, prefix: str) -> tuple[str, str]:
    img_blob, lbl_blob = dump_mnist_idx(dataset)
    paths = (os.path.join(directory, f"{prefix}-images-idx3-ubyte"),
             os.path.join(directory, f"{prefix}-labels-idx1-ubyte"))
    for path, blob in zip(paths, (img_blob, lbl_blob)):
        with open(path, "wb") as f:
            f.write(blob)
    return paths


def write_cifar(dataset: LabeledImageSet, directory: str, name: str) -> str:
    path = os.path.join(directory, name)
    with open(path, "wb") as f:
        f.write(dump_cifar10_bin(dataset))
    return path


def mnist_sweep_inputs(directory: str, seed: int, n_train: int, n_test: int,
                       epochs: int) -> dict[str, str]:
    """Test IDX files drawn from the seed, and the attacked mnist_cnn."""
    test_images, test_labels = write_idx(draw(n_test, [seed, 1], 1, 28), directory, "t10k")
    model = build_model("mnist_cnn", ATTACKED_MODEL_SEED)
    # small batches and a raised rate reach high accuracy in a few epochs,
    # which keeps set-up short; the CLI's own training defaults are not needed
    train(model, draw(n_train, [ATTACKED_MODEL_SEED, 0], 1, 28), epochs,
          lr=0.02, batch_size=16, seed=ATTACKED_MODEL_SEED)
    params = os.path.join(directory, "attacked.bin")
    save_params(model, params)
    return {"test_images": test_images, "test_labels": test_labels, "params": params}


def cifar_train_inputs(directory: str, seed: int, n_train: int,
                       n_test: int) -> dict[str, str]:
    """CIFAR-10 binary training and test files drawn from the seed."""
    return {"train_batches": write_cifar(draw(n_train, [seed, 0], 3, 32), directory,
                                         "data_batch_1.bin"),
            "test_batches": write_cifar(draw(n_test, [seed, 1], 3, 32), directory,
                                        "test_batch.bin")}
