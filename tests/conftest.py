"""Shared fixtures: synthetic train/test splits and a trained small model.

Dataset-dependent acceptance tests resolve the official MNIST/CIFAR-10
files through SRELU_DATA_DIR (default ./data) and skip with an explicit
message when the files are absent.

HYPOTHESIS_PROFILE=ci selects derandomized property tests, so a failing CI
run reproduces locally with the same variable set.
"""

from __future__ import annotations

import os

import numpy as np
import pytest
from hypothesis import settings

import srelu_defense as sd
from srelu_defense import experiments as ex

from helpers import synthetic_split

DATA_DIR = os.environ.get("SRELU_DATA_DIR", os.path.join(os.path.dirname(__file__), "..", "data"))

MNIST_FILES = {
    "train_images": "train-images-idx3-ubyte",
    "train_labels": "train-labels-idx1-ubyte",
    "test_images": "t10k-images-idx3-ubyte",
    "test_labels": "t10k-labels-idx1-ubyte",
}
CIFAR_TRAIN_FILES = [f"data_batch_{i}.bin" for i in range(1, 6)]
CIFAR_TEST_FILE = "test_batch.bin"

settings.register_profile("ci", derandomize=True, deadline=None, print_blob=True)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))


def mnist_paths_or_skip():
    paths = {k: os.path.join(DATA_DIR, v) for k, v in MNIST_FILES.items()}
    missing = [p for p in paths.values() if not os.path.exists(p)]
    if missing:
        pytest.skip(
            "official MNIST IDX files not available (no network in this "
            f"environment); place {sorted(MNIST_FILES.values())} under "
            f"{os.path.abspath(DATA_DIR)} or set SRELU_DATA_DIR to run this criterion"
        )
    return paths


def cifar_paths_or_skip():
    train = [os.path.join(DATA_DIR, f) for f in CIFAR_TRAIN_FILES]
    test = os.path.join(DATA_DIR, CIFAR_TEST_FILE)
    missing = [p for p in train + [test] if not os.path.exists(p)]
    if missing:
        pytest.skip(
            "official CIFAR-10 binary batches not available (no network in "
            f"this environment); place {CIFAR_TRAIN_FILES + [CIFAR_TEST_FILE]} "
            f"under {os.path.abspath(DATA_DIR)} or set SRELU_DATA_DIR"
        )
    return train, test


@pytest.fixture(scope="session")
def synth_sets():
    return synthetic_split(2000, 500, seed=5)


@pytest.fixture(scope="session")
def trained_synth(synth_sets):
    """MNIST-shaped CNN trained to high accuracy on the synthetic digits."""
    train_set, test_set = synth_sets
    model = sd.build_model("mnist_cnn", seed=1)
    ex.train(model, train_set, epochs=8, seed=7)
    acc = ex.eval_clean(model, test_set)
    assert acc >= 0.95, f"synthetic fixture failed to train (acc={acc})"
    return model


@pytest.fixture
def rng():
    # fresh stream per test: results never depend on test selection order
    return np.random.default_rng(20240817)
