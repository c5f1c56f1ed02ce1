"""Golden outputs: sha256 pins of a fixed sweep's reports and a trained model.

These digests are the byte-identity gate for kernel and refactor work: a
change that moves any report or parameter bit fails here. Update a digest
only together with a CHANGES.md note saying which bits moved and why.

The pins hold for the float32 engine on x86-64 with numpy's bundled
OpenBLAS; another BLAS build may round GEMMs differently.
"""

import hashlib

import pytest

import srelu_defense as sd
from srelu_defense import experiments as ex
from srelu_defense.experiments import SweepGrid, slope_sweep

from helpers import synthetic_cifar, synthetic_split

REPORT_SHA256 = "46a5a04b7ab6b23eb276714428feb2c44742c817704fc229aa2c2a6459f4a757"
SUMMARY_SHA256 = "361cdfaec5afdcd03976224e363baf8bdefd5cab6e6cf8e677c9b38e1ebea2c6"
CIFAR_PARAMS_SHA256 = "03c74eb0fd83b6a4764aaae39e10f68dcd9ae4790421763df51843f4a1a18383"


def _sha256_file(path) -> str:
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


@pytest.fixture(scope="module")
def golden_sweep(tmp_path_factory):
    # one full 256-image evaluation chunk: the conv1 input gradient then has
    # N*ho*wo = 147,456 rows, past any small-batch special case
    train_set, test_set = synthetic_split(1024, 256, seed=31)
    model = sd.build_model("mnist_cnn", seed=3)
    ex.train(model, train_set, epochs=2, lr=0.02, batch_size=16, seed=3)
    grid = SweepGrid(slopes=(1.0, 10.0), epsilons=(0.0, 0.1, 0.2),
                     attack_kinds=("fgsm", "stepll", "rfgsm", "bim"))
    report = slope_sweep(model, test_set, grid, seed=7)
    out = tmp_path_factory.mktemp("golden")
    report.write_csv(out / "report.csv")
    report.write_summary_csv(out / "summary.csv")
    return report, out


def test_golden_sweep_shape(golden_sweep):
    report, _ = golden_sweep
    assert len(report.records) == 2 * 4 * 3
    assert {r.n_images for r in report.records} == {256}


def test_golden_report_csv(golden_sweep):
    _, out = golden_sweep
    assert _sha256_file(out / "report.csv") == REPORT_SHA256


def test_golden_summary_csv(golden_sweep):
    _, out = golden_sweep
    assert _sha256_file(out / "summary.csv") == SUMMARY_SHA256


def test_golden_cifar_training_params(tmp_path):
    model = sd.build_model("cifar10_cnn1", seed=4)
    ex.train(model, synthetic_cifar(256, seed=9), epochs=1, seed=5)
    sd.save_params(model, tmp_path / "model.bin")
    assert _sha256_file(tmp_path / "model.bin") == CIFAR_PARAMS_SHA256
