"""Golden outputs: sha256 pins of fixed experiment reports and trained models.

These digests are the byte-identity gate for kernel and refactor work: a
change that moves any report or parameter bit fails here. Update a digest
only together with a CHANGES.md note saying which bits moved and why.

Every experiment driver is pinned: the slope sweep (over every attack kind),
the targeted sweep, the activation swap, pixel scaling with and without clipping, and the BPDA path
(substitute parameters and transfer report), plus MNIST and CIFAR training.

Evaluation pins run on stored parameters (tests/data/golden_mnist_cnn.bin, what
the MNIST training recipe below trained when they were written), so a change to
training moves only the training digests: the MNIST and CIFAR parameter files
and BPDA's substitute, which the training loop distils.

The pins hold for the float32 engine on x86-64 with numpy's bundled
OpenBLAS; another BLAS build may round GEMMs differently.
"""

import hashlib
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import srelu_defense as sd
from srelu_defense import experiments as ex
from srelu_defense.attacks import BIM_DEFAULT_STEPS, AttackConfig
from srelu_defense.data import BatchIterator, take_first
from srelu_defense.experiments import slope_sweep

from helpers import synthetic_cifar, synthetic_split

MNIST_PARAMS_SHA256 = "ba127505aa16a43d9bac15d0aacbf2da2a6d8dd6cffd61c9b545685144f5ff98"
REPORT_SHA256 = "46a5a04b7ab6b23eb276714428feb2c44742c817704fc229aa2c2a6459f4a757"
SUMMARY_SHA256 = "361cdfaec5afdcd03976224e363baf8bdefd5cab6e6cf8e677c9b38e1ebea2c6"
CIFAR_PARAMS_SHA256 = "85cf22c29aea3cfd49afaf591fa240200e7b1c18ec63b292ca6ce8d61eab5050"
TARGETED_REPORT_SHA256 = "8b59b0b2d2844fd586fb3b6875d6d86222dfec36809239edb65c3d5b1a9ead50"
TARGETED_SUMMARY_SHA256 = "efa11f0ea71e1934eb183e6a991fa4cf16f0c9802a75a12a6a39f2f5cd40c601"
SWAP_REPORT_SHA256 = "cd8f4527c379ed007d55f78d6afbe3e322a0706ad35fa06f69f93416e2a6a715"
SCALE_CLIP_REPORT_SHA256 = "f6070772059a048f224124a49acf79d1865830fbf76587ab17fc3a221e37d2ad"
SCALE_NOCLIP_REPORT_SHA256 = "f65c680486935938c03700690d0ffce1764406352eaab9b91349ab1be7c06790"
BPDA_PARAMS_SHA256 = "98ea39f85575f38383aa82e0b1fa1f3247c7f86e200431ddeb7f0733e2e1607c"
BPDA_REPORT_SHA256 = "d5a93172a0bf2b15b4a0424353a0a20e2f7e0454985fbae55c09106f9b725c24"
BPDA_TAIL_REPORT_SHA256 = "39baf5c5b632e0a405f7ae00f83c2f8c28d7d5efa45d69b5629a35bd1217521d"
OTHER_KINDS_REPORT_SHA256 = "5e7460fd0ef681b8fb4cdd804f7c6187285773352e76378dae258322cc46b2f5"
OTHER_KINDS_SUMMARY_SHA256 = "084a8082d28ff20b1c90fd3444c179e9eedf7511333d26bbc96448ac051becf3"
DEEPFOOL_REPORT_SHA256 = "b4a4867b8c376bd6e76cb78658d7a43bef9f83b593d5d649ec2787b7557df682"
SLICED_PREDICTIONS_SHA256 = "c43defdda7cd603519fa080b500993a2fd7520a252b3375c0944e7de0248d5cc"
SLICED_FEATURES_SHA256 = "2624a8392f821b5e3251b851762f43ff9b8e8177c678f569ceb3564bd9b19fad"
SLICED_SOFT_LABELS_SHA256 = "bd83cf3075f293336746b1819a951e9679ce1a5720341c89a1d06b943566f3e1"


def _sha256_file(path) -> str:
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


def _sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


GOLDEN_PARAMS = Path(__file__).parent / "data" / "golden_mnist_cnn.bin"


def _golden_split():
    return synthetic_split(1024, 256, seed=31)


@pytest.fixture(scope="module")
def golden_model():
    # the parameters test_golden_mnist_training_params's recipe trained when
    # they were stored; that test pins what the recipe trains now
    train_set, test_set = _golden_split()
    return sd.load_params(GOLDEN_PARAMS, "mnist_cnn"), train_set, test_set


GOLDEN_GRID = dict(slopes=(1.0, 10.0), epsilons=(0.0, 0.1, 0.2),
                   attack_kinds=("fgsm", "stepll", "rfgsm", "bim"))


@pytest.fixture(scope="module")
def golden_sweep(golden_model, tmp_path_factory):
    # one full 256-image evaluation chunk: the conv1 input gradient then has
    # N*ho*wo = 147,456 rows, past any small-batch special case
    model, _, test_set = golden_model
    report = slope_sweep(model, test_set, **GOLDEN_GRID, seed=7)
    out = tmp_path_factory.mktemp("golden")
    report.write_csv(out / "report.csv")
    report.write_summary_csv(out / "summary.csv")
    return report, out


@pytest.fixture(scope="module")
def small_test(golden_model):
    return take_first(golden_model[2], 64)


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


@pytest.mark.parametrize("slice_rows, threads", [(16, 3), (64, 3), (256, 1)])
def test_golden_sweep_bytes_for_any_slice_size_and_thread_count(golden_model, monkeypatch,
                                                                slice_rows, threads):
    # the pool runs one task per (slope, slice of the chunk); neither the
    # slices' size (256: the whole chunk per task) nor the workers move a byte
    monkeypatch.setattr(ex, "SLICE_ROWS", slice_rows)
    report = slope_sweep(golden_model[0], golden_model[2], **GOLDEN_GRID, seed=7,
                         threads=threads)
    assert _sha256_text(report.csv_text()) == REPORT_SHA256
    assert _sha256_text(report.summary_csv_text()) == SUMMARY_SHA256


def test_golden_slope_ten_bim_steps_only_the_moving_rows(golden_model, monkeypatch):
    # at slope 10 the first gradient of 241 of the 256 images is all zero: those
    # images are final, so each later step passes only the other 15 (the chunk
    # runs as one slice here, so the rows are counted per step, not per slice)
    monkeypatch.setattr(ex, "SLICE_ROWS", 256)
    model, _, test_set = golden_model
    rows = []
    method = sd.Model.loss_input_grad

    def counted(self, images, *args):
        rows.append(len(images))
        return method(self, images, *args)

    monkeypatch.setattr(sd.Model, "loss_input_grad", counted)
    config = AttackConfig(kind="bim", epsilon=0.1, rng_seed=7)
    ex.eval_under_attack(model.with_slope(10.0), test_set, [config], seed=7)
    assert rows == [256] + [15] * (BIM_DEFAULT_STEPS - 1)
    assert sum(rows) < BIM_DEFAULT_STEPS * test_set.n


LIMIT_CONFIGS = [AttackConfig(kind=kind, epsilon=eps, rng_seed=7)
                 for kind in ("fgsm", "stepll", "rfgsm", "bim", "pgd") for eps in (0.1, 0.3)]
LIMIT_CONFIGS.append(AttackConfig(kind="deepfool", steps=5, rng_seed=7))
POSITION_FREE = ("fgsm", "stepll", "bim", "deepfool")  # rfgsm and pgd seed by index


def _adversarial(model, dataset, configs):
    """Each config's adversarial images over a set, crafted slice by slice as
    the grid crafts them."""
    per_slice = [[batch.images for batch in batches]
                 for _, batches in ex.attack_all(model, dataset, configs)]
    return [np.concatenate(images) for images in zip(*per_slice)]


@pytest.fixture(scope="module")
def full_set_attacks(golden_model):
    # per slope: every config's adversarial images over all 256 test images.
    # Slopes 5 and 10 hold the images whose gradients are small enough for a
    # loss scaled by the image count to lose bits
    model, _, test_set = golden_model
    return {slope: _adversarial(model.with_slope(slope), test_set, LIMIT_CONFIGS)
            for slope in (5.0, 10.0)}


def _assert_attack_bits(golden_model, full_set_attacks, index, configs):
    """Attacked alone, the test images at index (in that order) get the bytes
    they get in the full set, under every config of configs."""
    model, _, test_set = golden_model
    subset = replace(test_set, images=test_set.images[index], labels=test_set.labels[index])
    for slope, full in full_set_attacks.items():
        for config, adv in zip(configs, _adversarial(model.with_slope(slope), subset, configs)):
            ref = full[LIMIT_CONFIGS.index(config)][index]
            differ = [int(i) for i, a, b in zip(index, adv, ref) if a.tobytes() != b.tobytes()]
            assert not differ, f"{config.kind} at {config.budget:g}, slope {slope:g}: {differ}"


@settings(max_examples=3, deadline=None)
@given(limit=st.integers(1, 255))
@example(limit=200)
@example(limit=100)
def test_golden_attack_bits_at_any_limit(golden_model, full_set_attacks, limit):
    # --limit keeps the first images: each attack loss is its own image's, so no
    # image's attack depends on how many others the run evaluates (the seeded
    # kinds included, which seed by index and keep their indices here)
    _assert_attack_bits(golden_model, full_set_attacks, np.arange(limit), LIMIT_CONFIGS)


@settings(max_examples=3, deadline=None)
@given(order=st.permutations(range(256)), size=st.integers(1, 256))
@example(order=range(255, -1, -1), size=256)
def test_golden_attack_bits_at_any_position(golden_model, full_set_attacks, order, size):
    # any subset of the images, in any order: the kinds that draw no per-index
    # noise give each image the bytes it has in the full set
    configs = [c for c in LIMIT_CONFIGS if c.kind in POSITION_FREE]
    _assert_attack_bits(golden_model, full_set_attacks, np.array(order[:size]), configs)


def test_golden_sweep_other_kinds(golden_model):
    # the kinds the main pin leaves out: PGD, the two seeded degradation
    # attacks (salt-and-pepper reads the epsilon grid as pixel fractions)
    # and DeepFool over its own iteration grid
    grid = dict(slopes=(1.0, 10.0), epsilons=(0.0, 0.1, 0.2),
                attack_kinds=("pgd", "gaussian_noise", "salt_pepper", "deepfool"),
                deepfool_iters=(1, 2, 5))
    report = slope_sweep(golden_model[0], take_first(golden_model[2], 32), **grid, seed=7)
    assert len(report.records) == 2 * 4 * 3
    assert _sha256_text(report.csv_text()) == OTHER_KINDS_REPORT_SHA256
    assert _sha256_text(report.summary_csv_text()) == OTHER_KINDS_SUMMARY_SHA256


@pytest.mark.parametrize("threads", [1, 3])
@pytest.mark.parametrize("slice_rows", [16, 64, 256])
def test_deepfool_report_bytes_for_any_slice_size_and_thread_count(golden_model, monkeypatch,
                                                                   slice_rows, threads):
    # 300 images: a full 256-image chunk and a 44-image tail chunk; DeepFool's
    # active set shrinks inside each slice as its rows flip, and no slice
    # size or worker count moves a byte of the report
    monkeypatch.setattr(ex, "SLICE_ROWS", slice_rows)
    model, train_set, _ = golden_model
    report = slope_sweep(model, take_first(train_set, 300), slopes=(1.0, 10.0),
                         epsilons=(0.0,), attack_kinds=("deepfool",),
                         deepfool_iters=(2, 5), seed=7, threads=threads)
    assert {r.n_images for r in report.records} == {300}
    assert _sha256_text(report.csv_text()) == DEEPFOOL_REPORT_SHA256


def test_golden_targeted_sweep(golden_model, small_test):
    report = ex.targeted_sweep(golden_model[0], small_test, slopes=(1.0, 10.0),
                               epsilons=(0.0, 0.1), seed=7)
    assert len(report.records) == 2 * 10 * 2
    assert _sha256_text(report.csv_text()) == TARGETED_REPORT_SHA256
    assert _sha256_text(report.summary_csv_text()) == TARGETED_SUMMARY_SHA256


def test_golden_activation_swap(golden_model, small_test):
    report = ex.activation_swap(golden_model[0], small_test,
                                ("srelu", "tanh", "softplus"), (0.0, 0.2), seed=7)
    assert len(report.records) == 3 * 2
    assert _sha256_text(report.csv_text()) == SWAP_REPORT_SHA256


@pytest.mark.parametrize("clip, digest", [(True, SCALE_CLIP_REPORT_SHA256),
                                          (False, SCALE_NOCLIP_REPORT_SHA256)],
                         ids=["clip", "noclip"])
def test_golden_scaling(golden_model, small_test, clip, digest):
    report = ex.scaling_experiment(golden_model[0], small_test, (0.5, 2.0), clip,
                                   (0.0, 0.2), seed=7)
    assert len(report.records) == 2 * 2
    assert _sha256_text(report.csv_text()) == digest


@pytest.fixture(scope="module")
def golden_substitute(golden_model):
    model, train_set, _ = golden_model
    return ex.bpda_train_substitute(model, take_first(train_set, 256), epochs=1, seed=4)


def test_golden_bpda(golden_model, golden_substitute, small_test, tmp_path):
    sd.save_params(golden_substitute, tmp_path / "substitute.bin")
    assert _sha256_file(tmp_path / "substitute.bin") == BPDA_PARAMS_SHA256
    report = ex.bpda_transfer_eval(golden_model[0], golden_substitute, small_test,
                                   slopes=(1.0, 10.0), epsilons=(0.0, 0.2),
                                   attack_kinds=("fgsm", "rfgsm"), seed=7)
    assert len(report.records) == 2 * 2 * 2
    assert _sha256_text(report.csv_text()) == BPDA_REPORT_SHA256


@pytest.mark.parametrize("slice_rows", [16, 64, 256])
def test_golden_bpda_bytes_for_any_slice_size(golden_model, golden_substitute, monkeypatch,
                                              slice_rows):
    # 300 images: a full 256-image chunk and a 44-image tail chunk, each crafted
    # in slices on the substitute and judged at every slope; the digest was
    # taken when BPDA still crafted and judged whole chunks
    monkeypatch.setattr(ex, "SLICE_ROWS", slice_rows)
    model, train_set, _ = golden_model
    report = ex.bpda_transfer_eval(model, golden_substitute, take_first(train_set, 300),
                                   slopes=(1.0, 10.0), epsilons=(0.0, 0.2),
                                   attack_kinds=("fgsm", "rfgsm", "bim"), seed=7)
    assert {r.n_images for r in report.records} == {300}
    assert _sha256_text(report.csv_text()) == BPDA_TAIL_REPORT_SHA256


@pytest.mark.parametrize("slice_rows", [16, 64, 256])
def test_golden_sliced_passes_for_any_slice_size(golden_model, monkeypatch, tmp_path,
                                                 slice_rows):
    # 300 images: a full 256-image chunk and a 44-image tail chunk. Predictions,
    # features and BPDA's teacher soft labels run one slice at a time, and the
    # digests were taken when they still ran whole chunks
    monkeypatch.setattr(ex, "SLICE_ROWS", slice_rows)
    model, train_set, _ = golden_model
    images = take_first(train_set, 300)
    assert ex.eval_clean(model, images) == 0.93
    preds = ex.predict_all(model.with_slope(10.0), images.images)
    assert hashlib.sha256(preds.tobytes()).hexdigest() == SLICED_PREDICTIONS_SHA256
    ex.export_features(model, images, tmp_path / "features.csv")
    assert _sha256_file(tmp_path / "features.csv") == SLICED_FEATURES_SHA256
    soft = []

    def recording(images, targets, *args, **kwargs):
        soft.append(targets)
        return BatchIterator(images, targets, *args, **kwargs)

    monkeypatch.setattr(ex, "BatchIterator", recording)
    ex.bpda_train_substitute(model, images, epochs=0, seed=4)
    assert hashlib.sha256(soft[0].tobytes()).hexdigest() == SLICED_SOFT_LABELS_SHA256


def test_golden_mnist_training_params(tmp_path):
    model = sd.build_model("mnist_cnn", seed=3)
    ex.train(model, _golden_split()[0], epochs=2, lr=0.02, batch_size=16, seed=3)
    sd.save_params(model, tmp_path / "model.bin")
    assert _sha256_file(tmp_path / "model.bin") == MNIST_PARAMS_SHA256


def test_golden_cifar_training_params(tmp_path):
    model = sd.build_model("cifar10_cnn1", seed=4)
    ex.train(model, synthetic_cifar(256, seed=9), epochs=1, seed=5)
    sd.save_params(model, tmp_path / "model.bin")
    assert _sha256_file(tmp_path / "model.bin") == CIFAR_PARAMS_SHA256
