"""Experiment drivers: records, sweeps, training, distillation, exports."""

import numpy as np
import pytest

import srelu_defense as sd
from srelu_defense import experiments as ex
from srelu_defense.attacks import BIM_DEFAULT_STEPS, DEEPFOOL_DEFAULT_ITERS, AttackConfig
from srelu_defense.data import LabeledImageSet, take_first
from srelu_defense.experiments import (
    REPORT_HEADER,
    EvalRecord,
    Report,
    SweepGrid,
    eval_clean,
    eval_under_attack,
    slope_sweep,
)

from helpers import synthetic_split


@pytest.fixture(scope="module")
def small_test(synth_sets):
    _, test = synth_sets
    return take_first(test, 120)


# ---------------------------------------------------------------------------
# clean evaluation


def test_eval_clean_trained(trained_synth, synth_sets):
    _, test = synth_sets
    assert eval_clean(trained_synth, test) >= 0.95


def test_eval_clean_untrained_is_chance_level(synth_sets):
    _, test = synth_sets
    untrained = sd.build_model("mnist_cnn", seed=123)
    acc = eval_clean(untrained, test)
    assert 0.05 <= acc <= 0.15


def test_eval_clean_rejects_empty(trained_synth, synth_sets):
    _, test = synth_sets
    with pytest.raises(ValueError, match="empty"):
        eval_clean(trained_synth, take_first(test, 0))


# ---------------------------------------------------------------------------
# attack evaluation records


def test_eps_zero_record_equals_clean_exactly(trained_synth, small_test):
    for slope in (0.5, 1.0, 100.0):
        model = trained_synth.with_slope(slope)
        rec = eval_under_attack(model, small_test,
                                AttackConfig(kind="fgsm", epsilon=0.0), seed=0)
        assert rec.adv_acc == rec.clean_acc
        assert rec.attack_success == 1.0 - rec.clean_acc


def test_targeted_success_zero_at_eps_zero(trained_synth, small_test):
    rec = eval_under_attack(
        trained_synth, small_test,
        AttackConfig(kind="fgsm", epsilon=0.0, targeted=True, target_class=3),
        seed=0,
    )
    assert rec.attack_success == 0.0
    assert rec.targeted and rec.target_class == 3


def test_targeted_denominator_excludes_pretargeted(trained_synth, small_test):
    target = int(trained_synth.predict(small_test.images[:1])[0])
    config = AttackConfig(kind="fgsm", epsilon=0.25, targeted=True,
                          target_class=target)
    rec = eval_under_attack(trained_synth, small_test, config, seed=0)

    clean_preds = ex.predict_all(trained_synth, small_test.images)
    adv = ex.attack_all(trained_synth, small_test, config)
    adv_preds = ex.predict_all(trained_synth, adv)
    eligible = clean_preds != target
    expected = ((adv_preds == target) & eligible).sum() / eligible.sum()
    assert rec.attack_success == pytest.approx(expected)


def test_record_steps_and_units(trained_synth, small_test):
    rec = eval_under_attack(trained_synth, small_test,
                            AttackConfig(kind="deepfool", max_iters=2), seed=0)
    assert rec.epsilon == 2.0 and rec.steps == 2 and rec.epsilon_units == "iterations"
    rec = eval_under_attack(trained_synth, small_test,
                            AttackConfig(kind="salt_pepper", fraction=0.1), seed=0)
    assert rec.epsilon == pytest.approx(0.1) and rec.epsilon_units == "fraction"


def test_default_record_steps_follow_attack_constants(trained_synth, small_test):
    few = take_first(small_test, 2)
    rec = eval_under_attack(trained_synth, few, AttackConfig(kind="bim", epsilon=0.1))
    assert rec.steps == BIM_DEFAULT_STEPS
    rec = eval_under_attack(trained_synth, few, AttackConfig(kind="deepfool"))
    assert rec.steps == DEEPFOOL_DEFAULT_ITERS
    assert rec.epsilon == float(DEEPFOOL_DEFAULT_ITERS)


# ---------------------------------------------------------------------------
# slope sweep


@pytest.fixture(scope="module")
def sweep_report(trained_synth, small_test):
    grid = SweepGrid(slopes=(1.0, 100.0), epsilons=(0.0, 0.1, 0.3),
                     attack_kinds=("fgsm", "bim"), image_budget=60)
    return slope_sweep(trained_synth, small_test, grid, seed=0)


def test_sweep_record_count_is_cross_product(sweep_report):
    assert len(sweep_report.records) == 2 * 2 * 3


def test_sweep_recovery_zero_at_slope_one(sweep_report):
    for s in sweep_report.summaries:
        if s.test_slope == 1.0:
            assert s.recovery == 0.0
            assert s.recovery_with_eps0 == 0.0


def test_sweep_eps_zero_column_matches_clean(sweep_report):
    for r in sweep_report.records:
        if r.epsilon == 0.0:
            assert r.adv_acc == r.clean_acc


def test_sweep_defense_recovers_on_synthetic(sweep_report):
    # trained, confident model: raising the slope saturates softmax, the
    # one-step attack gradient vanishes, accuracy returns to clean
    by_key = {(r.test_slope, r.attack, r.epsilon): r for r in sweep_report.records}
    hurt = by_key[(1.0, "fgsm", 0.3)]
    defended = by_key[(100.0, "fgsm", 0.3)]
    assert hurt.adv_acc <= 0.2
    assert defended.adv_acc >= defended.clean_acc - 0.02
    fgsm_recovery = [s for s in sweep_report.summaries
                     if s.attack == "fgsm" and s.test_slope == 100.0]
    assert fgsm_recovery[0].recovery > 0.2


def test_sweep_rerun_is_byte_identical(trained_synth, small_test, sweep_report):
    grid = SweepGrid(slopes=(1.0, 100.0), epsilons=(0.0, 0.1, 0.3),
                     attack_kinds=("fgsm", "bim"), image_budget=60)
    again = slope_sweep(trained_synth, small_test, grid, seed=0)
    assert again.csv_text() == sweep_report.csv_text()
    assert again.summary_csv_text() == sweep_report.summary_csv_text()


def test_sweep_threads_do_not_change_bytes(trained_synth, small_test, sweep_report):
    grid = SweepGrid(slopes=(1.0, 100.0), epsilons=(0.0, 0.1, 0.3),
                     attack_kinds=("fgsm", "bim"), image_budget=60)
    threaded = slope_sweep(trained_synth, small_test, grid, seed=0, threads=3)
    assert threaded.csv_text() == sweep_report.csv_text()


def test_sweep_deepfool_uses_iteration_grid(trained_synth, small_test):
    grid = SweepGrid(slopes=(1.0,), epsilons=(0.0, 0.3),
                     attack_kinds=("deepfool",), deepfool_iters=(1, 2),
                     image_budget=16)
    report = slope_sweep(trained_synth, small_test, grid, seed=0)
    assert [r.epsilon for r in report.records] == [1.0, 2.0]
    assert all(r.epsilon_units == "iterations" for r in report.records)


def test_grid_validation():
    with pytest.raises(ValueError, match="positive"):
        SweepGrid(slopes=(0.0, 1.0))
    with pytest.raises(ValueError, match="ascend"):
        SweepGrid(epsilons=(0.1, 0.0))


def test_monotone_eps_and_pgd_strength_on_synthetic(trained_synth, small_test):
    model = trained_synth.with_slope(1.0)
    eps_grid = (0.0, 0.1, 0.2, 0.3)
    fgsm_accs, pgd_accs = [], []
    for eps in eps_grid:
        fgsm_accs.append(eval_under_attack(
            model, small_test, AttackConfig(kind="fgsm", epsilon=eps), seed=0).adv_acc)
        pgd_accs.append(eval_under_attack(
            model, small_test,
            AttackConfig(kind="pgd", epsilon=eps, steps=10), seed=0).adv_acc)
    for prev, cur in zip(fgsm_accs, fgsm_accs[1:]):
        assert cur <= prev + 0.01
    for f, p in zip(fgsm_accs, pgd_accs):
        assert p <= f + 0.02


# ---------------------------------------------------------------------------
# targeted sweep


def test_targeted_sweep_shape_and_summary(trained_synth, small_test):
    grid = SweepGrid(slopes=(1.0, 10.0), epsilons=(0.0, 0.2), image_budget=40)
    report = ex.targeted_sweep(trained_synth, small_test, grid, seed=0)
    assert len(report.records) == 10 * 2 * 2
    assert all(r.targeted for r in report.records)
    assert sorted({r.target_class for r in report.records}) == list(range(10))
    success_summaries = [s for s in report.summaries if s.metric == "attack_success"]
    assert {s.test_slope for s in success_summaries} == {1.0, 10.0}


# ---------------------------------------------------------------------------
# activation swap


def test_swap_srelu_reproduces_baseline(trained_synth, small_test):
    eps = (0.0, 0.2)
    baseline = slope_sweep(
        trained_synth, small_test,
        SweepGrid(slopes=(1.0,), epsilons=eps, attack_kinds=("fgsm",), image_budget=50),
        seed=0,
    )
    swapped = ex.activation_swap(trained_synth, small_test, ("srelu", "tanh"),
                                 eps, seed=0, image_budget=50)
    base_rows = {(r.epsilon): (r.clean_acc, r.adv_acc) for r in baseline.records}
    srelu_rows = [r for r in swapped.records if r.activation == "srelu"]
    assert len(srelu_rows) == 2
    for r in srelu_rows:
        assert (r.clean_acc, r.adv_acc) == base_rows[r.epsilon]
    assert {r.activation for r in swapped.records} == {"srelu", "tanh"}


def test_swap_tags_all_kinds(trained_synth, small_test):
    kinds = ("sigmoid", "tanh", "leaky_relu", "elu", "softplus")
    report = ex.activation_swap(trained_synth, small_test, kinds, (0.0,),
                                seed=0, image_budget=20)
    assert {r.activation for r in report.records} == set(kinds)
    assert all(r.test_slope == 1.0 for r in report.records)


# ---------------------------------------------------------------------------
# pixel scaling


def test_scaling_factor_one_reproduces_baseline(trained_synth, small_test):
    eps = (0.0, 0.2)
    baseline = slope_sweep(
        trained_synth, small_test,
        SweepGrid(slopes=(1.0,), epsilons=eps, attack_kinds=("fgsm",), image_budget=50),
        seed=0,
    )
    scaled = ex.scaling_experiment(trained_synth, small_test, (1.0,), True, eps,
                                   seed=0, image_budget=50)
    base = {r.epsilon: (r.clean_acc, r.adv_acc) for r in baseline.records}
    for r in scaled.records:
        assert (r.clean_acc, r.adv_acc) == base[r.epsilon]
        assert r.dataset == "synth[x1,clip]"


def test_scaling_clip_and_noclip_diverge(trained_synth, small_test):
    clipped = ex.scaling_experiment(trained_synth, small_test, (5.0,), True,
                                    (0.0,), seed=0, image_budget=30)
    raw = ex.scaling_experiment(trained_synth, small_test, (5.0,), False,
                                (0.0,), seed=0, image_budget=30)
    assert clipped.records[0].clean_acc != raw.records[0].clean_acc
    assert raw.records[0].dataset == "synth[x5,noclip]"


def test_scaling_rejects_nonpositive_factor(trained_synth, small_test):
    with pytest.raises(ValueError, match="positive"):
        ex.scaling_experiment(trained_synth, small_test, (0.0,), True, (0.0,), seed=0)


# ---------------------------------------------------------------------------
# training


def test_loss_decreases_over_first_steps(synth_sets):
    train_set, _ = synth_sets
    model = sd.build_model("mnist_cnn", seed=2)
    images, labels = train_set.images[:64], train_set.labels[:64]
    losses = [ex.sgd_step(model, images, labels, lr=0.005) for _ in range(4)]
    assert losses[1] < losses[0]
    assert losses[2] < losses[1]
    assert losses[3] < losses[2]


def test_train_zero_epochs_is_noop(synth_sets):
    train_set, _ = synth_sets
    model = sd.build_model("mnist_cnn", seed=2)
    before = {n: t.data.tobytes() for n, t in model.params.items()}
    ex.train(model, train_set, epochs=0, seed=0)
    assert before == {n: t.data.tobytes() for n, t in model.params.items()}


def test_train_deterministic_per_seed(synth_sets):
    train_set, _ = synth_sets
    subset = take_first(train_set, 128)
    runs = []
    for _ in range(2):
        model = sd.build_model("mnist_cnn", seed=2)
        ex.train(model, subset, epochs=1, seed=9)
        runs.append({n: t.data.tobytes() for n, t in model.params.items()})
    assert runs[0] == runs[1]


def test_train_slope_control_changes_training(synth_sets):
    train_set, _ = synth_sets
    subset = take_first(train_set, 128)
    plain = sd.build_model("mnist_cnn", seed=2)
    raised = sd.build_model("mnist_cnn", seed=2,
                            slope_config=sd.SlopeConfig(train_slope=5.0))
    ex.train(plain, subset, epochs=1, seed=9)
    ex.train(raised, subset, epochs=1, seed=9)
    assert any(plain.params[n].data.tobytes() != raised.params[n].data.tobytes()
               for n in plain.params)


# ---------------------------------------------------------------------------
# substitute training / transfer


@pytest.fixture(scope="module")
def distilled_substitute(trained_synth, synth_sets):
    train_set, _ = synth_sets
    return ex.bpda_train_substitute(trained_synth, train_set, epochs=6, seed=3)


def test_substitute_distills_teacher(trained_synth, synth_sets, distilled_substitute):
    _, test_set = synth_sets
    teacher_acc = eval_clean(trained_synth.with_slope(1.0), test_set)
    sub_acc = eval_clean(distilled_substitute.with_slope(1.0), test_set)
    assert abs(teacher_acc - sub_acc) <= 0.03


def test_substitute_zero_epochs_is_initialization(trained_synth, synth_sets):
    train_set, _ = synth_sets
    substitute = ex.bpda_train_substitute(trained_synth, train_set, epochs=0, seed=3)
    fresh = sd.build_model("mnist_cnn", seed=3)
    for name in fresh.params:
        assert substitute.params[name].data.tobytes() == fresh.params[name].data.tobytes()


def test_substitute_deterministic_per_seed(trained_synth, synth_sets):
    train_set, _ = synth_sets
    subset = take_first(train_set, 256)
    a = ex.bpda_train_substitute(trained_synth, subset, epochs=1, seed=4)
    b = ex.bpda_train_substitute(trained_synth, subset, epochs=1, seed=4)
    for name in a.params:
        assert a.params[name].data.tobytes() == b.params[name].data.tobytes()


def test_transfer_eval_eps_zero_is_clean(trained_synth, synth_sets, small_test):
    train_set, _ = synth_sets
    substitute = ex.bpda_train_substitute(trained_synth, take_first(train_set, 256),
                                          epochs=1, seed=4)
    report = ex.bpda_transfer_eval(trained_synth, substitute, small_test,
                                   slopes=(1.0, 100.0), epsilons=(0.0, 0.3), seed=0)
    assert len(report.records) == 4
    for r in report.records:
        assert r.attack == "bpda_fgsm"
        if r.epsilon == 0.0:
            assert r.adv_acc == r.clean_acc


def test_transfer_attack_hurts_defended_model(trained_synth, distilled_substitute,
                                             small_test):
    report = ex.bpda_transfer_eval(trained_synth, distilled_substitute, small_test,
                                   slopes=(100.0,), epsilons=(0.0, 0.3), seed=0)
    by_eps = {r.epsilon: r for r in report.records}
    assert by_eps[0.3].adv_acc < by_eps[0.0].clean_acc - 0.1


# ---------------------------------------------------------------------------
# feature export and CSV surfaces


def test_export_features_shape_and_determinism(trained_synth, small_test, tmp_path):
    subset = take_first(small_test, 30)
    path_a, path_b = tmp_path / "a.csv", tmp_path / "b.csv"
    ex.export_features(trained_synth.with_slope(2.0), subset, path_a)
    ex.export_features(trained_synth.with_slope(2.0), subset, path_b)
    lines = path_a.read_text().splitlines()
    assert len(lines) == 30
    assert all(len(line.split(",")) == 51 for line in lines)
    first_labels = [int(line.split(",")[0]) for line in lines]
    assert first_labels == list(subset.labels)
    assert path_a.read_bytes() == path_b.read_bytes()


def test_export_features_toy_scaling(tmp_path, rng):
    from test_models import toy_one_site_spec

    model = sd.build_model(toy_one_site_spec(), seed=4)
    images = rng.uniform(0, 1, size=(5, 1, 1, 6)).astype(np.float32)
    dataset = LabeledImageSet(images, np.zeros(5, dtype=np.int64), "toy")
    pa, pb = tmp_path / "one.csv", tmp_path / "two.csv"
    ex.export_features(model.with_slope(1.0), dataset, pa)
    ex.export_features(model.with_slope(2.0), dataset, pb)
    one = np.array([[float(v) for v in line.split(",")[1:]]
                    for line in pa.read_text().splitlines()])
    two = np.array([[float(v) for v in line.split(",")[1:]]
                    for line in pb.read_text().splitlines()])
    np.testing.assert_allclose(two, 2.0 * one, rtol=1e-4)


def test_csv_header_and_formatting(trained_synth, small_test):
    rec = eval_under_attack(trained_synth, take_first(small_test, 30),
                            AttackConfig(kind="fgsm", epsilon=0.1), seed=7)
    report = Report(records=[rec])
    text = report.csv_text()
    lines = text.splitlines()
    assert lines[0] == REPORT_HEADER
    fields = lines[1].split(",")
    assert len(fields) == len(REPORT_HEADER.split(","))
    assert fields[0] == "synth" and fields[1] == "mnist_cnn"
    assert fields[6] == "false" and fields[7] == ""
    assert fields[14] == "7"


def test_records_sorted_by_canonical_key(sweep_report):
    keys = [r.sort_key() for r in sweep_report.records]
    assert keys == sorted(keys)
