"""Experiment drivers: records, sweeps, training, distillation, exports."""

import csv
import io
from dataclasses import fields

import numpy as np
import pytest

import srelu_defense as sd
from srelu_defense import experiments as ex
from srelu_defense.attacks import (
    BIM_DEFAULT_STEPS,
    DEEPFOOL_DEFAULT_ITERS,
    PGD_DEFAULT_STEPS,
    AttackConfig,
)
from srelu_defense.data import LabeledImageSet, take_first
from srelu_defense.experiments import (
    REPORT_HEADER,
    EvalRecord,
    Report,
    SummaryRecord,
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
        [rec] = eval_under_attack(model, small_test,
                                  [AttackConfig(kind="fgsm", epsilon=0.0)], seed=0)
        assert rec.adv_acc == rec.clean_acc
        assert rec.attack_success == 1.0 - rec.clean_acc


def test_targeted_success_zero_at_eps_zero(trained_synth, small_test):
    [rec] = eval_under_attack(
        trained_synth, small_test,
        [AttackConfig(kind="fgsm", epsilon=0.0, target_class=3)],
        seed=0,
    )
    assert rec.attack_success == 0.0
    assert rec.targeted and rec.target_class == 3


def test_targeted_denominator_excludes_pretargeted(trained_synth, small_test):
    target = int(trained_synth.predict(small_test.images[:1])[0])
    config = AttackConfig(kind="fgsm", epsilon=0.25, target_class=target)
    [rec] = eval_under_attack(trained_synth, small_test, [config], seed=0)

    clean_preds = ex.predict_all(trained_synth, small_test.images)
    batches = [batch for _, (batch,) in ex.attack_all(trained_synth, small_test, [config])]
    adv_preds = np.concatenate([batch.preds for batch in batches])
    adv_images = np.concatenate([batch.images for batch in batches])
    assert adv_preds.tobytes() == ex.predict_all(trained_synth, adv_images).tobytes()
    eligible = clean_preds != target
    expected = ((adv_preds == target) & eligible).sum() / eligible.sum()
    assert rec.attack_success == pytest.approx(expected)


def test_eval_under_attack_returns_records_in_config_order(trained_synth, small_test):
    # the grid runner behind it sorts reports; a single call's records are not
    configs = [AttackConfig(kind="fgsm", epsilon=0.3), AttackConfig(kind="fgsm", epsilon=0.0),
               AttackConfig(kind="bim", epsilon=0.1, steps=2),
               AttackConfig(kind="fgsm", epsilon=0.1, target_class=2),
               AttackConfig(kind="fgsm", epsilon=0.1)]
    records = eval_under_attack(trained_synth, take_first(small_test, 70), configs, seed=0)
    assert sorted(records, key=EvalRecord.sort_key) != records
    assert [(r.attack, r.targeted, r.epsilon, r.steps) for r in records] == [
        (c.kind, c.targeted, c.epsilon, c.steps) for c in configs]
    for config, record in zip(configs, records):
        [alone] = eval_under_attack(trained_synth, take_first(small_test, 70), [config],
                                    seed=0)
        assert alone == record


def test_record_steps_and_units(trained_synth, small_test):
    [rec] = eval_under_attack(trained_synth, small_test,
                              [AttackConfig(kind="deepfool", steps=2)], seed=0)
    assert rec.epsilon == 2.0 and rec.steps == 2
    [rec] = eval_under_attack(trained_synth, small_test,
                              [AttackConfig(kind="salt_pepper", epsilon=0.1)], seed=0)
    assert rec.epsilon == pytest.approx(0.1) and rec.steps == 1


def test_default_record_steps_follow_attack_constants(trained_synth, small_test):
    few = take_first(small_test, 2)
    [rec] = eval_under_attack(trained_synth, few, [AttackConfig(kind="bim", epsilon=0.1)])
    assert rec.steps == BIM_DEFAULT_STEPS
    [rec] = eval_under_attack(trained_synth, few, [AttackConfig(kind="deepfool")])
    assert rec.steps == DEEPFOOL_DEFAULT_ITERS
    assert rec.epsilon == float(DEEPFOOL_DEFAULT_ITERS)


# ---------------------------------------------------------------------------
# slope sweep


@pytest.fixture(scope="module")
def sweep_report(trained_synth, small_test):
    grid = dict(slopes=(1.0, 100.0), epsilons=(0.0, 0.1, 0.3),
                attack_kinds=("fgsm", "bim"))
    return slope_sweep(trained_synth, take_first(small_test, 60), **grid, seed=0)


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


def test_images_crafted_at_slope_one_fool_every_slope(trained_synth, small_test):
    # the other half: the raised slope masks the gradient, not the weakness.
    # Images crafted on the slope-1 model itself still fool it at slope 100,
    # where its self-crafted FGSM rows read clean accuracy
    report = ex.bpda_transfer_eval(trained_synth, trained_synth, take_first(small_test, 60),
                                   slopes=(1.0, 10.0, 100.0), epsilons=(0.0, 0.1, 0.3),
                                   attack_kinds=("fgsm", "bim"), seed=0)
    assert len(report.records) == 3 * 2 * 3
    for r in report.records:
        if r.epsilon == 0.0:
            assert r.adv_acc == r.clean_acc
        else:
            assert r.adv_acc <= 0.05, r


def test_sweep_rerun_is_byte_identical(trained_synth, small_test, sweep_report):
    grid = dict(slopes=(1.0, 100.0), epsilons=(0.0, 0.1, 0.3),
                attack_kinds=("fgsm", "bim"))
    again = slope_sweep(trained_synth, take_first(small_test, 60), **grid, seed=0)
    assert again.csv_text() == sweep_report.csv_text()
    assert again.summary_csv_text() == sweep_report.summary_csv_text()


def test_sweep_threads_do_not_change_bytes(trained_synth, small_test, sweep_report):
    grid = dict(slopes=(1.0, 100.0), epsilons=(0.0, 0.1, 0.3),
                attack_kinds=("fgsm", "bim"))
    threaded = slope_sweep(trained_synth, take_first(small_test, 60), **grid, seed=0,
                           threads=3)
    assert threaded.csv_text() == sweep_report.csv_text()


@pytest.fixture
def blas_threads():
    """OpenBLAS's (get, set) thread count, starting at 2; skipped without one."""
    control = ex._openblas_threads()
    if control is None:
        pytest.skip("no OpenBLAS thread control in this process")
    get, set_ = control
    user = get()
    set_(2)
    try:
        yield get
    finally:
        set_(user)


def test_cell_pool_runs_blas_on_one_thread_and_restores_it(blas_threads):
    assert ex._run_cells([blas_threads] * 4, threads=2) == [1, 1, 1, 1]
    assert blas_threads() == 2
    assert ex._run_cells([blas_threads] * 2, threads=1) == [2, 2]


def test_cell_pool_restores_blas_threads_when_a_cell_raises(blas_threads):
    seen = []

    def failing():
        seen.append(blas_threads())
        raise RuntimeError("cell failed")

    with pytest.raises(RuntimeError, match="cell failed"):
        ex._run_cells([failing, failing], threads=2)
    # map cancels the cells not yet started once one raises
    assert set(seen) == {1}
    assert blas_threads() == 2


def _count_calls(monkeypatch, name):
    """Patch the Model method name to record the batch size of every call."""
    calls = []
    method = getattr(sd.Model, name)

    def counted(self, images, *args):
        calls.append(len(images))
        return method(self, images, *args)

    monkeypatch.setattr(sd.Model, name, counted)
    return calls


@pytest.mark.parametrize("kinds", ["fgsm,bim", "gaussian_noise", "salt_pepper"])
def test_sweep_predicts_each_attacked_chunk_once(trained_synth, small_test, monkeypatch,
                                                 kinds):
    # no kind here takes its gradients through Model.logits, and an eps=0
    # cell returns the clean chunk, whose prediction is cached; so does a
    # gradient cell whose every first gradient is zero, as at slope 100 here,
    # where the softmax saturates. So the forward passes left are one clean
    # prediction per slope and one per eps>0 cell in which an image moves
    images = take_first(small_test, 60)
    _, grad = trained_synth.with_slope(100.0).loss_input_grad(images.images, images.labels)
    assert not grad.any()
    calls = _count_calls(monkeypatch, "logits")
    kinds = kinds.split(",")
    grid = dict(slopes=(1.0, 100.0), epsilons=(0.0, 0.1, 0.3), attack_kinds=tuple(kinds))
    slope_sweep(trained_synth, images, **grid, seed=0)
    moving_kinds = len(kinds) + len(set(kinds) - {"fgsm", "bim"})  # at slopes 1 and 100
    assert calls == [60] * (2 + 2 * moving_kinds)


def test_slices_cut_slice_rows_from_zero(monkeypatch):
    # every attack loss is per image, so nothing but SLICE_ROWS sets where a cut falls
    assert list(ex._slices(300)) == [(0, 64), (64, 128), (128, 192), (192, 256), (256, 300)]
    monkeypatch.setattr(ex, "SLICE_ROWS", 100)
    assert list(ex._slices(300)) == [(0, 100), (100, 200), (200, 300)]
    assert list(ex._slices(0)) == []


def test_attack_all_attacks_plain_slices(trained_synth, synth_sets):
    # each view holds one slice's images and no count of the set's: an image's
    # attack reads its own loss alone (test_golden pins the bits at any --limit)
    subset = take_first(synth_sets[1], 300)
    views = [clean for clean, _ in ex.attack_all(trained_synth, subset, [])]
    assert [len(v.images) for v in views] == [64] * 4 + [44]
    assert np.array_equal(np.concatenate([v.images for v in views]), subset.images)


def test_sweep_takes_each_clean_gradient_once(trained_synth, small_test, monkeypatch):
    calls = _count_calls(monkeypatch, "loss_input_grad")
    grid = dict(slopes=(1.0, 10.0), epsilons=(0.0, 0.1, 0.3),
                attack_kinds=("fgsm", "stepll", "rfgsm", "bim", "pgd"))
    slope_sweep(trained_synth, take_first(small_test, 8), **grid, seed=0)
    # per slope, eps=0 takes none; eps 0.1 and 0.3 together take one
    # true-label gradient at the clean images (fgsm at both, and bim's first
    # steps), one least-likely-class one (stepll at both), rfgsm's 2 from its
    # noise steps, and pgd's 2 first steps from its start. At slope 1 bim's
    # 2 x 9 later steps and pgd's 2 x 39 follow; at slope 10 every image's
    # first gradient is zero, so no attack takes a second step
    first_steps = 1 + 1 + 2 + 2
    later_steps = 2 * (BIM_DEFAULT_STEPS - 1) + 2 * (PGD_DEFAULT_STEPS - 1)
    assert calls == [8] * (first_steps + later_steps + first_steps)


def test_targeted_sweep_takes_one_gradient_per_target(trained_synth, small_test,
                                                      monkeypatch):
    calls = _count_calls(monkeypatch, "loss_input_grad")
    grid = dict(slopes=(1.0, 10.0), epsilons=(0.0, 0.1, 0.2, 0.3))
    ex.targeted_sweep(trained_synth, take_first(small_test, 8), **grid, seed=0)
    assert calls == [8] * 2 * 10


@pytest.mark.parametrize("kind", ["deepfool", "fgsm"])
def test_reading_success_as_each_batch_is_crafted_adds_no_pass(trained_synth, small_test,
                                                                monkeypatch, kind):
    # perfbench's tracer reads each crafted batch's success before the grid
    # judges the batch; both reads are the batch's own preds, so either way
    # each attacked batch (and each slope's clean slice) takes one forward
    # pass, and the report is the same
    grid = dict(slopes=(1.0, 10.0), epsilons=(0.0, 0.1), attack_kinds=(kind,),
                deepfool_iters=(1, 3))
    subset = take_first(small_test, 16)
    run_attack, logits = ex.run_attack, sd.Model.logits

    def sweep(read_success):
        batches, inputs = [], []

        def crafted(*args, **kwargs):
            batches.append(run_attack(*args, **kwargs))
            if read_success:
                _ = batches[-1].success
            return batches[-1]

        def counted(self, images):
            inputs.append(images)
            return logits(self, images)

        with monkeypatch.context() as patch:
            patch.setattr(ex, "run_attack", crafted)
            patch.setattr(sd.Model, "logits", counted)
            report = slope_sweep(trained_synth, subset, **grid, seed=0)
        passes = [sum(x is batch.images for x in inputs) for batch in batches]
        return report.csv_text(), len(inputs), passes

    plain, observed = sweep(read_success=False), sweep(read_success=True)
    assert plain[2] == [1] * 4
    assert observed == plain


def test_sweep_deepfool_uses_iteration_grid(trained_synth, small_test):
    grid = dict(slopes=(1.0,), epsilons=(0.0, 0.3),
                attack_kinds=("deepfool",), deepfool_iters=(1, 2))
    report = slope_sweep(trained_synth, take_first(small_test, 16), **grid, seed=0)
    assert [r.epsilon for r in report.records] == [1.0, 2.0]
    assert [r.steps for r in report.records] == [1, 2]


def test_monotone_eps_and_pgd_strength_on_synthetic(trained_synth, small_test):
    model = trained_synth.with_slope(1.0)
    eps_grid = (0.0, 0.1, 0.2, 0.3)
    fgsm_accs = [r.adv_acc for r in eval_under_attack(
        model, small_test, [AttackConfig(kind="fgsm", epsilon=eps) for eps in eps_grid])]
    pgd_accs = [r.adv_acc for r in eval_under_attack(
        model, small_test,
        [AttackConfig(kind="pgd", epsilon=eps, steps=10) for eps in eps_grid])]
    for prev, cur in zip(fgsm_accs, fgsm_accs[1:]):
        assert cur <= prev + 0.01
    for f, p in zip(fgsm_accs, pgd_accs):
        assert p <= f + 0.02


# ---------------------------------------------------------------------------
# targeted sweep


def test_targeted_sweep_shape_and_summary(trained_synth, small_test):
    grid = dict(slopes=(1.0, 10.0), epsilons=(0.0, 0.2))
    report = ex.targeted_sweep(trained_synth, take_first(small_test, 40), **grid, seed=0)
    assert len(report.records) == 10 * 2 * 2
    assert all(r.targeted for r in report.records)
    assert sorted({r.target_class for r in report.records}) == list(range(10))
    success_summaries = [s for s in report.summaries if s.metric == "attack_success"]
    assert {s.test_slope for s in success_summaries} == {1.0, 10.0}


# ---------------------------------------------------------------------------
# activation swap


def test_swap_srelu_reproduces_baseline(trained_synth, small_test):
    eps = (0.0, 0.2)
    subset = take_first(small_test, 50)
    baseline = slope_sweep(
        trained_synth, subset,
        slopes=(1.0,), epsilons=eps, attack_kinds=("fgsm",), seed=0,
    )
    swapped = ex.activation_swap(trained_synth, subset, ("srelu", "tanh"), eps, seed=0)
    base_rows = {(r.epsilon): (r.clean_acc, r.adv_acc) for r in baseline.records}
    srelu_rows = [r for r in swapped.records if r.activation == "srelu"]
    assert len(srelu_rows) == 2
    for r in srelu_rows:
        assert (r.clean_acc, r.adv_acc) == base_rows[r.epsilon]
    assert {r.activation for r in swapped.records} == {"srelu", "tanh"}


def test_swap_tags_all_kinds(trained_synth, small_test):
    kinds = ("sigmoid", "tanh", "leaky_relu", "elu", "softplus")
    report = ex.activation_swap(trained_synth, take_first(small_test, 20), kinds,
                                (0.0,), seed=0)
    assert {r.activation for r in report.records} == set(kinds)
    assert all(r.test_slope == 1.0 for r in report.records)


# ---------------------------------------------------------------------------
# pixel scaling


def test_scaling_factor_one_reproduces_baseline(trained_synth, small_test):
    eps = (0.0, 0.2)
    subset = take_first(small_test, 50)
    baseline = slope_sweep(
        trained_synth, subset,
        slopes=(1.0,), epsilons=eps, attack_kinds=("fgsm",), seed=0,
    )
    scaled = ex.scaling_experiment(trained_synth, subset, (1.0,), True, eps, seed=0)
    base = {r.epsilon: (r.clean_acc, r.adv_acc) for r in baseline.records}
    for r in scaled.records:
        assert (r.clean_acc, r.adv_acc) == base[r.epsilon]
        assert r.dataset == "synth[x1:clip]"


def test_scaling_clip_and_noclip_diverge(trained_synth, small_test):
    subset = take_first(small_test, 30)
    clipped = ex.scaling_experiment(trained_synth, subset, (5.0,), True, (0.0,), seed=0)
    raw = ex.scaling_experiment(trained_synth, subset, (5.0,), False, (0.0,), seed=0)
    assert clipped.records[0].clean_acc != raw.records[0].clean_acc
    assert raw.records[0].dataset == "synth[x5:noclip]"


def test_scaling_rejects_nonpositive_factor(trained_synth, small_test):
    with pytest.raises(ValueError, match="positive"):
        ex.scaling_experiment(trained_synth, small_test, (0.0,), True, (0.0,), seed=0)


# ---------------------------------------------------------------------------
# training


def test_loss_decreases_over_first_steps(synth_sets):
    # one 64-image batch per epoch and no momentum: each returned epoch loss is
    # the pre-step loss of one plain SGD step on the same 64 images
    train_set, _ = synth_sets
    model = sd.build_model("mnist_cnn", seed=2)
    losses = ex.train(model, take_first(train_set, 64), epochs=4, lr=0.005, momentum=0.0,
                      batch_size=64, seed=0)
    assert len(losses) == 4
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


def test_train_runs_the_plain_rectifier_at_any_slope(synth_sets):
    # train mutates the caller's parameters and leaves its evaluation setting
    train_set, _ = synth_sets
    subset = take_first(train_set, 128)
    runs = []
    for slope, activation in ((1.0, "srelu"), (5.0, "srelu"), (1.0, "tanh")):
        model = sd.build_model("mnist_cnn", seed=2)
        view = sd.Model(model.spec, model.params, slope, activation)
        ex.train(view, subset, epochs=1, seed=9)
        assert (view.slope, view.activation) == (slope, activation)
        runs.append({n: t.data.tobytes() for n, t in model.params.items()})
    assert runs[0] == runs[1] == runs[2]


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


def test_transfer_eval_rejects_empty(trained_synth, small_test):
    with pytest.raises(ValueError, match="empty"):
        ex.bpda_transfer_eval(trained_synth, trained_synth, take_first(small_test, 0),
                              slopes=(1.0,), epsilons=(0.0,), seed=0)


def test_transfer_eval_crafts_fgsm_from_one_gradient(trained_synth, small_test,
                                                     monkeypatch):
    # the substitute's clean gradient serves every eps; eps=0 crafts nothing
    grads = _count_calls(monkeypatch, "loss_input_grad")
    passes = _count_calls(monkeypatch, "logits")
    ex.bpda_transfer_eval(trained_synth, trained_synth, take_first(small_test, 8),
                          slopes=(1.0, 10.0), epsilons=(0.0, 0.1, 0.3), seed=0)
    assert grads == [8]
    # one clean pass per slope, which its eps=0 cell reads too; one pass per
    # slope per eps>0; the substitute predicts nothing
    assert passes == [8] * (2 + 2 * 2)


def test_transfer_eval_substitute_takes_no_prediction_pass(trained_synth, small_test,
                                                          monkeypatch):
    # the crafted batches' preds and success are lazy, and only the judges
    # read predictions: a clean pass per slope and a pass per slope and
    # epsilon, 6 in all (with the substitute predicting each batch it was 8)
    passes = _count_calls(monkeypatch, "logits")
    ex.bpda_transfer_eval(trained_synth, trained_synth, take_first(small_test, 20),
                          slopes=(1.0, 10.0), epsilons=(0.1, 0.2), seed=0)
    assert passes == [20] * 6


def test_transfer_attack_hurts_defended_model(trained_synth, distilled_substitute,
                                             small_test):
    report = ex.bpda_transfer_eval(trained_synth, distilled_substitute, small_test,
                                   slopes=(100.0,), epsilons=(0.0, 0.3), seed=0)
    by_eps = {r.epsilon: r for r in report.records}
    assert by_eps[0.3].adv_acc < by_eps[0.0].clean_acc - 0.1


def test_transfer_eval_deepfool_rows_follow_iteration_grid(trained_synth, small_test):
    # deepfool takes no epsilon: one row per iteration budget, not per epsilon
    few = take_first(small_test, 4)
    report = ex.bpda_transfer_eval(trained_synth, trained_synth, few, slopes=(1.0,),
                                   epsilons=(0.0, 0.1, 0.3),
                                   attack_kinds=("fgsm", "deepfool"), seed=0)
    deepfool = [r for r in report.records if r.attack == "bpda_deepfool"]
    assert [r.steps for r in deepfool] == list(ex.DEEPFOOL_ITER_GRID)
    assert [r.epsilon for r in deepfool] == [float(i) for i in ex.DEEPFOOL_ITER_GRID]
    keys = [r.sort_key() for r in report.records]
    assert len(set(keys)) == len(keys) == 3 + len(ex.DEEPFOOL_ITER_GRID)


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
    report = Report(records=eval_under_attack(trained_synth, take_first(small_test, 30),
                                              [AttackConfig(kind="fgsm", epsilon=0.1)],
                                              seed=7))
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


def test_every_driver_report_parses_to_header_width(trained_synth, small_test):
    few = take_first(small_test, 12)
    reports = {
        "sweep": slope_sweep(trained_synth, few, slopes=(1.0,), epsilons=(0.0, 0.1),
                             attack_kinds=("fgsm", "salt_pepper", "deepfool"),
                             deepfool_iters=(1,), seed=1),
        "targeted": ex.targeted_sweep(trained_synth, few, slopes=(1.0,),
                                      epsilons=(0.0, 0.1), seed=1),
        "swap": ex.activation_swap(trained_synth, few, ("tanh",), (0.0, 0.1), seed=1),
        "scale": ex.scaling_experiment(trained_synth, few, (0.5, 2.0), True,
                                       (0.0, 0.1), seed=1),
        "scale-noclip": ex.scaling_experiment(trained_synth, few, (2.0,), False,
                                              (0.0, 0.1), seed=1),
        "bpda": ex.bpda_transfer_eval(trained_synth, trained_synth, few, (1.0,),
                                      (0.0, 0.1), seed=1),
    }
    tables = {name: (report.csv_text(), REPORT_HEADER.split(","))
              for name, report in reports.items()}
    summary_header = [f.name for f in fields(SummaryRecord)]
    for name in ("sweep", "targeted"):
        tables[name + "-summary"] = (reports[name].summary_csv_text(), summary_header)
    for name, (text, header) in tables.items():
        rows = list(csv.reader(io.StringIO(text)))
        assert rows[0] == header, name
        assert len(rows) > 1, name
        assert {len(row) for row in rows} == {len(header)}, name
