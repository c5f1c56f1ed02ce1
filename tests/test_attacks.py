"""Attack generators: exact identities, budget contracts, oracle checks."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from srelu_defense.attacks import (
    _ATTACKS,
    BIM_DEFAULT_STEPS,
    DEEPFOOL_DEFAULT_ITERS,
    DEEPFOOL_DEFAULT_OVERSHOOT,
    PGD_DEFAULT_STEPS,
    UNIT_RANGE,
    AttackConfig,
    _image_rng,
    run_attack,
)
from srelu_defense.data import LabeledImageSet, scale_pixels
from srelu_defense.experiments import DEFAULT_SCALE_FACTORS, _CleanChunk

from helpers import LinearSoftmaxModel, linear_min_hyperplane_distance, linf_distance

F32_EPS = float(np.finfo(np.float32).eps)


@pytest.fixture(scope="module")
def attack_batch(synth_sets):
    _, test = synth_sets
    return test.images[:48].copy(), test.labels[:48].copy()


def attack(model, images, labels, kind, index_base=0, **fields):
    """run_attack on a config built from keyword fields."""
    return run_attack(model, images, labels, AttackConfig(kind=kind, **fields),
                      index_base=index_base)


def split_attack(model, images, labels, config, split, index_base=0):
    """run_attack on images whole and as two parts cut at split, each part as
    experiments attacks a slice of a set: through the slice's clean view, whose
    attack loss is per image. Returns both."""
    def part(lo, hi):
        view = _CleanChunk(model, images[lo:hi])
        return run_attack(view, view.images, labels[lo:hi], config,
                          index_base=index_base + lo).images

    stitched = np.concatenate([part(0, split), part(split, len(images))])
    return part(0, len(images)), stitched


def random_linear_model(rng, features=8, classes=10, dtype=np.float32):
    w = rng.normal(size=(features, classes)).astype(dtype)
    b = rng.normal(size=classes).astype(dtype)
    return LinearSoftmaxModel(w, b)


# ---------------------------------------------------------------------------
# fgsm


def test_fgsm_on_increasing_loss_moves_up():
    # one feature, two classes; weights chosen so the true-label loss rises in x
    model = LinearSoftmaxModel(
        np.array([[-1.0, 1.0]], dtype=np.float32), np.zeros(2, dtype=np.float32)
    )
    x = np.full((3, 1, 1, 1), 0.5, dtype=np.float32)
    labels = np.zeros(3, dtype=np.int64)
    out = attack(model, x, labels, "fgsm", epsilon=0.25)
    np.testing.assert_allclose(out.images, 0.75)
    out = attack(model, x, labels, "fgsm", epsilon=0.75)  # clip engages
    np.testing.assert_allclose(out.images, 1.0)


def test_fgsm_pixel_deltas_are_sign_structured(trained_synth, attack_batch):
    images, labels = attack_batch
    interior = np.clip(images, 0.3, 0.7)  # keep away from the clip boundary
    eps = 0.1
    out = attack(trained_synth, interior, labels, "fgsm", epsilon=eps)
    deltas = (out.images - interior).reshape(-1)
    matches = (
        (deltas == 0)
        | (np.abs(deltas - np.float32(eps)) <= 4 * F32_EPS)
        | (np.abs(deltas + np.float32(eps)) <= 4 * F32_EPS)
    )
    assert matches.all()


# ---------------------------------------------------------------------------
# targeted fgsm


def test_targeted_step_negates_untargeted_step_at_target_label(rng):
    model = random_linear_model(rng)
    x = rng.uniform(0.3, 0.7, size=(5, 1, 2, 4)).astype(np.float32)
    target = 4
    eps = 0.05
    targeted = attack(model, x, None, "fgsm", epsilon=eps, target_class=target)
    as_untargeted = attack(model, x, np.full(5, target), "fgsm", epsilon=eps)
    # equal up to float rounding of x - eps vs x + eps (one ulp)
    np.testing.assert_allclose(
        targeted.images - x, -(as_untargeted.images - x), rtol=0, atol=1e-7
    )
    np.testing.assert_array_equal(
        np.sign(targeted.images - x), -np.sign(as_untargeted.images - x)
    )


def test_targeted_first_order_decreases_target_loss(rng):
    model = random_linear_model(rng, dtype=np.float64)
    x = rng.uniform(0.2, 0.8, size=(6, 1, 2, 4)).astype(np.float64)
    target = 2
    targets = np.full(6, target)
    before, _ = model.loss_input_grad(x, targets)
    out = attack(model, x, None, "fgsm", epsilon=1e-3, target_class=target)
    after, _ = model.loss_input_grad(out.images, targets)
    assert after <= before


# ---------------------------------------------------------------------------
# bim / pgd identities


def test_bim_single_step_equals_fgsm(trained_synth, attack_batch):
    images, labels = attack_batch
    eps = 0.15
    a = attack(trained_synth, images, labels, "fgsm", epsilon=eps)
    b = attack(trained_synth, images, labels, "bim", epsilon=eps, steps=1, step_size=eps)
    assert a.images.tobytes() == b.images.tobytes()


def test_pgd_single_step_no_start_equals_fgsm(trained_synth, attack_batch):
    images, labels = attack_batch
    eps = 0.15
    a = attack(trained_synth, images, labels, "fgsm", epsilon=eps)
    b = attack(trained_synth, images, labels, "pgd", epsilon=eps, steps=1, step_size=eps,
               random_start=False)
    assert a.images.tobytes() == b.images.tobytes()


@pytest.mark.parametrize("steps,step_size", [(1, 0.3), (5, 0.1), (10, None)])
def test_bim_budget_and_range(trained_synth, attack_batch, steps, step_size):
    images, labels = attack_batch
    eps = 0.2
    out = attack(trained_synth, images, labels, "bim", epsilon=eps, steps=steps,
                 step_size=step_size)
    assert out.images.min() >= 0.0 and out.images.max() <= 1.0
    assert linf_distance(out.images, images).max() <= eps + 4 * F32_EPS


def test_pgd_budget_and_determinism(trained_synth, attack_batch):
    images, labels = attack_batch
    eps = 0.2
    a = attack(trained_synth, images, labels, "pgd", epsilon=eps, steps=4, rng_seed=5)
    b = attack(trained_synth, images, labels, "pgd", epsilon=eps, steps=4, rng_seed=5)
    assert a.images.tobytes() == b.images.tobytes()
    assert linf_distance(a.images, images).max() <= eps + 4 * F32_EPS
    assert a.images.min() >= 0.0 and a.images.max() <= 1.0
    c = attack(trained_synth, images, labels, "pgd", epsilon=eps, steps=4, rng_seed=6)
    assert a.images.tobytes() != c.images.tobytes()


def test_pgd_partition_invariance(trained_synth, attack_batch):
    # the batched float32 model itself: a row's bits do not depend on its batch
    images, labels = attack_batch
    config = AttackConfig(kind="pgd", epsilon=0.2, steps=2, rng_seed=3)
    whole, stitched = split_attack(trained_synth, images, labels, config, 20)
    np.testing.assert_array_equal(whole, stitched)


SEEDED_CONFIGS = {
    "rfgsm": AttackConfig(kind="rfgsm", epsilon=0.2, rng_seed=11),
    "pgd": AttackConfig(kind="pgd", epsilon=0.2, steps=2, rng_seed=3),
    "gaussian_noise": AttackConfig(kind="gaussian_noise", epsilon=0.2, rng_seed=5),
    "salt_pepper": AttackConfig(kind="salt_pepper", epsilon=0.1, rng_seed=7),
}


@pytest.mark.parametrize("kind", sorted(SEEDED_CONFIGS))
@settings(max_examples=10, deadline=None)
@given(split=st.integers(1, 15), base=st.integers(0, 5000))
@example(split=1, base=702)  # a plain mean-loss model, unpadded, moved a pixel here
def test_seeded_attack_partition_invariance(trained_synth, attack_batch, kind,
                                            split, base):
    # the grid's slices rely on this: slice boundaries reach neither the
    # per-image seeds nor, on the real model, any bit of an image's attack
    images, labels = attack_batch[0][:16], attack_batch[1][:16]
    whole, stitched = split_attack(trained_synth, images, labels, SEEDED_CONFIGS[kind],
                                   split, index_base=base)
    assert whole.tobytes() == stitched.tobytes()


# ---------------------------------------------------------------------------
# rfgsm


def test_rfgsm_zero_noise_reduces_to_fgsm(trained_synth, attack_batch):
    images, labels = attack_batch
    eps = 0.1
    a = attack(trained_synth, images, labels, "rfgsm", epsilon=eps, noise_alpha=0.0)
    b = attack(trained_synth, images, labels, "fgsm", epsilon=eps)
    assert a.images.tobytes() == b.images.tobytes()


def test_rfgsm_seed_determinism(trained_synth, attack_batch):
    images, labels = attack_batch
    a = attack(trained_synth, images, labels, "rfgsm", epsilon=0.2, rng_seed=11)
    b = attack(trained_synth, images, labels, "rfgsm", epsilon=0.2, rng_seed=11)
    assert a.images.tobytes() == b.images.tobytes()
    assert linf_distance(a.images, images).max() <= 0.2 + 4 * F32_EPS


def test_rfgsm_rejects_oversized_noise():
    with pytest.raises(ValueError, match="noise step"):
        AttackConfig(kind="rfgsm", epsilon=0.1, noise_alpha=0.2)


# ---------------------------------------------------------------------------
# stepll


def test_stepll_picks_nonpredicted_class_in_binary_case(rng):
    model = random_linear_model(rng, features=4, classes=2)
    x = rng.uniform(0.2, 0.8, size=(6, 1, 1, 4)).astype(np.float32)
    logits = model.logits(x)
    least_likely = logits.argmin(axis=1)
    predicted = logits.argmax(axis=1)
    distinct = logits[:, 0] != logits[:, 1]
    assert (least_likely[distinct] != predicted[distinct]).all()


def test_stepll_matches_targeted_fgsm_at_least_likely(trained_synth, attack_batch):
    images, labels = attack_batch
    eps = 0.1
    least_likely = trained_synth.logits(images).argmin(axis=1)
    # all images of one least-likely class so the targeted call lines up
    pick = least_likely == np.bincount(least_likely).argmax()
    subset = images[pick]
    out_ll = attack(trained_synth, subset, labels[pick], "stepll", epsilon=eps)
    out_tg = attack(trained_synth, subset, None, "fgsm", epsilon=eps,
                    target_class=int(least_likely[pick][0]))
    assert out_ll.images.tobytes() == out_tg.images.tobytes()


# ---------------------------------------------------------------------------
# deepfool


def test_deepfool_binary_linear_reaches_hyperplane(rng):
    w = np.array([[1.0, -1.0], [2.0, 0.5], [0.0, 1.0]], dtype=np.float64)
    b = np.array([0.25, -0.1], dtype=np.float64)
    model = LinearSoftmaxModel(w, b)
    x = rng.uniform(0.2, 0.8, size=(1, 1, 1, 3)).astype(np.float64)
    overshoot = 0.02
    out = attack(model, x, None, "deepfool", steps=10, overshoot=overshoot)
    flat = x.reshape(-1)
    logits = flat @ w + b
    top = logits.argmax()
    dist = abs(logits[1 - top] - logits[top]) / np.linalg.norm(w[:, 1 - top] - w[:, top])
    got = np.linalg.norm(out.images.reshape(-1) - flat)
    assert got == pytest.approx(dist * (1 + overshoot), rel=0.01)
    assert out.success[0]
    assert out.l2[0] == pytest.approx(dist, rel=0.01)


def test_deepfool_zero_overshoot_lands_on_boundary(rng):
    model = random_linear_model(rng, features=6, dtype=np.float64)
    x = rng.uniform(0.3, 0.7, size=(1, 1, 1, 6)).astype(np.float64)
    out = attack(model, x, None, "deepfool", steps=1, overshoot=0.0)
    dist = linear_min_hyperplane_distance(model, x.reshape(-1))
    assert out.l2[0] == pytest.approx(dist, rel=0.01)


def test_deepfool_multiclass_matches_bruteforce(rng):
    for trial in range(8):
        model = random_linear_model(rng, features=12, classes=10, dtype=np.float64)
        x = rng.uniform(0.2, 0.8, size=(1, 1, 3, 4)).astype(np.float64)
        out = attack(model, x, None, "deepfool", steps=5)
        expected = linear_min_hyperplane_distance(model, x.reshape(-1))
        assert out.l2[0] == pytest.approx(expected, rel=0.01)


def test_deepfool_flips_predictions(trained_synth, attack_batch):
    images, _ = attack_batch
    subset = images[:8]
    before = trained_synth.predict(subset)
    out = attack(trained_synth, subset, None, "deepfool", steps=50)
    after = trained_synth.predict(out.images)
    assert out.success.mean() >= 0.75
    np.testing.assert_array_equal(out.success, after != before)
    assert out.images.min() >= 0.0 and out.images.max() <= 1.0


class NanLogitGradientModel(LinearSoftmaxModel):
    """A linear model whose logit gradients are NaN, as an overflowing slope's are."""

    slope = 7.0

    def logit_input_grads(self, images):
        logits, grads = super().logit_input_grads(images)
        return logits, np.full_like(grads, np.nan)


def test_deepfool_non_finite_logit_gradient_names_the_attack_and_slope(rng):
    # a NaN boundary distance compares false with every other, so without the
    # check the loop stops as if all logit gaps were flat and reports it robust
    linear = random_linear_model(rng, features=6)
    model = NanLogitGradientModel(linear.weights, linear.bias)
    x = rng.uniform(0.3, 0.7, size=(2, 1, 1, 6)).astype(np.float32)
    with pytest.raises(ValueError, match="non-finite logit gradient in the deepfool "
                                         "attack at test slope 7"):
        attack(model, x, None, "deepfool", steps=5)


class LinearizationCountingModel:
    """A model whose logit linearizations are counted, noting whether the
    last one had every logit gap flat (all class gradients equal)."""

    def __init__(self, model):
        self.model, self.calls, self.flat = model, 0, False
        self.slope, self.logits, self.predict = model.slope, model.logits, model.predict

    def logit_input_grads(self, images):
        self.calls += 1
        logits, grads = self.model.logit_input_grads(images)
        self.flat = bool((grads == grads[:1]).all())
        return logits, grads


@settings(max_examples=8, deadline=None)
@given(slope=st.sampled_from([1.0, 10.0]), factor=st.sampled_from([None, 0.5, 2.0]),
       budget=st.integers(1, 6), first=st.integers(0, 40))
@example(slope=1.0, factor=None, budget=5, first=0)
def test_deepfool_stops_early_only_on_a_flipped_image(trained_synth, attack_batch, slope,
                                                      factor, budget, first):
    """An image DeepFool stops on before its budget, with some logit gap not
    flat, is one whose returned (clipped) image changed class."""
    images, labels = attack_batch[0][first:first + 8], attack_batch[1][first:first + 8]
    clip = UNIT_RANGE
    if factor is not None:
        scaled = scale_pixels(LabeledImageSet(images, labels, "t"), factor, False)
        images, clip = scaled.images, scaled.pixel_range
    config = AttackConfig(kind="deepfool", steps=budget)
    for i in range(len(images)):
        model = LinearizationCountingModel(trained_synth.with_slope(slope))
        out = run_attack(model, images[i:i + 1], None, config, clip=clip)
        if model.calls < budget and not model.flat:
            assert out.success[0], (i, model.calls)


def test_deepfool_rejects_zero_iters():
    with pytest.raises(ValueError, match="steps"):
        AttackConfig(kind="deepfool", steps=0)


# ---------------------------------------------------------------------------
# degradation attacks


def test_gaussian_noise_contracts(trained_synth, attack_batch):
    images, labels = attack_batch
    out = attack(trained_synth, images, labels, "gaussian_noise", epsilon=0.0, rng_seed=1)
    np.testing.assert_array_equal(out.images, images)
    a = attack(trained_synth, images, labels, "gaussian_noise", epsilon=0.3, rng_seed=2)
    b = attack(trained_synth, images, labels, "gaussian_noise", epsilon=0.3, rng_seed=2)
    assert a.images.tobytes() == b.images.tobytes()
    assert a.images.min() >= 0.0 and a.images.max() <= 1.0


def test_salt_pepper_contracts(trained_synth, attack_batch):
    images, labels = attack_batch
    out = attack(trained_synth, images, labels, "salt_pepper", epsilon=0.0, rng_seed=1)
    np.testing.assert_array_equal(out.images, images)
    full = attack(trained_synth, images, labels, "salt_pepper", epsilon=1.0, rng_seed=2)
    assert np.isin(full.images, [0.0, 1.0]).all()
    a = attack(trained_synth, images, labels, "salt_pepper", epsilon=0.25, rng_seed=3)
    b = attack(trained_synth, images, labels, "salt_pepper", epsilon=0.25, rng_seed=3)
    assert a.images.tobytes() == b.images.tobytes()
    with pytest.raises(ValueError, match="epsilon"):  # the fraction is epsilon
        AttackConfig(kind="salt_pepper", epsilon=1.5)


def test_salt_pepper_flips_expected_fraction(trained_synth, attack_batch):
    images, labels = attack_batch
    p = 0.5
    out = attack(trained_synth, images, labels, "salt_pepper", epsilon=p, rng_seed=4)
    per_image = int(p * images[0].size)
    changed = (out.images != images).reshape(len(images), -1).sum(axis=1)
    assert (changed <= per_image).all()  # overwrites may coincide with old value
    assert (changed >= per_image * 0.7).all()


# ---------------------------------------------------------------------------
# dispatcher and config


def test_run_attack_dispatch_matches_direct_calls(trained_synth, attack_batch):
    # FGSM written out from the model's input gradient
    images, labels = attack_batch
    _, grad = trained_synth.loss_input_grad(images, labels)
    direct = np.clip(images + 0.1 * np.sign(grad), 0.0, 1.0)
    routed = run_attack(trained_synth, images, labels,
                        AttackConfig(kind="fgsm", epsilon=0.1))
    assert direct.tobytes() == routed.images.tobytes()


def test_run_attack_unknown_kind(trained_synth, attack_batch):
    images, labels = attack_batch
    with pytest.raises(ValueError, match="unknown attack"):
        run_attack(trained_synth, images, labels, AttackConfig(kind="cw"))


def test_attack_config_validation():
    with pytest.raises(ValueError, match="epsilon"):
        AttackConfig(kind="fgsm", epsilon=1.5)
    with pytest.raises(ValueError, match="target class"):
        AttackConfig(kind="fgsm", epsilon=0.1, target_class=10)
    with pytest.raises(ValueError, match="steps"):
        AttackConfig(kind="bim", epsilon=0.1, steps=0)
    with pytest.raises(ValueError, match="epsilon"):  # the salt-and-pepper fraction
        AttackConfig(kind="salt_pepper", epsilon=-0.1)
    for kind in ("bim", "pgd"):  # a step that descends the loss is no attack
        with pytest.raises(ValueError, match="step_size"):
            AttackConfig(kind=kind, epsilon=0.1, step_size=-0.01)
        with pytest.raises(ValueError, match="step_size"):
            AttackConfig(kind=kind, epsilon=0.1, step_size=0.0)
        for bad in (np.inf, np.nan):  # sign 0 times an infinite step is nan
            with pytest.raises(ValueError, match="step_size must be positive and finite"):
                AttackConfig(kind=kind, epsilon=0.1, step_size=bad)
        assert AttackConfig(kind=kind, epsilon=0.0).step_size == 0.0  # derived, allowed
    with pytest.raises(ValueError, match="overshoot"):
        AttackConfig(kind="deepfool", overshoot=-0.02)
    for bad in (np.inf, np.nan):  # an infinite overshoot scales every probe to inf
        with pytest.raises(ValueError, match="overshoot must be non-negative and finite"):
            AttackConfig(kind="deepfool", overshoot=bad)
    assert AttackConfig(kind="deepfool", overshoot=0.0).overshoot == 0.0
    assert AttackConfig(kind="rfgsm", epsilon=0.0).step_size == 0.0


def test_untargeted_success_flags_match_predictions(trained_synth, attack_batch):
    images, labels = attack_batch
    out = attack(trained_synth, images, labels, "fgsm", epsilon=0.25)
    preds = trained_synth.predict(out.images)
    np.testing.assert_array_equal(out.success, preds != labels)


ONE_SHOT = ("fgsm", "stepll", "rfgsm", "gaussian_noise", "salt_pepper")
ALL_KINDS = ONE_SHOT + ("bim", "pgd", "deepfool")


def _budget(kind):
    return {} if kind == "deepfool" else {"epsilon": 0.2}


def test_attack_config_resolves_defaults():
    for kind in ONE_SHOT:
        assert AttackConfig(kind=kind, epsilon=0.2).steps == 1
    bim = AttackConfig(kind="bim", epsilon=0.2)
    assert (bim.steps, bim.step_size) == (BIM_DEFAULT_STEPS, 0.2 / BIM_DEFAULT_STEPS)
    pgd = AttackConfig(kind="pgd", epsilon=0.2)
    assert (pgd.steps, pgd.step_size) == (PGD_DEFAULT_STEPS, 2.5 * 0.2 / PGD_DEFAULT_STEPS)
    assert AttackConfig(kind="pgd", epsilon=0.2, steps=4, step_size=0.01).step_size == 0.01
    assert AttackConfig(kind="rfgsm", epsilon=0.2).noise_alpha == 0.1
    assert AttackConfig(kind="deepfool").steps == DEEPFOOL_DEFAULT_ITERS
    assert AttackConfig(kind="deepfool").overshoot == DEEPFOOL_DEFAULT_OVERSHOOT
    assert AttackConfig(kind="deepfool", overshoot=0.0).overshoot == 0.0
    assert AttackConfig(kind="pgd", epsilon=0.2).random_start is True
    assert AttackConfig(kind="pgd", epsilon=0.2, random_start=False).random_start is False
    assert AttackConfig(kind="fgsm", epsilon=0.2, target_class=0).targeted
    assert not AttackConfig(kind="fgsm", epsilon=0.2).targeted


def test_attack_config_budget_column():
    assert AttackConfig(kind="deepfool", steps=5).budget == 5.0
    assert AttackConfig(kind="salt_pepper", epsilon=0.25).budget == 0.25
    assert AttackConfig(kind="pgd", epsilon=0.25).budget == 0.25


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_attack_config_rejects_fields_the_kind_does_not_read(kind):
    if kind != "fgsm":
        with pytest.raises(ValueError, match="target_class"):
            AttackConfig(kind=kind, target_class=3, **_budget(kind))
    if kind in ONE_SHOT:
        with pytest.raises(ValueError, match="one-shot"):
            AttackConfig(kind=kind, steps=5, **_budget(kind))
    if kind not in ("bim", "pgd"):
        with pytest.raises(ValueError, match="step_size"):
            AttackConfig(kind=kind, step_size=0.01, **_budget(kind))
    if kind != "rfgsm":
        with pytest.raises(ValueError, match="noise_alpha"):
            AttackConfig(kind=kind, noise_alpha=0.05, **_budget(kind))
    if kind != "deepfool":
        with pytest.raises(ValueError, match="overshoot"):
            AttackConfig(kind=kind, overshoot=0.5, **_budget(kind))
        with pytest.raises(ValueError, match="needs epsilon"):
            AttackConfig(kind=kind)
    else:
        with pytest.raises(ValueError, match="does not take epsilon"):
            AttackConfig(kind=kind, epsilon=0.1)
    if kind != "pgd":
        for random_start in (True, False):
            with pytest.raises(ValueError, match="random_start"):
                AttackConfig(kind=kind, random_start=random_start, **_budget(kind))


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_success_and_linf_for_every_kind(trained_synth, attack_batch, kind):
    images, labels = attack_batch[0][:8], attack_batch[1][:8]
    config = AttackConfig(kind=kind, rng_seed=1, **(
        {"steps": 3} if kind in ("bim", "pgd", "deepfool") else {}), **_budget(kind))
    out = run_attack(trained_synth, images, labels, config)
    preds = trained_synth.predict(out.images)
    reference = trained_synth.predict(images) if kind == "deepfool" else labels
    np.testing.assert_array_equal(out.success, preds != reference)
    np.testing.assert_array_equal(out.preds, preds)
    assert (out.l2 is not None) == (kind == "deepfool")


@pytest.mark.parametrize("kind", ALL_KINDS)
@settings(max_examples=15, deadline=None)
@given(eps=st.one_of(st.just(0.0), st.floats(0.0, 1.0)),
       factor=st.one_of(st.none(), st.sampled_from(DEFAULT_SCALE_FACTORS)),
       seed=st.integers(0, 5000))
@example(eps=0.0, factor=None, seed=0)
@example(eps=0.0, factor=0.5, seed=0)
def test_budget_and_clip_contract(trained_synth, attack_batch, kind, eps, factor, seed):
    """Every kind stays in its budget and its clip range; epsilon 0 is a no-op.

    factor None attacks unit-range pixels in UNIT_RANGE; a factor attacks
    pixels scaled without clipping in (0, factor), as scale --no-clip does.
    """
    assert set(ALL_KINDS) == set(_ATTACKS)
    images, labels = attack_batch[0][:4], attack_batch[1][:4]
    clip = UNIT_RANGE
    if factor is not None:
        scaled = scale_pixels(LabeledImageSet(images, labels, "t"), factor, False)
        images, clip = scaled.images, scaled.pixel_range
    # deepfool takes no epsilon; a short budget keeps the example fast
    fields = {"steps": 3} if kind == "deepfool" else {"epsilon": eps}
    config = AttackConfig(kind=kind, rng_seed=seed, **fields)
    out = run_attack(trained_synth, images, labels, config, clip=clip, index_base=seed)

    assert out.images.min() >= clip[0] and out.images.max() <= clip[1]
    if kind == "deepfool":
        return
    if kind == "salt_pepper":
        overwritten = (out.images != images).reshape(len(images), -1).mean(axis=1)
        assert (overwritten <= eps).all()
    elif kind == "gaussian_noise":
        # epsilon scales a seeded standard normal draw; clipping only shrinks it
        draws = np.stack([_image_rng(seed, seed + i).standard_normal(images.shape[1:])
                          for i in range(len(images))])
        rounding = 4 * F32_EPS * clip[1]  # float32 rounding at the pixel scale
        assert (np.abs(out.images - images) <= eps * np.abs(draws) + rounding).all()
    else:  # exact membership in the float32 epsilon ball
        assert ((images - eps <= out.images) & (out.images <= images + eps)).all()
    if eps == 0.0:
        assert out.images.tobytes() == images.tobytes()


EPS_ZERO_CONFIGS = {  # test id -> (kind, other fields)
    "fgsm": ("fgsm", {}), "fgsm_targeted": ("fgsm", {"target_class": 3}),
    "stepll": ("stepll", {}), "rfgsm": ("rfgsm", {}), "bim": ("bim", {}),
    "pgd": ("pgd", {}), "pgd_no_start": ("pgd", {"random_start": False}),
    "gaussian_noise": ("gaussian_noise", {}), "salt_pepper": ("salt_pepper", {}),
}


class GradientCountingModel:
    """A model whose loss_input_grad calls are counted."""

    def __init__(self, model):
        self.model, self.grad_calls = model, 0
        self.logits, self.predict = model.logits, model.predict

    def loss_input_grad(self, images, labels):
        self.grad_calls += 1
        return self.model.loss_input_grad(images, labels)


@pytest.mark.parametrize("name", sorted(EPS_ZERO_CONFIGS))
@settings(max_examples=6, deadline=None)
@given(factor=st.one_of(st.none(), st.sampled_from(DEFAULT_SCALE_FACTORS)),
       seed=st.integers(0, 5000))
@example(factor=None, seed=0)
def test_sign_steps_at_eps_zero_return_the_clean_batch(trained_synth, attack_batch,
                                                       name, factor, seed):
    """Epsilon 0 returns the images themselves and their clean predictions,
    and takes no gradient, in UNIT_RANGE and in a scaled (0, f) range; the
    noise kinds included, so a per-chunk cache answers the prediction."""
    images, labels = attack_batch[0][:4], attack_batch[1][:4]
    clip = UNIT_RANGE
    if factor is not None:
        scaled = scale_pixels(LabeledImageSet(images, labels, "t"), factor, False)
        images, clip = scaled.images, scaled.pixel_range
    kind, fields = EPS_ZERO_CONFIGS[name]
    config = AttackConfig(kind=kind, epsilon=0.0, rng_seed=seed, **fields)
    model = GradientCountingModel(trained_synth)
    out = run_attack(model, images, labels, config, clip=clip, index_base=seed)
    assert out.images is images
    assert out.preds.tobytes() == trained_synth.predict(images).tobytes()
    assert model.grad_calls == 0
