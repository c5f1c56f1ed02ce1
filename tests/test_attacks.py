"""Attack generators: exact identities, budget contracts, oracle checks."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from srelu_defense.attacks import (
    AttackConfig,
    bim,
    deepfool,
    fgsm,
    fgsm_targeted,
    gaussian_noise_attack,
    pgd,
    rfgsm,
    run_attack,
    salt_pepper_attack,
    stepll,
)

from helpers import LinearSoftmaxModel, linear_min_hyperplane_distance

F32_EPS = float(np.finfo(np.float32).eps)


@pytest.fixture(scope="module")
def attack_batch(synth_sets):
    _, test = synth_sets
    return test.images[:48].copy(), test.labels[:48].copy()


def random_linear_model(rng, features=8, classes=10, dtype=np.float32):
    w = rng.normal(size=(features, classes)).astype(dtype)
    b = rng.normal(size=classes).astype(dtype)
    return LinearSoftmaxModel(w, b)


# ---------------------------------------------------------------------------
# fgsm


def test_fgsm_eps_zero_is_noop(trained_synth, attack_batch):
    images, labels = attack_batch
    out = fgsm(trained_synth, images, labels, 0.0)
    np.testing.assert_array_equal(out.images, images)
    np.testing.assert_array_equal(out.linf, np.zeros(len(images)))


def test_fgsm_on_increasing_loss_moves_up():
    # one feature, two classes; weights chosen so the true-label loss rises in x
    model = LinearSoftmaxModel(
        np.array([[-1.0, 1.0]], dtype=np.float32), np.zeros(2, dtype=np.float32)
    )
    x = np.full((3, 1, 1, 1), 0.5, dtype=np.float32)
    labels = np.zeros(3, dtype=np.int64)
    out = fgsm(model, x, labels, 0.25)
    np.testing.assert_allclose(out.images, 0.75)
    out = fgsm(model, x, labels, 0.75)  # clip engages
    np.testing.assert_allclose(out.images, 1.0)


def test_fgsm_pixel_deltas_are_sign_structured(trained_synth, attack_batch):
    images, labels = attack_batch
    interior = np.clip(images, 0.3, 0.7)  # keep away from the clip boundary
    eps = 0.1
    out = fgsm(trained_synth, interior, labels, eps)
    deltas = (out.images - interior).reshape(-1)
    matches = (
        (deltas == 0)
        | (np.abs(deltas - np.float32(eps)) <= 4 * F32_EPS)
        | (np.abs(deltas + np.float32(eps)) <= 4 * F32_EPS)
    )
    assert matches.all()


# ---------------------------------------------------------------------------
# targeted fgsm


def test_targeted_eps_zero_is_noop(trained_synth, attack_batch):
    images, _ = attack_batch
    out = fgsm_targeted(trained_synth, images, 3, 0.0)
    np.testing.assert_array_equal(out.images, images)


def test_targeted_step_negates_untargeted_step_at_target_label(rng):
    model = random_linear_model(rng)
    x = rng.uniform(0.3, 0.7, size=(5, 1, 2, 4)).astype(np.float32)
    target = 4
    eps = 0.05
    targeted = fgsm_targeted(model, x, target, eps)
    as_untargeted = fgsm(model, x, np.full(5, target), eps)
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
    out = fgsm_targeted(model, x, target, 1e-3)
    after, _ = model.loss_input_grad(out.images, targets)
    assert after <= before


# ---------------------------------------------------------------------------
# bim / pgd identities


def test_bim_single_step_equals_fgsm(trained_synth, attack_batch):
    images, labels = attack_batch
    eps = 0.15
    a = fgsm(trained_synth, images, labels, eps)
    b = bim(trained_synth, images, labels, eps, steps=1, step_size=eps)
    assert a.images.tobytes() == b.images.tobytes()


def test_pgd_single_step_no_start_equals_fgsm(trained_synth, attack_batch):
    images, labels = attack_batch
    eps = 0.15
    a = fgsm(trained_synth, images, labels, eps)
    b = pgd(trained_synth, images, labels, eps, steps=1, step_size=eps,
            random_start=False)
    assert a.images.tobytes() == b.images.tobytes()


@pytest.mark.parametrize("steps,step_size", [(1, 0.3), (5, 0.1), (10, None)])
def test_bim_budget_and_range(trained_synth, attack_batch, steps, step_size):
    images, labels = attack_batch
    eps = 0.2
    out = bim(trained_synth, images, labels, eps, steps=steps, step_size=step_size)
    assert out.images.min() >= 0.0 and out.images.max() <= 1.0
    assert out.linf.max() <= eps + 4 * F32_EPS


def test_bim_eps_zero_is_noop(trained_synth, attack_batch):
    images, labels = attack_batch
    out = bim(trained_synth, images, labels, 0.0, steps=3)
    np.testing.assert_array_equal(out.images, images)


def test_pgd_eps_zero_is_noop_with_random_start(trained_synth, attack_batch):
    images, labels = attack_batch
    out = pgd(trained_synth, images, labels, 0.0, steps=2, random_start=True)
    np.testing.assert_array_equal(out.images, images)


def test_pgd_budget_and_determinism(trained_synth, attack_batch):
    images, labels = attack_batch
    eps = 0.2
    a = pgd(trained_synth, images, labels, eps, steps=4, rng_seed=5)
    b = pgd(trained_synth, images, labels, eps, steps=4, rng_seed=5)
    assert a.images.tobytes() == b.images.tobytes()
    assert a.linf.max() <= eps + 4 * F32_EPS
    assert a.images.min() >= 0.0 and a.images.max() <= 1.0
    c = pgd(trained_synth, images, labels, eps, steps=4, rng_seed=6)
    assert a.images.tobytes() != c.images.tobytes()


def test_pgd_partition_invariance(trained_synth, attack_batch):
    images, labels = attack_batch
    eps = 0.2
    whole = pgd(trained_synth, images, labels, eps, steps=2, rng_seed=3)
    first = pgd(trained_synth, images[:20], labels[:20], eps, steps=2, rng_seed=3)
    second = pgd(trained_synth, images[20:], labels[20:], eps, steps=2, rng_seed=3,
                 index_base=20)
    stitched = np.concatenate([first.images, second.images])
    np.testing.assert_array_equal(whole.images, stitched)


SEEDED_CONFIGS = {
    "rfgsm": AttackConfig(kind="rfgsm", epsilon=0.2, rng_seed=11),
    "pgd": AttackConfig(kind="pgd", epsilon=0.2, steps=2, rng_seed=3),
    "gaussian_noise": AttackConfig(kind="gaussian_noise", epsilon=0.2, rng_seed=5),
    "salt_pepper": AttackConfig(kind="salt_pepper", fraction=0.1, rng_seed=7),
}


@pytest.mark.parametrize("kind", sorted(SEEDED_CONFIGS))
@settings(max_examples=10, deadline=None)
@given(split=st.integers(1, 15), base=st.integers(0, 5000))
def test_seeded_attack_partition_invariance(trained_synth, attack_batch, kind,
                                            split, base):
    # attack_all relies on this: chunk boundaries never reach the per-image seeds
    images, labels = attack_batch[0][:16], attack_batch[1][:16]
    config = SEEDED_CONFIGS[kind]
    whole = run_attack(trained_synth, images, labels, config, index_base=base)
    first = run_attack(trained_synth, images[:split], labels[:split], config,
                       index_base=base)
    second = run_attack(trained_synth, images[split:], labels[split:], config,
                        index_base=base + split)
    stitched = np.concatenate([first.images, second.images])
    assert whole.images.tobytes() == stitched.tobytes()


# ---------------------------------------------------------------------------
# rfgsm


def test_rfgsm_zero_noise_reduces_to_fgsm(trained_synth, attack_batch):
    images, labels = attack_batch
    eps = 0.1
    a = rfgsm(trained_synth, images, labels, eps, noise_alpha=0.0)
    b = fgsm(trained_synth, images, labels, eps)
    assert a.images.tobytes() == b.images.tobytes()


def test_rfgsm_eps_zero_noop_and_seed_determinism(trained_synth, attack_batch):
    images, labels = attack_batch
    out = rfgsm(trained_synth, images, labels, 0.0)
    np.testing.assert_array_equal(out.images, images)
    a = rfgsm(trained_synth, images, labels, 0.2, rng_seed=11)
    b = rfgsm(trained_synth, images, labels, 0.2, rng_seed=11)
    assert a.images.tobytes() == b.images.tobytes()
    assert a.linf.max() <= 0.2 + 4 * F32_EPS


def test_rfgsm_rejects_oversized_noise(trained_synth, attack_batch):
    images, labels = attack_batch
    with pytest.raises(ValueError, match="noise step"):
        rfgsm(trained_synth, images, labels, 0.1, noise_alpha=0.2)


# ---------------------------------------------------------------------------
# stepll


def test_stepll_eps_zero_is_noop(trained_synth, attack_batch):
    images, labels = attack_batch
    out = stepll(trained_synth, images, labels, 0.0)
    np.testing.assert_array_equal(out.images, images)


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
    out_ll = stepll(trained_synth, subset, labels[pick], eps)
    out_tg = fgsm_targeted(trained_synth, subset, int(least_likely[pick][0]), eps)
    assert out_ll.images.tobytes() == out_tg.images.tobytes()


# ---------------------------------------------------------------------------
# deepfool


def test_deepfool_binary_linear_reaches_hyperplane(rng):
    w = np.array([[1.0, -1.0], [2.0, 0.5], [0.0, 1.0]], dtype=np.float64)
    b = np.array([0.25, -0.1], dtype=np.float64)
    model = LinearSoftmaxModel(w, b)
    x = rng.uniform(0.2, 0.8, size=(1, 1, 1, 3)).astype(np.float64)
    overshoot = 0.02
    out = deepfool(model, x, max_iters=10, overshoot=overshoot)
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
    out = deepfool(model, x, max_iters=1, overshoot=0.0)
    dist = linear_min_hyperplane_distance(model, x.reshape(-1))
    assert out.l2[0] == pytest.approx(dist, rel=0.01)


def test_deepfool_multiclass_matches_bruteforce(rng):
    for trial in range(8):
        model = random_linear_model(rng, features=12, classes=10, dtype=np.float64)
        x = rng.uniform(0.2, 0.8, size=(1, 1, 3, 4)).astype(np.float64)
        out = deepfool(model, x, max_iters=5)
        expected = linear_min_hyperplane_distance(model, x.reshape(-1))
        assert out.l2[0] == pytest.approx(expected, rel=0.01)


def test_deepfool_flips_predictions(trained_synth, attack_batch):
    images, _ = attack_batch
    subset = images[:8]
    before = trained_synth.predict(subset)
    out = deepfool(trained_synth, subset, max_iters=50)
    after = trained_synth.predict(out.images)
    assert out.success.mean() >= 0.75
    np.testing.assert_array_equal(out.success, after != before)
    assert out.images.min() >= 0.0 and out.images.max() <= 1.0


def test_deepfool_rejects_zero_iters(trained_synth, attack_batch):
    images, _ = attack_batch
    with pytest.raises(ValueError, match="max_iters"):
        deepfool(trained_synth, images, max_iters=0)


# ---------------------------------------------------------------------------
# degradation attacks


def test_gaussian_noise_contracts(trained_synth, attack_batch):
    images, labels = attack_batch
    out = gaussian_noise_attack(images, 0.0, rng_seed=1)
    np.testing.assert_array_equal(out.images, images)
    a = gaussian_noise_attack(images, 0.3, rng_seed=2, model=trained_synth, labels=labels)
    b = gaussian_noise_attack(images, 0.3, rng_seed=2, model=trained_synth, labels=labels)
    assert a.images.tobytes() == b.images.tobytes()
    assert a.images.min() >= 0.0 and a.images.max() <= 1.0


def test_salt_pepper_contracts(trained_synth, attack_batch):
    images, labels = attack_batch
    out = salt_pepper_attack(images, 0.0, rng_seed=1)
    np.testing.assert_array_equal(out.images, images)
    full = salt_pepper_attack(images, 1.0, rng_seed=2)
    assert np.isin(full.images, [0.0, 1.0]).all()
    a = salt_pepper_attack(images, 0.25, rng_seed=3)
    b = salt_pepper_attack(images, 0.25, rng_seed=3)
    assert a.images.tobytes() == b.images.tobytes()
    with pytest.raises(ValueError, match="fraction"):
        salt_pepper_attack(images, 1.5)


def test_salt_pepper_flips_expected_fraction(attack_batch):
    images, _ = attack_batch
    p = 0.5
    out = salt_pepper_attack(images, p, rng_seed=4)
    per_image = int(p * images[0].size)
    changed = (out.images != images).reshape(len(images), -1).sum(axis=1)
    assert (changed <= per_image).all()  # overwrites may coincide with old value
    assert (changed >= per_image * 0.7).all()


# ---------------------------------------------------------------------------
# dispatcher and config


def test_run_attack_dispatch_matches_direct_calls(trained_synth, attack_batch):
    images, labels = attack_batch
    direct = fgsm(trained_synth, images, labels, 0.1)
    routed = run_attack(trained_synth, images, labels,
                        AttackConfig(kind="fgsm", epsilon=0.1))
    assert direct.images.tobytes() == routed.images.tobytes()


def test_run_attack_unknown_kind(trained_synth, attack_batch):
    images, labels = attack_batch
    with pytest.raises(ValueError, match="unknown attack"):
        run_attack(trained_synth, images, labels, AttackConfig(kind="cw"))


def test_attack_config_validation():
    with pytest.raises(ValueError, match="epsilon"):
        AttackConfig(kind="fgsm", epsilon=1.5)
    with pytest.raises(ValueError, match="target class"):
        AttackConfig(kind="fgsm", epsilon=0.1, targeted=True)
    with pytest.raises(ValueError, match="steps"):
        AttackConfig(kind="bim", epsilon=0.1, steps=0)
    with pytest.raises(ValueError, match="fraction"):
        AttackConfig(kind="salt_pepper", fraction=-0.1)


def test_untargeted_success_flags_match_predictions(trained_synth, attack_batch):
    images, labels = attack_batch
    out = fgsm(trained_synth, images, labels, 0.25)
    preds = trained_synth.predict(out.images)
    np.testing.assert_array_equal(out.success, preds != labels)
