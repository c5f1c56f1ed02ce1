"""Adversarial example generators.

All gradient attacks differentiate through the model exactly as configured
for evaluation, so the attacker always sees the defended network. Outputs
are clipped to the valid pixel range, [0, 1] unless a caller evaluating
rescaled inputs widens it.

Randomized attacks derive one RNG per image from seed XOR image index, so
splitting a batch across workers cannot change results.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

UNIT_RANGE = (0.0, 1.0)

# one-shot L-infinity attacks collapse to these defaults
BIM_DEFAULT_STEPS = 10
PGD_DEFAULT_STEPS = 40
DEEPFOOL_DEFAULT_OVERSHOOT = 0.02
DEEPFOOL_DEFAULT_ITERS = 50
_DEEPFOOL_CROSSING_NUDGE = 1e-4  # relative push past the linearized boundary

# attack kind -> the AttackConfig field it cannot run without
_REQUIRED_FIELD = {
    "fgsm": "epsilon", "bim": "epsilon", "rfgsm": "epsilon", "stepll": "epsilon",
    "pgd": "epsilon", "gaussian_noise": "epsilon", "salt_pepper": "fraction",
    "deepfool": None,
}


@dataclass
class AttackConfig:
    """One attack specification; unused knobs stay at None for other kinds."""

    kind: str
    epsilon: float | None = None
    steps: int | None = None
    step_size: float | None = None
    targeted: bool = False
    target_class: int | None = None
    rng_seed: int = 0
    overshoot: float = DEEPFOOL_DEFAULT_OVERSHOOT
    max_iters: int | None = None
    noise_alpha: float | None = None  # rfgsm noise share of epsilon
    fraction: float | None = None  # salt-and-pepper pixel fraction
    random_start: bool = True

    def __post_init__(self):
        if self.kind not in _REQUIRED_FIELD:
            raise ValueError(
                f"unknown attack kind {self.kind!r}; known: {sorted(_REQUIRED_FIELD)}"
            )
        required = _REQUIRED_FIELD[self.kind]
        if required is not None and getattr(self, required) is None:
            raise ValueError(f"{self.kind} attack needs {required}")
        if self.epsilon is not None and not 0.0 <= self.epsilon <= 1.0:
            raise ValueError(f"epsilon must lie in [0, 1], got {self.epsilon}")
        if self.targeted:
            if self.target_class is None or not 0 <= self.target_class < 10:
                raise ValueError("targeted attack needs a target class in [0, 10)")
        if self.steps is not None and self.steps < 1:
            raise ValueError("iterative attacks need steps >= 1")
        if self.max_iters is not None and self.max_iters < 1:
            raise ValueError("deepfool needs max_iters >= 1")
        if self.fraction is not None and not 0.0 <= self.fraction <= 1.0:
            raise ValueError(f"fraction must lie in [0, 1], got {self.fraction}")


@dataclass
class AdversarialBatch:
    """Attack output: images, per-image distance to the originals, success.

    l2 is filled only by the minimal-perturbation attack (pre-overshoot
    perturbation norms); None elsewhere.
    """

    images: np.ndarray
    linf: np.ndarray
    success: np.ndarray
    l2: np.ndarray | None = None


def _finalize(model, originals, adv, labels, *, targeted=False, target=None, flipped_from=None):
    linf = np.abs(adv - originals).reshape(len(adv), -1).max(axis=1)
    if model is None:
        success = np.zeros(len(adv), dtype=bool)
    else:
        preds = model.predict(adv)
        if targeted:
            success = preds == target
        elif flipped_from is not None:
            success = preds != flipped_from
        else:
            success = preds != labels
    return AdversarialBatch(adv, linf, success)


def _image_rng(seed: int, index: int) -> np.random.Generator:
    return np.random.default_rng(seed ^ index)


def fgsm(model, images, labels, epsilon, clip=UNIT_RANGE) -> AdversarialBatch:
    """One signed gradient-ascent step on the true-label loss."""
    _, grad = model.loss_input_grad(images, labels)
    adv = np.clip(images + epsilon * np.sign(grad), *clip)
    return _finalize(model, images, adv, labels)


def fgsm_targeted(model, images, target_class, epsilon, clip=UNIT_RANGE) -> AdversarialBatch:
    """One signed gradient-descent step on the target-label loss."""
    targets = np.full(len(images), target_class, dtype=np.int64)
    _, grad = model.loss_input_grad(images, targets)
    adv = np.clip(images - epsilon * np.sign(grad), *clip)
    return _finalize(model, images, adv, None, targeted=True, target=target_class)


def _iterated_sign_ascent(model, images, labels, epsilon, steps, step_size, start, clip):
    """Shared BIM/PGD loop: signed steps, projected into the epsilon ball."""
    x = start
    for _ in range(steps):
        _, grad = model.loss_input_grad(x, labels)
        x = x + step_size * np.sign(grad)
        x = np.clip(x, images - epsilon, images + epsilon)
        x = np.clip(x, *clip)
    return x


def bim(model, images, labels, epsilon, steps=BIM_DEFAULT_STEPS, step_size=None,
        clip=UNIT_RANGE) -> AdversarialBatch:
    """Iterated FGSM with per-step projection back into the epsilon ball."""
    if steps < 1:
        raise ValueError("bim needs steps >= 1")
    if step_size is None:
        step_size = epsilon / steps
    adv = _iterated_sign_ascent(model, images, labels, epsilon, steps, step_size,
                                images.copy(), clip)
    return _finalize(model, images, adv, labels)


def rfgsm(model, images, labels, epsilon, noise_alpha=None, rng_seed=0,
          clip=UNIT_RANGE, index_base=0) -> AdversarialBatch:
    """Random-start FGSM: a signed-noise step, then the remaining budget on the gradient."""
    if noise_alpha is None:
        noise_alpha = epsilon / 2.0
    if not 0.0 <= noise_alpha <= epsilon:
        raise ValueError(f"noise step {noise_alpha} must lie in [0, epsilon={epsilon}]")
    noise = np.empty_like(images)
    for i in range(len(images)):
        n = _image_rng(rng_seed, index_base + i).standard_normal(images.shape[1:])
        noise[i] = np.sign(n)
    x = np.clip(images + noise_alpha * noise, *clip)
    _, grad = model.loss_input_grad(x, labels)
    adv = np.clip(x + (epsilon - noise_alpha) * np.sign(grad), *clip)
    return _finalize(model, images, adv, labels)


def stepll(model, images, labels, epsilon, clip=UNIT_RANGE) -> AdversarialBatch:
    """Targeted step toward each image's least-likely class."""
    logits = model.logits(images)
    least_likely = logits.argmin(axis=1)
    _, grad = model.loss_input_grad(images, least_likely)
    adv = np.clip(images - epsilon * np.sign(grad), *clip)
    return _finalize(model, images, adv, labels)


def pgd(model, images, labels, epsilon, steps=PGD_DEFAULT_STEPS, step_size=None,
        random_start=True, rng_seed=0, clip=UNIT_RANGE, index_base=0) -> AdversarialBatch:
    """Projected gradient descent with an optional uniform random start."""
    if steps < 1:
        raise ValueError("pgd needs steps >= 1")
    if step_size is None:
        step_size = 2.5 * epsilon / steps
    if random_start:
        start = np.empty_like(images)
        for i in range(len(images)):
            jitter = _image_rng(rng_seed, index_base + i).uniform(
                -epsilon, epsilon, size=images.shape[1:]
            )
            start[i] = images[i] + jitter.astype(images.dtype)
        start = np.clip(start, *clip)
    else:
        start = images.copy()
    adv = _iterated_sign_ascent(model, images, labels, epsilon, steps, step_size, start, clip)
    return _finalize(model, images, adv, labels)


def deepfool(model, images, max_iters=DEEPFOOL_DEFAULT_ITERS,
             overshoot=DEEPFOOL_DEFAULT_OVERSHOOT, clip=UNIT_RANGE) -> AdversarialBatch:
    """Minimal-perturbation attack via iterative linearization of logit gaps.

    Per image: find the class whose linearized decision boundary is nearest
    in L2, step just past it, and repeat until the predicted label flips or
    the iteration budget runs out. The accumulated perturbation is scaled by
    (1 + overshoot) and clipped at the end.
    """
    if max_iters < 1:
        raise ValueError("deepfool needs max_iters >= 1")
    adv = np.empty_like(images)
    l2 = np.zeros(len(images), dtype=np.float64)
    original_preds = model.predict(images)

    for i in range(len(images)):
        x0 = images[i]
        orig = int(original_preds[i])
        r_tot = np.zeros_like(x0, dtype=np.float64)
        current = orig
        for _ in range(max_iters):
            if current != orig:
                break
            x_work = (x0 + (1.0 + overshoot) * r_tot).astype(images.dtype)
            logits, grads = model.logit_input_grads(x_work[None])
            best_pert = np.inf
            best_dir = None
            for k in range(len(logits)):
                if k == orig:
                    continue
                w = (grads[k] - grads[orig]).astype(np.float64).reshape(-1)
                norm = np.linalg.norm(w)
                if norm == 0.0:
                    continue
                pert = abs(float(logits[k]) - float(logits[orig])) / norm
                if pert < best_pert:
                    best_pert = pert
                    best_dir = w / norm
            if best_dir is None:
                break  # all logit gaps locally flat; nothing to follow
            r_tot += (best_pert * (1.0 + _DEEPFOOL_CROSSING_NUDGE)) * best_dir.reshape(x0.shape)
            probe = (x0 + (1.0 + overshoot) * r_tot).astype(images.dtype)
            current = int(model.predict(probe[None])[0])
        l2[i] = np.linalg.norm(r_tot.reshape(-1))
        adv[i] = np.clip(x0 + (1.0 + overshoot) * r_tot, *clip).astype(images.dtype)

    out = _finalize(model, images, adv, None, flipped_from=original_preds)
    out.l2 = l2
    return out


def gaussian_noise_attack(images, epsilon, rng_seed=0, model=None, labels=None,
                          clip=UNIT_RANGE, index_base=0) -> AdversarialBatch:
    """Additive seeded Gaussian noise of magnitude epsilon, clipped."""
    adv = np.empty_like(images)
    for i in range(len(images)):
        n = _image_rng(rng_seed, index_base + i).standard_normal(images.shape[1:])
        adv[i] = images[i] + epsilon * n.astype(images.dtype)
    adv = np.clip(adv, *clip)
    return _finalize(model, images, adv, labels)


def salt_pepper_attack(images, fraction, rng_seed=0, model=None, labels=None,
                       index_base=0) -> AdversarialBatch:
    """Set a seeded fraction of pixels per image to 0 or 1 with equal odds."""
    if not 0.0 <= fraction <= 1.0:
        raise ValueError(f"fraction must lie in [0, 1], got {fraction}")
    d = int(np.prod(images.shape[1:]))
    k = int(fraction * d)
    adv = images.copy()
    for i in range(len(images)):
        rng = _image_rng(rng_seed, index_base + i)
        positions = rng.choice(d, size=k, replace=False)
        values = rng.integers(0, 2, size=k).astype(images.dtype)
        flat = adv[i].reshape(-1)
        flat[positions] = values
    return _finalize(model, images, adv, labels)


def run_attack(model, images, labels, config: AttackConfig, clip=UNIT_RANGE,
               index_base=0) -> AdversarialBatch:
    """Dispatch an AttackConfig onto the matching generator."""
    kind = config.kind
    if kind == "fgsm":
        if config.targeted:
            return fgsm_targeted(model, images, config.target_class, config.epsilon, clip)
        return fgsm(model, images, labels, config.epsilon, clip)
    if kind == "bim":
        return bim(model, images, labels, config.epsilon,
                   steps=config.steps or BIM_DEFAULT_STEPS,
                   step_size=config.step_size, clip=clip)
    if kind == "rfgsm":
        return rfgsm(model, images, labels, config.epsilon,
                     noise_alpha=config.noise_alpha, rng_seed=config.rng_seed,
                     clip=clip, index_base=index_base)
    if kind == "stepll":
        return stepll(model, images, labels, config.epsilon, clip)
    if kind == "pgd":
        return pgd(model, images, labels, config.epsilon,
                   steps=config.steps or PGD_DEFAULT_STEPS,
                   step_size=config.step_size, random_start=config.random_start,
                   rng_seed=config.rng_seed, clip=clip, index_base=index_base)
    if kind == "deepfool":
        return deepfool(model, images,
                        max_iters=config.max_iters or DEEPFOOL_DEFAULT_ITERS,
                        overshoot=config.overshoot, clip=clip)
    if kind == "gaussian_noise":
        return gaussian_noise_attack(images, config.epsilon, rng_seed=config.rng_seed,
                                     model=model, labels=labels, clip=clip,
                                     index_base=index_base)
    if kind == "salt_pepper":
        return salt_pepper_attack(images, config.fraction, rng_seed=config.rng_seed,
                                  model=model, labels=labels, index_base=index_base)
    raise ValueError(f"unknown attack kind {kind!r}")
