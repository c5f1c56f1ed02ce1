"""Adversarial example generators.

All gradient attacks differentiate through the model exactly as configured
for evaluation, so the attacker always sees the defended network. Outputs
are clipped to the valid pixel range, [0, 1] unless a caller evaluating
rescaled inputs widens it.

Randomized attacks derive one RNG per image from seed XOR image index, so the
draws do not depend on how a set is split into batches. The model's float32
arithmetic may (logits can differ in the last bits between batch sizes), so
experiments.attack_all always chunks at the fixed EVAL_CHUNK from index 0.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import UNIT_RANGE

BIM_DEFAULT_STEPS = 10
PGD_DEFAULT_STEPS = 40
DEEPFOOL_DEFAULT_ITERS = 50
DEEPFOOL_DEFAULT_OVERSHOOT = 0.02
_DEEPFOOL_CROSSING_NUDGE = 1e-4  # relative push past the linearized boundary

# iterative kind -> default steps; every other kind is one-shot (steps 1)
_ITERATIVE_STEPS = {
    "bim": BIM_DEFAULT_STEPS, "pgd": PGD_DEFAULT_STEPS, "deepfool": DEEPFOOL_DEFAULT_ITERS,
}
# optional field -> the kinds that read it; any other kind must leave it None
_READ_BY = {"step_size": ("bim", "pgd"), "noise_alpha": ("rfgsm",),
            "target_class": ("fgsm",), "overshoot": ("deepfool",),
            "random_start": ("pgd",)}


@dataclass
class AttackConfig:
    """One attack, with every default resolved when it is built.

    epsilon is the L-infinity budget in pixels, except for gaussian_noise,
    where it is the noise standard deviation, and salt_pepper, where it is
    the fraction of pixels overwritten; deepfool takes none and reports its
    iteration budget, steps, in the epsilon column instead. A target class
    makes fgsm targeted. Only bim and pgd take a step_size; fgsm and stepll
    step by epsilon and rfgsm by epsilon - noise_alpha. step_size,
    noise_alpha, target_class, overshoot and random_start are rejected for
    the other kinds, and so is any steps but 1 for the one-shot kinds.
    """

    kind: str
    epsilon: float | None = None
    steps: int | None = None
    step_size: float | None = None
    target_class: int | None = None
    rng_seed: int = 0
    overshoot: float | None = None  # deepfool
    noise_alpha: float | None = None  # rfgsm noise share of epsilon
    random_start: bool | None = None  # pgd

    def __post_init__(self):
        kind = self.kind
        if kind not in _ATTACKS:
            raise ValueError(f"unknown attack kind {kind!r}; known: {sorted(_ATTACKS)}")
        if kind == "deepfool" and self.epsilon is not None:
            raise ValueError("deepfool attack does not take epsilon")
        if self.epsilon is None and kind != "deepfool":
            raise ValueError(f"{kind} attack needs epsilon")
        if self.epsilon is not None and not 0.0 <= self.epsilon <= 1.0:
            raise ValueError(f"epsilon must lie in [0, 1], got {self.epsilon}")
        for name, readers in _READ_BY.items():
            if getattr(self, name) is not None and kind not in readers:
                raise ValueError(f"{kind} attack does not take {name}")
        if self.targeted and not 0 <= self.target_class < 10:
            raise ValueError("targeted attack needs a target class in [0, 10)")
        if self.step_size is not None and not self.step_size > 0:
            raise ValueError(f"step_size must be positive, got {self.step_size}")
        if self.overshoot is not None and not self.overshoot >= 0:
            raise ValueError(f"overshoot must be non-negative, got {self.overshoot}")

        if self.steps is None:
            self.steps = _ITERATIVE_STEPS.get(kind, 1)
        elif kind not in _ITERATIVE_STEPS and self.steps != 1:
            raise ValueError(f"{kind} is one-shot and takes steps=1, got {self.steps}")
        elif self.steps < 1:
            raise ValueError(f"{kind} needs steps >= 1, got {self.steps}")

        if kind in ("fgsm", "stepll"):
            self.step_size = self.epsilon
        if kind == "bim" and self.step_size is None:
            self.step_size = self.epsilon / self.steps
        if kind == "pgd":
            if self.step_size is None:
                self.step_size = 2.5 * self.epsilon / self.steps
            if self.random_start is None:
                self.random_start = True
        if kind == "deepfool" and self.overshoot is None:
            self.overshoot = DEEPFOOL_DEFAULT_OVERSHOOT
        if kind == "rfgsm":
            if self.noise_alpha is None:
                self.noise_alpha = self.epsilon / 2.0
            if not 0.0 <= self.noise_alpha <= self.epsilon:
                raise ValueError(f"noise step {self.noise_alpha} must lie in "
                                 f"[0, epsilon={self.epsilon}]")
            self.step_size = self.epsilon - self.noise_alpha

    @property
    def targeted(self) -> bool:
        return self.target_class is not None

    @property
    def budget(self) -> float:
        """The report's epsilon column: epsilon, or deepfool's iteration budget."""
        return float(self.steps if self.kind == "deepfool" else self.epsilon)


@dataclass
class AdversarialBatch:
    """Attack output: images, the attacked model's predictions on them, success.

    l2 is filled only by the minimal-perturbation attack (pre-overshoot
    perturbation norms); None elsewhere.
    """

    images: np.ndarray
    preds: np.ndarray
    success: np.ndarray
    l2: np.ndarray | None = None


def _image_rng(seed: int, index: int) -> np.random.Generator:
    return np.random.default_rng(seed ^ index)


def _seeded(config, index_base, images, draw):
    """draw(rng, image) once per image, from that image's own RNG, in the image dtype."""
    out = np.empty_like(images)
    for i, image in enumerate(images):
        out[i] = draw(_image_rng(config.rng_seed, index_base + i), image)
    return out


# Every generator below takes (model, images, labels, config, clip, index_base)
# and returns the adversarial images plus, for deepfool only, the L2 norms.


def _sign_steps(model, images, labels, config, clip, index_base):
    """FGSM, StepLL, RFGSM, BIM and PGD: config.steps signed loss-gradient steps.

    Each step of config.step_size is projected into the epsilon ball around
    images, then into clip; rfgsm starts from a signed-noise step and pgd from
    a uniform random start. Targeted fgsm and stepll descend the loss of their
    target (stepll's: the least-likely class); the rest ascend the true label's.
    A non-finite input gradient raises ValueError naming the kind and slope.
    """
    eps, step, x = config.epsilon, config.step_size, images
    if config.kind == "rfgsm":
        noise = _seeded(config, index_base, images,
                        lambda rng, image: np.sign(rng.standard_normal(image.shape)))
        x = np.clip(images + config.noise_alpha * noise, *clip)
    elif config.random_start:
        jitter = _seeded(config, index_base, images,
                         lambda rng, image: rng.uniform(-eps, eps, size=image.shape))
        x = np.clip(images + jitter, *clip)
    targets = labels
    if config.targeted:
        targets, step = np.full(len(images), config.target_class, dtype=np.int64), -step
    elif config.kind == "stepll":
        targets, step = model.logits(images).argmin(axis=1), -step
    for _ in range(config.steps):
        _, grad = model.loss_input_grad(x, targets)
        if not np.isfinite(grad).all():
            raise ValueError(f"non-finite input gradient in the {config.kind} attack "
                             f"at test slope {model.slope:g}")
        x = np.clip(x + step * np.sign(grad), images - eps, images + eps)
        x = np.clip(x, *clip)
    return x, None


def _deepfool(model, images, labels, config, clip, index_base):
    """Minimal-perturbation attack via iterative linearization of logit gaps.

    labels are the clean predictions to move away from. Per image: find the
    class whose linearized decision boundary is nearest in L2, step just past
    it, and repeat until the predicted label flips or the steps run out. The
    accumulated perturbation is scaled by (1 + overshoot) and clipped at the
    end.
    """
    overshoot = config.overshoot
    adv = np.empty_like(images)
    l2 = np.zeros(len(images), dtype=np.float64)

    for i in range(len(images)):
        x0 = images[i]
        orig = int(labels[i])
        r_tot = np.zeros_like(x0, dtype=np.float64)
        current = orig
        for _ in range(config.steps):
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
    return adv, l2


def _gaussian_noise(model, images, labels, config, clip, index_base):
    """Additive seeded Gaussian noise of magnitude epsilon, clipped."""
    noise = _seeded(config, index_base, images,
                    lambda rng, image: rng.standard_normal(image.shape))
    return np.clip(images + config.epsilon * noise, *clip), None


def _salt_pepper(model, images, labels, config, clip, index_base):
    """Set a seeded fraction (epsilon) of pixels per image to the low or the
    high end of the clip range (0 or 1 by default) with equal odds."""
    ends = np.asarray(clip, dtype=images.dtype)

    def draw(rng, image):
        k = int(config.epsilon * image.size)
        # positions are drawn before the values; an image's bytes depend on that order
        positions = rng.choice(image.size, size=k, replace=False)
        flat = image.flatten()
        flat[positions] = ends[rng.integers(0, 2, size=k)]
        return flat.reshape(image.shape)

    return _seeded(config, index_base, images, draw), None


_ATTACKS = {
    "fgsm": _sign_steps, "stepll": _sign_steps, "rfgsm": _sign_steps,
    "bim": _sign_steps, "pgd": _sign_steps, "deepfool": _deepfool,
    "gaussian_noise": _gaussian_noise, "salt_pepper": _salt_pepper,
}


def run_attack(model, images, labels, config: AttackConfig, clip=UNIT_RANGE,
               index_base=0) -> AdversarialBatch:
    """Run one attack on a batch; index_base is the first image's index in its set.

    Success means the prediction hits the target (targeted fgsm), leaves the
    clean prediction (deepfool), or leaves the true label (everything else).
    At epsilon 0 every kind that takes one returns images itself, the same
    object, with no gradient and no draw.
    """
    if config.kind == "deepfool":
        labels = model.predict(images)
    if config.epsilon == 0.0:
        adv, l2 = images, None
    else:
        adv, l2 = _ATTACKS[config.kind](model, images, labels, config, clip, index_base)
    preds = model.predict(adv)
    success = preds == config.target_class if config.targeted else preds != labels
    return AdversarialBatch(adv, preds, success, l2)
