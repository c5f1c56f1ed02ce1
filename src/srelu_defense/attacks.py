"""Adversarial example generators.

All gradient attacks differentiate through the model exactly as configured
for evaluation, so the attacker always sees the defended network. Outputs
are clipped to the valid pixel range, [0, 1] unless a caller evaluating
rescaled inputs widens it.

Randomized attacks derive one RNG per image from seed XOR image index, so the
draws do not depend on how a set is split into batches. Nor does the model's
float32 arithmetic: the loss is each image's own cross-entropy, so an image's
logits, logit gradients and input gradient have the same bits in a batch of
any size (see autodiff), and the float64 steps read each row alone. So an
attack's images do not depend on the split either, and the iterative attacks
step only the rows still moving.
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
_ITERATIVE_STEPS = {"bim": BIM_DEFAULT_STEPS, "pgd": PGD_DEFAULT_STEPS,
                    "deepfool": DEEPFOOL_DEFAULT_ITERS}
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
        if self.step_size is not None and not 0 < self.step_size < np.inf:
            raise ValueError(f"step_size must be positive and finite, got {self.step_size}")
        if self.overshoot is not None and not 0 <= self.overshoot < np.inf:
            raise ValueError(f"overshoot must be non-negative and finite, got {self.overshoot}")

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

    preds is computed once, on first read, by the model that crafted the images
    (a grid slice's _CleanChunk), and success is read off it: a grid cell judged
    by that model reads preds, and one judged by other models pays no pass.
    l2 is filled only by the minimal-perturbation attack: per image, the L2
    norm of its accumulated step before overshoot, at the first probe that
    left the clean class, or at the end if none did; None elsewhere.
    """

    images: np.ndarray
    model: object
    labels: np.ndarray
    config: AttackConfig
    l2: np.ndarray | None = None

    @property
    def preds(self) -> np.ndarray:
        # not a cached_property, whose per-class lock before Python 3.12 serializes threads
        if "_preds" not in vars(self):
            self._preds = self.model.predict(self.images)
        return self._preds

    @property
    def success(self) -> np.ndarray:
        if self.config.targeted:
            return self.preds == self.config.target_class
        return self.preds != self.labels


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


def _finite_gradient(grad, what, config, model):
    """grad unchanged, or ValueError naming the attack kind and the test slope."""
    if not np.isfinite(grad).all():
        raise ValueError(f"non-finite {what} gradient in the {config.kind} attack "
                         f"at test slope {model.slope:g}")
    return grad


def _sign_steps(model, images, labels, config, clip, index_base):
    """FGSM, StepLL, RFGSM, BIM and PGD: config.steps signed loss-gradient steps.

    Each step of config.step_size is projected into the epsilon ball around
    images, then into clip; rfgsm starts from a signed-noise step and pgd from
    a uniform random start. Targeted fgsm and stepll descend the loss of their
    target (stepll's: the least-likely class); the rest ascend the true label's.
    A non-finite input gradient raises ValueError naming the kind and slope.

    Only an active set of rows takes each step. A row whose input gradient is
    all zero is a fixed point of the step (sign 0 adds nothing, and both
    projections keep the point), so it is final and leaves the set: its next
    gradient would be zero again. The first step passes the images object
    itself when the attack starts there, so a model that caches the clean
    gradient answers it; if no row moves at that step, the attack returns the
    images object itself, so such a model answers its prediction too.
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
    rows, base = np.arange(len(images)), images  # the active set, and its clean images
    final = np.empty_like(images)  # each row's image, written as the row leaves the set
    for _ in range(config.steps):
        if not len(rows):
            break
        _, grad = model.loss_input_grad(x, targets)
        moving = _finite_gradient(grad, "input", config, model).reshape(len(x), -1).any(axis=1)
        if x is images and not moving.any():
            return images, None
        if not moving.all():
            final[rows[~moving]] = x[~moving]
            rows, base, x, targets, grad = (a[moving] for a in (rows, base, x, targets, grad))
        x = np.clip(x + step * np.sign(grad), base - eps, base + eps)
        x = np.clip(x, *clip)
    final[rows] = x
    return final, None


def _boundary_steps(logits, grads, orig):
    """Per row, the flat float64 step just past its nearest linearized class
    boundary in L2 (0 where every logit gap is flat), and whether it has one."""
    at = np.arange(len(logits))
    g = grads.reshape(len(grads), len(logits), -1).swapaxes(0, 1)
    w = (g - g[at, orig][:, None]).astype(np.float64)
    norm, gap = np.linalg.norm(w, axis=2), logits.astype(np.float64)
    with np.errstate(divide="ignore", invalid="ignore"):
        pert = np.abs(gap - gap[at, orig][:, None]) / norm
    pert[~(pert < np.inf)] = np.inf  # a flat gap (the own class's too) or a non-finite one
    best = pert.argmin(axis=1)  # the first of equally near classes
    pert, w, norm = pert[at, best], w[at, best], norm[at, best]
    found = pert < np.inf
    pert[~found], norm[~found] = 0.0, 1.0
    return (pert * (1.0 + _DEEPFOOL_CROSSING_NUDGE))[:, None] * (w / norm[:, None]), found


def _deepfool(model, images, labels, config, clip, index_base):
    """Minimal-perturbation attack via iterative linearization of logit gaps.

    labels are the clean predictions to move away from. Each image steps just
    past its nearest linearized class boundary in L2 and probes its summed steps
    scaled by (1 + overshoot), as they are and clipped. It stops when its clipped
    probe (the image returned) changes class, when every logit gap is flat, or
    when the steps run out; l2 is the summed steps' norm at the first probe that
    changed class, after which the image steps on from its clipped probe. Each
    step linearizes, then probes, the active set in one batch.
    """
    scale, shape = 1.0 + config.overshoot, (-1,) + images.shape[1:]
    final, l2 = np.empty_like(images), np.zeros(len(images), dtype=np.float64)
    # the active set: rows, clean classes, linearization points, the flat start of the steps
    # (the image, then its clipped probe once a probe has crossed), the steps since, crossed
    rows, orig, x = np.arange(len(images)), labels, images
    base = images.reshape(len(images), -1).astype(np.float64)
    r_tot, crossed = np.zeros_like(base), np.zeros(len(images), dtype=bool)
    for _ in range(config.steps):
        if not len(rows):
            break
        logits, grads = model.logit_input_grads(x)
        step, found = _boundary_steps(logits, _finite_gradient(grads, "logit", config, model), orig)
        r_tot += step
        point = base + scale * r_tot
        x, clipped = (a.astype(images.dtype).reshape(shape) for a in (point, np.clip(point, *clip)))
        # every clipped probe, then the unclipped ones of the rows not yet crossed
        classes = model.predict(np.concatenate([clipped, x[~crossed]]))
        flipped = classes[:len(x)] != orig
        l2[rows[~crossed]] = np.linalg.norm(r_tot[~crossed], axis=1)
        crossed[~crossed] |= classes[len(x):] != orig[~crossed]
        final[rows] = clipped
        base[crossed] = clipped.reshape(len(x), -1)[crossed]
        r_tot[crossed], x[crossed] = 0.0, clipped[crossed]
        keep = found & ~flipped
        rows, orig, base, r_tot, crossed, x = (
            a[keep] for a in (rows, orig, base, r_tot, crossed, x))
    return final, l2


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
    object, with no gradient and no draw. So does a sign-step kind that starts
    at images (not rfgsm, nor pgd with a random start) when every image's first
    gradient is zero: no image moves, so the batch's prediction is the clean one.
    """
    if config.kind == "deepfool":
        labels = model.predict(images)
    if config.epsilon == 0.0:
        adv, l2 = images, None
    else:
        adv, l2 = _ATTACKS[config.kind](model, images, labels, config, clip, index_base)
    return AdversarialBatch(adv, model, labels, config, l2)
