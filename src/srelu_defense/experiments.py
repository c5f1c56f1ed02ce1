"""Experiment drivers: training, attack sweeps, and CSV report assembly.

Every driver is deterministic per seed: batches are chunked at a fixed size,
randomized attacks seed per image, and reports are sorted by a canonical key
before writing, so thread count never changes output bytes.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .attacks import (
    BIM_DEFAULT_STEPS,
    DEEPFOOL_DEFAULT_ITERS,
    PGD_DEFAULT_STEPS,
    AttackConfig,
    run_attack,
)
from .autodiff import Tape, Tensor
from .data import BatchIterator, LabeledImageSet, scale_pixels, take_first
from .models import Model, _forward, build_model, penultimate_features

EVAL_CHUNK = 256  # fixed so numeric results never depend on partitioning

DEFAULT_SLOPES = (0.5, 1.0, 2.0, 5.0, 10.0, 100.0)
MNIST_EPSILONS = (0.0, 0.05, 0.1, 0.15, 0.2, 0.25, 0.3)
CIFAR_EPSILONS = (0.0, 0.02, 0.04, 0.06, 0.08, 0.1)
DEFAULT_ATTACK_KINDS = ("fgsm", "bim", "rfgsm", "stepll", "pgd", "deepfool")
DEEPFOOL_ITER_GRID = (1, 2, 5, 10, 20, 50)
DEFAULT_SCALE_FACTORS = (0.5, 1.0, 2.0, 5.0, 10.0, 100.0)

REPORT_HEADER = (
    "dataset,model,activation,train_slope,test_slope,attack,targeted,"
    "target_class,epsilon,steps,n_images,clean_acc,adv_acc,attack_success,seed"
)
SUMMARY_HEADER = (
    "dataset,model,attack,test_slope,metric,mean,recovery,"
    "mean_with_eps0,recovery_with_eps0"
)

TRAIN_DEFAULTS = {"lr": 0.01, "momentum": 0.9, "batch_size": 64}


def default_epsilons(dataset_name: str) -> tuple[float, ...]:
    return MNIST_EPSILONS if "mnist" in dataset_name.lower() else CIFAR_EPSILONS


@dataclass(frozen=True)
class SweepGrid:
    slopes: tuple = DEFAULT_SLOPES
    epsilons: tuple = MNIST_EPSILONS
    attack_kinds: tuple = DEFAULT_ATTACK_KINDS
    deepfool_iters: tuple = DEEPFOOL_ITER_GRID
    image_budget: int | None = None

    def __post_init__(self):
        if any(s <= 0 for s in self.slopes):
            raise ValueError("slopes must be positive")
        eps = tuple(self.epsilons)
        if not eps or eps[0] != 0.0 or list(eps) != sorted(eps):
            raise ValueError("epsilons must ascend and start at 0")


@dataclass
class EvalRecord:
    """One (model, slope, attack, epsilon) measurement row."""

    dataset: str
    model: str
    activation: str
    train_slope: float
    test_slope: float
    attack: str
    targeted: bool
    target_class: int | None
    epsilon: float
    steps: int
    n_images: int
    clean_acc: float
    adv_acc: float
    attack_success: float
    seed: int
    epsilon_units: str = "pixels"  # "iterations" for deepfool, "fraction" for salt

    def sort_key(self):
        return (
            self.dataset, self.model, self.activation, self.train_slope,
            self.test_slope, self.attack, self.targeted,
            -1 if self.target_class is None else self.target_class,
            self.epsilon, self.steps,
        )

    def csv_row(self) -> str:
        return ",".join([
            self.dataset, self.model, self.activation,
            _fmt(self.train_slope), _fmt(self.test_slope), self.attack,
            "true" if self.targeted else "false",
            "" if self.target_class is None else str(self.target_class),
            _fmt(self.epsilon), str(self.steps), str(self.n_images),
            _fmt(self.clean_acc), _fmt(self.adv_acc), _fmt(self.attack_success),
            str(self.seed),
        ])


@dataclass
class SummaryRecord:
    """Per (attack, slope) mean over the epsilon grid, with and without eps=0."""

    dataset: str
    model: str
    attack: str
    test_slope: float
    metric: str  # adv_acc | attack_success
    mean: float
    recovery: float | None
    mean_with_eps0: float
    recovery_with_eps0: float | None

    def csv_row(self) -> str:
        return ",".join([
            self.dataset, self.model, self.attack, _fmt(self.test_slope),
            self.metric, _fmt(self.mean), _fmt(self.recovery),
            _fmt(self.mean_with_eps0), _fmt(self.recovery_with_eps0),
        ])


@dataclass
class Report:
    records: list[EvalRecord] = field(default_factory=list)
    summaries: list[SummaryRecord] = field(default_factory=list)
    metadata: dict = field(default_factory=dict)

    def sorted_records(self) -> list[EvalRecord]:
        return sorted(self.records, key=EvalRecord.sort_key)

    def csv_text(self) -> str:
        lines = [REPORT_HEADER]
        lines.extend(r.csv_row() for r in self.sorted_records())
        return "\n".join(lines) + "\n"

    def summary_csv_text(self) -> str:
        lines = [SUMMARY_HEADER]
        lines.extend(s.csv_row() for s in self.summaries)
        return "\n".join(lines) + "\n"

    def write_csv(self, path) -> None:
        with open(path, "w", newline="") as f:
            f.write(self.csv_text())

    def write_summary_csv(self, path) -> None:
        with open(path, "w", newline="") as f:
            f.write(self.summary_csv_text())


def _fmt(value) -> str:
    if value is None:
        return ""
    return f"{value:.6g}"


def _chunks(n: int):
    for start in range(0, n, EVAL_CHUNK):
        yield start, min(start + EVAL_CHUNK, n)


def predict_all(model: Model, images: np.ndarray) -> np.ndarray:
    """Predictions over a set, in fixed-size chunks."""
    preds = np.empty(len(images), dtype=np.int64)
    for lo, hi in _chunks(len(images)):
        preds[lo:hi] = model.predict(images[lo:hi])
    return preds


def eval_clean(model: Model, dataset: LabeledImageSet) -> float:
    """Fraction of correct predictions at the configured test activation."""
    if dataset.n == 0:
        raise ValueError("cannot evaluate an empty image set")
    return float((predict_all(model, dataset.images) == dataset.labels).mean())


def attack_all(model: Model, dataset: LabeledImageSet, config: AttackConfig,
               clip=(0.0, 1.0)) -> np.ndarray:
    """Run one attack over a whole set, chunked, preserving per-image seeds."""
    adv = np.empty_like(dataset.images)
    for lo, hi in _chunks(dataset.n):
        batch = run_attack(model, dataset.images[lo:hi], dataset.labels[lo:hi],
                           config, clip=clip, index_base=lo)
        adv[lo:hi] = batch.images
    return adv


def _attack_steps(config: AttackConfig) -> int:
    if config.kind == "bim":
        return config.steps or BIM_DEFAULT_STEPS
    if config.kind == "pgd":
        return config.steps or PGD_DEFAULT_STEPS
    if config.kind == "deepfool":
        return config.max_iters or DEEPFOOL_DEFAULT_ITERS
    return 1


def _attack_epsilon(config: AttackConfig) -> tuple[float, str]:
    if config.kind == "deepfool":
        return float(config.max_iters or DEEPFOOL_DEFAULT_ITERS), "iterations"
    if config.kind == "salt_pepper":
        return float(config.fraction), "fraction"
    return float(config.epsilon), "pixels"


def eval_under_attack(
    model: Model,
    dataset: LabeledImageSet,
    config: AttackConfig,
    seed: int = 0,
    clean_acc: float | None = None,
    clean_preds: np.ndarray | None = None,
    clip=(0.0, 1.0),
    dataset_name: str | None = None,
) -> EvalRecord:
    """Attack a set and measure accuracy (untargeted) or success (targeted).

    Targeted success counts only images not already predicted as the target
    before the attack.
    """
    if dataset.n == 0:
        raise ValueError("cannot evaluate an empty image set")
    if clean_preds is None:
        clean_preds = predict_all(model, dataset.images)
    if clean_acc is None:
        clean_acc = float((clean_preds == dataset.labels).mean())

    adv = attack_all(model, dataset, config, clip=clip)
    adv_preds = predict_all(model, adv)
    adv_acc = float((adv_preds == dataset.labels).mean())

    if config.targeted:
        eligible = clean_preds != config.target_class
        hits = (adv_preds == config.target_class) & eligible
        success = float(hits.sum() / eligible.sum()) if eligible.any() else 0.0
    else:
        success = 1.0 - adv_acc

    epsilon, units = _attack_epsilon(config)
    cfg = model.slope_config
    return EvalRecord(
        dataset=dataset_name or dataset.name,
        model=model.spec.id,
        activation=cfg.test_activation,
        train_slope=cfg.train_slope,
        test_slope=cfg.test_slope,
        attack=config.kind,
        targeted=config.targeted,
        target_class=config.target_class,
        epsilon=epsilon,
        steps=_attack_steps(config),
        n_images=dataset.n,
        clean_acc=clean_acc,
        adv_acc=adv_acc,
        attack_success=success,
        seed=seed,
        epsilon_units=units,
    )


def _run_cells(cell_fns, threads: int) -> list:
    if threads <= 1:
        return [fn() for fn in cell_fns]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(lambda fn: fn(), cell_fns))


def _grid_summaries(records: list[EvalRecord], metric: str) -> list[SummaryRecord]:
    """Mean over the sweep grid per (attack, slope), plus recovery vs slope 1.

    The canonical mean drops the eps=0 (no attack) point; the variant
    including it is emitted alongside.
    """
    by_attack: dict[str, dict[float, list[EvalRecord]]] = {}
    for r in records:
        by_attack.setdefault(r.attack, {}).setdefault(r.test_slope, []).append(r)

    summaries = []
    for attack in sorted(by_attack):
        slope_means = {}
        for slope, rows in by_attack[attack].items():
            values = [getattr(r, metric) for r in rows]
            stressed = [
                getattr(r, metric)
                for r in rows
                if not (r.epsilon_units == "pixels" and r.epsilon == 0.0)
            ]
            slope_means[slope] = (
                float(np.mean(stressed if stressed else values)),
                float(np.mean(values)),
            )
        base = slope_means.get(1.0)
        for slope in sorted(slope_means):
            mean_excl, mean_incl = slope_means[slope]
            rec = by_attack[attack][slope][0]
            summaries.append(SummaryRecord(
                dataset=rec.dataset, model=rec.model, attack=attack,
                test_slope=slope, metric=metric,
                mean=mean_excl,
                recovery=None if base is None else mean_excl - base[0],
                mean_with_eps0=mean_incl,
                recovery_with_eps0=None if base is None else mean_incl - base[1],
            ))
    return summaries


def _budget(dataset: LabeledImageSet, grid: SweepGrid) -> LabeledImageSet:
    if grid.image_budget is None or grid.image_budget >= dataset.n:
        return dataset
    return take_first(dataset, grid.image_budget)


def _grid_configs(grid: SweepGrid, seed: int):
    """Expand the grid into flat AttackConfig cells."""
    cells = []
    for kind in grid.attack_kinds:
        if kind == "deepfool":
            for iters in grid.deepfool_iters:
                cells.append(AttackConfig(kind="deepfool", max_iters=iters,
                                          rng_seed=seed))
        elif kind == "salt_pepper":
            for eps in grid.epsilons:
                cells.append(AttackConfig(kind="salt_pepper", fraction=eps,
                                          rng_seed=seed))
        else:
            for eps in grid.epsilons:
                cells.append(AttackConfig(kind=kind, epsilon=eps, rng_seed=seed))
    return cells


def slope_sweep(model: Model, dataset: LabeledImageSet, grid: SweepGrid,
                seed: int = 0, threads: int = 1) -> Report:
    """Cross product of (slope, attack, epsilon) under untargeted attacks."""
    dataset = _budget(dataset, grid)
    configs = _grid_configs(grid, seed)

    cell_fns = []
    for slope in grid.slopes:
        sloped = model.with_slope(slope)
        preds = predict_all(sloped, dataset.images)
        clean = float((preds == dataset.labels).mean())
        for config in configs:
            cell_fns.append(
                lambda m=sloped, c=config, a=clean, p=preds: eval_under_attack(
                    m, dataset, c, seed=seed, clean_acc=a, clean_preds=p
                )
            )

    records = _run_cells(cell_fns, threads)
    report = Report(records=records, metadata={
        "experiment": "slope_sweep", "seed": str(seed),
        "slopes": ",".join(_fmt(s) for s in grid.slopes),
        "epsilons": ",".join(_fmt(e) for e in grid.epsilons),
        "attacks": ",".join(grid.attack_kinds),
        "mean_convention": "grid means exclude the epsilon=0 point; "
                           "*_with_eps0 columns include it",
    })
    report.records = report.sorted_records()
    report.summaries = _grid_summaries(report.records, "adv_acc")
    return report


def targeted_sweep(model: Model, dataset: LabeledImageSet, grid: SweepGrid,
                   seed: int = 0, threads: int = 1) -> Report:
    """Targeted FGSM toward every class, per slope and epsilon."""
    dataset = _budget(dataset, grid)

    cell_fns = []
    for slope in grid.slopes:
        sloped = model.with_slope(slope)
        preds = predict_all(sloped, dataset.images)
        clean = float((preds == dataset.labels).mean())
        for target in range(10):
            for eps in grid.epsilons:
                config = AttackConfig(kind="fgsm", epsilon=eps, targeted=True,
                                      target_class=target, rng_seed=seed)
                cell_fns.append(
                    lambda m=sloped, c=config, a=clean, p=preds: eval_under_attack(
                        m, dataset, c, seed=seed, clean_acc=a, clean_preds=p
                    )
                )

    records = _run_cells(cell_fns, threads)
    report = Report(records=records, metadata={
        "experiment": "targeted_sweep", "seed": str(seed),
        "success_rule": "images already predicted as the target are excluded",
    })
    report.records = report.sorted_records()
    report.summaries = _grid_summaries(report.records, "attack_success")
    return report


def activation_swap(model: Model, dataset: LabeledImageSet, kinds,
                    epsilons, seed: int = 0, threads: int = 1,
                    image_budget: int | None = None) -> Report:
    """Evaluate substitute test-time activations under the one-step attack."""
    if image_budget is not None:
        dataset = take_first(dataset, image_budget)

    cell_fns = []
    for kind in kinds:
        swapped = model.with_activation(kind)
        preds = predict_all(swapped, dataset.images)
        clean = float((preds == dataset.labels).mean())
        for eps in epsilons:
            config = AttackConfig(kind="fgsm", epsilon=eps, rng_seed=seed)
            cell_fns.append(
                lambda m=swapped, c=config, a=clean, p=preds: eval_under_attack(
                    m, dataset, c, seed=seed, clean_acc=a, clean_preds=p
                )
            )

    records = _run_cells(cell_fns, threads)
    report = Report(records=records, metadata={
        "experiment": "activation_swap", "seed": str(seed),
        "kinds": ",".join(kinds),
    })
    report.records = report.sorted_records()
    return report


def scaling_experiment(model: Model, dataset: LabeledImageSet, factors,
                       clip: bool, epsilons, seed: int = 0,
                       threads: int = 1, image_budget: int | None = None) -> Report:
    """Scale pixel values, then attack the scaled inputs at slope 1.

    Without clipping, the valid pixel range grows to [0, factor] and the
    attack clips to that range instead.
    """
    if any(f <= 0 for f in factors):
        raise ValueError("scale factors must be positive")
    if image_budget is not None:
        dataset = take_first(dataset, image_budget)
    base = model.with_slope(1.0)

    cell_fns = []
    for factor in factors:
        scaled = scale_pixels(dataset, factor, clip)
        tag = f"{dataset.name}[x{factor:g},{'clip' if clip else 'noclip'}]"
        clip_range = (0.0, 1.0) if clip else (0.0, float(factor))
        preds = predict_all(base, scaled.images)
        clean = float((preds == scaled.labels).mean())
        for eps in epsilons:
            config = AttackConfig(kind="fgsm", epsilon=eps, rng_seed=seed)
            cell_fns.append(
                lambda s=scaled, c=config, a=clean, p=preds, t=tag, r=clip_range:
                    eval_under_attack(base, s, c, seed=seed, clean_acc=a,
                                      clean_preds=p, clip=r, dataset_name=t)
            )

    records = _run_cells(cell_fns, threads)
    report = Report(records=records, metadata={
        "experiment": "pixel_scaling", "seed": str(seed),
        "clip": str(clip).lower(),
        "factors": ",".join(_fmt(f) for f in factors),
    })
    report.records = report.sorted_records()
    return report


# ---------------------------------------------------------------------------
# training


def train(model: Model, train_set: LabeledImageSet, epochs: int,
          lr: float = TRAIN_DEFAULTS["lr"],
          momentum: float = TRAIN_DEFAULTS["momentum"],
          batch_size: int = TRAIN_DEFAULTS["batch_size"],
          seed: int = 0, epoch_log: list | None = None) -> Model:
    """Minibatch SGD with momentum on softmax cross-entropy, seeded shuffle.

    Mutates the model's parameters in place and returns it. The training-mode
    forward applies the configured train slope at every activation site.
    """
    if epochs < 0:
        raise ValueError("epochs must be non-negative")
    iterator = BatchIterator(train_set, batch_size, order="shuffle", seed=seed)
    velocity = {name: np.zeros_like(p.data) for name, p in model.params.items()}

    for epoch in range(epochs):
        total_loss = 0.0
        for images, labels in iterator.epoch_batches(epoch):
            tape = Tape()
            logits = _forward(model, Tensor(images), mode="train", tape=tape)
            loss = ad.softmax_cross_entropy(logits, labels, tape=tape)
            grads = ad.backward(tape, loss)
            for name, param in model.params.items():
                g = grads.get(param)
                if g is None:
                    continue
                v = velocity[name]
                v *= momentum
                v += g.data
                param.data -= lr * v
            total_loss += loss.item() * len(labels)
        if epoch_log is not None:
            epoch_log.append((epoch, total_loss / train_set.n))
    return model


def sgd_step(model: Model, images: np.ndarray, labels: np.ndarray, lr: float,
             velocity: dict | None = None, momentum: float = 0.0) -> float:
    """One optimizer step on one batch; returns the pre-step loss."""
    tape = Tape()
    logits = _forward(model, Tensor(images), mode="train", tape=tape)
    loss = ad.softmax_cross_entropy(logits, labels, tape=tape)
    grads = ad.backward(tape, loss)
    for name, param in model.params.items():
        g = grads.get(param)
        if g is None:
            continue
        step = g.data
        if velocity is not None:
            v = velocity[name]
            v *= momentum
            v += g.data
            step = v
        param.data -= lr * step
    return loss.item()


# ---------------------------------------------------------------------------
# gradient-obfuscation probe (substitute network + transfer attack)


def teacher_soft_labels(teacher: Model, images: np.ndarray) -> np.ndarray:
    """Softmax of the teacher's slope-1 logits, chunked."""
    base = teacher.with_slope(1.0)
    probs = np.empty((len(images), 10), dtype=images.dtype)
    for lo, hi in _chunks(len(images)):
        probs[lo:hi] = ad.softmax(base.logits(images[lo:hi]))
    return probs


def bpda_train_substitute(original: Model, train_set: LabeledImageSet,
                          epochs: int, seed: int,
                          lr: float = TRAIN_DEFAULTS["lr"],
                          momentum: float = TRAIN_DEFAULTS["momentum"],
                          batch_size: int = TRAIN_DEFAULTS["batch_size"]) -> Model:
    """Train a same-architecture substitute against the original's soft labels.

    The substitute minimizes cross-entropy between its softmax outputs and
    the softmax of the original's slope-1 logits (soft-label distillation).
    """
    substitute = build_model(original.spec, seed)
    soft = teacher_soft_labels(original, train_set.images)
    iterator = BatchIterator(train_set, batch_size, order="shuffle", seed=seed)
    velocity = {name: np.zeros_like(p.data) for name, p in substitute.params.items()}

    for epoch in range(epochs):
        for batch_idx in _batched_indices(iterator, epoch):
            tape = Tape()
            logits = _forward(substitute, Tensor(train_set.images[batch_idx]),
                              mode="train", tape=tape)
            loss = ad.soft_cross_entropy(logits, soft[batch_idx], tape=tape)
            grads = ad.backward(tape, loss)
            for name, param in substitute.params.items():
                g = grads.get(param)
                if g is None:
                    continue
                v = velocity[name]
                v *= momentum
                v += g.data
                param.data -= lr * v
    return substitute


def _batched_indices(iterator: BatchIterator, epoch: int):
    idx = iterator.epoch_indices(epoch)
    for start in range(0, len(idx), iterator.batch_size):
        yield idx[start : start + iterator.batch_size]


def bpda_transfer_eval(original: Model, substitute: Model,
                       dataset: LabeledImageSet, slopes, epsilons,
                       attack_kinds=("fgsm",), seed: int = 0) -> Report:
    """Craft attacks on the substitute (slope 1), evaluate on the original.

    Each adversarial set is crafted once per (attack, epsilon) and reused
    across the original's slopes.
    """
    crafting = substitute.with_slope(1.0)
    records = []
    for kind in attack_kinds:
        for eps in epsilons:
            config = AttackConfig(kind=kind, epsilon=eps, rng_seed=seed)
            adv = attack_all(crafting, dataset, config)
            steps = _attack_steps(config)
            for slope in slopes:
                target_model = original.with_slope(slope)
                clean = eval_clean(target_model, dataset)
                adv_acc = float(
                    (predict_all(target_model, adv) == dataset.labels).mean()
                )
                cfg = target_model.slope_config
                records.append(EvalRecord(
                    dataset=dataset.name, model=original.spec.id,
                    activation=cfg.test_activation, train_slope=cfg.train_slope,
                    test_slope=slope, attack=f"bpda_{kind}", targeted=False,
                    target_class=None, epsilon=eps, steps=steps,
                    n_images=dataset.n, clean_acc=clean, adv_acc=adv_acc,
                    attack_success=1.0 - adv_acc, seed=seed,
                ))
    report = Report(records=records, metadata={
        "experiment": "bpda_transfer", "seed": str(seed),
        "substitute_loss": "soft-label distillation "
                           "(cross-entropy against teacher softmax)",
    })
    report.records = report.sorted_records()
    return report


def export_features(model: Model, dataset: LabeledImageSet, path) -> None:
    """Write one CSV row per image: label, then penultimate-layer features."""
    with open(path, "w", newline="") as f:
        for lo, hi in _chunks(dataset.n):
            feats = penultimate_features(model, dataset.images[lo:hi])
            for label, row in zip(dataset.labels[lo:hi], feats):
                f.write(str(int(label)) + "," + ",".join(_fmt(v) for v in row) + "\n")
