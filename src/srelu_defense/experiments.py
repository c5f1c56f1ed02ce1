"""Experiment drivers: training, attack sweeps, and CSV report assembly.

Every driver is deterministic per seed: batches are chunked at a fixed size,
each chunk's attack losses are divided by its own image count, the model's
passes are batch-invariant, randomized attacks seed per image, and reports
are sorted by a canonical key before writing, so neither the thread count
nor how the pool slices a chunk changes output bytes. The training
loop (_sgd) is the one place where parameters take gradients; every other
driver differentiates with respect to the input alone.
"""

from __future__ import annotations

import ctypes
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from . import autodiff as ad
from .attacks import AttackConfig, run_attack
from .autodiff import Tape, Tensor
from .data import BatchIterator, LabeledImageSet, scale_pixels
from .models import Model, _forward, build_model, penultimate_features

EVAL_CHUNK = 256  # each chunk's image count divides its attack losses
SLICE_ROWS = 64  # rows per grid task, a slice of one chunk, so workers share a chunk

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


@dataclass
class EvalRecord:
    """One (model, slope, attack, epsilon) measurement row."""

    dataset: str
    model: str
    activation: str
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

    def sort_key(self):
        return (
            self.dataset, self.model, self.activation, self.test_slope,
            self.attack, self.targeted,
            -1 if self.target_class is None else self.target_class,
            self.epsilon, self.steps,
        )

    def csv_row(self) -> str:
        return ",".join([
            self.dataset, self.model, self.activation,
            "1",  # the training slope: networks always train at slope 1
            _fmt(self.test_slope), self.attack,
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


def _slices(n: int):
    """(lo, hi, chunk_n) of each slice of at most SLICE_ROWS rows, cut inside the
    EVAL_CHUNK chunks from 0; chunk_n is the slice's chunk's image count."""
    for start, stop in _chunks(n):
        for lo in range(start, stop, SLICE_ROWS):
            yield lo, min(lo + SLICE_ROWS, stop), stop - start


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


class _CleanChunk:
    """A model that takes each pass at one slice's clean images only once, and
    divides every attack loss by the image count of the slice's chunk.

    logits, predict and loss_input_grad on the slice's own images array (the
    same object) compute once, the gradient once per loss-target vector; any
    other input or attribute passes through to the model. So the configs of
    a grid task share fgsm's and stepll's gradients across epsilons, bim's first
    step, deepfool's clean labels and every eps=0 prediction. The fixed
    divisor makes each row's gradient independent of the rows beside it, so
    slices and attacks' active sets leave every bit where the whole chunk has it.
    """

    def __init__(self, model: Model, images: np.ndarray, divisor: int):
        self.model, self.images, self.divisor = model, images, divisor
        self._logits = None
        self._grads = {}

    def __getattr__(self, name):
        return getattr(self.model, name)

    def logits(self, images):
        if images is not self.images:
            return self.model.logits(images)
        if self._logits is None:
            self._logits = self.model.logits(images)
        return self._logits

    predict = Model.predict  # reads self.logits, so the chunk's own are cached

    def loss_input_grad(self, images, targets):
        if images is not self.images:
            return self.model.loss_input_grad(images, targets, self.divisor)
        key = (targets.dtype.str, targets.tobytes())
        if key not in self._grads:
            self._grads[key] = self.model.loss_input_grad(images, targets, self.divisor)
        return self._grads[key]


def _attack_slice(model: Model, dataset: LabeledImageSet, configs, lo, hi, chunk_n):
    """(clean, batches) of one slice: its _CleanChunk over model, and one lazy
    AdversarialBatch per config, clipped to the set's pixel range and seeded per image."""
    clean = _CleanChunk(model, dataset.images[lo:hi], chunk_n)
    attack = partial(run_attack, clean, clean.images, dataset.labels[lo:hi],
                     clip=dataset.pixel_range, index_base=lo)
    return clean, map(attack, configs)


def attack_all(model: Model, dataset: LabeledImageSet, configs):
    """Attack a set with every config, one EVAL_CHUNK chunk at a time from 0.

    Yields (lo, hi, clean, batches) per chunk, as _attack_slice gives them.
    """
    for lo, hi in _chunks(dataset.n):
        yield (lo, hi, *_attack_slice(model, dataset, configs, lo, hi, hi - lo))


def _preds(clean: _CleanChunk, batches) -> np.ndarray:
    """Predictions on a slice, (1 + configs, rows): clean, then one row per config."""
    return np.array([clean.predict(clean.images), *(batch.preds for batch in batches)])


def eval_under_attack(model: Model, dataset: LabeledImageSet, configs,
                      seed: int = 0) -> list[EvalRecord]:
    """Attack a set with every config: one record per config, in order.

    Records accuracy (untargeted) or success (targeted). Targeted success
    counts only images not already predicted as the target before the attack.
    """
    return _records(model, dataset, configs, seed, [
        _preds(clean, batches) for _, _, clean, batches in attack_all(model, dataset, configs)])


def _records(model: Model, dataset: LabeledImageSet, configs, seed: int,
             slice_preds) -> list[EvalRecord]:
    """eval_under_attack's records, from the _preds of every slice in order."""
    if dataset.n == 0:
        raise ValueError("cannot evaluate an empty image set")
    clean_preds, *adv_preds = np.concatenate(slice_preds, axis=1)
    clean_acc = float((clean_preds == dataset.labels).mean())

    records = []
    for config, preds in zip(configs, adv_preds):
        adv_acc = float((preds == dataset.labels).mean())
        success = 1.0 - adv_acc
        if config.targeted:
            eligible = clean_preds != config.target_class
            hits = (preds == config.target_class) & eligible
            success = float(hits.sum() / eligible.sum()) if eligible.any() else 0.0
        records.append(eval_record(model, dataset.name, dataset.n, config, clean_acc,
                                   adv_acc, success, seed))
    return records


def eval_record(model: Model, dataset_name: str, n_images: int,
                config: AttackConfig | None, clean_acc: float, adv_acc: float,
                success: float, seed: int, attack_prefix: str = "") -> EvalRecord:
    """One report row for a model; config None is a clean, unattacked row."""
    if config is None:
        attack, targeted, target, steps, epsilon = "none", False, None, 0, 0.0
    else:
        attack = attack_prefix + config.kind
        targeted, target, steps = config.targeted, config.target_class, config.steps
        epsilon = config.budget
    return EvalRecord(
        dataset=dataset_name, model=model.spec.id, activation=model.activation,
        test_slope=model.slope, attack=attack, targeted=targeted, target_class=target,
        epsilon=epsilon, steps=steps, n_images=n_images, clean_acc=clean_acc,
        adv_acc=adv_acc, attack_success=success, seed=seed,
    )


def _openblas_threads():
    """(get, set) of the loaded OpenBLAS's thread count, or None without one.

    The library is found by name in this process's memory map; numpy's own
    wheels bundle it with 64-bit integers and a scipy_ prefix on its symbols.
    """
    try:
        with open("/proc/self/maps") as maps:
            libs = sorted({line.split()[-1] for line in maps if "openblas" in line.lower()})
    except OSError:
        return None
    for lib in libs:
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for prefix, suffix in (("", ""), ("", "64_"), ("scipy_", "64_"), ("scipy_", "")):
            get = getattr(handle, f"{prefix}openblas_get_num_threads{suffix}", None)
            set_ = getattr(handle, f"{prefix}openblas_set_num_threads{suffix}", None)
            if get is not None and set_ is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                set_.argtypes, set_.restype = [ctypes.c_int], None
                return get, set_
    return None


@contextmanager
def _one_blas_thread():
    """Run OpenBLAS on its calling thread only, restoring the prior count after."""
    control = _openblas_threads()
    if control is None:
        yield
        return
    get, set_ = control
    prior = get()
    set_(1)
    try:
        yield
    finally:
        set_(prior)


def _run_cells(tasks, threads: int) -> list:
    """Every task's result, in order; threads > 1 runs them in a pool.

    While the pool runs, each worker's GEMMs stay on the worker's own thread,
    so the pool busies `threads` cores rather than `threads` times the BLAS
    thread count. No result depends on the BLAS thread count.
    """
    if threads <= 1:
        return [fn() for fn in tasks]
    with _one_blas_thread(), ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(lambda fn: fn(), tasks))


def _grid_summaries(records: list[EvalRecord], metric: str) -> list[SummaryRecord]:
    """Mean over the sweep grid per (attack, slope), plus recovery vs slope 1.

    The canonical mean drops every eps=0 (no attack) row; the variant
    including them is emitted alongside. DeepFool rows hold an iteration
    budget of at least 1 in the epsilon column, so none of them is dropped.
    """
    by_attack: dict[str, dict[float, list[EvalRecord]]] = {}
    for r in records:
        by_attack.setdefault(r.attack, {}).setdefault(r.test_slope, []).append(r)

    summaries = []
    for attack in sorted(by_attack):
        slope_means = {}
        for slope, rows in by_attack[attack].items():
            values = [getattr(r, metric) for r in rows]
            stressed = [getattr(r, metric) for r in rows if r.epsilon != 0.0]
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


def _grid_configs(attack_kinds, epsilons, seed: int,
                  deepfool_iters=DEEPFOOL_ITER_GRID) -> list[AttackConfig]:
    """One AttackConfig cell per (kind, epsilon); deepfool, which takes no
    epsilon, gets one per iteration budget instead."""
    cells = []
    for kind in attack_kinds:
        if kind == "deepfool":
            cells += [AttackConfig(kind=kind, steps=iters, rng_seed=seed)
                      for iters in deepfool_iters]
        else:
            cells += [AttackConfig(kind=kind, epsilon=eps, rng_seed=seed)
                      for eps in epsilons]
    return cells


def _attack_grid(variants, configs, seed: int, threads: int,
                 summary_metric: str | None = None) -> Report:
    """Attack every variant with every config, as eval_under_attack does.

    variants are (model, dataset) pairs. The pool runs one task per (variant,
    slice), so the configs of a variant share its clean passes per slice, and
    a variant whose attacks end early frees its thread for another's slices.
    """
    slices = [list(_slices(dataset.n)) for _, dataset in variants]
    tasks = [lambda m=model, d=dataset, s=s: _preds(*_attack_slice(m, d, configs, *s))
             for (model, dataset), cuts in zip(variants, slices) for s in cuts]
    results = iter(_run_cells(tasks, threads))
    records = sorted((r for (model, dataset), cuts in zip(variants, slices)
                      for r in _records(model, dataset, configs, seed,
                                        [next(results) for _ in cuts])),
                     key=EvalRecord.sort_key)
    summaries = _grid_summaries(records, summary_metric) if summary_metric else []
    return Report(records=records, summaries=summaries)


def slope_sweep(model: Model, dataset: LabeledImageSet, slopes, epsilons,
                attack_kinds=DEFAULT_ATTACK_KINDS, deepfool_iters=DEEPFOOL_ITER_GRID,
                seed: int = 0, threads: int = 1) -> Report:
    """Cross product of (slope, attack, epsilon) under untargeted attacks.

    deepfool, which takes no epsilon, runs once per budget in deepfool_iters
    instead. Model rejects a slope that is not positive and AttackConfig an
    epsilon outside [0, 1]; the CLI also requires the grid to ascend from 0.
    """
    variants = [(model.with_slope(s), dataset) for s in slopes]
    configs = _grid_configs(attack_kinds, epsilons, seed, deepfool_iters)
    return _attack_grid(variants, configs, seed, threads, summary_metric="adv_acc")


def targeted_sweep(model: Model, dataset: LabeledImageSet, slopes, epsilons,
                   seed: int = 0, threads: int = 1) -> Report:
    """Targeted FGSM toward every class, per slope and epsilon (as slope_sweep)."""
    variants = [(model.with_slope(s), dataset) for s in slopes]
    configs = [AttackConfig(kind="fgsm", epsilon=eps, target_class=target, rng_seed=seed)
               for target in range(10) for eps in epsilons]
    return _attack_grid(variants, configs, seed, threads, summary_metric="attack_success")


def activation_swap(model: Model, dataset: LabeledImageSet, kinds,
                    epsilons, seed: int = 0, threads: int = 1) -> Report:
    """Evaluate substitute test-time activations under the one-step attack."""
    variants = [(model.with_activation(k), dataset) for k in kinds]
    return _attack_grid(variants, _grid_configs(("fgsm",), epsilons, seed), seed, threads)


def scaling_experiment(model: Model, dataset: LabeledImageSet, factors,
                       clip: bool, epsilons, seed: int = 0,
                       threads: int = 1) -> Report:
    """Scale pixel values, then attack the scaled inputs at slope 1.

    Without clipping, the valid pixel range grows to [0, factor] and the
    attack clips to that range instead.
    """
    base = model.with_slope(1.0)
    variants = [(base, scale_pixels(dataset, f, clip)) for f in factors]
    return _attack_grid(variants, _grid_configs(("fgsm",), epsilons, seed), seed, threads)


# ---------------------------------------------------------------------------
# training


def _sgd(model: Model, epochs: int, epoch_batches, loss_fn, lr: float,
         momentum: float) -> list[float]:
    """Minibatch SGD with momentum, always through the plain rectifier (slope 1).

    epoch_batches(epoch) yields (images, targets) batches; loss_fn(logits,
    targets, tape=) is the batch-mean loss. Mutates the model's parameters
    in place and returns the mean loss of each epoch.
    """
    if epochs < 0:
        raise ValueError("epochs must be non-negative")
    # the slope-1 view's parameters take gradients and wrap the model's own
    # arrays, so each in-place update lands in the caller's model
    model = Model(model.spec, {
        name: Tensor(p.data, requires_grad=True, dtype=p.data.dtype)
        for name, p in model.params.items()})
    velocity = {name: np.zeros_like(p.data) for name, p in model.params.items()}
    epoch_losses = []
    for epoch in range(epochs):
        total_loss, seen = 0.0, 0
        for images, targets in epoch_batches(epoch):
            tape = Tape()
            logits = _forward(model, Tensor(images), tape=tape)
            loss = loss_fn(logits, targets, tape=tape)
            grads = ad.backward(tape, loss)
            for name, param in model.params.items():
                g = grads.get(param)
                if g is None:
                    continue
                v = velocity[name]
                v *= momentum
                v += g
                param.data -= lr * v
            total_loss += loss.item() * len(targets)
            seen += len(targets)
        if not seen:
            raise ValueError("cannot train on an empty image set")
        epoch_losses.append(total_loss / seen)
    return epoch_losses


def train(model: Model, train_set: LabeledImageSet, epochs: int,
          lr: float = TRAIN_DEFAULTS["lr"],
          momentum: float = TRAIN_DEFAULTS["momentum"],
          batch_size: int = TRAIN_DEFAULTS["batch_size"],
          seed: int = 0) -> list[float]:
    """Minibatch SGD with momentum on softmax cross-entropy, seeded shuffle.

    Mutates the model's parameters in place and returns the mean loss of each
    epoch. Training runs the plain rectifier whatever slope or activation the
    model evaluates with.
    """
    iterator = BatchIterator(train_set.images, train_set.labels, batch_size, seed=seed)
    return _sgd(model, epochs, iterator.epoch_batches, ad.softmax_cross_entropy, lr, momentum)


# ---------------------------------------------------------------------------
# gradient-obfuscation probe (substitute network + transfer attack)


def bpda_train_substitute(original: Model, train_set: LabeledImageSet,
                          epochs: int, seed: int) -> Model:
    """Train a same-architecture substitute against the original's soft labels.

    The substitute minimizes cross-entropy between its softmax outputs and
    the softmax of the original's slope-1 logits (soft-label distillation),
    with train's default SGD settings (TRAIN_DEFAULTS).
    """
    substitute = build_model(original.spec, seed)
    teacher = original.with_slope(1.0)
    soft = np.empty((train_set.n, 10), dtype=train_set.images.dtype)
    for lo, hi in _chunks(train_set.n):
        soft[lo:hi] = ad.softmax(teacher.logits(train_set.images[lo:hi]))
    iterator = BatchIterator(train_set.images, soft, TRAIN_DEFAULTS["batch_size"], seed=seed)
    _sgd(substitute, epochs, iterator.epoch_batches, ad.soft_cross_entropy,
         TRAIN_DEFAULTS["lr"], TRAIN_DEFAULTS["momentum"])
    return substitute


def bpda_transfer_eval(original: Model, substitute: Model,
                       dataset: LabeledImageSet, slopes, epsilons,
                       attack_kinds=("fgsm",), seed: int = 0) -> Report:
    """Craft attacks on the substitute (slope 1), evaluate on the original.

    Cells expand as in the slope sweep (deepfool over its default iteration
    grid). Each adversarial chunk is crafted once per cell and reused across
    the original's slopes. Each slope predicts each clean chunk once, and
    reads its eps=0 cells, whose chunk is the clean one, from that pass.
    """
    if dataset.n == 0:
        raise ValueError("cannot evaluate an empty image set")
    crafting = substitute.with_slope(1.0)
    targets = [original.with_slope(s) for s in slopes]
    configs = _grid_configs(attack_kinds, epsilons, seed)
    clean_hits = np.zeros(len(targets), dtype=np.int64)
    adv_hits = np.zeros((len(configs), len(targets)), dtype=np.int64)
    for lo, hi, clean, batches in attack_all(crafting, dataset, configs):
        labels = dataset.labels[lo:hi]
        judges = [_CleanChunk(target, clean.images, clean.divisor) for target in targets]
        clean_hits += [(judge.predict(clean.images) == labels).sum() for judge in judges]
        for row, batch in zip(adv_hits, batches):
            row += [(judge.predict(batch.images) == labels).sum() for judge in judges]
    records = []
    for config, row in zip(configs, adv_hits):
        for target, n_clean, n_adv in zip(targets, clean_hits, row):
            adv_acc = float(n_adv / dataset.n)
            records.append(eval_record(
                target, dataset.name, dataset.n, config, float(n_clean / dataset.n),
                adv_acc, 1.0 - adv_acc, seed, attack_prefix="bpda_",
            ))
    return Report(records=sorted(records, key=EvalRecord.sort_key))


def export_features(model: Model, dataset: LabeledImageSet, path) -> None:
    """Write one CSV row per image: label, then penultimate-layer features."""
    with open(path, "w", newline="") as f:
        for lo, hi in _chunks(dataset.n):
            feats = penultimate_features(model, dataset.images[lo:hi])
            for label, row in zip(dataset.labels[lo:hi], feats):
                f.write(str(int(label)) + "," + ",".join(_fmt(v) for v in row) + "\n")
