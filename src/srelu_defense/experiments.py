"""Experiment drivers: training, attack sweeps, and CSV report assembly.

Every driver is deterministic per seed: each image's attack loss is its own
cross-entropy, the model's passes are batch-invariant, randomized attacks
seed per image, and reports are sorted by a canonical key before writing, so
neither the thread count, how the pool slices a set, nor how many images a
run evaluates changes an image's bytes. The training loop (_sgd) is the one
place where parameters take gradients; every other driver differentiates with
respect to the input alone.
"""

from __future__ import annotations

import ctypes
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, field, fields, replace
from functools import partial

import numpy as np

from . import autodiff as ad
from .attacks import AttackConfig, run_attack
from .autodiff import Tape, Tensor
from .data import BatchIterator, LabeledImageSet, scale_pixels
from .models import Model, _forward, build_model, penultimate_features

SLICE_ROWS = 64  # rows per grid task and per batched pass

DEFAULT_SLOPES = (0.5, 1.0, 2.0, 5.0, 10.0, 100.0)
MNIST_EPSILONS = (0.0, 0.05, 0.1, 0.15, 0.2, 0.25, 0.3)
CIFAR_EPSILONS = (0.0, 0.02, 0.04, 0.06, 0.08, 0.1)
DEFAULT_ATTACK_KINDS = ("fgsm", "bim", "rfgsm", "stepll", "pgd", "deepfool")
DEEPFOOL_ITER_GRID = (1, 2, 5, 10, 20, 50)
DEFAULT_SCALE_FACTORS = (0.5, 1.0, 2.0, 5.0, 10.0, 100.0)

TRAIN_DEFAULTS = {"lr": 0.01, "momentum": 0.9, "batch_size": 64}


@dataclass
class EvalRecord:
    """One (model, slope, attack, epsilon) measurement row."""

    dataset: str
    model: str
    activation: str
    train_slope: int = field(default=1, init=False)  # networks always train at slope 1
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


@dataclass
class Report:
    records: list[EvalRecord] = field(default_factory=list)
    summaries: list[SummaryRecord] = field(default_factory=list)

    def csv_text(self) -> str:
        return _table(EvalRecord, sorted(self.records, key=EvalRecord.sort_key))

    def summary_csv_text(self) -> str:
        return _table(SummaryRecord, self.summaries)

    def write_csv(self, path) -> None:
        with open(path, "w", newline="") as f:
            f.write(self.csv_text())

    def write_summary_csv(self, path) -> None:
        with open(path, "w", newline="") as f:
            f.write(self.summary_csv_text())


REPORT_HEADER = ",".join(f.name for f in fields(EvalRecord))


def _cell(value) -> str:
    """One CSV cell: None is empty, a bool true or false, a float (numpy's too)
    %.6g, and anything else its str."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (float, np.floating)):
        return f"{value:.6g}"
    return str(value)


def csv_lines(rows) -> str:
    """The one CSV writer: a line per row of values, each cell by _cell."""
    return "".join(",".join(map(_cell, row)) + "\n" for row in rows)


def _table(kind, records) -> str:
    """CSV text of records of dataclass kind: its field names, then a row per record."""
    names = [f.name for f in fields(kind)]
    return csv_lines([names, *([getattr(r, n) for n in names] for r in records)])


def _slices(n: int):
    """(lo, hi) of each slice of at most SLICE_ROWS rows, cut from 0."""
    for lo in range(0, n, SLICE_ROWS):
        yield lo, min(lo + SLICE_ROWS, n)


def predict_all(model: Model, images: np.ndarray) -> np.ndarray:
    """Predictions over a set, one slice at a time (see _slices)."""
    preds = np.empty(len(images), dtype=np.int64)
    for lo, hi in _slices(len(images)):
        preds[lo:hi] = model.predict(images[lo:hi])
    return preds


def eval_clean(model: Model, dataset: LabeledImageSet) -> float:
    """Fraction of correct predictions at the configured test activation."""
    if dataset.n == 0:
        raise ValueError("cannot evaluate an empty image set")
    return float((predict_all(model, dataset.images) == dataset.labels).mean())


class _CleanChunk:
    """A model that takes each pass at one slice's clean images only once.

    logits, predict and loss_input_grad on the slice's own images array (the
    same object) compute once, the gradient once per loss-target vector; any
    other input or attribute passes through to the model. So the configs of
    a grid task share fgsm's and stepll's gradients across epsilons, bim's first
    step, deepfool's clean labels and every eps=0 prediction. An attacked
    batch's prediction passes through once, into the batch's own preds.
    """

    def __init__(self, model: Model, images: np.ndarray):
        self.model, self.images = model, images
        self._logits, self._grads = None, {}

    def __getattr__(self, name):
        return getattr(self.model, name)

    def logits(self, images):
        if images is not self.images:
            return self.model.logits(images)
        if self._logits is None:
            self._logits = self.model.logits(images)
        return self._logits

    predict = Model.predict  # reads self.logits, so the cached logits answer it

    def loss_input_grad(self, images, targets):
        if images is not self.images:
            return self.model.loss_input_grad(images, targets)
        key = (targets.dtype.str, targets.tobytes())
        if key not in self._grads:
            self._grads[key] = self.model.loss_input_grad(images, targets)
        return self._grads[key]


def attack_all(model: Model, dataset: LabeledImageSet, configs):
    """Attack a set with every config, one slice at a time (see _slices): yields
    (clean, batches) per slice, its _CleanChunk over model and one lazy
    AdversarialBatch per config, clipped to the set's pixel range and seeded per image."""
    for lo, hi in _slices(dataset.n):
        clean = _CleanChunk(model, dataset.images[lo:hi])
        yield clean, map(partial(run_attack, clean, clean.images, dataset.labels[lo:hi],
                                 clip=dataset.pixel_range, index_base=lo), configs)


def _judge_slice(clean: _CleanChunk, batches, judges) -> np.ndarray:
    """(1 + configs, judges, rows) predictions on a slice, each batch's once it is
    crafted. The crafting model's are clean's and each batch's own cached preds; any
    other judge predicts through its own _CleanChunk, so its eps=0 row is its clean pass."""
    views = [clean if j is clean.model else _CleanChunk(j, clean.images) for j in judges]
    rows = [[view.predict(clean.images) for view in views]]
    rows += ([batch.preds if view is clean else view.predict(batch.images) for view in views]
             for batch in batches)
    return np.array(rows)


def eval_under_attack(model: Model, dataset: LabeledImageSet, configs,
                      seed: int = 0) -> list[EvalRecord]:
    """Attack a set with every config: one record per config, in order.

    Records accuracy (untargeted) or success (targeted). Targeted success
    counts only images not already predicted as the target before the attack.
    """
    return _attack_grid([(model, dataset, [model])], configs, seed)


def _records(judge: Model, dataset: LabeledImageSet, configs, seed: int,
             preds) -> list[EvalRecord]:
    """judge's record per config, in order, from its (1 + configs, images)
    predictions: on the clean set, then on each config's attack."""
    clean_preds, *adv_preds = preds
    clean_acc = float((clean_preds == dataset.labels).mean())

    records = []
    for config, preds in zip(configs, adv_preds):
        adv_acc = float((preds == dataset.labels).mean())
        success = 1.0 - adv_acc
        if config.targeted:
            eligible = clean_preds != config.target_class
            hits = (preds == config.target_class) & eligible
            success = float(hits.sum() / eligible.sum()) if eligible.any() else 0.0
        records.append(eval_record(judge, dataset.name, dataset.n, config, clean_acc,
                                   adv_acc, success, seed))
    return records


def eval_record(model: Model, dataset_name: str, n_images: int,
                config: AttackConfig | None, clean_acc: float, adv_acc: float,
                success: float, seed: int) -> EvalRecord:
    """One report row for a model; config None is a clean, unattacked row."""
    if config is None:
        attack, targeted, target, steps, epsilon = "none", False, None, 0, 0.0
    else:
        attack, targeted, target = config.kind, config.targeted, config.target_class
        steps, epsilon = config.steps, config.budget
    return EvalRecord(
        dataset=dataset_name, model=model.spec.id, activation=model.activation,
        test_slope=float(model.slope), attack=attack, targeted=targeted, target_class=target,
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

    tasks may be an iterator; neither path keeps a task once it has run. While
    the pool runs, each worker's GEMMs stay on the worker's own thread, so the
    pool busies `threads` cores rather than `threads` times the BLAS thread
    count. No result depends on the BLAS thread count.
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
            slope_means[slope] = (float(np.mean(stressed or values)), float(np.mean(values)))
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


def _attack_grid(cells, configs, seed: int, threads: int = 1) -> list[EvalRecord]:
    """The one attack runner: records per cell, judge and config, in that order.

    A cell is (model, dataset, judges): model crafts each slice's attacks once
    per config and every judge predicts on them (a sweep's model judges itself;
    BPDA's judges are the defended model's slopes). One task runs per (cell,
    slice). The serial path builds each task as it runs it; with threads > 1,
    Executor.map builds and submits every task before the first result. Either
    way a cell whose attacks end early frees its thread for others' slices, and
    no slice's passes outlive its task.
    """
    if any(dataset.n == 0 for _, dataset, _ in cells):
        raise ValueError("cannot evaluate an empty image set")
    tasks = (partial(_judge_slice, clean, batches, judges)
             for model, dataset, judges in cells
             for clean, batches in attack_all(model, dataset, configs))
    results = iter(_run_cells(tasks, threads))
    records = []
    for _, dataset, judges in cells:
        preds = np.concatenate([next(results) for _ in _slices(dataset.n)], axis=2)
        for judge, judge_preds in zip(judges, preds.swapaxes(0, 1)):
            records += _records(judge, dataset, configs, seed, judge_preds)
    return records


def _report(records: list[EvalRecord], summary_metric: str | None = None) -> Report:
    """A grid's report: records in canonical order, and their summaries by metric."""
    records = sorted(records, key=EvalRecord.sort_key)
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
    cells = [(m, dataset, [m]) for m in map(model.with_slope, slopes)]
    configs = _grid_configs(attack_kinds, epsilons, seed, deepfool_iters)
    return _report(_attack_grid(cells, configs, seed, threads), "adv_acc")


def targeted_sweep(model: Model, dataset: LabeledImageSet, slopes, epsilons,
                   seed: int = 0, threads: int = 1) -> Report:
    """Targeted FGSM toward every class, per slope and epsilon (as slope_sweep)."""
    cells = [(m, dataset, [m]) for m in map(model.with_slope, slopes)]
    configs = [AttackConfig(kind="fgsm", epsilon=eps, target_class=target, rng_seed=seed)
               for target in range(10) for eps in epsilons]
    return _report(_attack_grid(cells, configs, seed, threads), "attack_success")


def activation_swap(model: Model, dataset: LabeledImageSet, kinds,
                    epsilons, seed: int = 0, threads: int = 1) -> Report:
    """Evaluate substitute test-time activations under the one-step attack."""
    cells = [(m, dataset, [m]) for m in map(model.with_activation, kinds)]
    return _report(_attack_grid(cells, _grid_configs(("fgsm",), epsilons, seed), seed,
                                threads))


def scaling_experiment(model: Model, dataset: LabeledImageSet, factors,
                       clip: bool, epsilons, seed: int = 0,
                       threads: int = 1) -> Report:
    """Scale pixel values, then attack the scaled inputs at slope 1.

    Without clipping, the valid pixel range grows to [0, factor] and the
    attack clips to that range instead.
    """
    base = model.with_slope(1.0)
    cells = [(base, scale_pixels(dataset, f, clip), [base]) for f in factors]
    return _report(_attack_grid(cells, _grid_configs(("fgsm",), epsilons, seed), seed,
                                threads))


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
                v = velocity[name]
                v *= momentum
                v += grads[param]
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
    for lo, hi in _slices(train_set.n):
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
    grid). One grid cell crafts each slice's attacks once per config, and the
    original judges them at every slope, reading each clean slice's prediction,
    and so its eps=0 cells', from one pass per slope.
    """
    crafting = substitute.with_slope(1.0)
    cells = [(crafting, dataset, [original.with_slope(s) for s in slopes])]
    records = _attack_grid(cells, _grid_configs(attack_kinds, epsilons, seed), seed)
    return _report([replace(r, attack="bpda_" + r.attack) for r in records])


def export_features(model: Model, dataset: LabeledImageSet, path) -> None:
    """Write one CSV row per image: label, then penultimate-layer features."""
    if dataset.n == 0:
        raise ValueError("cannot export features of an empty image set")
    with open(path, "w", newline="") as f:
        for lo, hi in _slices(dataset.n):
            feats = penultimate_features(model, dataset.images[lo:hi])
            f.write(csv_lines([label, *row] for label, row in zip(dataset.labels[lo:hi], feats)))
