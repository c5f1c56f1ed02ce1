"""Command-line entry point.

Options resolve in three layers: built-in defaults, then a key=value config
file, then explicit flags. Every run directory receives the fully resolved
configuration and, once the command has succeeded, a manifest with the seed
and format versions, which is enough to reproduce the output byte for byte;
a run directory without a manifest is a failed run. Seeds are mandatory; nothing
falls back to wall-clock state.
"""

from __future__ import annotations

import argparse
import ctypes
import math
import os
import sys
from dataclasses import replace

from . import __version__
from . import experiments as ex
from .attacks import _ATTACKS, AttackConfig
from .autodiff import _ACTIVATIONS, ACTIVATION_KINDS
from .data import DataFormatError, load_cifar10_bin, load_mnist_idx, take_first
from .models import (
    PARAMS_VERSION,
    ParamsFormatError,
    build_model,
    check_slope_applies,
    load_params,
    resolve_arch,
    save_params,
)

CSV_SCHEMA_VERSION = 1

ARCH_ALIASES = {
    "mnist": "mnist_cnn",
    "cifar10": "cifar10_cnn1",
    "cifar10-cnn1": "cifar10_cnn1",
    "cifar10-cnn2": "cifar10_cnn2",
}


def _bool(raw) -> bool:
    low = str(raw).lower()  # flags arrive as bools, config-file values as text
    if low in ("1", "true", "yes"):
        return True
    if low in ("0", "false", "no"):
        return False
    raise ValueError(f"not a boolean: {raw!r}")


def _arch(raw: str) -> str:
    """Converter for an architecture id or alias; an unknown id is an error."""
    return resolve_arch(ARCH_ALIASES.get(raw, raw)).id


def _list(item):
    """Converter for a comma-separated list of item values; an empty list is an
    error, and so is a repeated value (a grid's cell run twice, a file read twice)."""
    def convert(raw: str) -> tuple:
        values = tuple(item(x.strip()) for x in raw.split(",") if x.strip())
        if not values:
            raise ValueError("empty list")
        if len(set(values)) < len(values):
            raise ValueError(f"repeats a value, got {raw}")
        return values
    return convert


def _at_least(low: int):
    """Converter for an integer count that must be at least low."""
    def convert(raw: str) -> int:
        value = int(raw)
        if value < low:
            raise ValueError(f"must be at least {low}, got {value}")
        return value
    return convert


def _number(ok, what: str):
    """Converter for a number that ok accepts (described as what)."""
    def convert(raw: str) -> float:
        value = float(raw)
        if not ok(value):
            raise ValueError(f"must be {what}, got {value}")
        return value
    return convert


# a slope, a factor or a step size; not inf, since a zero pixel, activation or
# gradient sign times inf is nan
_positive = _number(lambda value: 0 < value < math.inf, "positive and finite")
_finite = _number(math.isfinite, "finite")  # an SGD setting; nan and inf fail every step
_non_negative = _number(lambda value: 0 <= value < math.inf, "non-negative and finite")


def _name_in(table, what: str):
    """Converter for a name that table holds (described as what)."""
    def convert(raw: str) -> str:
        if raw not in table:
            raise ValueError(f"unknown {what} {raw!r}; known: {sorted(table)}")
        return raw
    return convert


# the tables AttackConfig and Model check their kinds against
_attack_kind = _name_in(_ATTACKS, "attack kind")
_activation = _name_in(("srelu", *_ACTIVATIONS), "activation kind")


def _epsilon_grid(raw: str) -> tuple:
    """Converter for an epsilon grid: strictly ascending from 0 and within [0, 1]."""
    values = _list(float)(raw)
    ascending = all(a < b for a, b in zip(values, values[1:]))
    if values[0] != 0.0 or not ascending or not values[-1] <= 1.0:
        raise ValueError(f"must ascend strictly from 0 and stay within [0, 1], got {raw}")
    return values


# option name -> (converter, default, help); each subcommand declares only the
# options its handler reads. A dict default is keyed by the data family.
_COMMON = {
    "arch": (_arch, None, "architecture id (mnist_cnn, cifar10_cnn1, cifar10_cnn2)"),
    "seed": (_at_least(0), None, "run seed (required; no wall-clock defaults)"),
    "out": (str, None, "output directory"),
    "config": (str, None, "key=value config file; flags override it"),
    "limit": (_at_least(0), None, "evaluate only the first N images"),
    "test_images": (str, None, "IDX image file for evaluation"),
    "test_labels": (str, None, "IDX label file for evaluation"),
    "test_batches": (_list(str), None, "comma-separated CIFAR-10 test batch files"),
}

_FOREIGN_DATA = {"mnist": ("test_batches", "train_batches"),  # an error, not ignored
                 "cifar10": ("test_images", "test_labels", "train_images", "train_labels")}

_TRAIN_DATA = {
    "train_images": (str, None, "IDX image file for training"),
    "train_labels": (str, None, "IDX label file for training"),
    "train_batches": (_list(str), None, "comma-separated CIFAR-10 training batch files"),
}

_PARAMS = {"params": (str, None, "parameter file")}
_SLOPE = {"slope": (_positive, 1.0, "test-time rectifier slope")}
_THREADS = {"threads": (_at_least(1), 1, "worker threads for the grid's attack tasks")}

_EPSILON_GRID = {"epsilons": (_epsilon_grid,
                              {"mnist": ex.MNIST_EPSILONS, "cifar10": ex.CIFAR_EPSILONS},
                              "epsilon grid (default depends on arch)")}
_SLOPES = {"slopes": (_list(_positive), ex.DEFAULT_SLOPES, "slope grid")}

OPTIONS: dict[str, dict] = {
    "train": {
        **_COMMON, **_TRAIN_DATA,
        "epochs": (_at_least(0), {"mnist": 5, "cifar10": 30},
                   "training epochs (default 5 mnist / 30 cifar)"),
        "lr": (_finite, ex.TRAIN_DEFAULTS["lr"], "SGD learning rate"),
        "momentum": (_finite, ex.TRAIN_DEFAULTS["momentum"], "SGD momentum"),
        "batch_size": (_at_least(1), ex.TRAIN_DEFAULTS["batch_size"], "minibatch size"),
        "limit_train": (_at_least(0), None, "train on only the first N images"),
    },
    "eval": {
        **_COMMON, **_PARAMS, **_SLOPE,
        "activation": (_activation, "srelu", "test-time activation override"),
    },
    "attack": {
        **_COMMON,
        "limit": (_at_least(0), 2000, "evaluate only the first N images"),
        **_PARAMS,
        "attack_kind": (_attack_kind, None, "attack to run"),
        "epsilon": (float, None, "L-infinity budget in pixels; the noise std for "
                                 "gaussian_noise; the pixel fraction for salt_pepper"),
        "steps": (int, None, "iterations of bim/pgd, or the deepfool budget"),
        "step_size": (_positive, None, "per-iteration step size (bim/pgd)"),
        "target": (int, None, "target class (makes fgsm targeted)"),
        "noise_alpha": (float, None, "rfgsm noise share of epsilon"),
        "overshoot": (_non_negative, None, "deepfool overshoot"),
        "random_start": (_bool, None, "pgd random start (on by default)"),
        **_SLOPE,
    },
    "sweep": {
        **_COMMON, **_THREADS, **_SLOPES, **_EPSILON_GRID, **_PARAMS,
        "attacks": (_list(_attack_kind), ex.DEFAULT_ATTACK_KINDS, "attack kinds"),
        "deepfool_iters": (_list(_at_least(1)), ex.DEEPFOOL_ITER_GRID,
                           "deepfool iteration grid"),
    },
    "targeted-sweep": {**_COMMON, **_THREADS, **_SLOPES, **_EPSILON_GRID, **_PARAMS},
    "swap": {
        **_COMMON, **_THREADS, **_EPSILON_GRID, **_PARAMS,
        "kinds": (_list(_activation), ACTIVATION_KINDS, "substitute activations"),
    },
    "scale": {
        **_COMMON, **_THREADS, **_EPSILON_GRID, **_PARAMS,
        "factors": (_list(_positive), ex.DEFAULT_SCALE_FACTORS, "pixel scale factors"),
        "clip": (_bool, True, "clip scaled pixels back to [0, 1]"),
    },
    "bpda": {
        **_COMMON, **_TRAIN_DATA, **_SLOPES, **_EPSILON_GRID,
        "params": (str, None, "parameter file of the defended model"),
        "epochs": (_at_least(0), 5, "substitute training epochs"),
        "attacks": (_list(_attack_kind), ("fgsm",), "attack kinds to craft on the substitute"),
        "limit_train": (_at_least(0), None, "distill on only the first N training images"),
    },
    "export-features": {**_COMMON, **_PARAMS, **_SLOPE},
}

_REQUIRED = ("arch", "seed", "out")


class CliError(Exception):
    def __init__(self, stage: str, message: str):
        super().__init__(message)
        self.stage = stage


def _family(arch: str) -> str:
    """The data family an architecture reads: IDX "mnist" or binary "cifar10"."""
    return "mnist" if arch.startswith("mnist") else "cifar10"


def _read_config_file(path) -> dict[str, str]:
    values, seen_at = {}, {}
    try:
        with open(path) as f:
            for lineno, line in enumerate(f, 1):
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                if "=" not in line:
                    raise CliError("config", f"{path}:{lineno}: expected key=value")
                key, _, value = line.partition("=")
                key = key.strip().replace("-", "_")
                if key in seen_at:
                    raise CliError("config",
                                   f"{path}:{lineno}: {key!r} repeats line {seen_at[key]}")
                values[key], seen_at[key] = value.strip(), lineno
    except OSError as e:
        raise CliError("config", f"cannot read config file: {e}") from None
    return values


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="srelu-defense",
        description="Train small rectifier CNNs and evaluate the test-time "
                    "activation-slope defense against adversarial attacks.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for command, options in OPTIONS.items():
        p = sub.add_parser(command)
        for name, (convert, _default, help_text) in options.items():
            flag = "--" + name.replace("_", "-")
            if convert is _bool:
                p.add_argument(flag, action=argparse.BooleanOptionalAction,
                               default=None, help=help_text)
            else:
                p.add_argument(flag, default=None, help=help_text)
    return parser


def parse_config(args: argparse.Namespace) -> dict:
    """Merge defaults, config file, and flags into one converted, checked mapping.

    Every option the command declares gets its value here, per-architecture
    defaults included, so config_resolved.txt records what the run used.
    """
    options = OPTIONS[args.command]
    file_values = _read_config_file(args.config) if args.config else {}
    for key in file_values:
        if key not in options or key == "config":  # a config file names no other
            raise CliError("config", f"unknown config key {key!r}")

    resolved = {"command": args.command}
    for name, (convert, _default, _help) in options.items():
        raw = getattr(args, name)
        if raw is None:
            raw = file_values.get(name)
        try:
            resolved[name] = None if raw is None else convert(raw)
        except ValueError as e:
            raise CliError("config", f"bad value for {name}: {e}") from None

    for name in _REQUIRED:
        if resolved[name] is None:
            raise CliError("config", f"missing required option: {name}")
    family = _family(resolved["arch"])
    for name, (_convert, default, _help) in options.items():
        if resolved[name] is None:
            resolved[name] = default[family] if isinstance(default, dict) else default
        elif name in _FOREIGN_DATA[family]:
            raise CliError("config", f"--{name.replace('_', '-')} is not read by "
                                     f"architecture {resolved['arch']}, which reads {family} data")
    if "activation" in resolved:  # eval's pair; main reports the ValueError as a config error
        check_slope_applies(resolved["slope"], resolved["activation"])
    if "attack_kind" in resolved:  # the attack command's attack, checked the same way
        _attack_config(resolved)
    return resolved


def _format_value(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (tuple, list)):
        return ",".join(_format_value(v) for v in value)
    return str(value)


def _write_run_dir(cfg: dict) -> str:
    outdir = cfg["out"]
    os.makedirs(outdir, exist_ok=True)
    if os.path.exists(manifest := os.path.join(outdir, "manifest.txt")):
        os.remove(manifest)  # an earlier run's: this run writes its own once it succeeds
    lines = [f"{k}={_format_value(v)}" for k, v in sorted(cfg.items()) if k != "config"]
    with open(os.path.join(outdir, "config_resolved.txt"), "w") as f:
        f.write("\n".join(lines) + "\n")
    return outdir


def _write_manifest(cfg: dict, outdir: str) -> None:
    with open(os.path.join(outdir, "manifest.txt"), "w") as f:
        f.write(f"command={cfg['command']}\n")
        f.write(f"package_version={__version__}\n")
        f.write(f"params_format_version={PARAMS_VERSION}\n")
        f.write(f"csv_schema_version={CSV_SCHEMA_VERSION}\n")
        f.write(f"seed={cfg['seed']}\n")


def _load_split(cfg: dict, split: str):
    """The test or train split, cut to --limit or --limit-train when smaller."""
    arch, family = cfg["arch"], _family(cfg["arch"])
    load, kinds = ((load_mnist_idx, ("images", "labels")) if family == "mnist"
                   else (load_cifar10_bin, ("batches",)))
    paths = [cfg.get(f"{split}_{kind}") for kind in kinds]
    missing = " and ".join(f"--{split}-{kind}" for kind, path in zip(kinds, paths) if not path)
    if missing:
        raise CliError("load-data", f"missing {missing} for architecture {arch}")
    dataset = load(*paths, name=family if split == "test" else f"{family}_train")
    limit = cfg.get("limit" if split == "test" else "limit_train")
    if limit is not None and limit < dataset.n:
        return take_first(dataset, limit)
    return dataset


def _load_model(cfg: dict):
    """The parameter file's model at the command's --slope and --activation, if any."""
    if not cfg.get("params"):
        raise CliError("load-params", "missing required option: params")
    return replace(load_params(cfg["params"], cfg["arch"]), slope=cfg.get("slope", 1.0),
                   activation=cfg.get("activation", "srelu"))


# ---------------------------------------------------------------------------
# command handlers: each reads only cfg and returns the Report to write, if any


def _cmd_train(cfg: dict, outdir: str) -> None:
    train_set = _load_split(cfg, "train")
    tested = cfg["test_images"] or cfg["test_labels"] or cfg["test_batches"]
    test_set = _load_split(cfg, "test") if tested else None  # checked before training
    model = build_model(cfg["arch"], cfg["seed"])
    losses = ex.train(model, train_set, cfg["epochs"], lr=cfg["lr"],
                      momentum=cfg["momentum"], batch_size=cfg["batch_size"],
                      seed=cfg["seed"])
    save_params(model, os.path.join(outdir, "model.bin"))
    with open(os.path.join(outdir, "training_log.csv"), "w", newline="") as f:
        f.write(ex.csv_lines([("epoch", "mean_loss"), *enumerate(losses)]))

    if test_set is not None:
        acc = ex.eval_clean(model, test_set)
        with open(os.path.join(outdir, "test_accuracy.txt"), "w") as f:
            f.write(f"clean_acc={acc:.6g}\n")
        print(f"test accuracy: {acc:.4f}")


def _cmd_eval(cfg: dict, outdir: str) -> ex.Report:
    model = _load_model(cfg)
    dataset = _load_split(cfg, "test")
    acc = ex.eval_clean(model, dataset)
    print(f"clean accuracy: {acc:.4f}")
    return ex.Report(records=[ex.eval_record(model, dataset.name, dataset.n, None,
                                             acc, acc, 0.0, cfg["seed"])])


def _attack_config(cfg: dict) -> AttackConfig:
    if cfg["attack_kind"] is None:
        raise CliError("config", "missing required option: attack_kind")
    return AttackConfig(
        kind=cfg["attack_kind"], epsilon=cfg["epsilon"], steps=cfg["steps"],
        step_size=cfg["step_size"], target_class=cfg["target"], rng_seed=cfg["seed"],
        overshoot=cfg["overshoot"], noise_alpha=cfg["noise_alpha"],
        random_start=cfg["random_start"],
    )


def _cmd_attack(cfg: dict, outdir: str) -> ex.Report:
    config = _attack_config(cfg)
    model = _load_model(cfg)
    [record] = ex.eval_under_attack(model, _load_split(cfg, "test"), [config],
                                    seed=cfg["seed"])
    print(f"clean {record.clean_acc:.4f} -> adversarial {record.adv_acc:.4f}")
    return ex.Report(records=[record])


def _cmd_sweep(cfg: dict, outdir: str) -> ex.Report:
    return ex.slope_sweep(_load_model(cfg), _load_split(cfg, "test"), cfg["slopes"],
                          cfg["epsilons"], cfg["attacks"], cfg["deepfool_iters"],
                          seed=cfg["seed"], threads=cfg["threads"])


def _cmd_targeted_sweep(cfg: dict, outdir: str) -> ex.Report:
    return ex.targeted_sweep(_load_model(cfg), _load_split(cfg, "test"), cfg["slopes"],
                             cfg["epsilons"], seed=cfg["seed"], threads=cfg["threads"])


def _cmd_swap(cfg: dict, outdir: str) -> ex.Report:
    return ex.activation_swap(_load_model(cfg), _load_split(cfg, "test"), cfg["kinds"],
                              cfg["epsilons"], seed=cfg["seed"], threads=cfg["threads"])


def _cmd_scale(cfg: dict, outdir: str) -> ex.Report:
    return ex.scaling_experiment(_load_model(cfg), _load_split(cfg, "test"), cfg["factors"],
                                 cfg["clip"], cfg["epsilons"], seed=cfg["seed"],
                                 threads=cfg["threads"])


def _cmd_bpda(cfg: dict, outdir: str) -> ex.Report:
    model = _load_model(cfg)
    train_set = _load_split(cfg, "train")
    test_set = _load_split(cfg, "test")
    if test_set.n == 0:  # before the distillation, not after it
        raise ValueError("cannot evaluate an empty image set")
    substitute = ex.bpda_train_substitute(model, train_set, cfg["epochs"], cfg["seed"])
    save_params(substitute, os.path.join(outdir, "substitute.bin"))
    return ex.bpda_transfer_eval(model, substitute, test_set, cfg["slopes"],
                                 cfg["epsilons"], attack_kinds=cfg["attacks"],
                                 seed=cfg["seed"])


def _cmd_export_features(cfg: dict, outdir: str) -> None:
    ex.export_features(_load_model(cfg), _load_split(cfg, "test"),
                       os.path.join(outdir, "features.csv"))


_HANDLERS = {
    "train": _cmd_train,
    "eval": _cmd_eval,
    "attack": _cmd_attack,
    "sweep": _cmd_sweep,
    "targeted-sweep": _cmd_targeted_sweep,
    "swap": _cmd_swap,
    "scale": _cmd_scale,
    "bpda": _cmd_bpda,
    "export-features": _cmd_export_features,
}


_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3  # glibc's mallopt parameters


def _keep_heap_pages() -> bool:
    """Have glibc's allocator keep freed heap pages for the next pass: serve
    blocks under 32 MiB from the heap, and give memory back to the kernel only
    past 64 MiB free at its top. Left alone, it returns a pass's freed
    temporaries and faults them back in on the next pass. This is the one
    guard against those page faults: autodiff's ops keep no buffer of their
    own. False, and nothing set, where libc has no mallopt."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError, TypeError):
        return False
    mallopt.argtypes, mallopt.restype = [ctypes.c_int, ctypes.c_int], ctypes.c_int
    return (mallopt(_M_TRIM_THRESHOLD, 64 << 20) == 1
            and mallopt(_M_MMAP_THRESHOLD, 32 << 20) == 1)


def main(argv=None) -> int:
    _keep_heap_pages()
    args = build_parser().parse_args(argv)
    stage = "config"
    try:
        cfg = parse_config(args)
        outdir = _write_run_dir(cfg)
        stage = args.command
        report = _HANDLERS[args.command](cfg, outdir)
        if report is not None:
            report.write_csv(os.path.join(outdir, "report.csv"))
            if report.summaries:
                report.write_summary_csv(os.path.join(outdir, "summary.csv"))
        _write_manifest(cfg, outdir)
        return 0
    except CliError as e:
        print(f"error in {e.stage}: {e}", file=sys.stderr)
        return 1
    except (DataFormatError, ParamsFormatError, OSError, ValueError) as e:
        print(f"error in {stage}: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
