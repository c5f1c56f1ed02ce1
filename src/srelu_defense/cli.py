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
import os
import sys

from . import __version__
from . import experiments as ex
from .attacks import AttackConfig
from .autodiff import ACTIVATION_KINDS
from .data import DataFormatError, load_cifar10_bin, load_mnist_idx, take_first
from .experiments import SweepGrid, default_epsilons
from .models import (
    PARAMS_VERSION,
    ParamsFormatError,
    SlopeConfig,
    build_model,
    load_params,
    save_params,
)

CSV_SCHEMA_VERSION = 1

ARCH_ALIASES = {
    "mnist": "mnist_cnn",
    "cifar10": "cifar10_cnn1",
    "cifar10-cnn1": "cifar10_cnn1",
    "cifar10-cnn2": "cifar10_cnn2",
}

# option name -> (type tag, default, help); each subcommand declares only the
# options its handler reads
_COMMON = {
    "arch": ("str", None, "architecture id (mnist_cnn, cifar10_cnn1, cifar10_cnn2)"),
    "seed": ("int", None, "run seed (required; no wall-clock defaults)"),
    "out": ("str", None, "output directory"),
    "config": ("str", None, "key=value config file; flags override it"),
    "limit": ("int", None, "evaluate only the first N images"),
    "test_images": ("str", None, "IDX image file for evaluation"),
    "test_labels": ("str", None, "IDX label file for evaluation"),
    "test_batches": ("strs", None, "comma-separated CIFAR-10 test batch files"),
}

_TRAIN_DATA = {
    "train_images": ("str", None, "IDX image file for training"),
    "train_labels": ("str", None, "IDX label file for training"),
    "train_batches": ("strs", None, "comma-separated CIFAR-10 training batch files"),
}

_THREADS = {"threads": ("int", 1, "worker threads for independent grid cells")}

OPTIONS: dict[str, dict] = {
    "train": {
        **_COMMON, **_TRAIN_DATA,
        "epochs": ("int", None, "training epochs (default 5 mnist / 30 cifar)"),
        "lr": ("float", ex.TRAIN_DEFAULTS["lr"], "SGD learning rate"),
        "momentum": ("float", ex.TRAIN_DEFAULTS["momentum"], "SGD momentum"),
        "batch_size": ("int", ex.TRAIN_DEFAULTS["batch_size"], "minibatch size"),
        "train_slope": ("float", 1.0, "rectifier slope used during training"),
        "limit_train": ("int", None, "train on only the first N images"),
    },
    "eval": {
        **_COMMON,
        "params": ("str", None, "parameter file"),
        "slope": ("float", 1.0, "test-time rectifier slope"),
        "activation": ("str", "srelu", "test-time activation override"),
    },
    "attack": {
        **_COMMON,
        "params": ("str", None, "parameter file"),
        "attack_kind": ("str", None, "attack to run"),
        "epsilon": ("float", None, "L-infinity budget in pixels; the noise std for "
                                   "gaussian_noise; the pixel fraction for salt_pepper"),
        "steps": ("int", None, "iterations of bim/pgd, or the deepfool budget"),
        "step_size": ("float", None, "per-iteration step size (bim/pgd)"),
        "target": ("int", None, "target class (makes fgsm targeted)"),
        "noise_alpha": ("float", None, "rfgsm noise share of epsilon"),
        "overshoot": ("float", None, "deepfool overshoot"),
        "random_start": ("bool", None, "pgd random start (on by default)"),
        "slope": ("float", 1.0, "test-time rectifier slope"),
    },
    "sweep": {
        **_COMMON, **_THREADS,
        "params": ("str", None, "parameter file"),
        "attacks": ("strs", ",".join(ex.DEFAULT_ATTACK_KINDS), "attack kinds"),
        "slopes": ("floats", ",".join(str(s) for s in ex.DEFAULT_SLOPES), "slope grid"),
        "epsilons": ("floats", None, "epsilon grid (default depends on arch)"),
        "deepfool_iters": ("ints", ",".join(str(i) for i in ex.DEEPFOOL_ITER_GRID),
                           "deepfool iteration grid"),
    },
    "targeted-sweep": {
        **_COMMON, **_THREADS,
        "params": ("str", None, "parameter file"),
        "slopes": ("floats", ",".join(str(s) for s in ex.DEFAULT_SLOPES), "slope grid"),
        "epsilons": ("floats", None, "epsilon grid (default depends on arch)"),
    },
    "swap": {
        **_COMMON, **_THREADS,
        "params": ("str", None, "parameter file"),
        "kinds": ("strs", ",".join(ACTIVATION_KINDS), "substitute activations"),
        "epsilons": ("floats", None, "epsilon grid (default depends on arch)"),
    },
    "scale": {
        **_COMMON, **_THREADS,
        "params": ("str", None, "parameter file"),
        "factors": ("floats", ",".join(str(f) for f in ex.DEFAULT_SCALE_FACTORS),
                    "pixel scale factors"),
        "clip": ("bool", True, "clip scaled pixels back to [0, 1]"),
        "epsilons": ("floats", None, "epsilon grid (default depends on arch)"),
    },
    "bpda": {
        **_COMMON, **_TRAIN_DATA,
        "params": ("str", None, "parameter file of the defended model"),
        "epochs": ("int", 5, "substitute training epochs"),
        "attacks": ("strs", "fgsm", "attack kinds to craft on the substitute"),
        "slopes": ("floats", ",".join(str(s) for s in ex.DEFAULT_SLOPES), "slope grid"),
        "epsilons": ("floats", None, "epsilon grid (default depends on arch)"),
        "limit_train": ("int", None, "distill on only the first N training images"),
    },
    "export-features": {
        **_COMMON,
        "params": ("str", None, "parameter file"),
        "slope": ("float", 1.0, "test-time rectifier slope"),
    },
}

_REQUIRED = ("arch", "seed", "out")


class CliError(Exception):
    def __init__(self, stage: str, message: str):
        super().__init__(message)
        self.stage = stage


def _convert(tag: str, raw, option: str):
    if raw is None or not isinstance(raw, str):
        return raw
    try:
        if tag == "int":
            return int(raw)
        if tag == "float":
            return float(raw)
        if tag == "bool":
            low = raw.lower()
            if low in ("1", "true", "yes"):
                return True
            if low in ("0", "false", "no"):
                return False
            raise ValueError(f"not a boolean: {raw!r}")
        if tag == "floats":
            return tuple(float(x) for x in raw.split(",") if x.strip())
        if tag == "ints":
            return tuple(int(x) for x in raw.split(",") if x.strip())
        if tag == "strs":
            return tuple(x.strip() for x in raw.split(",") if x.strip())
        return raw
    except ValueError as e:
        raise CliError("config", f"bad value for {option}: {e}") from None


def _read_config_file(path) -> dict[str, str]:
    values = {}
    try:
        with open(path) as f:
            for lineno, line in enumerate(f, 1):
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                if "=" not in line:
                    raise CliError("config", f"{path}:{lineno}: expected key=value")
                key, _, value = line.partition("=")
                values[key.strip().replace("-", "_")] = value.strip()
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
        for name, (tag, _default, help_text) in options.items():
            flag = "--" + name.replace("_", "-")
            if tag == "bool":
                p.add_argument(flag, action=argparse.BooleanOptionalAction,
                               default=None, help=help_text)
            else:
                p.add_argument(flag, type=str, default=None, help=help_text)
    return parser


def parse_config(args: argparse.Namespace) -> dict:
    """Merge defaults, config file, and flags into one resolved mapping."""
    options = OPTIONS[args.command]
    file_values = _read_config_file(args.config) if args.config else {}
    for key in file_values:
        if key not in options:
            raise CliError("config", f"unknown config key {key!r}")

    resolved = {"command": args.command}
    for name, (tag, default, _help) in options.items():
        flag_value = getattr(args, name)
        if flag_value is not None:
            value = _convert(tag, flag_value, name) if isinstance(flag_value, str) else flag_value
        elif name in file_values:
            value = _convert(tag, file_values[name], name)
        else:
            value = _convert(tag, default, name) if isinstance(default, str) else default
        resolved[name] = value

    for name in _REQUIRED:
        if resolved.get(name) is None:
            raise CliError("config", f"missing required option: {name}")
    resolved["arch"] = ARCH_ALIASES.get(resolved["arch"], resolved["arch"])
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


def _is_idx(arch: str) -> bool:
    return arch.startswith("mnist")


def _load_split(cfg: dict, split: str):
    arch = cfg["arch"]
    if _is_idx(arch):
        images, labels = cfg.get(f"{split}_images"), cfg.get(f"{split}_labels")
        if not images or not labels:
            raise CliError(
                "load-data",
                f"missing --{split.replace('_', '-')}-images/--{split}-labels "
                f"for architecture {arch}",
            )
        name = "mnist" if split == "test" else "mnist_train"
        return load_mnist_idx(images, labels, name=name)
    batches = cfg.get(f"{split}_batches")
    if not batches:
        raise CliError("load-data", f"missing --{split}-batches for architecture {arch}")
    name = "cifar10" if split == "test" else "cifar10_train"
    return load_cifar10_bin(list(batches), name=name)


def _load_model(cfg: dict, slope: float = 1.0, activation: str = "srelu"):
    if not cfg.get("params"):
        raise CliError("load-params", "missing required option: params")
    model = load_params(cfg["params"], cfg["arch"]).with_slope(slope)
    if activation != "srelu":
        model = model.with_activation(activation)
    return model


def _limited(cfg: dict, dataset):
    limit = cfg.get("limit")
    if limit is not None and limit < dataset.n:
        return take_first(dataset, limit)
    return dataset


def _epsilons(cfg: dict) -> tuple:
    if cfg.get("epsilons") is not None:
        return cfg["epsilons"]
    return default_epsilons("mnist" if _is_idx(cfg["arch"]) else "cifar")


# ---------------------------------------------------------------------------
# command handlers


def _cmd_train(cfg: dict, outdir: str) -> None:
    train_set = _load_split(cfg, "train")
    if cfg.get("limit_train") is not None:
        train_set = take_first(train_set, min(cfg["limit_train"], train_set.n))
    epochs = cfg["epochs"]
    if epochs is None:
        epochs = 5 if _is_idx(cfg["arch"]) else 30

    slope_cfg = SlopeConfig(train_slope=cfg["train_slope"], test_slope=1.0)
    model = build_model(cfg["arch"], cfg["seed"], slope_cfg)
    log: list = []
    ex.train(model, train_set, epochs, lr=cfg["lr"], momentum=cfg["momentum"],
             batch_size=cfg["batch_size"], seed=cfg["seed"], epoch_log=log)
    save_params(model, os.path.join(outdir, "model.bin"))
    with open(os.path.join(outdir, "training_log.csv"), "w", newline="") as f:
        f.write("epoch,mean_loss\n")
        for epoch, mean_loss in log:
            f.write(f"{epoch},{mean_loss:.6g}\n")

    if cfg.get("test_images" if _is_idx(cfg["arch"]) else "test_batches"):
        test_set = _limited(cfg, _load_split(cfg, "test"))
        acc = ex.eval_clean(model.with_slope(1.0), test_set)
        with open(os.path.join(outdir, "test_accuracy.txt"), "w") as f:
            f.write(f"clean_acc={acc:.6g}\n")
        print(f"test accuracy: {acc:.4f}")


def _cmd_eval(cfg: dict, outdir: str) -> None:
    model = _load_model(cfg, cfg["slope"], cfg["activation"])
    dataset = _limited(cfg, _load_split(cfg, "test"))
    acc = ex.eval_clean(model, dataset)
    record = ex.eval_record(model, dataset.name, dataset.n, None, acc, acc, 0.0,
                            cfg["seed"])
    ex.Report(records=[record]).write_csv(os.path.join(outdir, "report.csv"))
    print(f"clean accuracy: {acc:.4f}")


def _attack_config(cfg: dict) -> AttackConfig:
    kind = cfg.get("attack_kind")
    if not kind:
        raise CliError("attack", "missing required option: attack_kind")
    return AttackConfig(
        kind=kind, epsilon=cfg["epsilon"], steps=cfg["steps"],
        step_size=cfg["step_size"], target_class=cfg["target"], rng_seed=cfg["seed"],
        overshoot=cfg["overshoot"], noise_alpha=cfg["noise_alpha"],
        random_start=cfg["random_start"],
    )


def _cmd_attack(cfg: dict, outdir: str) -> None:
    config = _attack_config(cfg)
    model = _load_model(cfg, cfg["slope"])
    if cfg.get("limit") is None:
        cfg = {**cfg, "limit": 2000}  # default budget for one-off attack evaluations
    dataset = _limited(cfg, _load_split(cfg, "test"))
    record = ex.eval_under_attack(model, dataset, config, seed=cfg["seed"])
    ex.Report(records=[record]).write_csv(os.path.join(outdir, "report.csv"))
    print(f"clean {record.clean_acc:.4f} -> adversarial {record.adv_acc:.4f}")


def _cmd_sweep(cfg: dict, outdir: str) -> None:
    if not cfg["attacks"]:
        raise CliError("config", "attack list is empty")
    model = _load_model(cfg)
    dataset = _limited(cfg, _load_split(cfg, "test"))
    grid = SweepGrid(slopes=cfg["slopes"], epsilons=_epsilons(cfg),
                     attack_kinds=cfg["attacks"], deepfool_iters=cfg["deepfool_iters"])
    report = ex.slope_sweep(model, dataset, grid, seed=cfg["seed"],
                            threads=cfg["threads"])
    report.write_csv(os.path.join(outdir, "report.csv"))
    report.write_summary_csv(os.path.join(outdir, "summary.csv"))


def _cmd_targeted_sweep(cfg: dict, outdir: str) -> None:
    model = _load_model(cfg)
    dataset = _limited(cfg, _load_split(cfg, "test"))
    grid = SweepGrid(slopes=cfg["slopes"], epsilons=_epsilons(cfg),
                     attack_kinds=("fgsm",))
    report = ex.targeted_sweep(model, dataset, grid, seed=cfg["seed"],
                               threads=cfg["threads"])
    report.write_csv(os.path.join(outdir, "report.csv"))
    report.write_summary_csv(os.path.join(outdir, "summary.csv"))


def _cmd_swap(cfg: dict, outdir: str) -> None:
    if not cfg["kinds"]:
        raise CliError("config", "activation list is empty")
    model = _load_model(cfg)
    dataset = _limited(cfg, _load_split(cfg, "test"))
    report = ex.activation_swap(model, dataset, cfg["kinds"], _epsilons(cfg),
                                seed=cfg["seed"], threads=cfg["threads"])
    report.write_csv(os.path.join(outdir, "report.csv"))


def _cmd_scale(cfg: dict, outdir: str) -> None:
    model = _load_model(cfg)
    dataset = _limited(cfg, _load_split(cfg, "test"))
    report = ex.scaling_experiment(model, dataset, cfg["factors"], cfg["clip"],
                                   _epsilons(cfg), seed=cfg["seed"],
                                   threads=cfg["threads"])
    report.write_csv(os.path.join(outdir, "report.csv"))


def _cmd_bpda(cfg: dict, outdir: str) -> None:
    if not cfg["attacks"]:
        raise CliError("config", "attack list is empty")
    model = _load_model(cfg)
    train_set = _load_split(cfg, "train")
    if cfg.get("limit_train") is not None:
        train_set = take_first(train_set, min(cfg["limit_train"], train_set.n))
    test_set = _limited(cfg, _load_split(cfg, "test"))

    substitute = ex.bpda_train_substitute(model, train_set, cfg["epochs"], cfg["seed"])
    save_params(substitute, os.path.join(outdir, "substitute.bin"))
    report = ex.bpda_transfer_eval(model, substitute, test_set, cfg["slopes"],
                                   _epsilons(cfg), attack_kinds=cfg["attacks"],
                                   seed=cfg["seed"])
    report.write_csv(os.path.join(outdir, "report.csv"))


def _cmd_export_features(cfg: dict, outdir: str) -> None:
    model = _load_model(cfg, cfg["slope"])
    dataset = _limited(cfg, _load_split(cfg, "test"))
    ex.export_features(model, dataset, os.path.join(outdir, "features.csv"))


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


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    stage = "config"
    try:
        cfg = parse_config(args)
        outdir = _write_run_dir(cfg)
        stage = args.command
        _HANDLERS[args.command](cfg, outdir)
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
