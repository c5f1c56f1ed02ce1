"""End-to-end command-line tests on small synthetic datasets."""

import ast
import csv
import importlib.util
import json
import os
import re
import subprocess
import sys
import time
import warnings

import numpy as np
import pytest

from srelu_defense import cli
from srelu_defense import experiments as ex
from srelu_defense.models import Model, build_model

from helpers import (
    params_file_bytes,
    synthetic_cifar,
    synthetic_split,
    write_cifar_file,
    write_idx_files,
)

REPO_DIR = os.path.join(os.path.dirname(__file__), "..")
SRC_DIR = os.path.join(REPO_DIR, "src")
GRID_COMMANDS = ("sweep", "targeted-sweep", "swap", "scale")
# the attack command checks its attack when its config is parsed
CHECKED_AT_CONFIG = {"attack": ["--attack-kind", "fgsm", "--epsilon", "0.1"]}


@pytest.fixture(scope="module")
def idx_data(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli_data")
    train, test = synthetic_split(400, 120, seed=31)
    train_paths = write_idx_files(train, root, prefix="train")
    test_paths = write_idx_files(test, root, prefix="test")
    return {"train": train_paths, "test": test_paths}


@pytest.fixture(scope="module")
def saved_model(tmp_path_factory, idx_data):
    """A briefly trained model checkpoint for the evaluation commands."""
    root = tmp_path_factory.mktemp("cli_model")
    out = os.path.join(root, "run")
    code = cli.main([
        "train", "--arch", "mnist_cnn",
        "--train-images", idx_data["train"][0],
        "--train-labels", idx_data["train"][1],
        "--epochs", "2", "--seed", "7", "--out", out,
    ])
    assert code == 0
    return os.path.join(out, "model.bin")


def train_args(idx_data):
    return ["--train-images", idx_data["train"][0], "--train-labels", idx_data["train"][1]]


def eval_args(idx_data, extra):
    return [
        "--arch", "mnist_cnn",
        "--test-images", idx_data["test"][0],
        "--test-labels", idx_data["test"][1],
        *extra,
    ]


# ---------------------------------------------------------------------------
# argument handling


def test_missing_seed_names_it(idx_data, tmp_path, capsys):
    code = cli.main(["train", "--arch", "mnist_cnn",
                     "--train-images", idx_data["train"][0],
                     "--train-labels", idx_data["train"][1],
                     "--out", str(tmp_path / "o")])
    assert code == 1
    assert "seed" in capsys.readouterr().err


def test_unknown_subcommand_exits_2():
    with pytest.raises(SystemExit) as exc:
        cli.main(["explode"])
    assert exc.value.code == 2


def test_unknown_flag_exits_2():
    with pytest.raises(SystemExit) as exc:
        cli.main(["train", "--no-such-flag", "1"])
    assert exc.value.code == 2


@pytest.mark.parametrize("argv", [
    ["eval", "--threads", "2"],
    ["train", "--threads", "2"],
    ["sweep", "--train-images", "x"],
    ["train", "--train-slope", "5"],
])
def test_option_the_command_does_not_read_exits_2(argv):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2


def test_every_command_has_a_handler():
    assert set(cli.OPTIONS) == set(cli._HANDLERS)


@pytest.mark.parametrize("command", sorted(cli.OPTIONS))
def test_config_resolved_lists_exactly_the_command_options(command, tmp_path, capsys):
    # the handler fails fast (no data or parameters), after the run dir is written
    out = tmp_path / "o"
    code = cli.main([command, "--arch", "mnist_cnn", "--seed", "1", "--out", str(out),
                     *CHECKED_AT_CONFIG.get(command, [])])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error in ") and not err.startswith("error in config:")
    lines = (out / "config_resolved.txt").read_text().splitlines()
    keys = {line.partition("=")[0] for line in lines}
    assert len(keys) == len(lines)
    assert keys == set(cli.OPTIONS[command]) - {"config"} | {"command"}
    assert ("threads" in keys) == (command in GRID_COMMANDS)
    assert ("train_images" in keys) == (command in ("train", "bpda"))
    values = dict(line.partition("=")[::2] for line in lines)
    assert all(values[name] for name, (_c, default, _h) in cli.OPTIONS[command].items()
               if default is not None)


@pytest.mark.parametrize("command, arch, expected", [
    ("train", "mnist_cnn", "epochs=5"),
    ("train", "cifar10_cnn1", "epochs=30"),
    ("sweep", "mnist_cnn", "epsilons=0.0,0.05,0.1,0.15,0.2,0.25,0.3"),
    ("sweep", "cifar10_cnn1", "epsilons=0.0,0.02,0.04,0.06,0.08,0.1"),
    ("attack", "mnist_cnn", "limit=2000"),
    ("eval", "cifar10", "arch=cifar10_cnn1"),  # an alias resolves to its id
])
def test_config_resolved_records_the_default_used(command, arch, expected, tmp_path,
                                                   capsys):
    # the handler fails fast (no data or parameters), after the run dir is written
    out = tmp_path / "o"
    assert cli.main([command, "--arch", arch, "--seed", "1", "--out", str(out),
                     *CHECKED_AT_CONFIG.get(command, [])]) == 1
    assert not capsys.readouterr().err.startswith("error in config:")
    assert expected in (out / "config_resolved.txt").read_text().splitlines()


def test_config_file_value_beats_the_architecture_default(tmp_path, capsys):
    config = tmp_path / "run.cfg"
    config.write_text("epochs=7\n")
    out = tmp_path / "o"
    code = cli.main(["train", "--arch", "mnist_cnn", "--config", str(config),
                     "--seed", "1", "--out", str(out)])
    assert code == 1 and capsys.readouterr().err.startswith("error in load-data:")
    assert "epochs=7" in (out / "config_resolved.txt").read_text().splitlines()


def _traced(tmp_path, name, argv):
    """The trace of perfbench/tracer.py run on one command, in its own process."""
    trace = tmp_path / f"{name}.json"
    code = ("import sys; sys.path.insert(0, 'perfbench'); import tracer; "
            "sys.exit(tracer.main(sys.argv[1:]))")
    argv = [str(trace), *argv, "--seed", "1", "--out", str(tmp_path / name)]
    env = dict(os.environ, PYTHONPATH=SRC_DIR)
    proc = subprocess.run([sys.executable, "-c", code, *argv], cwd=REPO_DIR,
                          capture_output=True, env=env, text=True)
    assert proc.returncode == 0, proc.stderr
    return json.loads(trace.read_text())


def _traced_sweep(idx_data, saved_model, tmp_path, name, sweep_args):
    return _traced(tmp_path, name, ["sweep", *eval_args(idx_data, [
        "--params", saved_model, *sweep_args, "--limit", "8"])])


def _perfbench_tracer():
    spec = importlib.util.spec_from_file_location(
        "tracer", os.path.join(REPO_DIR, "perfbench", "tracer.py"))
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def test_tracer_patches_only_names_the_package_has(saved_model, idx_data, tmp_path):
    # perfbench/tracer.py wraps package functions by name and its observers
    # read result fields (run_attack's success on deepfool runs); a renamed
    # one breaks --trace 1, so a traced deepfool sweep runs here
    trace = _traced_sweep(idx_data, saved_model, tmp_path, "deepfool", [
        "--attacks", "deepfool", "--deepfool-iters", "1", "--slopes", "1"])
    assert trace["counters"]["deepfool.images"] == 8

    # it times one cell per eval_under_attack call; the grid's pool runs
    # (variant, slice) tasks instead, so a sweep has none. An eps=0 cell takes
    # no gradient, and fgsm shares its clean gradient with bim's first step,
    # so each slope takes 1 + 9 while some image's gradient moves it
    trace = _traced_sweep(idx_data, saved_model, tmp_path, "linf", [
        "--attacks", "fgsm,bim", "--slopes", "1,2", "--epsilons", "0,0.1"])
    metrics = _perfbench_tracer().analyse(trace, 0.0, 0.0)
    assert metrics["experiments.cells"] == 0
    assert metrics["models.input_grad.calls"] == 2 * (1 + 9)


def test_tracer_times_each_training_step(idx_data, tmp_path):
    # the train-cifar workload reads the wrappers of experiments._forward and
    # BatchIterator.epoch_batches: one batch of 64 is one step, one forward
    # and one reverse pass through mnist_cnn's two convolutions
    trace = _traced(tmp_path, "train", ["train", "--arch", "mnist_cnn",
                                        *train_args(idx_data), "--limit-train", "64",
                                        "--epochs", "1"])
    tracer = _perfbench_tracer()
    metrics = tracer.analyse(trace, 0.0, 0.0)
    assert metrics["experiments.train.steps"] == 1
    assert metrics["autodiff.conv2d.bwd_calls"] == 2
    _, spans = tracer.self_times(trace["names"], trace["threads"])
    assert [name for name, _, _ in spans].count("models.train_forward") == 1


def test_empty_attack_list_is_rejected(saved_model, idx_data, tmp_path, capsys):
    code = cli.main(["sweep", *eval_args(idx_data, [
        "--params", saved_model, "--attacks", "", "--seed", "1",
        "--out", str(tmp_path / "o"),
    ])])
    assert code == 1
    assert capsys.readouterr().err.startswith("error in config: bad value for attacks:")


@pytest.mark.parametrize("argv", [
    ["sweep", "--slopes", ""],
    ["sweep", "--attacks", "deepfool", "--deepfool-iters", ""],
    ["scale", "--factors", ""],
    ["swap", "--kinds", ""],
    ["bpda", "--attacks", ""],
], ids=["slopes", "deepfool-iters", "factors", "kinds", "bpda-attacks"])
def test_empty_list_is_a_bad_value(saved_model, idx_data, tmp_path, capsys, argv):
    out = tmp_path / "o"
    data = train_args(idx_data) if argv[0] == "bpda" else []
    code = cli.main([*argv, *eval_args(idx_data, [
        *data, "--params", saved_model, "--limit", "10", "--seed", "1", "--out", str(out),
    ])])
    assert code == 1
    assert capsys.readouterr().err.startswith("error in config: bad value for ")
    assert not (out / "report.csv").exists()
    assert not (out / "manifest.txt").exists()


@pytest.mark.parametrize("argv", [
    ["sweep", "--attacks", "fgsm", "--slopes", "1", "--epsilons", "0,0.1"],
    ["sweep", "--attacks", "fgsm,rfgsm", "--slopes", "1", "--epsilons", "0,0.1"],
    ["train", "--epochs", "1"],
], ids=["sweep-fgsm", "sweep-fgsm-rfgsm", "train"])
def test_negative_seed_is_rejected_before_the_run(saved_model, idx_data, tmp_path,
                                                  capsys, argv):
    data = (train_args(idx_data) if argv[0] == "train"
            else ["--params", saved_model, "--limit", "10"])
    out = tmp_path / "o"
    code = cli.main([*argv, *eval_args(idx_data, data), "--seed", "-1", "--out", str(out)])
    assert code == 1
    assert capsys.readouterr().err.startswith("error in config: bad value for seed:")
    assert not out.exists()


@pytest.mark.parametrize("command,option,value", [
    ("sweep", "threads", "-3"),
    ("sweep", "threads", "0"),
    ("train", "batch_size", "0"),
    ("train", "epochs", "-2"),
    ("eval", "limit", "-1"),
    ("train", "limit_train", "-5"),
    ("eval", "seed", "-1"),
    ("sweep", "slopes", "0,1"),
    ("bpda", "slopes", "-1"),
    ("eval", "slope", "0"),
    ("scale", "factors", "0"),
    # an infinite slope or factor: a zero pixel or activation times inf is nan
    ("sweep", "slopes", "1,inf"),
    ("eval", "slope", "inf"),
    ("scale", "factors", "inf"),
    ("swap", "epsilons", "0.1,0"),
    ("targeted-sweep", "epsilons", "0,1.5"),
    ("bpda", "epsilons", "0.1,0.2"),
    ("sweep", "deepfool_iters", "0"),
    # a non-finite attack step: sign 0 times an infinite step is nan
    ("attack", "step_size", "inf"),
    ("attack", "step_size", "nan"),
    ("attack", "step_size", "0"),
    ("attack", "overshoot", "inf"),
    ("attack", "overshoot", "nan"),
    ("attack", "overshoot", "-0.02"),
    *(("train", option, value) for option in ("lr", "momentum")
      for value in ("nan", "inf", "-inf")),
    ("sweep", "attacks", "fgsm,cw"),
    ("bpda", "attacks", "cw"),
    ("swap", "kinds", "bogus"),
    ("eval", "activation", "bogus"),
    # a repeated value: a grid would run one cell twice, a batch file load twice
    ("sweep", "epsilons", "0,0.1,0.1"),
    ("sweep", "slopes", "1,10,1.0"),
    ("bpda", "slopes", "2,2"),
    ("sweep", "deepfool_iters", "1,5,1"),
    ("scale", "factors", "0.5,0.5"),
    ("swap", "kinds", "tanh,elu,tanh"),
    ("sweep", "attacks", "fgsm,bim,fgsm"),
    ("bpda", "attacks", "fgsm,fgsm"),
    ("train", "train_batches", "data_batch_1.bin,data_batch_1.bin"),
])
def test_count_below_its_bound_is_a_bad_value(command, option, value, tmp_path, capsys):
    out = tmp_path / "o"
    values = {"arch": "mnist_cnn", "seed": "1", "out": str(out), option: value}
    # --name=value, so that a value like -inf is not read as a flag
    argv = [command] + [f"--{name.replace('_', '-')}={raw}" for name, raw in values.items()]
    assert cli.main(argv) == 1
    assert capsys.readouterr().err.startswith(f"error in config: bad value for {option}:")
    assert not out.exists()


def test_unknown_architecture_is_a_bad_value(tmp_path, capsys):
    out = tmp_path / "o"
    assert cli.main(["sweep", "--arch", "foo", "--seed", "1", "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith("error in config: bad value for arch:")
    assert not out.exists()


def test_flag_overrides_config_file(idx_data, saved_model, tmp_path, capsys):
    config = tmp_path / "run.cfg"
    config.write_text(
        "slope=2.0\n"
        "# comment line\n"
        f"params={saved_model}\n"
        "seed=5\n"
    )
    out = tmp_path / "out"
    code = cli.main(["eval", *eval_args(idx_data, [
        "--config", str(config), "--slope", "10.0", "--out", str(out),
    ])])
    assert code == 0
    echoed = (out / "config_resolved.txt").read_text()
    assert "slope=10.0" in echoed
    assert "seed=5" in echoed  # config value survives where no flag given


def test_unknown_config_key_is_rejected(idx_data, tmp_path, capsys):
    # a config file cannot name another config file either
    for key, value in (("banana", "1"), ("config", tmp_path / "nonexistent" / "other.txt")):
        config = tmp_path / "bad.cfg"
        config.write_text(f"{key}={value}\n")
        out = tmp_path / "o"
        code = cli.main(["eval", *eval_args(idx_data, [
            "--config", str(config), "--seed", "1", "--out", str(out),
        ])])
        assert code == 1
        assert capsys.readouterr().err.startswith(
            f"error in config: unknown config key {key!r}")
        assert not out.exists()


@pytest.mark.parametrize("lines, message", [
    (["epochs=1", "lr=0.01", "epochs=2"], r":3: 'epochs' repeats line 1$"),
    (["batch-size=8", "batch_size=16"], r":2: 'batch_size' repeats line 1$"),
    (["epochs=1", "momentum"], r":2: expected key=value$"),
], ids=["epochs", "batch-size", "no-equals"])
def test_malformed_config_file_fails_at_config(idx_data, tmp_path, capsys, lines, message):
    config = tmp_path / "run.cfg"
    config.write_text("\n".join(lines) + "\n")
    out = tmp_path / "o"
    code = cli.main(["train", "--arch", "mnist_cnn", *train_args(idx_data),
                     "--config", str(config), "--seed", "1", "--out", str(out)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error in config: {config}:")
    assert re.search(message, err.rstrip("\n"))
    assert not out.exists()


def test_missing_config_file_fails_at_config(tmp_path, capsys):
    out = tmp_path / "o"
    code = cli.main(["eval", "--arch", "mnist_cnn", "--config", str(tmp_path / "none.cfg"),
                     "--seed", "1", "--out", str(out)])
    assert code == 1
    assert capsys.readouterr().err.startswith("error in config: cannot read config file:")
    assert not out.exists()


def test_bad_boolean_in_config_file_fails_at_config(tmp_path, capsys):
    config = tmp_path / "run.cfg"
    config.write_text("clip=maybe\n")
    out = tmp_path / "o"
    code = cli.main(["scale", "--arch", "mnist_cnn", "--config", str(config),
                     "--seed", "1", "--out", str(out)])
    assert code == 1
    assert capsys.readouterr().err == (
        "error in config: bad value for clip: not a boolean: 'maybe'\n")
    assert not out.exists()


FOREIGN_DATA = [("cifar10_cnn1", option) for option in
                ("test_images", "test_labels", "train_images", "train_labels")]
FOREIGN_DATA += [("mnist_cnn", option) for option in ("test_batches", "train_batches")]


@pytest.mark.parametrize("source", ["flag", "config-file"])
@pytest.mark.parametrize("command, arch, option", [
    (command, arch, option) for command in ("train", "eval", "bpda")
    for arch, option in FOREIGN_DATA if option in cli.OPTIONS[command]])
def test_data_option_of_the_other_family_fails_at_config(tmp_path, capsys, source,
                                                        command, arch, option):
    # an IDX file given to a CIFAR-10 architecture, or a binary batch to an
    # MNIST one, would be silently ignored; it is an error before any file is read
    flag = "--" + option.replace("_", "-")
    given = [flag, str(tmp_path / "none")]
    if source == "config-file":
        config = tmp_path / "run.cfg"
        config.write_text(f"{option}={tmp_path / 'none'}\n")
        given = ["--config", str(config)]
    out = tmp_path / "o"
    code = cli.main([command, "--arch", arch, *given, "--seed", "1", "--out", str(out)])
    assert code == 1
    family = "mnist" if arch == "mnist_cnn" else "cifar10"
    assert capsys.readouterr().err == (
        f"error in config: {flag} is not read by architecture {arch}, which reads {family} data\n")
    assert not out.exists()


def test_missing_data_file_fails_with_stage(tmp_path, capsys, saved_model):
    code = cli.main(["eval", "--arch", "mnist_cnn",
                     "--test-images", str(tmp_path / "nope"),
                     "--test-labels", str(tmp_path / "nope2"),
                     "--params", saved_model,
                     "--seed", "1", "--out", str(tmp_path / "o")])
    assert code == 1
    assert "error in eval" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# train / eval round trip


def test_train_writes_expected_artifacts(idx_data, tmp_path):
    out = tmp_path / "run"
    code = cli.main([
        "train", "--arch", "mnist_cnn",
        "--train-images", idx_data["train"][0],
        "--train-labels", idx_data["train"][1],
        "--test-images", idx_data["test"][0],
        "--test-labels", idx_data["test"][1],
        "--epochs", "1", "--seed", "3", "--out", str(out),
    ])
    assert code == 0
    assert (out / "model.bin").exists()
    log = (out / "training_log.csv").read_text().splitlines()
    assert log[0] == "epoch,mean_loss"
    assert len(log) == 2
    manifest = (out / "manifest.txt").read_text()
    assert "seed=3" in manifest and "params_format_version=1" in manifest
    assert (out / "test_accuracy.txt").exists()


@pytest.mark.parametrize("test_args, error", [
    (["--test-images", "test0"], "error in load-data: missing --test-labels for architecture"),
    (["--test-labels", "test1"], "error in load-data: missing --test-images for architecture"),
    (["--test-images", "train1", "--test-labels", "test1"], "error in train: bad magic"),
], ids=["no-labels", "no-images", "bad-magic"])
def test_train_checks_its_test_split_before_training(idx_data, tmp_path, capsys,
                                                     test_args, error):
    # a test flag asks for the test split, so a missing or malformed one fails
    # before any epoch; a label file where the images belong has a bad magic
    paths = {"test0": idx_data["test"][0], "test1": idx_data["test"][1],
             "train1": idx_data["train"][1]}
    out = tmp_path / "run"
    code = cli.main(["train", "--arch", "mnist_cnn", *train_args(idx_data),
                     *(paths.get(arg, arg) for arg in test_args),
                     "--limit-train", "64", "--epochs", "1", "--seed", "3", "--out", str(out)])
    assert code == 1
    assert capsys.readouterr().err.startswith(error)
    assert sorted(os.listdir(out)) == ["config_resolved.txt"]


def test_train_on_an_empty_set_saves_nothing(idx_data, tmp_path, capsys):
    out = tmp_path / "run"
    code = cli.main(["train", "--arch", "mnist_cnn", *train_args(idx_data),
                     "--limit-train", "0", "--epochs", "1", "--seed", "3", "--out", str(out)])
    assert code == 1
    assert capsys.readouterr().err == "error in train: cannot train on an empty image set\n"
    assert sorted(os.listdir(out)) == ["config_resolved.txt"]


def test_cifar_train_and_eval_read_binary_batches(tmp_path, capsys):
    train_path = write_cifar_file(synthetic_cifar(64, seed=8), tmp_path, "data_batch_1.bin")
    test_path = write_cifar_file(synthetic_cifar(20, seed=9), tmp_path, "test_batch.bin")
    run = tmp_path / "run"
    code = cli.main(["train", "--arch", "cifar10_cnn1", "--train-batches", train_path,
                     "--test-batches", test_path, "--epochs", "1", "--seed", "3",
                     "--out", str(run)])
    assert code == 0
    train_acc = (run / "test_accuracy.txt").read_text()
    assert train_acc.startswith("clean_acc=")
    out = tmp_path / "eval"
    code = cli.main(["eval", "--arch", "cifar10", "--params", str(run / "model.bin"),
                     "--test-batches", test_path, "--seed", "3", "--out", str(out)])
    assert code == 0
    with open(out / "report.csv", newline="") as f:
        [row] = list(csv.DictReader(f))
    assert (row["dataset"], row["model"], row["n_images"]) == ("cifar10", "cifar10_cnn1", "20")
    assert float(row["clean_acc"]) == float(train_acc.partition("=")[2])
    assert (out / "manifest.txt").exists()


# the divergence the test causes overflows float32 on its way to NaN
@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning",
                            "ignore:invalid value:RuntimeWarning")
def test_train_that_diverges_saves_nothing(idx_data, tmp_path, capsys):
    # a finite learning rate this large overflows the parameters within an
    # epoch; a non-finite one fails at the config stage
    out = tmp_path / "run"
    code = cli.main(["train", "--arch", "mnist_cnn", *train_args(idx_data),
                     "--lr", "1e30", "--epochs", "2", "--seed", "3", "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error in train: tensor 'conv1.w' holds non-finite values")
    assert "Traceback" not in err
    assert sorted(os.listdir(out)) == ["config_resolved.txt"]


def test_train_is_reproducible(idx_data, tmp_path):
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        code = cli.main([
            "train", "--arch", "mnist_cnn",
            "--train-images", idx_data["train"][0],
            "--train-labels", idx_data["train"][1],
            "--epochs", "1", "--seed", "11", "--out", str(out),
        ])
        assert code == 0
        outs.append((out / "model.bin").read_bytes())
    assert outs[0] == outs[1]


def test_eval_reports_clean_accuracy(idx_data, saved_model, tmp_path, capsys):
    out = tmp_path / "eval"
    code = cli.main(["eval", *eval_args(idx_data, [
        "--params", saved_model, "--seed", "1", "--out", str(out),
    ])])
    assert code == 0
    report = (out / "report.csv").read_text().splitlines()
    assert len(report) == 2
    assert report[1].split(",")[5] == "none"


def test_eval_slope_with_a_substitute_activation_is_an_error(idx_data, saved_model,
                                                            tmp_path, capsys):
    # a slope applies to the rectifier only; a tanh row must not claim slope 2.
    # The rule is a config check, so no run directory is written and the
    # parameter file is not read
    out = tmp_path / "eval"
    code = cli.main(["eval", *eval_args(idx_data, [
        "--params", saved_model, "--slope", "2", "--activation", "tanh",
        "--seed", "1", "--out", str(out),
    ])])
    assert code == 1
    assert capsys.readouterr().err.startswith("error in config:")
    assert not out.exists()


# ---------------------------------------------------------------------------
# attack and sweep determinism


def test_attack_command_single_record(idx_data, saved_model, tmp_path):
    out = tmp_path / "atk"
    code = cli.main(["attack", *eval_args(idx_data, [
        "--params", saved_model, "--attack-kind", "fgsm", "--epsilon", "0.2",
        "--slope", "1.0", "--seed", "2", "--out", str(out),
    ])])
    assert code == 0
    lines = (out / "report.csv").read_text().splitlines()
    assert len(lines) == 2
    assert lines[1].split(",")[5] == "fgsm"


def test_sweep_reruns_and_threads_are_byte_identical(idx_data, saved_model, tmp_path):
    reports = []
    for name, threads in (("s1", "1"), ("s2", "1"), ("s4", "4")):
        out = tmp_path / name
        code = cli.main(["sweep", *eval_args(idx_data, [
            "--params", saved_model,
            "--attacks", "fgsm,bim,rfgsm",
            "--slopes", "1,100",
            "--epsilons", "0,0.1,0.3",
            "--limit", "60",
            "--threads", threads,
            "--seed", "5", "--out", str(out),
        ])])
        assert code == 0
        reports.append(((out / "report.csv").read_bytes(),
                        (out / "summary.csv").read_bytes()))
    assert reports[0] == reports[1] == reports[2]


def test_sweep_cli_runs_as_subprocess(idx_data, saved_model, tmp_path):
    out = tmp_path / "sub"
    env = dict(os.environ, PYTHONPATH=SRC_DIR)
    args = ["sweep", "--arch", "mnist_cnn",
            "--test-images", idx_data["test"][0],
            "--test-labels", idx_data["test"][1],
            "--params", saved_model,
            "--attacks", "fgsm", "--slopes", "1", "--epsilons", "0,0.3",
            "--limit", "40", "--seed", "5"]
    proc = subprocess.run(
        [sys.executable, "-m", "srelu_defense.cli", *args, "--out", str(out)],
        capture_output=True, env=env, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    # a separate process reproduces the in-process bytes exactly
    local = tmp_path / "local"
    assert cli.main([*args, "--out", str(local)]) == 0
    assert (out / "report.csv").read_bytes() == (local / "report.csv").read_bytes()


# ---------------------------------------------------------------------------
# remaining subcommands, smoke level


def test_targeted_sweep_smoke(idx_data, saved_model, tmp_path):
    out = tmp_path / "tgt"
    code = cli.main(["targeted-sweep", *eval_args(idx_data, [
        "--params", saved_model, "--slopes", "1", "--epsilons", "0,0.2",
        "--limit", "30", "--seed", "5", "--out", str(out),
    ])])
    assert code == 0
    lines = (out / "report.csv").read_text().splitlines()
    assert len(lines) == 1 + 10 * 2


def test_swap_smoke(idx_data, saved_model, tmp_path):
    out = tmp_path / "swap"
    code = cli.main(["swap", *eval_args(idx_data, [
        "--params", saved_model, "--kinds", "tanh,sigmoid",
        "--epsilons", "0,0.2", "--limit", "30", "--seed", "5", "--out", str(out),
    ])])
    assert code == 0
    lines = (out / "report.csv").read_text().splitlines()
    assert len(lines) == 1 + 2 * 2


def test_scale_smoke(idx_data, saved_model, tmp_path):
    out = tmp_path / "scale"
    code = cli.main(["scale", *eval_args(idx_data, [
        "--params", saved_model, "--factors", "1,100", "--no-clip",
        "--epsilons", "0,0.2", "--limit", "30", "--seed", "5", "--out", str(out),
    ])])
    assert code == 0
    text = (out / "report.csv").read_text()
    assert "noclip" in text
    assert len(text.splitlines()) == 1 + 2 * 2


def test_bpda_smoke(idx_data, saved_model, tmp_path):
    out = tmp_path / "bpda"
    code = cli.main(["bpda", "--arch", "mnist_cnn",
                     "--train-images", idx_data["train"][0],
                     "--train-labels", idx_data["train"][1],
                     "--test-images", idx_data["test"][0],
                     "--test-labels", idx_data["test"][1],
                     "--params", saved_model, "--epochs", "1",
                     "--slopes", "1,100", "--epsilons", "0,0.3",
                     "--limit", "30", "--seed", "5", "--out", str(out)])
    assert code == 0
    assert (out / "substitute.bin").exists()
    lines = (out / "report.csv").read_text().splitlines()
    assert len(lines) == 1 + 2 * 2


def test_export_features_smoke(idx_data, saved_model, tmp_path):
    out = tmp_path / "feat"
    code = cli.main(["export-features", *eval_args(idx_data, [
        "--params", saved_model, "--slope", "2.0", "--limit", "25",
        "--seed", "5", "--out", str(out),
    ])])
    assert code == 0
    lines = (out / "features.csv").read_text().splitlines()
    assert len(lines) == 25
    assert all(len(line.split(",")) == 51 for line in lines)


# ---------------------------------------------------------------------------
# documented failures exit 1, name the stage, and print no traceback


@pytest.mark.parametrize("extra, message", [
    (["--attack-kind", "fgsm"], "fgsm attack needs epsilon"),
    (["--attack-kind", "salt_pepper"], "salt_pepper attack needs epsilon"),
    (["--attack-kind", "cw", "--epsilon", "0.1"], "unknown attack kind 'cw'"),
    # only fgsm has a targeted form: a targeted pgd row would report an untargeted attack
    (["--attack-kind", "pgd", "--target", "3", "--epsilon", "0.1"],
     "pgd attack does not take target_class"),
    (["--attack-kind", "fgsm", "--steps", "5", "--epsilon", "0.1"], "one-shot"),
    (["--attack-kind", "rfgsm", "--noise-alpha", "0.2", "--epsilon", "0.1"],
     "noise step 0.2 must lie in [0, epsilon=0.1]"),
    # a flag the chosen kind does not read is an error, not silently ignored
    (["--attack-kind", "fgsm", "--epsilon", "0.1", "--no-random-start"],
     "fgsm attack does not take random_start"),
    (["--attack-kind", "fgsm", "--epsilon", "0.1", "--random-start"],
     "fgsm attack does not take random_start"),
    (["--attack-kind", "fgsm", "--epsilon", "0.1", "--overshoot", "0.5"],
     "fgsm attack does not take overshoot"),
    (["--attack-kind", "deepfool", "--epsilon", "0.1"],
     "deepfool attack does not take epsilon"),
    # a missing or unknown kind and an out-of-range setting fail at the same stage
    ([], "missing required option: attack_kind"),
    (["--attack-kind", "cw"], "bad value for attack_kind: unknown attack kind 'cw'"),
    (["--attack-kind", "fgsm", "--epsilon", "2"], "epsilon must lie in [0, 1], got 2.0"),
    (["--attack-kind", "bim", "--epsilon", "0.1", "--steps", "0"], "bim needs steps >= 1"),
])
def test_bad_attack_config_exits_1_before_loading(idx_data, tmp_path, capsys,
                                                  extra, message):
    # the parameter file does not exist: the config must be rejected first,
    # at the config stage, before the run directory is written
    out = tmp_path / "o"
    code = cli.main(["attack", *eval_args(idx_data, [
        "--params", str(tmp_path / "missing.bin"), *extra, "--seed", "2", "--out", str(out),
    ])])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error in config:") and message in err
    assert "Traceback" not in err
    assert not out.exists()


def test_non_finite_params_exit_1(idx_data, tmp_path, capsys):
    values = {n: t.data.copy() for n, t in build_model("mnist_cnn", seed=0).params.items()}
    values["fc2.w"][:] = np.nan
    params = tmp_path / "nan.bin"
    params.write_bytes(params_file_bytes(values.items()))
    code = cli.main(["attack", *eval_args(idx_data, [
        "--params", str(params), "--attack-kind", "fgsm", "--epsilon", "0.1",
        "--seed", "2", "--out", str(tmp_path / "o"),
    ])])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error in attack:") and "'fc2.w'" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("threads", ["1", "2"])
def test_non_finite_logits_fail_the_sweep(idx_data, saved_model, tmp_path, capsys, threads):
    # slope 1e20 overflows the forward pass; no accuracy row may be written, and
    # a worker process's error reaches the caller as the serial run's
    out = tmp_path / "o"
    code = cli.main(["sweep", *eval_args(idx_data, [
        "--params", saved_model, "--attacks", "fgsm", "--slopes", "1,1e20",
        "--epsilons", "0,0.1", "--limit", "10", "--seed", "5", "--threads", threads,
        "--out", str(out),
    ])])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error in sweep:") and "non-finite logits" in err
    assert "test slope 1e+20" in err and "Traceback" not in err
    assert not (out / "report.csv").exists()
    assert not (out / "manifest.txt").exists()


def test_dead_grid_worker_fails_the_sweep_with_one_line(idx_data, saved_model, tmp_path,
                                                        capsys, monkeypatch):
    # a worker process killed mid-grid (a signal, the OOM killer) is an error
    # of the command, reported as one line, not a traceback
    parent = os.getpid()
    judge = ex._judge_slice

    def dying_judge(*args):
        if os.getpid() != parent:
            os._exit(9)
        time.sleep(0.1)  # the worker takes the second slope's task first
        return judge(*args)

    monkeypatch.setattr(ex, "_judge_slice", dying_judge)
    out = tmp_path / "o"
    code = cli.main(["sweep", *eval_args(idx_data, [
        "--params", saved_model, "--attacks", "fgsm", "--slopes", "1,10",
        "--epsilons", "0,0.1", "--limit", "10", "--seed", "5", "--threads", "2",
        "--out", str(out),
    ])])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error in sweep:") and "status 9" in err
    assert len(err.splitlines()) == 1 and "Traceback" not in err
    assert not (out / "report.csv").exists()
    assert not (out / "manifest.txt").exists()


def test_non_finite_gradient_fails_the_sweep(idx_data, saved_model, tmp_path, capsys,
                                             monkeypatch):
    # a double whose input gradient is NaN: the attack that reads it names
    # itself and the slope, and stops the run at its first gradient, so a
    # cached NaN never reaches the next epsilon
    calls = []

    def nan_gradient(self, images, labels):
        calls.append(len(images))
        return float("nan"), np.full_like(images, np.nan)

    monkeypatch.setattr(Model, "loss_input_grad", nan_gradient)
    out = tmp_path / "o"
    code = cli.main(["sweep", *eval_args(idx_data, [
        "--params", saved_model, "--attacks", "bim", "--slopes", "2",
        "--epsilons", "0,0.1,0.2", "--limit", "10", "--seed", "5", "--out", str(out),
    ])])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error in sweep:") and "non-finite input gradient" in err
    assert "bim attack at test slope 2" in err and "Traceback" not in err
    assert calls == [10]
    assert not (out / "manifest.txt").exists()


@pytest.mark.parametrize("command, extra, rows", [
    ("sweep", ["--attacks", "fgsm", "--slopes", "1"], 1),
    ("targeted-sweep", ["--slopes", "1"], 10),
    ("swap", ["--kinds", "tanh"], 1),
    ("scale", ["--factors", "2"], 1),
])
def test_limit_above_set_size_clamps(idx_data, saved_model, tmp_path, command,
                                     extra, rows):
    out = tmp_path / command
    code = cli.main([command, *eval_args(idx_data, [
        "--params", saved_model, *extra, "--epsilons", "0", "--limit", "1000",
        "--seed", "5", "--out", str(out),
    ])])
    assert code == 0
    with open(out / "report.csv", newline="") as f:
        rows_read = list(csv.DictReader(f))
    assert len(rows_read) == rows
    assert {row["n_images"] for row in rows_read} == {"120"}


@pytest.mark.parametrize("command, extra", [
    ("eval", []),
    ("sweep", ["--attacks", "fgsm", "--slopes", "1"]),
    ("export-features", []),
])
def test_empty_set_fails_the_run(idx_data, saved_model, tmp_path, capsys, command, extra):
    out = tmp_path / command
    code = cli.main([command, *eval_args(idx_data, [
        "--params", saved_model, *extra, "--limit", "0", "--seed", "5", "--out", str(out),
    ])])
    assert code == 1
    assert capsys.readouterr().err.startswith(f"error in {command}:")
    assert not (out / "manifest.txt").exists()
    assert not (out / "features.csv").exists()


def test_empty_test_set_fails_bpda_before_distilling(saved_model, tmp_path, capsys):
    train, test = synthetic_split(40, 8, seed=5)
    train_paths = write_idx_files(train, tmp_path, prefix="train")
    test_paths = write_idx_files(test, tmp_path, prefix="test")
    out = tmp_path / "bpda"
    code = cli.main(["bpda", "--arch", "mnist_cnn",
                     "--train-images", train_paths[0], "--train-labels", train_paths[1],
                     "--test-images", test_paths[0], "--test-labels", test_paths[1],
                     "--params", saved_model, "--epochs", "1", "--limit", "0",
                     "--seed", "5", "--out", str(out)])
    assert code == 1
    assert capsys.readouterr().err == "error in bpda: cannot evaluate an empty image set\n"
    assert not (out / "substitute.bin").exists()
    assert not (out / "manifest.txt").exists()


def test_non_finite_features_fail_the_export(idx_data, saved_model, tmp_path, capsys):
    # slope 1e20 overflows the forward pass; no NaN feature row may be written,
    # and the overflow is reported once, as the error, not as numpy warnings
    out = tmp_path / "o"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = cli.main(["export-features", *eval_args(idx_data, [
            "--params", saved_model, "--slope", "1e20", "--limit", "3",
            "--seed", "5", "--out", str(out),
        ])])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error in export-features:") and "non-finite features" in err
    assert "test slope 1e+20" in err and "Traceback" not in err
    assert "nan" not in (out / "features.csv").read_text()
    assert not (out / "manifest.txt").exists()


def test_failed_run_leaves_no_manifest(idx_data, tmp_path, capsys):
    out = tmp_path / "o"
    code = cli.main(["eval", *eval_args(idx_data, [
        "--params", str(tmp_path / "missing.bin"), "--seed", "2", "--out", str(out),
    ])])
    assert code == 1
    assert capsys.readouterr().err.startswith("error in eval:")
    assert (out / "config_resolved.txt").exists()
    assert not (out / "manifest.txt").exists()


def test_failed_rerun_removes_the_earlier_manifest(idx_data, tmp_path, capsys):
    out = tmp_path / "o"
    argv = ["train", "--arch", "mnist_cnn", "--train-labels", idx_data["train"][1],
            "--limit-train", "16", "--epochs", "1", "--out", str(out)]
    assert cli.main([*argv, "--train-images", idx_data["train"][0], "--seed", "1"]) == 0
    assert "seed=1" in (out / "manifest.txt").read_text().splitlines()
    code = cli.main([*argv, "--train-images", str(tmp_path / "missing"), "--seed", "2"])
    assert code == 1
    assert capsys.readouterr().err.startswith("error in train:")
    assert "seed=2" in (out / "config_resolved.txt").read_text().splitlines()
    assert not (out / "manifest.txt").exists()


def test_readme_flags_are_accepted():
    # a flag removed from the CLI must not linger in the docs
    with open(os.path.join(REPO_DIR, "README.md")) as f:
        readme = f.read()
    documented = set(re.findall(r"--[a-z][a-z0-9-]*", readme))
    accepted = {"--version"}
    for options in cli.OPTIONS.values():
        for name, (convert, _default, _help) in options.items():
            flag = "--" + name.replace("_", "-")
            accepted.add(flag)
            if convert is cli._bool:
                accepted.add("--no-" + flag[2:])
    assert documented, "README documents no flags"
    assert documented <= accepted, sorted(documented - accepted)


def test_readme_names_only_existing_tests():
    # a guarantee must not cite a test that was renamed or removed; the test
    # files are parsed, not imported
    with open(os.path.join(REPO_DIR, "README.md")) as f:
        named = set(re.findall(r"tests/(test_\w+\.py)::(\w+)", f.read()))
    assert named, "README names no tests"
    defined = {}
    for file in {file for file, _ in named}:
        path = os.path.join(REPO_DIR, "tests", file)
        assert os.path.exists(path), file
        with open(path) as f:
            tree = ast.parse(f.read())
        defined[file] = {node.name for node in tree.body
                         if isinstance(node, ast.FunctionDef) and node.name.startswith("test_")}
    missing = sorted(f"tests/{file}::{name}" for file, name in named
                     if name not in defined[file])
    assert not missing, missing


def test_readme_column_lines_are_the_written_headers():
    # report.csv's and summary.csv's columns, as the README's "Report format" lists them
    with open(os.path.join(REPO_DIR, "README.md")) as f:
        documented = re.findall(r"^dataset,model,[a-z0-9_,]+$", f.read(), re.MULTILINE)
    empty = ex.Report()
    assert documented == [empty.csv_text().rstrip("\n"), empty.summary_csv_text().rstrip("\n")]
