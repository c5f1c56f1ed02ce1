"""Benchmark of the srelu_defense CLI on seeded synthetic inputs.

    python3 perfbench/run.py --workload sweep-linf --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout. Each run generates its inputs from
the seed, sets up several times (the median is ``setup_s``), then runs the
workload's CLI command in its own process, repeatedly until the given
seconds have passed and at least twice, checks every output and prints the
end-to-end metrics. With ``--trace 1`` it instead runs the command once
untraced and once under perfbench/tracer.py, and prints the per-layer
metrics and the tracing overhead. The last line of standard output is one
JSON object: correct, attempted, failed and metrics.

Timed commands see only files and flags, exactly as a user runs
``srelu-defense``; BLAS threads are left at the user default. BENCHMARK.json
declares sweep-linf and train-cifar; deepfool-grid runs the same way but is
not declared, for the reason perfbench/predictions.json records.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from statistics import median

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

SETUPS = 3  # set-ups per timed run; setup_s is their median
MIN_COMMANDS = 2  # timed commands per run, so every run checks determinism
COMMAND_TIMEOUT_S = 170
CLEAN_ACC_FLOOR = 0.8  # slope-1 clean accuracy the attacked model must reach
ENTRY = "import sys; from srelu_defense.cli import main; sys.exit(main())"


@dataclass(frozen=True)
class Scale:
    """Input sizes; the benchmark runs at FULL, its self-test at a tiny size."""

    test_images: int  # whole evaluation chunks of 256 at full size
    mnist_train: int
    mnist_epochs: int
    cifar_train: int
    cifar_epochs: int
    deepfool_iters: tuple


FULL = Scale(test_images=256, mnist_train=1024, mnist_epochs=3,
             cifar_train=2048, cifar_epochs=2, deepfool_iters=(1, 2, 5, 10, 20, 50))

LINF_ATTACKS = ("fgsm", "stepll", "rfgsm", "bim")
LINF_EPSILONS = (0.0, 0.1, 0.2)
LINF_SLOPES = (1.0, 10.0)
EPS0_NOOPS = ("fgsm", "stepll", "rfgsm", "bim")  # exact no-ops at epsilon 0


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def fmt(values) -> str:
    return ",".join(f"{v:g}" for v in values)


# ---------------------------------------------------------------------------
# output checks; each returns (operations attempted, operations failed, notes)


def read_csv(path: Path) -> list[dict]:
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


def within(text: str, lo: float = 0.0, hi: float = 1.0) -> bool:
    try:
        value = float(text)
    except ValueError:
        return False
    return lo <= value <= hi  # also rejects nan and inf


def check_sweep(out: Path, attacks, slopes, epsilons, n_images: int,
                exit_code: int) -> tuple[int, int, list[str]]:
    """One operation per expected report row."""
    expected = {(a, float(s), float(e)) for a in attacks for s in slopes for e in epsilons}
    if exit_code != 0:
        return len(expected), len(expected), [f"exit code {exit_code}"]
    try:
        rows = read_csv(out / "report.csv")
        summary = read_csv(out / "summary.csv")
    except (OSError, IndexError) as e:
        return len(expected), len(expected), [f"unreadable output: {e}"]
    bad_summary = [s for s in summary
                   if not all(within(s.get(k, "")) for k in ("mean", "mean_with_eps0"))
                   or not all(within(s.get(k, ""), -1.0) for k in
                              ("recovery", "recovery_with_eps0"))]
    if len(summary) != len(attacks) * len(slopes) or bad_summary:
        return len(expected), len(expected), ["summary.csv rows missing or out of range"]

    notes, good, extra = [], set(), 0
    top_eps = max(epsilons)
    for row in rows:
        try:
            key = (row["attack"], float(row["test_slope"]), float(row["epsilon"]))
        except (KeyError, ValueError):
            notes.append(f"malformed row {row}")
            continue
        if key not in expected or key in good:
            notes.append(f"{key}: unexpected or repeated cell")
            extra += 1
            continue
        problems = []
        if row.get("n_images") != str(n_images):
            problems.append("wrong image count")
        values = [row.get(k, "") for k in ("clean_acc", "adv_acc", "attack_success")]
        if not all(within(v) for v in values):
            problems.append("number not finite in [0, 1]")
        else:
            clean, adv = float(values[0]), float(values[1])
            attack, slope, eps = key
            if eps == 0.0 and attack in EPS0_NOOPS and adv != clean:
                problems.append("epsilon 0 changed accuracy")
            if slope == 1.0 and clean < CLEAN_ACC_FLOOR:
                problems.append(f"slope-1 clean accuracy below {CLEAN_ACC_FLOOR}")
            if slope == 1.0 and eps == top_eps and attack in ("fgsm", "deepfool") \
                    and not adv < clean:
                problems.append("strongest attack did not lower accuracy")
        if problems:
            notes.append(f"{key}: {'; '.join(problems)}")
        else:
            good.add(key)
    return len(expected), min(len(expected), len(expected) - len(good) + extra), notes


def check_train(out: Path, epochs: int, exit_code: int) -> tuple[int, int, list[str]]:
    """One operation per training epoch."""
    import numpy as np
    from srelu_defense.models import load_params

    if exit_code != 0:
        return epochs, epochs, [f"exit code {exit_code}"]
    try:
        model = load_params(out / "model.bin", "cifar10_cnn1")
        log = read_csv(out / "training_log.csv")
        accuracy = (out / "test_accuracy.txt").read_text().strip().partition("=")[2]
    except (OSError, ValueError, IndexError) as e:
        return epochs, epochs, [f"unusable output: {e}"]
    if not all(np.isfinite(p.data).all() for p in model.params.values()):
        return epochs, epochs, ["model.bin holds non-finite parameters"]
    if not within(accuracy):
        return epochs, epochs, [f"test accuracy {accuracy!r} not in [0, 1]"]
    good = set()
    notes = []
    for row in log:
        try:
            epoch, loss = int(row["epoch"]), float(row["mean_loss"])
        except (KeyError, ValueError):
            notes.append(f"malformed log row {row}")
            continue
        if 0 <= epoch < epochs and epoch not in good and np.isfinite(loss) and loss >= 0:
            good.add(epoch)
        else:
            notes.append(f"bad epoch row {row}")
    return epochs, epochs - len(good), notes


# ---------------------------------------------------------------------------
# workloads


@dataclass(frozen=True)
class Workload:
    name: str
    outputs: tuple  # files whose digests must repeat exactly

    def setup(self, directory: Path, seed: int, scale: Scale) -> dict:
        import inputs

        if self.name == "train-cifar":
            return inputs.cifar_train_inputs(str(directory), seed, scale.cifar_train,
                                             scale.test_images)
        return inputs.mnist_sweep_inputs(str(directory), seed, scale.mnist_train,
                                         scale.test_images, scale.mnist_epochs)

    def command(self, files: dict, out: Path, seed: int, scale: Scale) -> list[str]:
        common = ["--seed", str(seed), "--out", str(out)]
        if self.name == "train-cifar":
            return ["train", "--arch", "cifar10_cnn1",
                    "--train-batches", files["train_batches"],
                    "--test-batches", files["test_batches"],
                    "--epochs", str(scale.cifar_epochs), "--batch-size", "64"] + common
        sweep = ["sweep", "--arch", "mnist_cnn", "--params", files["params"],
                 "--test-images", files["test_images"],
                 "--test-labels", files["test_labels"], "--threads", str(nproc())]
        if self.name == "sweep-linf":
            return sweep + ["--attacks", ",".join(LINF_ATTACKS),
                            "--epsilons", fmt(LINF_EPSILONS),
                            "--slopes", fmt(LINF_SLOPES)] + common
        return sweep + ["--attacks", "deepfool", "--slopes", "1",
                        "--deepfool-iters", fmt(scale.deepfool_iters)] + common

    def check(self, out: Path, scale: Scale, exit_code: int):
        if self.name == "train-cifar":
            return check_train(out, scale.cifar_epochs, exit_code)
        if self.name == "sweep-linf":
            return check_sweep(out, LINF_ATTACKS, LINF_SLOPES, LINF_EPSILONS,
                               scale.test_images, exit_code)
        return check_sweep(out, ("deepfool",), (1.0,), scale.deepfool_iters,
                           scale.test_images, exit_code)

    def images(self, scale: Scale) -> int:
        """Attacked images (report rows x images) or trained images per command."""
        if self.name == "train-cifar":
            return scale.cifar_epochs * scale.cifar_train
        if self.name == "sweep-linf":
            return len(LINF_ATTACKS) * len(LINF_SLOPES) * len(LINF_EPSILONS) * scale.test_images
        return len(scale.deepfool_iters) * scale.test_images


WORKLOADS = {
    w.name: w for w in (
        Workload("sweep-linf", ("report.csv", "summary.csv")),
        Workload("deepfool-grid", ("report.csv", "summary.csv")),
        Workload("train-cifar", ("model.bin", "training_log.csv", "test_accuracy.txt")),
    )
}


# ---------------------------------------------------------------------------
# running the program


@dataclass
class CommandRun:
    wall_s: float
    peak_rss_mb: float
    exit_code: int
    attempted: int
    failed: int
    notes: list
    digests: dict


def sha256(path: Path) -> str:
    try:
        return hashlib.sha256(path.read_bytes()).hexdigest()
    except OSError:
        return "missing"


def run_command(workload: Workload, files: dict, out: Path, seed: int, scale: Scale,
                trace_file: Path | None = None) -> CommandRun:
    """One CLI command in its own process; wall time and peak RSS of that process."""
    args = workload.command(files, out, seed, scale)
    if trace_file is None:
        argv = [sys.executable, "-c", ENTRY] + args
    else:
        argv = [sys.executable, str(BENCH_DIR / "tracer.py"), str(trace_file)] + args
    print("# command: srelu-defense " + " ".join(a.replace(f"{ROOT}{os.sep}", "")
                                                  for a in args))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    out.mkdir(parents=True)
    with open(out / "stdout.txt", "wb") as so, open(out / "stderr.txt", "wb") as se:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=so, stderr=se)
        killer = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    attempted, failed, notes = workload.check(out, scale, proc.returncode)
    if proc.returncode != 0:
        notes.append((out / "stderr.txt").read_text(errors="replace")[-500:])
    return CommandRun(wall, usage.ru_maxrss / 1024, proc.returncode, attempted, failed,
                      notes, {name: sha256(out / name) for name in workload.outputs})


def set_up(workload: Workload, directory: Path, seed: int, scale: Scale):
    directory.mkdir(parents=True)
    start = time.perf_counter()
    files = workload.setup(directory, seed, scale)
    elapsed = time.perf_counter() - start
    digests = {key: sha256(Path(path)) for key, path in files.items()}
    return files, elapsed, digests


def blas_info() -> dict:
    import ctypes

    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = "unknown"
    with open("/proc/self/maps") as maps:
        libs = {line.split()[-1] for line in maps if "blas" in line.lower()}
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for symbol in ("openblas_get_num_threads", "openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads = fn()
                break
    return {"name": blas.get("name"), "version": blas.get("version"), "threads": threads}


def provenance() -> dict:
    import numpy as np

    cpu = "unknown"
    with open("/proc/cpuinfo") as f:
        for line in f:
            if line.startswith("model name"):
                cpu = line.partition(":")[2].strip()
                break
    commit = "none (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                                    capture_output=True).stdout.strip() or commit
        except OSError:
            pass
    return {"nproc": nproc(), "cpu": cpu, "python": platform.python_version(),
            "numpy": np.__version__, "blas": blas_info(), "threads_flag": nproc(),
            "commit": commit}


def report_command(label: str, run: CommandRun) -> None:
    print(f"# {label}: {run.wall_s:.3f} s, peak rss {run.peak_rss_mb:.1f} MB, "
          f"exit {run.exit_code}, {run.attempted - run.failed}/{run.attempted} operations ok")
    for name, digest in run.digests.items():
        print(f"#   sha256 {name} {digest}")
    for note in run.notes:
        print(f"#   FAILED {note}")


def timed(workload: Workload, work: Path, seed: int, seconds: float, scale: Scale):
    setups = [set_up(workload, work / f"setup{i}", seed, scale) for i in range(SETUPS)]
    files, _, first_digests = setups[0]
    correct = all(digests == first_digests for _, _, digests in setups)
    if not correct:
        print("# FAILED set-up outputs differ between repeats of one seed")

    runs: list[CommandRun] = []
    start = time.perf_counter()
    while len(runs) < MIN_COMMANDS or time.perf_counter() - start < seconds:
        run = run_command(workload, files, work / f"run{len(runs)}", seed, scale)
        if runs and run.digests != runs[0].digests:
            run.failed, correct = run.attempted, False
            run.notes.append("output digests differ from the first run of this seed")
        report_command(f"run {len(runs)}", run)
        runs.append(run)

    throughput = "train_images_per_s" if workload.name == "train-cifar" \
        else "attacked_images_per_s"
    attempted = sum(r.attempted for r in runs)
    failed = sum(r.failed for r in runs)
    metrics = {
        "images_per_s": (median(workload.images(scale) / r.wall_s for r in runs), "1/s"),
        "setup_s": (median(seconds for _, seconds, _ in setups), "s"),
        "peak_rss_mb": (median(r.peak_rss_mb for r in runs), "MB"),
    }
    print(f"# {throughput} {metrics['images_per_s'][0]:.4f} 1/s "
          f"(median of {len(runs)} commands)")
    print(f"# setup_s {metrics['setup_s'][0]:.4f} s (median of {SETUPS} set-ups)")
    print(f"# peak_rss_mb {metrics['peak_rss_mb'][0]:.1f} MB")
    print(f"# failed_frac {failed / attempted:.4f} ratio ({failed} of {attempted})")
    return correct and failed == 0, attempted, failed, metrics


def traced_run(workload: Workload, work: Path, seed: int, scale: Scale):
    import tracer

    files, _, _ = set_up(workload, work / "setup0", seed, scale)
    plain = run_command(workload, files, work / "untraced", seed, scale)
    report_command("untraced", plain)
    trace_file = work / "trace.json"
    traced_cmd = run_command(workload, files, work / "traced", seed, scale, trace_file)
    report_command("traced", traced_cmd)
    correct = plain.failed == 0 and traced_cmd.failed == 0
    if traced_cmd.digests != plain.digests:
        correct = False
        print("# FAILED traced outputs differ from untraced outputs")
    layer = tracer.analyse(json.loads(trace_file.read_text()), traced_cmd.wall_s,
                           plain.wall_s)
    ledger = [f"{l}.self_s" for l in tracer.LAYERS] + ["trace.unaccounted_s"]
    print("# self-time ledger: " + " + ".join(f"{k} {layer[k]:.3f}" for k in ledger)
          + f" = trace.wall_s {layer['trace.wall_s']:.3f}")
    print(f"# tracing overhead {layer['trace.overhead_s']:.3f} s "
          f"({layer['trace.overhead_s'] / plain.wall_s:.1%} of untraced wall time)")
    declared = {m["name"]: m["unit"] for m in
                json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]}
    metrics = {name: (layer[name], unit) for name, unit in declared.items()}
    for name, (value, unit) in metrics.items():
        print(f"# {name} {value:.6g} {unit}")
    attempted = plain.attempted + traced_cmd.attempted
    failed = plain.failed + traced_cmd.failed
    return correct, attempted, failed, metrics


def main(argv=None, scale: Scale = FULL) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "srelu_defense" / "cli.py").is_file():
        print(f"error: no srelu_defense sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(BENCH_DIR)]

    workload = WORKLOADS[args.workload]
    work = WORK / workload.name
    shutil.rmtree(work, ignore_errors=True)
    info = provenance()
    print("# provenance " + json.dumps(info, sort_keys=True))
    if args.trace:
        correct, attempted, failed, metrics = traced_run(workload, work, args.seed, scale)
    else:
        correct, attempted, failed, metrics = timed(workload, work, args.seed,
                                                    args.seconds, scale)
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    (work / "result.json").write_text(json.dumps({**result, "provenance": info,
                                                  "workload": workload.name,
                                                  "seed": args.seed}, indent=1))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
