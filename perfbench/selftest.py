"""Self-test of the benchmark at a tiny size.

    python3 perfbench/selftest.py

Runs every workload, declared or not, timed and traced at a tiny input
size and checks that each run passes its output checks and prints every
metric BENCHMARK.json declares, with its unit. Then corrupts one row of a real report and checks
that the row counts as a failed operation, that predictions.json names only
declared metrics and known workloads, and that without the program's sources the
benchmark fails without printing a result.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys

import run

TINY = run.Scale(test_images=32, mnist_train=512, mnist_epochs=3,
                 cifar_train=64, cifar_epochs=2, deepfool_iters=(1, 2))


def result_of(argv: list[str]) -> dict:
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        status = run.main(argv, scale=TINY)
    assert status == 0, f"{argv} exited {status}"
    return json.loads(printed.getvalue().splitlines()[-1])


def main() -> int:
    declared = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in declared["workloads"]} <= set(run.WORKLOADS)
    for name in run.WORKLOADS:
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            result = result_of(["--workload", name, "--seed", "3", "--seconds", "0",
                                "--trace", str(trace)])
            assert set(result) == {"correct", "attempted", "failed", "metrics"}, result
            assert result["correct"] and result["failed"] == 0, (name, trace, result)
            units = {m["name"]: m["unit"] for m in declared[kind]}
            printed = {k: v["unit"] for k, v in result["metrics"].items()}
            assert printed == units, (name, trace, printed, units)
            print(f"ok: {name} trace={trace} printed {len(printed)} metrics")

    # a corrupted row must count as a failed operation, and only that row
    report = run.WORK / "sweep-linf" / "untraced"
    corrupt = run.WORK / "corrupt"
    shutil.rmtree(corrupt, ignore_errors=True)
    shutil.copytree(report, corrupt)
    lines = (corrupt / "report.csv").read_text().splitlines()
    fields = lines[3].split(",")
    fields[12] = "1.5"  # adv_acc outside [0, 1]
    lines[3] = ",".join(fields)
    (corrupt / "report.csv").write_text("\n".join(lines) + "\n")
    grid = (run.LINF_ATTACKS, run.LINF_SLOPES, run.LINF_EPSILONS, TINY.test_images, 0)
    assert run.check_sweep(report, *grid)[1] == 0
    attempted, failed, notes = run.check_sweep(corrupt, *grid)
    assert (attempted, failed) == (24, 1), (attempted, failed, notes)
    print(f"ok: corrupted report row counted as failed ({notes[0]})")

    # the prediction table names only declared metrics and known workloads
    table = json.loads((run.BENCH_DIR / "predictions.json").read_text())
    metrics = {m["name"] for m in declared["per_layer"] + declared["end_to_end"]}
    for row in table["predictions"]:
        assert set(row["layer"]) <= metrics, row
        assert row["moves"] is None or row["moves"] in metrics, row
        assert set(row["on"]) | set(row["flat_on"]) <= set(run.WORKLOADS), row
    print("ok: predictions.json names only declared metrics and known workloads")

    # without the program's sources the benchmark fails and prints no result
    bare = run.WORK / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.BENCH_DIR, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    proc = subprocess.run(declared["command"] + ["--workload", "sweep-linf", "--seed", "1",
                                                 "--seconds", "1", "--trace", "0"],
                          cwd=bare, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0 and '"correct"' not in proc.stdout, proc
    print(f"ok: without sources the benchmark exits {proc.returncode} and prints no result")
    return 0


if __name__ == "__main__":
    sys.exit(main())
