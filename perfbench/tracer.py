"""Outside-in span tracing of the srelu_defense CLI, and the analysis of its spans.

Run as a script, this module installs timing wrappers on the package's
functions at each layer boundary, runs the CLI, and writes the recorded spans
to a JSON file:

    python3 perfbench/tracer.py TRACE_FILE sweep --arch mnist_cnn ...

No module of the package is edited. Each wrapper is patched where its caller
looks the name up: module attributes reached through ``ad.``/``ex.``,
names the CLI imported into its own namespace, ``Model`` methods, and every
backward closure, which ``Tape.record`` wraps as it is recorded.

Spans are kept per thread in memory, as an event log of opens and closes,
and written out once when the command ends. ``analyse`` turns a trace into
the benchmark's per-layer metrics.
"""

from __future__ import annotations

import functools
import heapq
import json
import os
import sys
import threading
from collections import defaultdict
from statistics import median
from time import perf_counter_ns

CLOSE = -1
ROOT = "cli.main"
CELL = "experiments.cell"
# a thread parked here waits on the cell pool; it is charged wall time only
# while no other thread is inside a span
WAITING = frozenset({"experiments.run_cells"})
LAYERS = ("cli", "data", "experiments", "attacks", "models", "autodiff")
REPORTED_OPS = ("conv2d", "maxpool2d", "srelu", "dense", "softmax_cross_entropy", "take")
AUTODIFF_OPS = REPORTED_OPS + (
    "activation", "flatten", "soft_cross_entropy", "softmax", "add", "sum_all",
)


class Recorder:
    """Per-thread event logs, counters and samples, merged when written."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self._local = threading.local()
        self._threads: list[_ThreadLog] = []
        self._lock = threading.Lock()

    def intern(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            with self._lock:
                nid = self._ids.setdefault(name, len(self.names))
                if nid == len(self.names):
                    self.names.append(name)
        return nid

    def log(self) -> "_ThreadLog":
        log = getattr(self._local, "log", None)
        if log is None:
            log = self._local.log = _ThreadLog()
            with self._lock:
                self._threads.append(log)
        return log

    def dump(self, path: str) -> None:
        counters: dict[str, float] = defaultdict(float)
        samples: dict[str, list] = defaultdict(list)
        for log in self._threads:
            for key, value in log.counters.items():
                counters[key] += value
            for key, values in log.samples.items():
                samples[key].extend(values)
        with open(path, "w") as f:
            json.dump({"names": self.names,
                       "threads": [log.events for log in self._threads],
                       "counters": counters, "samples": samples}, f)


class _ThreadLog:
    __slots__ = ("events", "stack", "counters", "samples")

    def __init__(self):
        self.events: list[int] = []  # flat: time_ns, name id (CLOSE on close)
        self.stack: list[int] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.samples: dict[str, list] = defaultdict(list)

    def open(self, nid: int) -> None:
        self.stack.append(nid)
        self.events += (perf_counter_ns(), nid)

    def close(self) -> None:
        self.events += (perf_counter_ns(), CLOSE)
        self.stack.pop()


def traced(rec: Recorder, name, fn, observe=None):
    """Wrap fn in a span; observe(counters, args, result) runs after the span.

    name is a string, or a function of the call's arguments that returns one.
    """
    fixed = rec.intern(name) if isinstance(name, str) else None

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        log = rec.log()
        log.open(fixed if fixed is not None else rec.intern(name(args)))
        try:
            result = fn(*args, **kwargs)
        finally:
            log.close()
        if observe is not None:
            observe(log.counters, args, result)
        return result

    return wrapper


# ---------------------------------------------------------------------------
# observers: counts taken at the layer boundary, outside the span's time


def _all_zero_rows(grads, n: int) -> int:
    return int(n - grads.reshape(n, -1).any(axis=1).sum())


def _observe_forward(counters, args, result):
    counters["models.forward.images"] += len(args[1])


def _observe_input_grad(counters, args, result):
    n = len(args[1])
    counters["models.input_grad.images"] += n
    counters["grads.images"] += n
    counters["grads.zero"] += _all_zero_rows(result[1], n)


def _observe_logit_grads(counters, args, result):
    counters["grads.images"] += 1
    counters["grads.zero"] += int(not result[1].any())


def _observe_attack(counters, args, result):
    if args[3].kind == "deepfool":
        counters["deepfool.images"] += len(args[1])
        counters["deepfool.flipped"] += int(result.success.sum())


def _observe_load(counters, args, result):
    paths = args[0] if isinstance(args[0], (list, tuple)) else args[:2]
    counters["data.bytes_parsed"] += sum(os.path.getsize(p) for p in paths)


def _conv_gemm_flops(w_shape, out_shape) -> int:
    n, _, ho, wo = out_shape
    o, c, kh, kw = w_shape
    return 2 * n * ho * wo * o * c * kh * kw


def _observe_conv_fwd(counters, args, result):
    counters["autodiff.conv2d.flop"] += _conv_gemm_flops(args[1].shape, result.shape)


def _observe_pool_fwd(counters, args, result):
    counters["autodiff.maxpool2d.bytes"] += args[0].data.nbytes + result.data.nbytes


def _backward_observer(op: str, inputs, out):
    """Kernel cost of one backward closure, from the shapes seen at record time."""
    if op == "conv2d":
        gemm = _conv_gemm_flops(inputs[1].shape, out.shape)

        def observe(counters, args, result):
            needs = args[1]
            counters["autodiff.conv2d.flop"] += gemm * (bool(needs[0]) + bool(needs[1]))
        return observe
    if op == "maxpool2d":
        moved = inputs[0].data.nbytes + out.data.nbytes

        def observe(counters, args, result):
            counters["autodiff.maxpool2d.bytes"] += moved
        return observe
    return None


def _traced_batches(rec: Recorder, epoch_batches):
    """Time the waits on BatchIterator, and each training step between them."""
    wait = rec.intern("data.batch_wait")

    @functools.wraps(epoch_batches)
    def wrapper(self, epoch=0):
        log = rec.log()
        batches = epoch_batches(self, epoch)
        yielded_at = None
        while True:
            asked_at = perf_counter_ns()
            if yielded_at is not None:
                log.samples["train.step_ns"].append(asked_at - yielded_at)
            log.open(wait)
            try:
                batch = next(batches)
            except StopIteration:
                return
            finally:
                log.close()
            yielded_at = perf_counter_ns()
            yield batch

    return wrapper


def install(rec: Recorder):
    """Patch the package for tracing; returns the wrapped ``cli.main``."""
    from srelu_defense import autodiff as ad
    from srelu_defense import cli, data, experiments, models

    for name in ("load_mnist_idx", "load_cifar10_bin"):
        setattr(cli, name, traced(rec, "data.load", getattr(cli, name), _observe_load))
    for name in ("load_params", "save_params"):
        setattr(cli, name, traced(rec, "models.params_io", getattr(cli, name)))

    for name in ("slope_sweep", "train", "eval_clean", "predict_all", "attack_all",
                 "_run_cells"):
        setattr(experiments, name, traced(rec, f"experiments.{name.lstrip('_')}",
                                          getattr(experiments, name)))
    experiments.eval_under_attack = traced(rec, CELL, experiments.eval_under_attack)
    experiments.run_attack = traced(rec, lambda args: f"attacks.{args[3].kind}",
                                    experiments.run_attack, _observe_attack)
    experiments._forward = traced(rec, "models.train_forward", experiments._forward)
    for name in ("write_csv", "write_summary_csv"):
        setattr(experiments.Report, name, traced(rec, "experiments.report_write",
                                                 getattr(experiments.Report, name)))
    data.BatchIterator.epoch_batches = _traced_batches(rec, data.BatchIterator.epoch_batches)

    model = models.Model
    model.logits = traced(rec, "models.forward", model.logits, _observe_forward)
    model.loss_input_grad = traced(rec, "models.input_grad", model.loss_input_grad,
                                   _observe_input_grad)
    model.logit_input_grads = traced(rec, "models.logit_grads", model.logit_input_grads,
                                     _observe_logit_grads)

    fwd_observers = {"conv2d": _observe_conv_fwd, "maxpool2d": _observe_pool_fwd}
    for op in AUTODIFF_OPS:
        setattr(ad, op, traced(rec, f"autodiff.{op}.fwd", getattr(ad, op),
                               fwd_observers.get(op)))
    ad.backward = traced(rec, "autodiff.backward", ad.backward)

    record = ad.Tape.record

    def traced_record(self, out, inputs, backward_fn):
        stack = rec.log().stack
        fwd = rec.names[stack[-1]] if stack else "autodiff.unknown.fwd"
        op = fwd.split(".")[1]
        wrapped = traced(rec, f"autodiff.{op}.bwd", backward_fn,
                         _backward_observer(op, inputs, out))
        record(self, out, inputs, wrapped)

    ad.Tape.record = traced_record
    return traced(rec, ROOT, cli.main)


# ---------------------------------------------------------------------------
# analysis


def _replay(events: list[int]):
    """One thread's spans and innermost-span change points, from its event log."""
    spans = []  # (name id, start, end)
    changes = []  # (time, innermost name id or None)
    stack = []
    for i in range(0, len(events), 2):
        t, nid = events[i], events[i + 1]
        if nid == CLOSE:
            name, start = stack.pop()
            spans.append((name, start, t))
        else:
            stack.append((nid, t))
        changes.append((t, stack[-1][0] if stack else None))
    return spans, changes


def self_times(names: list[str], threads: list[list[int]]):
    """Self seconds per span name, plus every span as (name, start_ns, end_ns).

    At each instant the wall time goes to the innermost open span of each
    thread that is inside one, split evenly when several threads are busy at
    once, so the self times of all spans sum to the time covered by any span.
    """
    waiting = {i for i, name in enumerate(names) if name in WAITING}
    streams, spans = [], []
    for tid, events in enumerate(threads):
        thread_spans, changes = _replay(events)
        spans.extend(thread_spans)
        streams.append([(t, tid, nid) for t, nid in changes])

    self_ns = defaultdict(float)
    current: list = [None] * len(threads)
    previous = None
    for t, tid, nid in heapq.merge(*streams):
        if previous is not None and t > previous:
            active = [n for n in current if n is not None]
            busy = [n for n in active if n not in waiting] or active
            for n in busy:
                self_ns[n] += (t - previous) / len(busy)
        current[tid] = nid
        previous = t
    seconds = {names[n]: v / 1e9 for n, v in self_ns.items()}
    return seconds, [(names[n], s, e) for n, s, e in spans]


def analyse(trace: dict, traced_wall_s: float, untraced_wall_s: float) -> dict:
    """Per-layer metrics, by the names BENCHMARK.json declares."""
    self_s, spans = self_times(trace["names"], trace["threads"])
    counters = defaultdict(float, trace["counters"])
    durations: dict[str, list] = defaultdict(list)
    for name, start, end in spans:
        durations[name].append((end - start) / 1e9)

    def total(name):
        return sum(durations[name])

    def calls(name):
        return len(durations[name])

    def ratio(a, b):
        return a / b if b else 0.0

    m = {}
    for layer in LAYERS:
        m[f"{layer}.self_s"] = sum(v for k, v in self_s.items()
                                   if k.split(".")[0] == layer)
    m["data.load_s"] = self_s.get("data.load", 0.0)
    m["data.bytes_parsed"] = counters["data.bytes_parsed"]
    m["data.batch_wait_s"] = self_s.get("data.batch_wait", 0.0)

    cells = durations[CELL]
    steps = trace["samples"].get("train.step_ns", [])
    m["experiments.cells"] = len(cells)
    m["experiments.cell_s_p50"] = median(cells) if cells else 0.0
    m["experiments.train.steps"] = len(steps)
    m["experiments.train.step_s_p50"] = median(steps) / 1e9 if steps else 0.0
    m["experiments.report_write_s"] = total("experiments.report_write")
    m["experiments.cell_concurrency"] = ratio(sum(cells), total(ROOT))

    for kind in ("fgsm", "stepll", "rfgsm", "bim", "deepfool"):
        m[f"attacks.{kind}_s"] = total(f"attacks.{kind}")
    m["attacks.zero_grad_frac"] = ratio(counters["grads.zero"], counters["grads.images"])
    m["attacks.deepfool.iters_per_image"] = ratio(calls("models.logit_grads"),
                                                  counters["deepfool.images"])
    m["attacks.deepfool.flipped_frac"] = ratio(counters["deepfool.flipped"],
                                               counters["deepfool.images"])

    m["models.forward.calls"] = calls("models.forward")
    m["models.forward.images"] = counters["models.forward.images"]
    m["models.forward_s"] = total("models.forward")
    m["models.input_grad.calls"] = calls("models.input_grad")
    m["models.input_grad.images"] = counters["models.input_grad.images"]
    m["models.input_grad_s"] = total("models.input_grad")
    m["models.logit_grads.calls"] = calls("models.logit_grads")
    m["models.logit_grads_s"] = total("models.logit_grads")

    for op in REPORTED_OPS:
        for way in ("fwd", "bwd"):
            m[f"autodiff.{op}.{way}_s"] = self_s.get(f"autodiff.{op}.{way}", 0.0)
            m[f"autodiff.{op}.{way}_calls"] = calls(f"autodiff.{op}.{way}")
    m["autodiff.backward.self_s"] = self_s.get("autodiff.backward", 0.0)
    m["autodiff.backward.calls"] = calls("autodiff.backward")
    m["autodiff.conv2d.gflop"] = counters["autodiff.conv2d.flop"] / 1e9
    m["autodiff.maxpool2d.mbytes"] = counters["autodiff.maxpool2d.bytes"] / 1e6

    m["trace.spans"] = len(spans)
    m["trace.wall_s"] = traced_wall_s
    m["trace.untraced_wall_s"] = untraced_wall_s
    m["trace.overhead_s"] = traced_wall_s - untraced_wall_s
    m["trace.unaccounted_s"] = traced_wall_s - sum(self_s.values())
    return m


def main(argv: list[str]) -> int:
    trace_path, cli_args = argv[0], argv[1:]
    rec = Recorder()
    cli_main = install(rec)
    try:
        return cli_main(cli_args)
    finally:
        rec.dump(trace_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
