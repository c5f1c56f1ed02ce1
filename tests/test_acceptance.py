"""Acceptance criteria, one test per criterion, one printed line each.

Criteria needing the official MNIST/CIFAR-10 files run in full when the
files are present (see conftest: SRELU_DATA_DIR) and skip with an explicit
message otherwise; this sandbox has no network access to fetch them.
Everything else runs self-contained.
"""

from dataclasses import replace

import numpy as np
import pytest

import srelu_defense as sd
from srelu_defense import autodiff as ad
from srelu_defense import cli
from srelu_defense import experiments as ex
from srelu_defense.attacks import AttackConfig, run_attack
from srelu_defense.autodiff import Tape, Tensor
from srelu_defense.data import (
    DataFormatError,
    dump_cifar10_bin,
    dump_mnist_idx,
    load_cifar10_bin,
    load_mnist_idx,
    take_first,
)
from srelu_defense.experiments import MNIST_EPSILONS, slope_sweep
from srelu_defense.models import Act, Model, Pool, _forward, build_model

from conftest import cifar_paths_or_skip, mnist_paths_or_skip
from helpers import (
    LinearSoftmaxModel,
    finite_difference_oracle,
    idx_fixture_bytes,
    linear_min_hyperplane_distance,
    linf_distance,
    synthetic_split,
    write_idx_files,
)

SEED = 2024
F32_EPS = float(np.finfo(np.float32).eps)

TOL32, STEP32 = 1e-3, 1e-3
TOL64, STEP64 = 1e-6, 1e-5


def _report(number: int, name: str, ok: bool, detail: str = ""):
    print(f"ACCEPTANCE {number:>2} {name}: {'PASS' if ok else 'FAIL'} {detail}".rstrip())
    assert ok, f"criterion {number} ({name}) failed: {detail}"


# ---------------------------------------------------------------------------
# shared MNIST fixtures (full-data criteria)


@pytest.fixture(scope="module")
def mnist_data():
    paths = mnist_paths_or_skip()
    train = load_mnist_idx(paths["train_images"], paths["train_labels"], name="mnist_train")
    test = load_mnist_idx(paths["test_images"], paths["test_labels"], name="mnist")
    return train, test


@pytest.fixture(scope="module")
def mnist_model(mnist_data):
    train, _ = mnist_data
    model = build_model("mnist_cnn", seed=SEED)
    ex.train(model, train, epochs=5, seed=SEED)
    return model


@pytest.fixture(scope="module")
def mnist_attack_report(mnist_model, mnist_data):
    """FGSM/BIM/RFGSM/PGD sweep over the first 2000 test images."""
    _, test = mnist_data
    grid = dict(slopes=(1.0, 10.0, 100.0), epsilons=MNIST_EPSILONS,
                attack_kinds=("fgsm", "bim", "rfgsm", "pgd"))
    return slope_sweep(mnist_model, take_first(test, 2000), **grid, seed=SEED)


# ---------------------------------------------------------------------------
# criterion 1: gradient oracle


def _f64_twin(model: Model) -> Model:
    params = {
        name: Tensor(p.data.astype(np.float64), requires_grad=True, dtype=np.float64)
        for name, p in model.params.items()
    }
    return replace(model, params=params)


def _projected_op_loss(op_apply, proj64):
    """f(x) = sum(op(x) * proj), evaluated at x's own precision."""

    def f(x: Tensor, tape=None):
        out = op_apply(x, tape)
        flat = ad.flatten(out, tape=tape)
        w = Tensor(proj64.reshape(-1, 1), dtype=x.data.dtype)
        zero = Tensor(np.zeros(1), dtype=x.data.dtype)
        return ad.sum_all(ad.dense(flat, w, zero, tape=tape), tape=tape)

    return f


def _op_grad_errors(op_apply, x64, proj64):
    """(err32, err64): autodiff at each precision vs the float64 oracle."""
    f = _projected_op_loss(op_apply, proj64)
    fd = finite_difference_oracle(
        lambda t: f(t), Tensor(x64, dtype=np.float64), STEP64
    ).data

    errs = []
    for dtype in (np.float32, np.float64):
        tape = Tape()
        x = Tensor(x64, requires_grad=True, dtype=dtype)
        loss = f(x, tape)
        got = ad.backward(tape, loss)[x].astype(np.float64)
        scale = max(np.abs(fd).max(), 1e-12)
        errs.append(np.abs(got - fd).max() / scale)
    return errs


def _layer_op_configs(rng):
    """Yield (family, op_apply, x64, proj64) for 20 seeded configs each."""
    for i in range(20):
        # conv2d
        n, c, o = rng.integers(1, 3), rng.integers(1, 4), rng.integers(1, 5)
        k = rng.integers(1, 4)
        h = rng.integers(k + 1, k + 6)
        w = rng.integers(k + 1, k + 6)
        stride = rng.integers(1, 3)
        wk = rng.normal(size=(o, c, k, k))
        bk = rng.normal(size=o)
        ho = (h - k) // stride + 1
        wo = (w - k) // stride + 1
        x = rng.normal(size=(n, c, h, w))
        proj = rng.normal(size=(o, ho, wo))

        def conv_apply(t, tape, wk=wk, bk=bk, stride=int(stride)):
            wt = Tensor(wk, dtype=t.data.dtype)
            bt = Tensor(bk, dtype=t.data.dtype)
            return ad.conv2d(t, wt, bt, stride=stride, tape=tape)

        yield "conv2d", conv_apply, x, proj

        # maxpool2d, margins kept clear of the finite-difference step
        win = int(rng.integers(2, 4))
        hp = win * int(rng.integers(2, 4))
        for _ in range(100):
            xp = rng.normal(size=(int(rng.integers(1, 3)), int(rng.integers(1, 3)), hp, hp))
            wins = ad._windows(xp, win, win, win).reshape(-1, win * win)
            part = np.partition(wins, -2, axis=1)
            if (part[:, -1] - part[:, -2]).min() > 4 * STEP32:
                break
        po = (hp - win) // win + 1
        pproj = rng.normal(size=(xp.shape[1], po, po))

        def pool_apply(t, tape, win=win):
            return ad.maxpool2d(t, win, tape=tape)

        yield "maxpool2d", pool_apply, xp, pproj

        # dense
        nf, fin, gout = int(rng.integers(1, 5)), int(rng.integers(2, 9)), int(rng.integers(1, 7))
        dw = rng.normal(size=(fin, gout))
        db = rng.normal(size=gout)
        xd = rng.normal(size=(nf, fin))
        dproj = rng.normal(size=(gout,))

        def dense_apply(t, tape, dw=dw, db=db):
            return ad.dense(t, Tensor(dw, dtype=t.data.dtype),
                            Tensor(db, dtype=t.data.dtype), tape=tape)

        yield "dense", dense_apply, xd, dproj

        # srelu at a sweep-set slope, kink-free input
        slope = [0.5, 1.0, 2.0, 5.0, 10.0][i % 5]
        xs = rng.normal(size=(3, 6))
        xs = np.where(np.abs(xs) <= 2 * STEP32, 0.5, xs)
        sproj = rng.normal(size=(6,))

        def srelu_apply(t, tape, slope=slope):
            return ad.srelu(t, slope, tape=tape)

        yield "srelu", srelu_apply, xs, sproj

        # alternative activations, cycled
        kind = ad.ACTIVATION_KINDS[i % len(ad.ACTIVATION_KINDS)]
        xa = rng.normal(size=(2, 8))
        if kind in ("leaky_relu", "elu"):
            xa = np.where(np.abs(xa) <= 2 * STEP32, 0.5, xa)
        aproj = rng.normal(size=(8,))

        def act_apply(t, tape, kind=kind):
            return ad.activation(t, kind, tape=tape)

        yield f"activation[{kind}]", act_apply, xa, aproj


def _ce_grad_errors(rng):
    n, c = int(rng.integers(1, 7)), int(rng.integers(2, 11))
    logits64 = rng.normal(size=(n, c))
    labels = rng.integers(0, c, size=n)
    fd = finite_difference_oracle(
        lambda t: ad.softmax_cross_entropy(t, labels),
        Tensor(logits64, dtype=np.float64), STEP64,
    ).data
    errs = []
    for dtype in (np.float32, np.float64):
        tape = Tape()
        x = Tensor(logits64, requires_grad=True, dtype=dtype)
        loss = ad.softmax_cross_entropy(x, labels, tape=tape)
        got = ad.backward(tape, loss)[x].astype(np.float64)
        scale = max(np.abs(fd).max(), 1e-12)
        errs.append(np.abs(got - fd).max() / scale)
    return errs


def _model_loss_sig(model64, images64, labels):
    """Loss, and the linear region it was computed in: the sign pattern at
    each rectifier's input and the argmax of each pool window.

    The stack runs one layer at a time, each as a one-layer spec through
    the same _forward, so the signature reads every Pool/Act input.
    """
    x = Tensor(images64, dtype=np.float64)
    signature = []
    for layer in model64.spec.layers:
        if isinstance(layer, Pool):
            wins = ad._windows(x.data, layer.window, layer.window, layer.window)
            signature.append(wins.reshape(wins.shape[:4] + (-1,)).argmax(axis=-1))
        elif isinstance(layer, Act):
            signature.append(x.data > 0)
        step = replace(model64.spec, input_shape=x.shape[1:], layers=(layer,))
        x = _forward(replace(model64, spec=step), x)
    loss = ad.softmax_cross_entropy(x, labels).item()
    return loss, signature


def _sig_equal(a, b):
    return all(np.array_equal(x, y) for x, y in zip(a, b))


def _full_cnn_errors(rng):
    """Spot-check input and parameter gradients of the whole network.

    Finite differences run on a float64 twin; probes whose +-step evaluations
    land in different piecewise-linear regions (rectifier sign or pool argmax
    changes) are kink-adjacent and excluded.
    """
    model32 = build_model("mnist_cnn", seed=SEED)
    model64 = _f64_twin(model32)
    images = rng.uniform(0.0, 1.0, size=(8, 1, 28, 28))
    labels = rng.integers(0, 10, size=8)
    images32 = images.astype(np.float32)

    # parameters take gradients only in train mode; at slope 1 with the
    # plain rectifier it is the same function as the eval forward
    assert (model32.slope, model32.activation) == (1.0, "srelu")
    grads = {}
    for dtype, model in ((np.float32, model32), (np.float64, model64)):
        tape = Tape()
        x = Tensor(images, requires_grad=True, dtype=dtype)
        logits = _forward(model, x, mode="train", tape=tape)
        loss = ad.softmax_cross_entropy(logits, labels, tape=tape)
        by_tensor = ad.backward(tape, loss)
        grads[dtype] = {
            "input": by_tensor[x].astype(np.float64),
            **{name: by_tensor[p].astype(np.float64)
               for name, p in model.params.items()},
        }

    errors = {np.float32: [], np.float64: []}

    def compare(name, coord_flat, fd_value, scale):
        for dtype in (np.float32, np.float64):
            got = grads[dtype][name].reshape(-1)[coord_flat]
            errors[dtype].append(abs(got - fd_value) / scale)

    # input coordinates: perturbing one pixel touches only its own image,
    # so the probe runs a single-image forward and rescales by the batch mean
    h = STEP64
    n_images = len(images)
    input_grad_scale = max(np.abs(grads[np.float64]["input"]).max(), 1e-12)
    coords = rng.choice(images.size, size=400, replace=False)
    for coord in coords:
        img_idx = coord // (28 * 28)
        single = images[img_idx : img_idx + 1].copy()
        single_flat = single.reshape(-1)
        offset = coord % (28 * 28)
        lbl = labels[img_idx : img_idx + 1]

        single_flat[offset] += h
        up, sig_up = _model_loss_sig(model64, single, lbl)
        single_flat[offset] -= 2 * h
        down, sig_down = _model_loss_sig(model64, single, lbl)
        if not _sig_equal(sig_up, sig_down):
            continue  # kink-adjacent
        fd = (up - down) / (2 * h) / n_images
        compare("input", coord, fd, input_grad_scale)

    # parameter coordinates: full-batch probes, 40 per tensor
    for name, p64 in model64.params.items():
        flat = p64.data.reshape(-1)
        scale = max(np.abs(grads[np.float64][name]).max(), 1e-12)
        n_probe = min(40, flat.size)
        for coord in rng.choice(flat.size, size=n_probe, replace=False):
            orig = flat[coord]
            flat[coord] = orig + h
            up, sig_up = _model_loss_sig(model64, images, labels)
            flat[coord] = orig - h
            down, sig_down = _model_loss_sig(model64, images, labels)
            flat[coord] = orig
            if not _sig_equal(sig_up, sig_down):
                continue
            fd = (up - down) / (2 * h)
            compare(name, coord, fd, scale)

    checked = len(errors[np.float32])
    assert checked > 500, f"too many probes excluded ({checked} checked)"
    return max(errors[np.float32]), max(errors[np.float64]), checked


def test_criterion_1_gradient_oracle():
    rng = np.random.default_rng(SEED)
    worst = {}
    for family, op_apply, x64, proj64 in _layer_op_configs(rng):
        e32, e64 = _op_grad_errors(op_apply, x64, proj64)
        prev = worst.get(family, (0.0, 0.0))
        worst[family] = (max(prev[0], e32), max(prev[1], e64))
    for _ in range(20):
        e32, e64 = _ce_grad_errors(rng)
        prev = worst.get("softmax_ce", (0.0, 0.0))
        worst["softmax_ce"] = (max(prev[0], e32), max(prev[1], e64))

    cnn32, cnn64, checked = _full_cnn_errors(rng)
    worst["mnist_cnn_loss"] = (cnn32, cnn64)

    bad = {k: v for k, v in worst.items() if v[0] >= TOL32 or v[1] >= TOL64}
    peak32 = max(v[0] for v in worst.values())
    peak64 = max(v[1] for v in worst.values())
    _report(1, "gradient-oracle", not bad,
            f"(max rel err {peak32:.2e} @32-bit, {peak64:.2e} @64-bit, "
            f"{checked} full-CNN probes){' offenders: ' + str(bad) if bad else ''}")


# ---------------------------------------------------------------------------
# criteria 2-5, 8-9: full-data MNIST / CIFAR protocols


def test_criterion_2_mnist_clean_accuracy(mnist_model, mnist_data):
    _, test = mnist_data
    acc = ex.eval_clean(mnist_model.with_slope(1.0), test)
    _report(2, "mnist-clean-accuracy", acc >= 0.97, f"(acc={acc:.4f})")


def test_criterion_3_cifar_clean_accuracy():
    train_paths, test_path = cifar_paths_or_skip()
    train = load_cifar10_bin(train_paths, name="cifar10_train")
    test = load_cifar10_bin([test_path], name="cifar10")
    # 10K-image training subset with the documented relaxed band [0.45, 0.65]
    subset = take_first(train, min(10000, train.n))
    model = build_model("cifar10_cnn1", seed=SEED)
    ex.train(model, subset, epochs=30, seed=SEED)
    acc = ex.eval_clean(model.with_slope(1.0), test)
    _report(3, "cifar-clean-accuracy", 0.45 <= acc <= 0.65,
            f"(acc={acc:.4f}, 10K-subset band [0.45, 0.65])")


def test_criterion_4_defense_headline(mnist_attack_report):
    rows = mnist_attack_report.records
    headline_ok = True
    details = []
    for r in rows:
        if r.attack == "fgsm" and r.test_slope in (10.0, 100.0):
            if r.adv_acc < r.clean_acc - 0.02:
                headline_ok = False
                details.append(f"fgsm a={r.test_slope:g} eps={r.epsilon:g} "
                               f"adv={r.adv_acc:.3f} clean={r.clean_acc:.3f}")
    recoveries = {}
    for s in mnist_attack_report.summaries:
        if s.test_slope == 100.0:
            recoveries[s.attack] = s.recovery
    recovery_ok = all(recoveries.get(a, -1.0) > 0.20
                      for a in ("fgsm", "bim", "rfgsm", "pgd"))
    _report(4, "defense-headline", headline_ok and recovery_ok,
            f"(recoveries={ {k: round(v, 3) for k, v in recoveries.items()} }"
            f"{'; ' + '; '.join(details) if details else ''})")


def test_criterion_5_attack_sanity(mnist_attack_report):
    rows = [r for r in mnist_attack_report.records if r.test_slope == 1.0]
    fgsm_by_eps = {r.epsilon: r.adv_acc for r in rows if r.attack == "fgsm"}
    pgd_by_eps = {r.epsilon: r.adv_acc for r in rows if r.attack == "pgd"}
    eps_sorted = sorted(fgsm_by_eps)
    monotone = all(
        fgsm_by_eps[b] <= fgsm_by_eps[a] + 0.01
        for a, b in zip(eps_sorted, eps_sorted[1:])
    )
    pgd_strong = all(pgd_by_eps[e] <= fgsm_by_eps[e] + 0.02 for e in eps_sorted)
    _report(5, "attack-sanity", monotone and pgd_strong,
            f"(fgsm={[round(fgsm_by_eps[e], 3) for e in eps_sorted]}, "
            f"pgd={[round(pgd_by_eps[e], 3) for e in eps_sorted]})")


def test_criterion_8_targeted_defense(mnist_model, mnist_data):
    _, test = mnist_data
    grid = dict(slopes=(1.0, 10.0), epsilons=MNIST_EPSILONS)
    report = ex.targeted_sweep(mnist_model, take_first(test, 2000), **grid, seed=SEED)
    means = {s.test_slope: s.mean for s in report.summaries
             if s.metric == "attack_success"}
    _report(8, "targeted-defense", means[10.0] <= means[1.0],
            f"(mean success a=1: {means[1.0]:.3f}, a=10: {means[10.0]:.3f})")


def test_criterion_9_bpda_ordering(mnist_model, mnist_data, mnist_attack_report):
    train, test = mnist_data
    substitute = ex.bpda_train_substitute(mnist_model, train, epochs=5, seed=SEED)
    subset = take_first(test, 2000)
    transfer = ex.bpda_transfer_eval(mnist_model, substitute, subset,
                                     slopes=(100.0,), epsilons=(0.0, 0.3),
                                     seed=SEED)
    by_eps = {r.epsilon: r for r in transfer.records}
    clean_100 = by_eps[0.0].clean_acc
    transfer_acc = by_eps[0.3].adv_acc
    direct = {
        (r.attack, r.test_slope, r.epsilon): r.adv_acc
        for r in mnist_attack_report.records
    }[("fgsm", 1.0, 0.3)]
    ok = (transfer_acc < clean_100 - 0.10) and (transfer_acc > direct)
    _report(9, "bpda-ordering", ok,
            f"(clean@100={clean_100:.3f}, transfer={transfer_acc:.3f}, "
            f"direct@1={direct:.3f})")


# ---------------------------------------------------------------------------
# criterion 6: exact identities and attack invariants


def test_criterion_6_attack_identities(trained_synth, synth_sets):
    _, test = synth_sets
    images = test.images[:64].copy()
    labels = test.labels[:64].copy()
    model = trained_synth
    problems = []

    def run(kind, images=images, **fields):
        return run_attack(model, images, labels[:len(images)],
                          AttackConfig(kind=kind, **fields))

    eps = 0.2
    base = run("fgsm", epsilon=eps)
    if run("bim", epsilon=eps, steps=1, step_size=eps).images.tobytes() != base.images.tobytes():
        problems.append("bim(1, eps) != fgsm")
    if run("pgd", epsilon=eps, steps=1, step_size=eps,
           random_start=False).images.tobytes() != base.images.tobytes():
        problems.append("pgd(1, eps, no start) != fgsm")

    zero_outputs = {
        "fgsm": run("fgsm", epsilon=0.0).images,
        "fgsm_targeted": run("fgsm", epsilon=0.0, target_class=3).images,
        "bim": run("bim", epsilon=0.0, steps=3).images,
        "rfgsm": run("rfgsm", epsilon=0.0).images,
        "stepll": run("stepll", epsilon=0.0).images,
        "pgd": run("pgd", epsilon=0.0, steps=2).images,
        "gaussian_noise": run("gaussian_noise", epsilon=0.0).images,
        "salt_pepper": run("salt_pepper", epsilon=0.0).images,
    }
    for kind, out in zero_outputs.items():
        if not np.array_equal(out, images):
            problems.append(f"{kind} eps=0 not a no-op")

    constrained = {
        "fgsm": lambda e: run("fgsm", epsilon=e),
        "fgsm_targeted": lambda e: run("fgsm", epsilon=e, target_class=5),
        "bim": lambda e: run("bim", epsilon=e),
        "rfgsm": lambda e: run("rfgsm", epsilon=e, rng_seed=1),
        "stepll": lambda e: run("stepll", epsilon=e),
        "pgd": lambda e: run("pgd", epsilon=e, steps=5, rng_seed=1),
    }
    for kind, attack in constrained.items():
        for e in (0.05, 0.3):
            out = attack(e)
            if out.images.min() < 0.0 or out.images.max() > 1.0:
                problems.append(f"{kind} eps={e} left [0,1]")
            linf = linf_distance(out.images, images).max()
            if linf > e + 4 * F32_EPS:
                problems.append(f"{kind} eps={e} linf={linf:.8f}")
    for out in (run("deepfool", images=images[:8], steps=10),
                run("gaussian_noise", epsilon=0.3, rng_seed=2),
                run("salt_pepper", epsilon=0.3, rng_seed=2)):
        if out.images.min() < 0.0 or out.images.max() > 1.0:
            problems.append("unconstrained attack left [0,1]")

    _report(6, "attack-identities", not problems, f"({problems})" if problems else "")


# ---------------------------------------------------------------------------
# criterion 7: minimal-perturbation oracle on linear models


def test_criterion_7_deepfool_oracle():
    rng = np.random.default_rng(SEED)
    worst = 0.0
    for _ in range(50):
        w = rng.normal(size=(20, 10))
        b = rng.normal(size=10)
        model = LinearSoftmaxModel(w, b)
        x = rng.uniform(0.0, 1.0, size=(1, 1, 4, 5))
        out = run_attack(model, x, None, AttackConfig(kind="deepfool", steps=5))
        expected = linear_min_hyperplane_distance(model, x.reshape(-1))
        worst = max(worst, abs(out.l2[0] - expected) / expected)
    _report(7, "deepfool-oracle", worst < 0.01, f"(worst rel dev {worst:.2e})")


# ---------------------------------------------------------------------------
# criterion 10: CLI determinism


def test_criterion_10_cli_determinism(tmp_path):
    train, test = synthetic_split(400, 120, seed=31)
    train_paths = write_idx_files(train, tmp_path, prefix="train")
    test_paths = write_idx_files(test, tmp_path, prefix="test")

    model_bytes = []
    for name in ("t1", "t2"):
        out = tmp_path / name
        assert cli.main([
            "train", "--arch", "mnist_cnn",
            "--train-images", train_paths[0], "--train-labels", train_paths[1],
            "--epochs", "1", "--seed", "9", "--out", str(out),
        ]) == 0
        model_bytes.append((out / "model.bin").read_bytes())

    params = tmp_path / "t1" / "model.bin"
    sweep_outputs = []
    for name, threads in (("s1", "1"), ("s2", "1"), ("s3", "4")):
        out = tmp_path / name
        assert cli.main([
            "sweep", "--arch", "mnist_cnn",
            "--test-images", test_paths[0], "--test-labels", test_paths[1],
            "--params", str(params),
            "--attacks", "fgsm,rfgsm,pgd", "--slopes", "1,100",
            "--epsilons", "0,0.1,0.3", "--limit", "60",
            "--threads", threads, "--seed", "9", "--out", str(out),
        ]) == 0
        sweep_outputs.append(((out / "report.csv").read_bytes(),
                              (out / "summary.csv").read_bytes(),
                              (out / "manifest.txt").read_bytes()))

    ok = (model_bytes[0] == model_bytes[1]
          and sweep_outputs[0] == sweep_outputs[1] == sweep_outputs[2])
    _report(10, "cli-determinism", ok)


# ---------------------------------------------------------------------------
# criterion 11: parsers


def test_criterion_11_parsers(tmp_path):
    problems = []

    img_blob, lbl_blob = idx_fixture_bytes()
    (tmp_path / "imgs").write_bytes(img_blob)
    (tmp_path / "lbls").write_bytes(lbl_blob)
    ds = load_mnist_idx(tmp_path / "imgs", tmp_path / "lbls")
    back_img, back_lbl = dump_mnist_idx(ds)
    if back_img != img_blob or back_lbl != lbl_blob:
        problems.append("IDX round trip not byte-exact")

    record = bytes([3]) + bytes(range(256)) * 12
    (tmp_path / "batch.bin").write_bytes(record * 2)
    cds = load_cifar10_bin([tmp_path / "batch.bin"])
    if dump_cifar10_bin(cds) != record * 2:
        problems.append("CIFAR round trip not byte-exact")

    (tmp_path / "badmagic").write_bytes(lbl_blob)
    try:
        load_mnist_idx(tmp_path / "badmagic", tmp_path / "lbls")
        problems.append("bad IDX magic accepted")
    except DataFormatError:
        pass

    (tmp_path / "badlen.bin").write_bytes(b"\x00" * 3072)
    try:
        load_cifar10_bin([tmp_path / "badlen.bin"])
        problems.append("bad CIFAR length accepted")
    except DataFormatError:
        pass

    _report(11, "parsers", not problems, f"({problems})" if problems else "")
